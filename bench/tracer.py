"""In-memory span recorder that wraps mixzone's public functions.

The tracer never edits the package: it replaces module attributes with
timing wrappers.  A function that other modules import by name (for
example ``evolution.kernel_values`` or ``subsolution.kernel_quadrature``)
is wrapped in every namespace that holds it, and each span records the
namespace the call went through (``via``), so calls from the evolution
and from the subsolution report can be told apart.

A span is ``[id, parent, name, via, start_ns, end_ns, attrs]``.  Spans
stay in a list until the process ends; ``layer_metrics`` turns them into
the per-layer figures.  Self time is a span's duration minus the
durations of its child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import time
from collections import defaultdict

MODULES = ("grid", "kernel", "spectral", "evolution", "subsolution", "flatlab", "verify", "cli")


def _kernel_counts(bound, out):
    import numpy as np

    entries = int(np.size(out))
    read = int(np.size(bound["dx"])) + int(np.size(bound["delta_f"]))
    # float64 inputs read once and the output written once; temporaries excluded
    return {"entries": entries, "computed_bytes": 8 * (read + entries)}


def _rhs_counts(bound, out):
    return {"n": int(bound["state"].f.n)}


def _report_counts(bound, out):
    sites = sum(len(row["s_sites"]) for row in out)
    return {"sites": sites, "samples": sites * int(bound["n_lambda"])}


# (defining module, function, optional annotation from bound arguments and result)
TARGETS = (
    ("grid", "spectral_derivative", None),
    ("kernel", "kernel_values", _kernel_counts),
    ("evolution", "integrate", None),
    ("evolution", "rhs_regularized", _rhs_counts),
    ("evolution", "kernel_quadrature", None),
    ("evolution", "nearfield_correction", None),
    ("evolution", "stability_limit", None),
    ("evolution", "sobolev_norm", None),
    ("subsolution", "subsolution_report", _report_counts),
    ("spectral", "energy", None),
    ("spectral", "apply_mtilde_dinv", None),
    ("cli", "parse_config", None),
    ("cli", "initial_data", None),
    ("cli", "run_simulate", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, via: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, via,
               0, 0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list):
        rec[5] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (set-up, workload)."""
        rec = self._open(name, "bench")
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, via: str, annotate=None):
        sig = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, via)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if annotate is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[6] = annotate(bound.arguments, out)
            return out

        return traced

    def install(self):
        """Wrap every target in every mixzone namespace that holds it."""
        mods = {m: importlib.import_module(f"mixzone.{m}") for m in MODULES}
        for home, attr, annotate in TARGETS:
            original = getattr(mods[home], attr)
            for via, mod in mods.items():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, self.wrap(original, f"{home}.{attr}", via, annotate))

    def records(self) -> list[dict]:
        keys = ("id", "parent", "name", "via", "start_ns", "end_ns", "attrs")
        return [dict(zip(keys, rec)) for rec in self.spans]


def layer_metrics(spans: list[dict], counts: dict) -> dict:
    """Per-layer figures of one traced process: seconds, counts and ratios."""
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    names = {s["id"]: s["name"] for s in spans}

    def pick(name, via=None):
        return [s for s in spans if s["name"] == name and (via is None or s["via"] == via)]

    def secs(ss):
        return sum(dur[s["id"]] for s in ss)

    def self_s(ss):
        return sum(dur[s["id"]] - child[s["id"]] for s in ss)

    def attr_sum(ss, key):
        return sum(s["attrs"][key] for s in ss)

    kv = pick("kernel.kernel_values")
    entries = attr_sum(kv, "entries")
    rhs = pick("evolution.rhs_regularized")
    report = pick("subsolution.subsolution_report")
    samples = attr_sum(report, "samples")
    m = {
        "kernel.kernel_values.calls": len(kv),
        "kernel.kernel_values.entries": entries,
        "kernel.kernel_values.s": secs(kv),
        "kernel.kernel_values.ns_per_entry": secs(kv) / entries * 1e9 if entries else 0.0,
        "kernel.kernel_values.computed_bytes": attr_sum(kv, "computed_bytes"),
        "evolution.integrate.s": secs(pick("evolution.integrate")),
        "evolution.integrate.self_s": self_s(pick("evolution.integrate")),
        "evolution.rk4_steps": sum(
            1 for s in rhs if s["parent"] is not None
            and names[s["parent"]] == "evolution.integrate"
        ) // 4,
        "evolution.rhs_regularized.calls": len(rhs),
    }
    for n in (256, 512, 1024, 2048):
        ms = sorted(dur[s["id"]] * 1e3 for s in rhs if s["attrs"]["n"] == n)
        m[f"evolution.rhs_regularized.n{n}.calls"] = len(ms)
        m[f"evolution.rhs_regularized.n{n}.p50_ms"] = statistics.median(ms) if ms else 0.0
        p90 = ms[math.ceil(0.9 * len(ms)) - 1] if ms else 0.0  # nearest rank
        m[f"evolution.rhs_regularized.n{n}.p90_ms"] = p90
    kq = pick("evolution.kernel_quadrature", via="evolution")
    m.update({
        "evolution.kernel_quadrature.calls": len(kq),
        "evolution.kernel_quadrature.self_s": self_s(kq),
        "evolution.nearfield_correction.s": secs(pick("evolution.nearfield_correction")),
        "evolution.stability_limit.s": secs(pick("evolution.stability_limit")),
        "evolution.sobolev_norm.s": secs(pick("evolution.sobolev_norm")),
        "subsolution.subsolution_report.calls": len(report),
        "subsolution.subsolution_report.s": secs(report),
        "subsolution.subsolution_report.self_s": self_s(report),
        "subsolution.sites": attr_sum(report, "sites"),
        "subsolution.samples": samples,
        "subsolution.us_per_sample": secs(report) / samples * 1e6 if samples else 0.0,
        "subsolution.kernel_quadrature.s": secs(
            pick("evolution.kernel_quadrature", via="subsolution")
        ),
        "spectral.energy.calls": len(pick("spectral.energy")),
        "spectral.energy.s": secs(pick("spectral.energy")),
        "spectral.apply_mtilde_dinv.s": secs(pick("spectral.apply_mtilde_dinv")),
        "grid.spectral_derivative.calls": len(pick("grid.spectral_derivative")),
        "grid.spectral_derivative.s": secs(pick("grid.spectral_derivative")),
        "cli.parse_config.s": secs(pick("cli.parse_config")),
        "cli.initial_data.s": secs(pick("cli.initial_data")),
        "cli.run_simulate.self_s": self_s(pick("cli.run_simulate")),
        "cli.bytes_written": counts.get("bytes_written", 0),
        "trace.spans": len(spans),
    })
    return m
