"""The three benchmark workloads: inputs, one timed run, correctness gate.

Each workload has ``setup(cli, seed, tmp)`` (parse the configurations
and build the initial data, which is what ``setup_s`` times after the
imports), ``run(state)`` (the timed part, what ``wall_s`` times) and
``check(state, out, reference)`` (the gate, untimed), which returns a
list of failure messages and the exact counts of the run.

Reference tolerances are the package's own stated ones: 1e-8 relative
for values that go through the closed-form kernel (kernel vs. oracle)
or the fast weighted energy (fast vs. direct ``mtilde Dinv``), the
hull-slack violation band 1e-5 (absolute) for ``max_gamma`` and
``min_slack``, and the 1e-6 safety margin of ``choose_M`` (relative) for
``m_bound``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SLACK_BAND = 1e-5
REL_KERNEL = 1e-8
REL_M_BOUND = 1e-6
# sim-thin-1024 draws its packet phases from one of this many seeds; each
# has a committed reference trace
PHASE_DRAWS = 32

TRACE_COLUMNS = ("t", "l2_norm", "h4_norm", "energy", "max_gamma", "min_slack", "m_bound")
TRACE_TOLERANCES = (("abs", 1e-12), ("rel", REL_KERNEL), ("rel", REL_KERNEL), ("rel", REL_KERNEL),
                    ("abs", SLACK_BAND), ("abs", SLACK_BAND), ("rel", REL_M_BOUND))


def sim_default_config(seed: int) -> dict:
    return {}


def sim_thin_config(seed: int) -> dict:
    return {
        "grid": {"n": 1024},
        "time": {"dt": 0.0125, "t_start": 1e-4, "t_end": 0.1001, "output_every": 1000},
        "physics": {"kappa": 0.0},
        "initial": {"family": "cosine_packet", "amplitude": 0.1, "width": 4.0, "modes": 4},
        "seed": seed % PHASE_DRAWS,
    }


SELFCONV_LADDER = ((256, 0.05), (256, 0.025), (256, 0.0125),
                   (512, 0.0125), (1024, 0.0125), (2048, 0.0125))
REFERENCE_SAMPLES = 256  # final fields are compared on the N = 256 nodes


class Simulate:
    """``mixzone simulate`` on one configuration, through the CLI entry point."""

    def __init__(self, name: str, config):
        self.name = name
        self.config = config

    def setup(self, cli, seed: int, tmp: Path) -> dict:
        path = tmp / "config.json"
        path.write_text(json.dumps(self.config(seed)))
        cfg = cli.parse_config(path.read_text())
        cli.initial_data(cfg)
        return {"cli": cli, "path": path, "out": tmp / "out", "seed": seed}

    def run(self, state: dict):
        return state["cli"].main(["simulate", str(state["path"]), "--out", str(state["out"])])

    def reference_key(self, seed: int) -> str:
        return str(self.config(seed).get("seed", 0))

    def check(self, state: dict, code, reference: dict) -> tuple[list[str], dict]:
        out = state["out"]
        bad = []
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if code != 0:
            bad.append(f"exit code {code}, expected 0")
        try:
            with open(out / "trace.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            meta = json.loads((out / "meta.json").read_text())
        except (OSError, ValueError) as exc:
            return bad + [f"unreadable output: {exc}"], {"bytes_written": written}
        if tuple(rows[0]) != TRACE_COLUMNS:
            bad.append(f"trace.csv header {rows[0]}")
        values = [[float(v) for v in row] for row in rows[1:]]
        if not all(math.isfinite(v) for row in values for v in row):
            bad.append("non-finite value in trace.csv")
        if meta.get("integration_failed") or meta.get("subsolution_failure_time") is not None:
            bad.append("meta.json records a failure")
        for row in values:
            if not abs(row[4]) < 0.5:
                bad.append(f"max_gamma {row[4]} at t={row[0]} is not < 1/2")
            if not row[5] >= -SLACK_BAND:
                bad.append(f"min_slack {row[5]} at t={row[0]} is below -{SLACK_BAND}")
        ref = reference[self.name][self.reference_key(state["seed"])]
        if len(ref) != len(values):
            bad.append(f"{len(values)} trace rows, reference has {len(ref)}")
        for got, want in zip(values, ref):
            for col, a, b, (kind, tol) in zip(TRACE_COLUMNS, got, want, TRACE_TOLERANCES):
                limit = tol * abs(b) if kind == "rel" else tol
                if not abs(a - b) <= limit:
                    bad.append(f"{col} at t={want[0]}: {a!r} vs reference {b!r}")
        return bad, {"bytes_written": written}

    def reference_entry(self, state: dict, code) -> list:
        with open(state["out"] / "trace.csv", newline="") as fh:
            return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


class SelfConvergence:
    """Acceptance criterion 08: the dt and h ladder through ``evolution.integrate``."""

    name = "selfconv"

    def setup(self, cli, seed: int, tmp: Path) -> dict:
        from mixzone import evolution

        runs = []
        for n, dt in SELFCONV_LADDER:
            doc = {"grid": {"n": n}, "time": {"dt": dt, "output_every": 10**6}}
            cfg = cli.parse_config(json.dumps(doc))
            runs.append((cfg, cli.initial_data(cfg)))
        return {"evolution": evolution, "runs": runs}

    def run(self, state: dict) -> dict:
        import time

        evolution = state["evolution"]
        finals, seconds, failed = [], [], []
        for cfg, f0 in state["runs"]:
            start = time.perf_counter()
            traj = evolution.integrate(
                f0, c=cfg.c, delta=cfg.delta, kappa=cfg.kappa, dt=cfg.dt,
                t_end=cfg.t_end, output_every=cfg.output_every,
                t_start=cfg.t_start, trunc_radius=cfg.trunc_radius,
            )
            seconds.append(time.perf_counter() - start)
            finals.append(traj.snapshots[-1].f.values)
            failed.append(traj.failed)
        f_dt = finals[:3]
        e1 = np.max(np.abs(f_dt[0] - f_dt[1]))
        e2 = np.max(np.abs(f_dt[1] - f_dt[2]))
        f512, f1024, ref = finals[3:]
        eh1 = np.max(np.abs(f512 - ref[::4]))
        eh2 = np.max(np.abs(f1024 - ref[::2]))
        return {
            "finals": finals,
            "failed": failed,
            "dt_order": float(np.log2(e1 / e2)),
            "h_order": float(np.log2(eh1 / eh2)),
            "t1024": seconds[4],
        }

    def check(self, state: dict, out: dict, reference: dict) -> tuple[list[str], dict]:
        bad = []
        if any(out["failed"]):
            bad.append(f"integration failed on ladder runs {out['failed']}")
        if not all(np.all(np.isfinite(f)) for f in out["finals"]):
            bad.append("non-finite final state")
        if not out["dt_order"] >= 3.5:
            bad.append(f"dt order {out['dt_order']:.3f} < 3.5")
        if not out["h_order"] >= 2.0:
            bad.append(f"h order {out['h_order']:.3f} < 2.0")
        if not out["t1024"] < 120.0:
            bad.append(f"N=1024 run took {out['t1024']:.1f} s (>= 120 s)")
        for (n, dt), got, want in zip(SELFCONV_LADDER, self.reference_entry(state, out),
                                      reference[self.name]["finals"]):
            want = np.asarray(want)
            err = float(np.max(np.abs(np.asarray(got) - want)))
            if not err <= REL_KERNEL * float(np.max(np.abs(want))):
                bad.append(f"final field N={n} dt={dt} differs from reference by {err:.3e}")
        return bad, {"dt_order": out["dt_order"], "h_order": out["h_order"],
                     "t1024_s": out["t1024"]}

    def reference_entry(self, state: dict, out: dict) -> list:
        return [f[:: f.size // REFERENCE_SAMPLES].tolist() for f in out["finals"]]


WORKLOADS = {
    "sim-default": Simulate("sim-default", sim_default_config),
    "selfconv": SelfConvergence(),
    "sim-thin-1024": Simulate("sim-thin-1024", sim_thin_config),
}
