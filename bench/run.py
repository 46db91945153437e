#!/usr/bin/env python3
"""mixzone benchmark: one workload, fresh processes, gated outputs, one JSON line.

    python3 bench/run.py --workload sim-default --seed 1 --seconds 30 --trace 0

Run from the repository root (any checkout that holds ``src/mixzone``).
Every sample is a fresh interpreter running ``bench/child.py``: one
untimed warm-up, then (untraced runs only) set-up probes, then workload
processes, one at a time, until the next one would end after
``--seconds``.  ``--trace 0`` reports the end-to-end metrics (medians
over the samples), ``--trace 1`` alternates untraced and traced
processes and reports the per-layer metrics of the traced ones plus the
tracing overhead.  The last line of standard output is the result
object; earlier lines record the environment and the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics  # noqa: E402

WORKLOADS = ("sim-default", "selfconv", "sim-thin-1024")
SETUP_PROBES = 2
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the child's set-up end compares with it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_entry"):
        return "ns"
    if name.endswith("us_per_sample"):
        return "us"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MIX_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment() -> dict:
    # os.sysconf lacks the cache names; getconf asks the C library
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout.split("\n")
    except (OSError, subprocess.SubprocessError):
        conf = []
    caches = {}
    for line in conf:
        key, *val = line.split() or [""]
        if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            caches[key.lower() + "_bytes"] = int(val[0]) if val else None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **caches,
        "thread_vars": {var: "1" for var in THREAD_VARS},
        "MIX_THREADS": "unset (program default: 1 worker)",
    }


def spawn(mode: str, args, traced: bool, tmp_root: Path, deadline: float) -> dict:
    """Run one child process to completion and return its record."""
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    result = tmp / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--tmp", str(tmp), "--result", str(result)]
    start = _now()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        rec = {"error": "timed out"}
    else:
        if proc.returncode != 0 or not result.is_file():
            rec = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        else:
            rec = json.loads(result.read_text())
    rec["process_s"] = _now() - start
    rec["traced"] = traced
    if "setup_end" in rec:
        rec["setup_s"] = rec.pop("setup_end") - start
    shutil.rmtree(tmp, ignore_errors=True)
    return rec


def measure(args, tmp_root: Path) -> tuple[list[dict], list[dict]]:
    start = _now()
    hard = start + HARD_LIMIT_S
    # untimed: fills the page cache and the bytecode cache of this checkout
    spawn("setup", args, False, tmp_root, hard)
    probes = [] if args.trace else [
        spawn("setup", args, False, tmp_root, hard) for _ in range(SETUP_PROBES)
    ]
    runs = []
    while True:
        runs.append(spawn("workload", args, bool(args.trace) and len(runs) % 2 == 1,
                          tmp_root, hard))
        longest = max(r["process_s"] for r in runs)
        if args.trace and len(runs) < 2:
            continue
        if _now() + longest > min(start + args.seconds, hard):
            return probes, runs


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records if key in r)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "mixzone" / "cli.py").is_file():
        print(f"no mixzone sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    try:
        probes, runs = measure(args, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    failed = [r for r in runs if r.get("error") or r.get("failures")]
    for r in failed:
        print(f"gate failure: {r.get('error') or r['failures']}", file=sys.stderr)
    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    traced = [r for r in runs if r["traced"] and "spans" in r]
    print("env " + json.dumps(environment(), sort_keys=True))
    for r in probes + runs:
        keep = ("traced", "setup_s", "wall_s", "process_s", "peak_rss_kb", "counts", "error")
        print("sample " + json.dumps({k: r[k] for k in keep if k in r}, sort_keys=True))

    if args.trace:
        if not (plain and traced):
            print("no complete traced and untraced sample", file=sys.stderr)
            return 1
        per = [layer_metrics(r["spans"], r["counts"]) for r in traced]
        values = {k: statistics.median(p[k] for p in per) for k in per[0]}
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    else:
        if not plain:
            print("no complete workload sample", file=sys.stderr)
            return 1
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": median_of(probes + plain, "setup_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_kb") / 1024.0,
        }
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
