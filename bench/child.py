"""One benchmark process: set up, run one workload once, check the outputs.

``run.py`` starts this script in a fresh interpreter for every sample, so
``setup_s`` covers interpreter start, ``import mixzone``, ``parse_config``
and ``initial_data``.  The script writes one JSON result file and exits 0
whenever it got that far; the gate verdict is inside the file.

Modes: ``setup`` stops after set-up (set-up probes and the warm-up);
``workload`` also runs and checks the workload.  With ``--trace 1`` the
package's public functions are wrapped (see ``tracer.py``) before set-up
and the spans go into the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "workload"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import mixzone
    from mixzone import cli

    if Path(mixzone.__file__).resolve().parent != ROOT / "src" / "mixzone":
        raise SystemExit(f"imported mixzone from {mixzone.__file__}, not from this checkout")

    import workloads

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    workload = workloads.WORKLOADS[args.workload]
    with span("setup"):
        state = workload.setup(cli, args.seed, args.tmp)
    result = {"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if args.mode == "workload":
        start = time.perf_counter()
        with span("workload"):
            out = workload.run(state)
        result["wall_s"] = time.perf_counter() - start
        reference = json.loads((BENCH / "reference.json").read_text())
        result["failures"], result["counts"] = workload.check(state, out, reference)
        if tracer:
            result["spans"] = tracer.records()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
