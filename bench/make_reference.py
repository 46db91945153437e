"""Regenerate ``bench/reference.json``, the outputs the correctness gate compares.

Run it only on a commit whose outputs are known good (the references in
the repository were made at the commit that introduced the benchmark):

    python3 bench/make_reference.py [--jobs 2]

It records the ``trace.csv`` rows of ``sim-default`` and of every
``sim-thin-1024`` phase draw, and the final selfconv fields sampled on the
N = 256 nodes.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _entry(task: tuple[str, int]):
    name, seed = task
    from mixzone import cli

    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        state = wl.setup(cli, seed, Path(tmp))
        out = wl.run(state)
        if name == "selfconv":
            return name, None, wl.reference_entry(state, out)
        if out != 0:
            raise RuntimeError(f"{name} seed {seed} exited {out}")
        return name, wl.reference_key(seed), wl.reference_entry(state, out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    tasks = [("selfconv", 0), ("sim-default", 0)]
    tasks += [("sim-thin-1024", s) for s in range(workloads.PHASE_DRAWS)]
    ref = {"selfconv": {}, "sim-default": {}, "sim-thin-1024": {}}
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for name, key, entry in pool.imap_unordered(_entry, tasks):
            if key is None:
                ref[name]["finals"] = entry
            else:
                ref[name][key] = entry
            print(f"reference {name} {key or ''}", file=sys.stderr)
    ref["sim-thin-1024"] = dict(sorted(ref["sim-thin-1024"].items(), key=lambda kv: int(kv[0])))
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
