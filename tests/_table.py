"""Run one entry of ``mixzone.verify.TABLE`` as a test, with its verdict line.

Each table entry is run by exactly one test, ``run_check("<entry>")``: the
criteria in ``test_acceptance.py``, the module invariants in the unit-test
module of their suite.  Criterion entries print
``[criterion NN] PASS/FAIL - detail``, the others
``[suite: name] PASS/FAIL - detail``; the detail lists each measured value
with its bound.
"""

import re

from mixzone import verify


def _detail(entry, measured) -> str:
    parts = []
    for key, val in measured.items():
        op_limit = entry.bounds.get(key)
        parts.append(f"{key} {val:.3g}" + (f" ({op_limit[0]} {op_limit[1]:g})" if op_limit else ""))
    return ", ".join(parts)


def run_check(name: str) -> None:
    (entry,) = [entry for entry in verify.TABLE if entry.name == name]
    record = entry.run()
    number = re.match(r"criterion_(\d\d)_", entry.name)
    tag = f"criterion {int(number[1]):2d}" if number else f"{entry.suite}: {entry.name}"
    detail = _detail(entry, record["measured"])
    print(f"[{tag}] {'PASS' if record['passed'] else 'FAIL'} - {detail}")
    assert record["passed"], f"{entry.name}: {detail}"
