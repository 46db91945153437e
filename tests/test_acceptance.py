"""The ten acceptance criteria, each run once with its verdict line.

The checks, their inputs and their contract bounds live in
``mixzone.verify.TABLE``; this module only runs the criterion entries and
prints ``[criterion NN] PASS/FAIL - detail``.  The other entries, the
module invariants, run in the unit-test module of their suite.
"""

import re
from pathlib import Path

from _table import run_check

from mixzone import verify

TESTS = Path(__file__).parent


def test_criterion_01_kernel_closed_form_vs_oracle():
    run_check("criterion_01_kernel_closed_form_vs_oracle")


def test_criterion_02_frozen_kernel_transform_vs_dft():
    run_check("criterion_02_frozen_kernel_transform_vs_dft")


def test_criterion_03_damping_exponent_fundamental_theorem():
    run_check("criterion_03_damping_exponent_fundamental_theorem")


def test_criterion_04_symbol_bounds():
    run_check("criterion_04_symbol_bounds")


def test_criterion_05_flat_horizontal_pipeline():
    run_check("criterion_05_flat_horizontal_pipeline")


def test_criterion_06_hull_membership_sweep():
    run_check("criterion_06_hull_membership_sweep")


def test_criterion_07_small_width_kernel_limit():
    run_check("criterion_07_small_width_kernel_limit")


def test_criterion_08_evolution_self_convergence():
    run_check("criterion_08_evolution_self_convergence")


def test_criterion_09_small_time_subsolution():
    run_check("criterion_09_small_time_subsolution")


def test_criterion_10_l1_bounds_and_coercivity():
    run_check("criterion_10_l1_bounds_and_coercivity")


def test_table_structure():
    names = [entry.name for entry in verify.TABLE]
    assert len(names) == len(set(names))
    criteria = [int(m[1]) for m in map(re.compile(r"criterion_(\d\d)_").match, names) if m]
    assert sorted(criteria) == list(range(1, 11))
    # every entry is run by exactly one test
    runs = [n for path in TESTS.glob("test_*.py")
            for n in re.findall(r'run_check\("(\w+)"\)', path.read_text())]
    assert sorted(runs) == sorted(names)
    readme = (TESTS.parent / "README.md").read_text()
    listed = [s.strip() for s in re.search(r"mixzone verify \w+ +# (.*)", readme)[1].split("|")]
    assert listed == verify.available_suites()
    for suite in listed:
        assert any(entry.suite == suite and entry.bounds for entry in verify.TABLE)
