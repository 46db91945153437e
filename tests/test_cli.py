import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import clear_memos

from mixzone import cli, evolution, spectral, subsolution, verify
from mixzone.cli import ConfigError, RunConfig, parse_config


def test_parse_minimal_document_applies_defaults():
    cfg = parse_config("{}")
    assert cfg.n == 256 and cfg.length == 40.0
    assert cfg.delta == pytest.approx(4 * 40.0 / 256)
    assert cfg.family == "gaussian_bump"


def test_parse_rejects_unknown_key_with_path():
    with pytest.raises(ConfigError, match="grid.m"):
        parse_config('{"grid": {"m": 12}}')
    with pytest.raises(ConfigError, match="turbo"):
        parse_config('{"turbo": true}')


def test_parse_rejects_bad_grid_size():
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config('{"grid": {"n": 100}}')


def test_parse_rejects_growth_rate_outside_bound():
    with pytest.raises(ConfigError, match=r"\(0, 2\)"):
        parse_config('{"physics": {"c": 2.5}}')


def test_parse_rejects_zero_kappa_from_zero_time():
    with pytest.raises(ConfigError, match="t_start"):
        parse_config('{"physics": {"kappa": 0.0}}')


def test_parse_rejects_bad_family_and_missing_path():
    with pytest.raises(ConfigError, match="family"):
        parse_config('{"initial": {"family": "sawtooth"}}')
    with pytest.raises(ConfigError, match="path"):
        parse_config('{"initial": {"family": "file"}}')


@pytest.mark.parametrize(
    "doc, key",
    [
        ('{"grid": {"length": null}}', "grid.length"),
        ('{"grid": {"length": [1]}}', "grid.length"),
        ('{"physics": {"kappa": "0.001"}}', "physics.kappa"),
        ('{"physics": {"c": true}}', "physics.c"),
        ('{"physics": {"delta": {}}}', "physics.delta"),
        ('{"time": {"dt": NaN}}', "time.dt"),
        ('{"time": {"dt": 5e-324}}', "time.dt"),
        ('{"time": {"t_end": Infinity}}', "time.t_end"),
        ('{"quadrature": {"trunc_radius": -Infinity}}', "quadrature.trunc_radius"),
        ('{"initial": {"amplitude": 1e999}}', "initial.amplitude"),
        ('{"time": {"output_every": true}}', "time.output_every"),
        ('{"time": {"output_every": 2.0}}', "time.output_every"),
        ('{"grid": {"n": false}}', "grid.n"),
        ('{"grid": {"n": 64.0}}', "grid.n"),
        ('{"initial": {"modes": -1}}', "initial.modes"),
        ('{"initial": {"path": 5}}', "initial.path"),
        ('{"seed": null}', "seed"),
        ('{"seed": -1}', "seed"),
        ('{"grid": {"n": 64}, "initial": {"family": "cosine_packet", "modes": 33}}',
         "initial.modes"),
        # subnormal initial kernel widths, c t_start + kappa below the normal floor
        ('{"grid": {"n": 64}, "physics": {"kappa": 0.0}, "time": {"dt": 0.0125, '
         '"t_start": 1e-320, "t_end": 0.0125000000000001}}', "time.t_start"),
        ('{"grid": {"n": 64}, "physics": {"kappa": 1e-320}, "time": {"dt": 0.0125, '
         '"t_end": 0.0125}}', "physics.kappa"),
    ],
)
def test_parse_rejects_malformed_value_with_path(doc, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(doc)


def test_packet_modes_bounded_by_the_grid_only():
    # up to the Nyquist frequency, and only the packet uses modes
    packet = '{"grid": {"n": 64}, "initial": {"family": "cosine_packet", "modes": %d}}'
    assert parse_config(packet % 32).modes == 32
    assert parse_config('{"grid": {"n": 64}, "initial": {"modes": 33}}').modes == 33


def test_packet_phases_are_numpy_uniform_draws():
    # bit for bit numpy's default_rng(seed).uniform(0, 2 pi, size): seeds of
    # one 32-bit word (all 32 benchmark draws among them), of two, of three
    # and of more words than the pool of four
    for seed in [*range(64), 2**32 - 1, 2**32, 2**64 + 3, 10**22, 3**200]:
        for size in range(10):
            want = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size)
            assert np.array(cli._packet_phases(seed, size)).tobytes() == want.tobytes()


def test_snapshot_text_formats_as_numpy_scalars():
    xs = np.array([-0.0, 5e-324, -1.7976931348623157e308, 0.1, 1e-310])
    values = np.array([1.7976931348623157e308, -0.0, 5e-324, 1.0 / 3.0, -2.5e15])
    want = "x,f\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(xs, values))
    assert cli._snapshot_text(xs, values) == want


def _config_documents(st):
    """JSON documents over the real key tree, values from every JSON type."""
    scalars = (
        st.none() | st.booleans() | st.text(max_size=4)
        | st.integers() | st.just(10**400) | st.floats()
    )
    junk = st.recursive(
        scalars,
        lambda inner: (
            st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
        ),
        max_leaves=6,
    )
    plausible = st.sampled_from(
        [0, 1, 3, 64, 256, 2**40, 1e-3, 0.0125, 0.1, 1.0, 10.0, 40.0, -1.0]
        + list(cli._FAMILIES)
    )
    value = plausible | junk
    tree = {
        key: st.fixed_dictionaries({}, optional={k: value for k in default})
        if isinstance(default, dict) else value
        for key, default in cli._DEFAULTS.items()
    }
    return st.fixed_dictionaries({}, optional=tree)


def test_parse_config_fuzz_raises_only_config_error():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @hypothesis.given(_config_documents(hypothesis.strategies))
    def check(doc):
        try:
            cfg = parse_config(json.dumps(doc))
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    check()


def _run(argv):
    return cli.main(argv)


def _zero_config(tmp_path, **extra):
    doc = {
        "grid": {"n": 64, "length": 40.0},
        "time": {"dt": 0.0125, "t_end": 0.05, "output_every": 2},
        "physics": {"c": 0.5, "kappa": 1e-3},
        "quadrature": {"trunc_radius": 5.0},
        "initial": {"family": "zero"},
    }
    for key, val in extra.items():
        doc.setdefault(key, {}).update(val)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_zero_data(tmp_path):
    cfgpath = _zero_config(tmp_path)
    out = tmp_path / "run"
    assert _run(["simulate", str(cfgpath), "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    header = trace[0].split(",")
    assert header == ["t", "l2_norm", "h4_norm", "energy", "max_gamma", "min_slack", "m_bound"]
    for line in trace[1:]:
        vals = dict(zip(header, map(float, line.split(","))))
        assert vals["l2_norm"] == 0.0 and vals["h4_norm"] == 0.0 and vals["energy"] == 0.0
        assert vals["max_gamma"] == pytest.approx(abs(1 - 0.5) / 2, abs=1e-10)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["subsolution_failure_time"] is None
    assert not meta["integration_failed"]
    assert meta["integration_failure_step"] is None and meta["integration_failure_stage"] is None


def test_simulate_deterministic_rerun(tmp_path):
    cfgpath = _zero_config(tmp_path, initial={"family": "gaussian_bump", "amplitude": 0.05})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", str(cfgpath), "--out", str(out1)]) == 0
    assert _run(["simulate", str(cfgpath), "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    snaps1 = sorted(p.name for p in (out1 / "snapshots").iterdir())
    snaps2 = sorted(p.name for p in (out2 / "snapshots").iterdir())
    assert snaps1 == snaps2
    for name in snaps1:
        assert (out1 / "snapshots" / name).read_bytes() == (out2 / "snapshots" / name).read_bytes()


def test_snapshot_roundtrip_full_precision(tmp_path):
    cfgpath = _zero_config(tmp_path, initial={"family": "gaussian_bump", "amplitude": 0.05})
    out = tmp_path / "run"
    _run(["simulate", str(cfgpath), "--out", str(out)])
    cfg = parse_config(cfgpath.read_text())
    fin = cli.initial_data(cfg)
    # the t = 0 snapshot is the initial data; 17 significant digits make the
    # text round-trip bit-exact for doubles
    data = np.loadtxt(out / "snapshots" / "f_000000.csv", delimiter=",", skiprows=1)
    assert data.shape == (cfg.n, 2)
    assert np.array_equal(data[:, 0], fin.x)
    assert np.array_equal(data[:, 1], fin.values)


def test_snapshots_below_microsecond_spacing_keep_one_file_per_step(tmp_path):
    # output times 2.5e-7 apart share their first six decimals; step indices do not
    cfgpath = _zero_config(tmp_path, time={"dt": 2.5e-7, "t_end": 1e-6, "output_every": 1},
                           initial={"family": "gaussian_bump", "amplitude": 0.05})
    out = tmp_path / "run"
    assert _run(["simulate", str(cfgpath), "--out", str(out)]) == 0
    names = sorted(p.name for p in (out / "snapshots").iterdir())
    assert names == [f"f_00000{k}.csv" for k in range(5)]
    assert len((out / "trace.csv").read_text().splitlines()) == 6


def test_simulate_resume_continues_identically(tmp_path):
    base = {
        "grid": {"n": 64, "length": 40.0},
        "time": {"dt": 0.0125, "t_end": 0.05, "output_every": 2},
        "physics": {"c": 1.0, "kappa": 1e-3},
        "quadrature": {"trunc_radius": 5.0},
        "initial": {"family": "gaussian_bump", "amplitude": 0.05},
    }
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(base))
    out_a = tmp_path / "outa"
    assert _run(["simulate", str(cfg_a), "--out", str(out_a)]) == 0

    mid = out_a / "snapshots" / "f_000002.csv"
    assert mid.exists()
    resumed = dict(base)
    resumed["time"] = {"dt": 0.0125, "t_end": 0.05, "t_start": 0.025, "output_every": 2}
    resumed["initial"] = {"family": "file", "path": str(mid)}
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(resumed))
    out_b = tmp_path / "outb"
    assert _run(["simulate", str(cfg_b), "--out", str(out_b)]) == 0

    # step 4 of the first run is step 2 of the resumed one, both at t = 0.05
    fa = np.loadtxt(out_a / "snapshots" / "f_000004.csv", delimiter=",", skiprows=1)
    fb = np.loadtxt(out_b / "snapshots" / "f_000002.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(fa[:, 1] - fb[:, 1])) <= 1e-14


def test_simulate_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"grid": {"n": 100}}')
    assert _run(["simulate", str(path)]) == 2
    missing = tmp_path / "missing.json"
    assert _run(["simulate", str(missing)]) == 2
    path.write_text('{"grid": {"length": null}}')  # a configuration error, not a crash
    assert _run(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize(
    "table",
    [None, "x,f\n", "x\n" + "0.0\n" * 64, "x,f\n" + "0.0,0.0\n" * 32, "x,f\n0.0,abc\n"],
    ids=["missing", "header_only", "one_column", "short", "not_numeric"],
)
def test_simulate_bad_initial_path_exit_code(tmp_path, capsys, table):
    snapshot = tmp_path / "f.csv"
    if table is not None:
        snapshot.write_text(table)
    cfgpath = _zero_config(tmp_path, initial={"family": "file", "path": str(snapshot)})
    assert _run(["simulate", str(cfgpath), "--out", str(tmp_path / "run")]) == 2
    assert "configuration error: initial.path" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_simulate_flags_subsolution_failure(tmp_path, monkeypatch):
    # exit code 1 with the failure time in the metadata when a condition
    # breaks mid-run; the trajectory is still written in full
    from mixzone import cli as cli_mod

    def failing_report(snapshots, **kwargs):
        return [
            {
                "t": s.t,
                "max_gamma": 0.7,
                "min_slack": -1.0,
                "m_bound": 9.0,
                "zero_mean_residual": 0.0,
                "ok": False,
                "s_sites": [],
            }
            for s in snapshots
        ]

    monkeypatch.setattr(cli_mod.subsolution, "subsolution_report", failing_report)
    cfgpath = _zero_config(tmp_path, initial={"family": "gaussian_bump", "amplitude": 0.05})
    out = tmp_path / "failrun"
    assert _run(["simulate", str(cfgpath), "--out", str(out)]) == 1
    meta = json.loads((out / "meta.json").read_text())
    assert meta["subsolution_failure_time"] == 0.0
    assert (out / "trace.csv").exists()
    assert list((out / "snapshots").iterdir())


def test_simulate_records_integration_failure_step_and_stage(tmp_path, monkeypatch):
    from mixzone import evolution
    from mixzone.grid import NonFiniteError

    real = evolution.rhs_regularized
    calls = []

    def rhs(state):
        calls.append(state.t)
        if len(calls) == 1 + 3 + 2:  # the probe (step 1 stage 1), step 1, then step 2 stage 2
            raise NonFiniteError("non-finite kernel value at site 3")
        return real(state)

    monkeypatch.setattr(evolution, "rhs_regularized", rhs)
    cfgpath = _zero_config(tmp_path, initial={"family": "gaussian_bump", "amplitude": 0.05})
    out = tmp_path / "failrun"
    assert _run(["simulate", str(cfgpath), "--out", str(out)]) == 1
    meta = json.loads((out / "meta.json").read_text())
    assert meta["integration_failed"]
    assert meta["integration_failure"] == "non-finite state: non-finite kernel value at site 3"
    assert (meta["integration_failure_step"], meta["integration_failure_stage"]) == (2, 2)


def _at_bound(op, limit):
    """A measured value that meets ``op limit`` with nothing to spare."""
    if op in ("<=", ">=", "=="):
        return limit
    return float(np.nextafter(limit, -np.inf if op == "<" else np.inf))


@pytest.mark.parametrize("suite", verify.available_suites())
def test_verify_suites_pass(suite, capsys, monkeypatch):
    # the report of each suite, with measurements stubbed at their bounds:
    # the numerics themselves run once, in the acceptance module
    stubbed = [
        dataclasses.replace(e, fn=lambda e=e: {k: _at_bound(*b) for k, b in e.bounds.items()})
        for e in verify.TABLE
    ]
    monkeypatch.setattr(verify, "TABLE", stubbed)
    assert cli.run_verify(suite) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["suite"] == suite
    assert [c["name"] for c in report["checks"]] == [e.name for e in stubbed if e.suite == suite]
    assert all(c["passed"] and set(c["measured"]) for c in report["checks"])


def test_verify_failing_check_fails_the_command(capsys, monkeypatch):
    table = [
        verify.Check("holds", "kernel", lambda: {"err": 0.5}, {"err": ("<=", 1.0)}),
        verify.Check("breaks", "kernel", lambda: {"err": 2.0, "n": 3}, {"err": ("<=", 1.0)}),
    ]
    monkeypatch.setattr(verify, "TABLE", table)
    assert cli.run_verify("kernel") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    verdicts = [(c["name"], c["passed"]) for c in report["checks"]]
    assert verdicts == [("holds", True), ("breaks", False)]
    assert report["checks"][1]["measured"] == {"err": 2.0, "n": 3.0}


def test_verify_unknown_suite():
    assert cli.run_verify("nonsense") == 2


def test_kernel_eval_subcommand(capsys):
    assert _run(["kernel-eval", "--dx", "1.0", "--df", "0.3", "--eps", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "closed_form" in out and "muskat_limit" in out


def _fresh_python(args, cwd=None):
    """``python args`` in a fresh interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=300)


def _cli_process(argv):
    """``python -m mixzone.cli argv`` in a fresh interpreter."""
    return _fresh_python(["-m", "mixzone.cli", *argv])


_EVAL_EACH = """
import contextlib, io, json, sys
from mixzone import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(argv), out.getvalue()])
print(json.dumps(runs))
"""


def test_kernel_eval_far_field_prints_no_warnings():
    # one fresh interpreter with warnings as errors, so each point's numpy
    # RuntimeWarnings would end its command with a traceback on stderr; the
    # far field, the strip-edge corner, the lam = lam' spike of the oracle's
    # integrand, a tiny |dx| against a huge |delta_f| (the Muskat value, not
    # 3 times it), widths whose square under- or overflows, and a |dx| at the
    # corner so tiny that the strip integral's products leave the normal range,
    # and a |dx| whose Muskat limit 1 / (pi dx) overflows
    points = (("1", "1e160", "0.1"), ("1e-9", "0.2", "0.1"), ("1e-4", "0", "0.1"),
              ("1e-200", "1e40", "1e-3"), ("1", "0.3", "1e-170"), ("1", "0.3", "1e150"),
              ("1", "0.3", "1e200"), ("1e-200", "0.2", "0.1"), ("1e-170", "0.2", "0.1"),
              ("1e-300", "0.2", "0.1"), ("-1.27e-288", "7.17e-12", "3.58e-12"),
              ("1e-320", "0", "0.1"))
    argvs = [["kernel-eval", f"--dx={dx}", f"--df={df}", f"--eps={eps}"] for dx, df, eps in points]
    proc = _fresh_python(["-W", "error", "-c", _EVAL_EACH, json.dumps(argvs)])
    assert proc.returncode == 0 and proc.stderr == ""
    runs = json.loads(proc.stdout)
    assert len(runs) == len(points)
    for (dx, df, eps), argv, (code, stdout) in zip(points, argvs, runs):
        assert code == 0, argv
        values = [float(line.split("=")[1]) for line in stdout.splitlines()]
        assert len(values) == 3 and all(np.isfinite(values[:2]))
        assert values[1] == pytest.approx(values[0], rel=1e-6, abs=1e-300)
        # the kernels here are subnormal: true relative checks, without
        # pytest's default abs=1e-12 that any value below it would pass
        if df == "1e160":  # the Muskat kernel 1/(pi 1e320) there, to a subnormal's digits
            assert values[0] == values[2] == pytest.approx(1.0 / np.pi / 1e160 / 1e160,
                                                           rel=1e-3, abs=0.0)
        if float(eps) < 1e-100 or float(df) > 1e8 * float(eps):  # the Muskat limit
            assert values[0] == pytest.approx(values[2], rel=1e-13, abs=0.0)
        if dx == "1e-320":  # the r -> 0 limit 1 / (2 eps); the Muskat limit leaves the range
            assert values[0] == 5.0 and values[2] == np.inf
        else:
            assert np.isfinite(values[2])
        if float(eps) > 1e100:  # the r -> 0 limit 1 / (2 eps)
            assert values[0] == pytest.approx(0.5 / float(eps), rel=1e-13)


def test_negative_numbers_with_exponents_parse_as_values():
    # argparse alone reads -1.27e-288 as an option and exits 2 with
    # "expected one argument"
    proc = _cli_process(["kernel-eval", "--dx", "-1.27e-288", "--df", "7.17e-12",
                         "--eps", "3.58e-12"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert float(proc.stdout.splitlines()[0].split("=")[1]) == pytest.approx(
        -4.6387296322072604e-266, rel=1e-15, abs=0.0)
    proc = _cli_process(["flat-demo", "--mu2", "-1e-3"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("gamma = -2.49999812518")


def test_kernel_eval_where_r4_underflows(capsys):
    # the r -> 0 limit 1/(2 eps), with no floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["kernel-eval", "--dx", "1e-80", "--df", "0", "--eps", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "closed_form      = 5"


def test_flat_demo_subcommand(capsys):
    assert _run(["flat-demo", "--mu1", "1.0", "--mu2", "0.0", "--sigma", "-1", "--c", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "admissible c interval: (0.0, 2.0)" in out


def test_simulate_imports_no_scipy(tmp_path):
    # scipy, numpy.polynomial and numpy.random serve the oracles, `verify` and
    # the tests only: importing the CLI and running `simulate` on the defaults
    # and on a seeded packet must not load them, nor the modules of the other
    # commands
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "packet.json").write_text(json.dumps(
        {"grid": {"n": 64}, "time": {"t_end": 0.025}, "seed": 5,
         "initial": {"family": "cosine_packet", "modes": 4}}))
    code = (
        "import sys\n"
        "import mixzone.cli\n"
        "rc = [mixzone.cli.main(['simulate', c, '--out', 'run'])\n"
        "      for c in ('empty.json', 'packet.json')]\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                 or m.split('.')[:2] in (['numpy', 'polynomial'], ['numpy', 'random'])))\n"
        "print(sorted(m for m in ('mixzone.verify', 'mixzone.flatlab') if m in sys.modules))\n"
    )
    proc = _fresh_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[0, 0] []"
    assert proc.stdout.splitlines()[1] == "[]"


def _table_file(path, heights):
    x = -20.0 + 40.0 / 64 * np.arange(64)
    path.write_text("x,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), heights)))


@pytest.mark.parametrize(
    "case, key",
    [("stability", "time.dt"), ("window", "quadrature.trunc_radius"), ("nan_table", "initial.path")],
)
def test_simulate_config_error_exits_2_without_traceback(tmp_path, case, key):
    # each is a configuration error, reported on one line with its key, and
    # nothing is written; in-process with warnings as errors, so a warning or
    # any other exception escapes
    if case == "stability":  # h^2 / (2 kappa) = 0.39 < dt
        extra = {"time": {"dt": 0.5, "t_end": 1.0}, "physics": {"kappa": 0.5},
                 "quadrature": {"trunc_radius": 10.0}}
    elif case == "window":  # 4 / h = 6.4 grid spacings, fewer than the near cell needs
        extra = {"physics": {"c": 0.01}, "quadrature": {"trunc_radius": 4.0}}
    else:
        _table_file(tmp_path / "f.csv", [0.0] * 10 + [float("nan")] + [0.0] * 53)
        extra = {"initial": {"family": "file", "path": str(tmp_path / "f.csv")}}
    cfgpath, err = _zero_config(tmp_path, **extra), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(["simulate", str(cfgpath), "--out", str(tmp_path / "run")])
    assert code == 2 and err.getvalue().startswith(f"configuration error: {key}")
    assert not (tmp_path / "run").exists()


def test_simulate_overflowing_initial_velocity_is_an_integration_failure(tmp_path):
    # +-1e308 heights are finite, but their velocity is not: the stability
    # probe fails before the first step, which is recorded as step 0; the
    # overflows on the way (transforms, height differences) print nothing
    _table_file(tmp_path / "f.csv", [1e308, -1e308] * 32)
    cfgpath = _zero_config(tmp_path, initial={"family": "file", "path": str(tmp_path / "f.csv")})
    assert _simulate_in(tmp_path, json.loads(cfgpath.read_text())) == 1
    out = tmp_path / "run"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["integration_failed"] is True and meta["snapshots"] == 0
    assert (meta["integration_failure_step"], meta["integration_failure_stage"]) == (0, None)
    assert meta["integration_failure"].startswith("non-finite state")
    assert (out / "trace.csv").read_text().splitlines() == [
        "t,l2_norm,h4_norm,energy,max_gamma,min_slack,m_bound"]


def test_simulate_overflowing_transform_fails_silently_at_step_0(tmp_path):
    # 1e307 heights with a bump: every height difference is finite, but the
    # transform's zero mode overflows, so the slopes are not finite; the
    # quadrature names the first such site
    x = -20.0 + 40.0 / 64 * np.arange(64)
    _table_file(tmp_path / "f.csv", (1e307 + 1e306 * np.exp(-(x**2))).tolist())
    cfgpath = _zero_config(tmp_path, initial={"family": "file", "path": str(tmp_path / "f.csv")})
    assert _simulate_in(tmp_path, json.loads(cfgpath.read_text())) == 1
    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert (meta["integration_failure_step"], meta["snapshots"]) == (0, 0)
    assert meta["integration_failure"] == "non-finite state: non-finite slope at site 0"


def _no_constant(name):
    raise ValueError(f"meta.json holds {name}, which is not JSON")


def test_simulate_overflowing_norms_write_finite_metadata(tmp_path):
    # finite heights of 2.7e137 on a 5e-4 bump: the squares of the diagnostic
    # norms overflow, but the norms do not (final_dinv_d5 is about 1.9e153), so
    # nothing is printed and meta.json holds no Infinity
    doc = {"grid": {"n": 128, "length": 0.1},
           "time": {"dt": 1e-4, "t_start": 1e-124, "t_end": 4.000000000000001e-4,
                    "output_every": 3},
           "physics": {"c": 0.017, "kappa": 4e-140, "delta": 391.0},
           "quadrature": {"trunc_radius": 0.035},
           "initial": {"amplitude": 2.7e137, "width": 5e-4}}
    assert _simulate_in(tmp_path, doc) == 1
    meta = json.loads((tmp_path / "run" / "meta.json").read_text(), parse_constant=_no_constant)
    assert 1e153 < meta["measured"]["final_dinv_d5"] < 1e154


def _simulate_documents(st):
    """``simulate`` configurations across the range it accepts, and past its edges.

    n in {64, 128, 256}, 1-6 steps, lengths 1e-3 to 1e4, amplitudes to 1e150;
    ``t_start`` and ``kappa`` are 0 or down to 1e-320 of the length, the step
    and the window are drawn against the grid, so some fail the parser's checks.
    """
    def log_uniform(lo, hi):
        """``m 10^e``, e an integer in [lo, hi), m in [1, 10); hypothesis' floats favour their bounds."""
        return st.tuples(st.integers(lo, hi - 1), st.floats(1.0, 10.0, exclude_max=True)).map(
            lambda p: p[1] * 10.0 ** p[0])

    def fraction(lo, hi):
        return st.integers(round(1000 * lo), round(1000 * hi)).map(lambda k: k / 1000)

    @st.composite
    def documents(draw):
        n = draw(st.sampled_from([64, 128, 256]))
        length = draw(log_uniform(-3, 4))
        dt = draw(log_uniform(-4, 0)) * length / n
        # t_start = 0, kappa = 0 or neither; a positive one down to 1e-320 of the length
        zero = draw(st.sampled_from(["t_start", "kappa", None]))
        t_start, kappa = (0.0 if name == zero else draw(log_uniform(-320, -2)) * length
                          for name in ("t_start", "kappa"))
        physics = {"c": draw(fraction(0.001, 1.999)), "kappa": kappa}
        if draw(st.booleans()):
            physics["delta"] = draw(fraction(2.0, 16.0)) * length / n
        amplitude = draw(log_uniform(-10, 150))
        return {
            "grid": {"n": n, "length": length},
            "time": {"dt": dt, "t_start": t_start, "t_end": t_start + draw(st.integers(1, 6)) * dt,
                     "output_every": draw(st.integers(1, 4))},
            "physics": physics,
            "quadrature": {"trunc_radius": draw(fraction(0.1, 1.0)) * length / 2},
            "initial": {"family": draw(st.sampled_from(["gaussian_bump", "cosine_packet", "zero"])),
                        "amplitude": draw(st.sampled_from([1.0, -1.0])) * amplitude,
                        "width": draw(log_uniform(-3, 0)) * length,
                        "center": draw(fraction(-0.5, 0.5)) * length,
                        "modes": draw(st.integers(0, 8))},
            "seed": draw(st.integers(0, 2**64)),
        }

    return documents()


# every length and time of a configuration, which f(x, t) -> s f(x / s, t / s) scales by s
_SCALED_KEYS = (("grid", "length"), ("time", "dt"), ("time", "t_start"), ("time", "t_end"),
                ("physics", "kappa"), ("physics", "delta"), ("quadrature", "trunc_radius"),
                ("initial", "amplitude"), ("initial", "width"), ("initial", "center"))

# the default configuration with its lengths and times spelled out
_DEFAULT_DOC = {"grid": {"length": 40.0}, "time": {"dt": 0.0125, "t_end": 0.1},
                "physics": {"kappa": 1e-3}, "quadrature": {"trunc_radius": 10.0},
                "initial": {"amplitude": 0.1, "width": 1.0}}


def _scaled(doc, s):
    """``doc`` with every length and time it sets multiplied by ``s``."""
    twin = copy.deepcopy(doc)
    for section, key in _SCALED_KEYS:
        if key in twin.get(section, {}):
            twin[section][key] *= s
    return twin


def _simulate_in(tmp, doc):
    """Exit code of ``simulate`` on ``doc`` in-process into ``tmp / "run"``, warnings as errors.

    Asserts exit 0 or 1 with one trace row and one snapshot file per
    snapshot and a ``meta.json`` that loads, or exit 2 by a ConfigError
    with nothing written; any other exception escapes.
    """
    tmp.mkdir(exist_ok=True)
    cfgpath, out, err = tmp / "config.json", tmp / "run", io.StringIO()
    cfgpath.write_text(json.dumps(doc))
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(["simulate", str(cfgpath), "--out", str(out)])
    if code == 2:
        assert err.getvalue().startswith("configuration error: ") and not out.exists()
        return code
    assert code in (0, 1) and err.getvalue() == ""
    meta = json.loads((out / "meta.json").read_text())
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == meta["snapshots"] == len(list((out / "snapshots").iterdir()))
    return code


def _simulate_once(doc):
    """:func:`_simulate_in` on ``doc`` and, when it parses, on its ``2^-16`` twin,
    which must exit alike: no verdict depends on the unit of length.

    The one exception is the end of the float range: a twin whose initial
    kernel width ``c t_start + kappa`` is subnormal must be refused (exit 2).
    """
    with tempfile.TemporaryDirectory() as tmp:
        code = _simulate_in(Path(tmp) / "base", doc)
        if code != 2:
            twin = _scaled(doc, 2.0**-16)
            width = twin["physics"]["c"] * twin["time"]["t_start"] + twin["physics"]["kappa"]
            expected = code if width >= sys.float_info.min else 2
            assert _simulate_in(Path(tmp) / "twin", twin) == expected


def _energy_fields(monkeypatch):
    """``[fields, sites]`` of each weighted-energy call from here on, by the slope rows of its symbols."""
    calls, real_apply, real_symbol = [], spectral.apply_mtilde_dinv, spectral.symbol_mtilde

    def symbol(xi, slope, t):
        calls[-1][0] += np.size(slope)
        return real_symbol(xi, slope, t)

    def apply(f, slope, t):
        calls.append([0, f.n])
        return real_apply(f, slope, t)

    monkeypatch.setattr(spectral, "symbol_mtilde", symbol)
    monkeypatch.setattr(spectral, "apply_mtilde_dinv", apply)
    return calls


def _kernel_work(monkeypatch):
    """``[entries, bound]`` of each quadrature call from here on, by its ``kernel_values`` calls.

    ``bound`` is what the per-entry path evaluates: ``n`` times the positive
    offsets plus the near-cell nodes.
    """
    calls, real_quadrature, real_kernel = [], evolution.kernel_quadrature, evolution.kernel_values

    def kernel(*args, **kwargs):
        out = real_kernel(*args, **kwargs)
        calls[-1][0] += np.size(out)
        return out

    def quadrature(f_values, g_values, length, width, trunc_radius):
        n = f_values.size
        plan = evolution.quadrature_plan(n, length / n, trunc_radius)
        calls.append([0, n * (plan.offsets.size // 2 + plan.near_y.size)])
        return real_quadrature(f_values, g_values, length, width, trunc_radius)

    monkeypatch.setattr(evolution, "kernel_values", kernel)
    for module in (evolution, subsolution):
        monkeypatch.setattr(module, "kernel_quadrature", quadrature)
    return calls


def _column_entries(monkeypatch):
    """``[entries, nodes, columns]`` of each ``site_samples`` call from here on.

    ``entries`` counts what its ``_column_values`` calls evaluate, ``columns``
    is the width of its column set, and ``nodes`` is ``sites * (offsets +
    near-cell nodes)``: the nodes of the far rows summed per site and of
    the near cell at the sites' own slopes.
    """
    calls, real_samples, real_columns = [], subsolution.site_samples, subsolution._column_values

    def columns(x, d, w, cols):
        out = real_columns(x, d, w, cols)
        calls[-1][0] += out.size
        calls[-1][2] = out.shape[-1]
        return out

    def samples(f, width, c, s_indices, lams, trunc_radius=evolution.DEFAULT_TRUNC_RADIUS):
        plan = evolution.quadrature_plan(f.n, f.h, trunc_radius)
        calls.append([0, np.size(s_indices) * (plan.offsets.size + plan.near_y.size), 0])
        return real_samples(f, width, c, s_indices, lams, trunc_radius)

    monkeypatch.setattr(subsolution, "_column_values", columns)
    monkeypatch.setattr(subsolution, "site_samples", samples)
    return calls


def test_simulate_over_accepted_configurations_exits_0_1_or_2(monkeypatch):
    # every run either writes its run directory (exit 0 or 1) or stops at a
    # ConfigError (exit 2); no warning is printed and no other exception
    # escapes, and a run's 2^-16 twin ends with the same exit code; no
    # weighted energy takes more fields than the grid has sites, no
    # quadrature evaluates more kernel entries than its per-entry path, and
    # no subsolution check evaluates more column entries than its per-site
    # path, sites * (offsets + near-cell nodes) * columns: the far table's
    # degree is at most 2 sites - 1 (chebyshev_degree(a_max, 2 * sites - 1)),
    # so it has at most `sites` nodes t >= 0 per positive offset, and the
    # near cell's table, capped at 2 * slopes.size = 2 sites nodes, has at
    # most `sites` slopes >= 0
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=200,
                                   database=None)
    calls, work = _energy_fields(monkeypatch), _kernel_work(monkeypatch)
    checks = _column_entries(monkeypatch)
    settings(hypothesis.given(_simulate_documents(hypothesis.strategies))(_simulate_once))()
    assert calls and all(fields <= sites for fields, sites in calls), max(calls)
    assert work and all(entries <= bound for entries, bound in work), max(work)
    assert checks and all(entries <= nodes * cols for entries, nodes, cols in checks), max(checks)


def test_trace_figure_is_one_table_entry(tmp_path, monkeypatch):
    # a figure added to the table is a trace.csv column, one finite value a
    # snapshot; final_dinv_d5 is taken once, of the last snapshot
    extra = ("max_height", lambda s, r: float(np.max(s.f.values)))
    monkeypatch.setattr(cli, "_TRACE_COLUMNS", cli._TRACE_COLUMNS + (extra,))
    times, real = [], evolution.dinv_d5_norm
    monkeypatch.setattr(evolution, "dinv_d5_norm", lambda f, t: times.append(t) or real(f, t))
    (tmp_path / "empty.json").write_text("{}")
    assert cli.main(["simulate", str(tmp_path / "empty.json"), "--out", str(tmp_path / "run")]) == 0
    columns = _trace_columns(tmp_path / "run")
    assert list(columns)[-2:] == ["m_bound", "max_height"]
    assert columns["max_height"].shape == (5,) and np.all(np.isfinite(columns["max_height"]))
    assert times == [columns["t"][-1]]


def test_simulate_writes_the_same_bytes_from_cold_tables(tmp_path, monkeypatch):
    # the per-width tables depend on their key only: the default run with
    # every memo emptied before each quadrature call writes the same files
    # as with the memos kept, byte for byte
    (tmp_path / "empty.json").write_text("{}")
    assert cli.main(["simulate", str(tmp_path / "empty.json"), "--out", str(tmp_path / "warm")]) == 0
    real = evolution.kernel_quadrature

    def cold(*args):
        clear_memos()
        return real(*args)

    for module in (evolution, subsolution):
        monkeypatch.setattr(module, "kernel_quadrature", cold)
    assert cli.main(["simulate", str(tmp_path / "empty.json"), "--out", str(tmp_path / "cold")]) == 0
    files = sorted(p.relative_to(tmp_path / "warm") for p in (tmp_path / "warm").rglob("*.*"))
    assert len(files) == 7
    assert sorted(p.relative_to(tmp_path / "cold") for p in (tmp_path / "cold").rglob("*.*")) == files
    for name in files:
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def _snapshot_heights(path):
    return np.array([float(row.split(",")[1]) for row in path.read_text().splitlines()[1:]])


def test_simulate_commutes_with_scaling_by_powers_of_two(tmp_path):
    # the scheme is exact under f(x, t) -> 2^k f(x / 2^k, t / 2^k): the
    # default run scaled by 2^k exits as it does, with the same subsolution
    # columns and every snapshot 2^k times its own, bit for bit; up to 2^-250
    # and from 2^175, where the near cell's fifth derivative and its table of
    # y^5 left the float range before the quadrature computed in units of 2^e
    assert _simulate_in(tmp_path / "base", _DEFAULT_DOC) == 0
    base = tmp_path / "base" / "run"
    trace = [row.split(",")[4:] for row in (base / "trace.csv").read_text().splitlines()]
    snaps = sorted(p.name for p in (base / "snapshots").iterdir())
    for k in (-250, -210, -100, -30, -14, 16, 30, 100, 175, 200):
        tmp = tmp_path / f"k{k}"
        assert _simulate_in(tmp, _scaled(_DEFAULT_DOC, 2.0**k)) == 0, k
        rows = (tmp / "run" / "trace.csv").read_text().splitlines()
        assert [row.split(",")[4:] for row in rows] == trace, k
        assert sorted(p.name for p in (tmp / "run" / "snapshots").iterdir()) == snaps
        for name in snaps:
            f = _snapshot_heights(tmp / "run" / "snapshots" / name)
            f_base = _snapshot_heights(base / "snapshots" / name)
            assert f.tobytes() == (2.0**k * f_base).tobytes(), (k, name)


def _trace_columns(run):
    """The columns of ``run / "trace.csv"`` by name, as float arrays."""
    header, *rows = (run / "trace.csv").read_text().splitlines()
    values = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    return dict(zip(header.split(","), values.T))


def test_simulate_commutes_with_scaling_by_other_units(tmp_path):
    # lam f(x / lam, t / lam) for lam not a power of two: the scaled inputs
    # round, so the run agrees with lam = 1 to roundoff (measured for lam from
    # 1e-3 to 1e4: snapshots / lam within 6.8e-16 of their largest value,
    # max_gamma within 1.4e-13 absolute, min_slack within 2.2e-16, m_bound
    # within 5.9e-14 relative); h4_norm, whose weight (1 + xi^2)^4 has units,
    # is left out
    assert _simulate_in(tmp_path / "base", _DEFAULT_DOC) == 0
    base = tmp_path / "base" / "run"
    want = _trace_columns(base)
    snaps = sorted(p.name for p in (base / "snapshots").iterdir())
    for lam in (1e-3, 1e4):
        tmp = tmp_path / f"lam{lam:g}"
        assert _simulate_in(tmp, _scaled(_DEFAULT_DOC, lam)) == 0, lam
        got = _trace_columns(tmp / "run")
        assert np.max(np.abs(got["max_gamma"] - want["max_gamma"])) <= 1e-12, lam
        assert np.max(np.abs(got["min_slack"] - want["min_slack"])) <= 1e-14, lam
        assert np.max(np.abs(got["m_bound"] / want["m_bound"] - 1.0)) <= 1e-12, lam
        assert sorted(p.name for p in (tmp / "run" / "snapshots").iterdir()) == snaps
        for name in snaps:
            f = _snapshot_heights(tmp / "run" / "snapshots" / name) / lam
            f_base = _snapshot_heights(base / "snapshots" / name)
            assert np.max(np.abs(f - f_base)) <= 1e-14 * np.max(np.abs(f_base)), (lam, name)


def test_simulate_at_a_length_of_2_to_the_minus_150_keeps_finite_norms(tmp_path):
    # the default run scaled by 2^-150: the H4 weights (1 + xi^2)^4 leave the
    # float range, and sobolev_norm factors out the largest of them, so no
    # warning is printed and every h4_norm is finite
    assert _simulate_in(tmp_path, _scaled(_DEFAULT_DOC, 2.0**-150)) == 0
    h4 = _trace_columns(tmp_path / "run")["h4_norm"]
    assert h4.size and np.all(np.isfinite(h4) & (h4 > 0.0))


def _cosine_document(tmp_path, amplitude, modes, length, **physics):
    """One cosine of ``modes`` periods, ``amplitude`` high, as a 64-node file table, one 1e-300 step."""
    x = -length / 2 + length / 64 * np.arange(64)
    _table_file(tmp_path / "f.csv", (amplitude * np.cos(2 * np.pi * modes * x / length)).tolist())
    return {"grid": {"n": 64, "length": length}, "time": {"dt": 1e-300, "t_end": 1e-300},
            "physics": {"kappa": 1e-6, **physics}, "quadrature": {"trunc_radius": length / 2},
            "initial": {"family": "file", "path": str(tmp_path / "f.csv")}}


@pytest.mark.parametrize("amplitude", [1e290, 1e300])
def test_simulate_steep_cosine_at_a_short_length_writes_finite_metadata(tmp_path, amplitude):
    # A cos(2 pi 31 x / L) at L = 1e-3: in the quadrature's unit, L / 2^e in
    # [32, 64), the near cell's derivatives of the mollified slope stay
    # finite, so the run integrates, and the check fails at t = 0 with
    # nothing printed and no Infinity or NaN in meta.json.  At 1e290 the
    # check's velocities reach about 3e293, past the square root of the
    # float range; at 1e300 the sixth derivative of the heights, which the
    # check's unmollified quadrature takes, overflows, and the snapshot is
    # not checked (m_bound null).  Figures past the float range are null.
    doc = _cosine_document(tmp_path, amplitude, 31, 1e-3)
    assert _simulate_in(tmp_path, doc) == 1
    meta = json.loads((tmp_path / "run" / "meta.json").read_text(), parse_constant=_no_constant)
    assert (meta["integration_failed"], meta["snapshots"]) == (False, 2)
    assert meta["subsolution_failure_time"] == 0.0
    assert meta["measured"]["final_dinv_d5"] is None
    m_bound = meta["measured"]["m_bound"]
    assert 1e293 < m_bound < 1e308 if amplitude == 1e290 else m_bound is None


def test_simulate_overflowing_near_cell_derivatives_name_a_site(tmp_path):
    # 1.2e305 cos(2 pi 16 x / L) at L = 40, delta = 2h: the heights, their
    # slope and the mollified slope g are finite, but the near cell's fifth
    # derivative of g overflows; the quadrature names a site, and nothing is
    # printed
    doc = _cosine_document(tmp_path, 1.2e305, 16, 40.0, delta=2 * 40.0 / 64)
    assert _simulate_in(tmp_path, doc) == 1
    meta = json.loads((tmp_path / "run" / "meta.json").read_text(), parse_constant=_no_constant)
    assert (meta["integration_failure_step"], meta["snapshots"]) == (0, 0)
    assert meta["integration_failure"].startswith(
        "non-finite state: non-finite derivative of the slope at site ")


@pytest.mark.parametrize(
    "doc, key",
    [
        ('{"time": {"dt": 0.03}}', "time.dt"),
        (json.dumps(_scaled({**_DEFAULT_DOC, "time": {"dt": 0.03, "t_end": 0.1}}, 2.0**-40)),
         "time.dt"),
        ('{"grid": {"n": 64}, "physics": {"c": 0.01}, "quadrature": {"trunc_radius": 4.0}}',
         "quadrature.trunc_radius"),
        ('{"initial": {"width": 0}}', "initial.width"),
    ],
)
def test_parse_rejects_what_the_run_would_reject(doc, key):
    # a step count that is not an integer, in any unit of time, a window too
    # small for the near cell, and a zero bump width (0/0 at the centre) are
    # configuration errors
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(doc)


@pytest.mark.parametrize(
    "argv",
    [["kernel-eval", "--dx", "1", "--df", "0.3", "--eps", "0"],
     ["kernel-eval", "--dx", "inf", "--df", "0.3", "--eps", "0.1"],
     ["flat-demo", "--mu1", "0", "--mu2", "0"],
     ["flat-demo", "--c", "nan"]],
)
def test_invalid_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
