"""Command-line orchestration: simulate, verify, flat-demo, kernel-eval.

Configuration is a JSON document with explicit defaults and strict key
checking; simulation output is a deterministic set of plain-text files
(`trace.csv`, per-step snapshots, `meta.json`).  Exit codes: 0 success,
1 a scientific condition failed during the run, 2 configuration error
(:class:`ConfigError`, or an invalid command-line argument).  Any other
exception is a bug and surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, evolution, kernel, spectral, subsolution
from .grid import GridFunction1D

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_simulate", "run_verify", "main"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key path."""


_DEFAULTS = {
    "grid": {"n": 256, "length": 40.0},
    "time": {"dt": 0.0125, "t_end": 0.1, "t_start": 0.0, "output_every": 2},
    "physics": {"c": 1.0, "delta": None, "kappa": 1e-3},
    "quadrature": {"trunc_radius": evolution.DEFAULT_TRUNC_RADIUS},
    "initial": {
        "family": "gaussian_bump",
        "amplitude": 0.1,
        "width": 1.0,
        "center": 0.0,
        "modes": 3,
        "path": None,
    },
    "seed": 0,
}

_FAMILIES = ("zero", "gaussian_bump", "cosine_packet", "file")
# a value must have the type of its key's default; for the keys whose
# default is null, the type a non-null value must have
_NULL_DEFAULT_TYPES = {"physics.delta": float, "initial.path": str}
_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a string"}


@dataclass(frozen=True)
class RunConfig:
    n: int
    length: float
    dt: float
    t_end: float
    t_start: float
    output_every: int
    c: float
    delta: float
    kappa: float
    trunc_radius: float
    family: str
    amplitude: float
    width: float
    center: float
    modes: int
    path: str | None
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def _typed(val, default, path: str):
    """``val`` if it has the type of ``default``, else :class:`ConfigError`.

    A float key takes any finite JSON number and returns it as a float, an
    int key only a JSON integer; booleans are neither.  A null default
    also admits null.
    """
    kind = _NULL_DEFAULT_TYPES.get(path, type(default))
    if val is None and default is None or kind is str and isinstance(val, str):
        return val
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if kind is int and number and isinstance(val, int):
        return val
    # NaN, +-Infinity and integers beyond the float range all fail this bound
    if kind is float and number and abs(val) <= sys.float_info.max:
        return float(val)
    raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}")


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in user.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown configuration key: {path}")
        if isinstance(defaults[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"expected an object at {path}")
            out[key] = _merge(defaults[key], val, prefix=f"{path}.")
        else:
            out[key] = _typed(val, defaults[key], path)
    for key, val in defaults.items():
        if key not in out:
            out[key] = dict(val) if isinstance(val, dict) else val
        elif isinstance(val, dict):
            for k2, v2 in val.items():
                out[key].setdefault(k2, v2)
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Unknown keys are rejected with their full path, and every value must
    have the type of its default; defaults fill every omitted field.
    Raises :class:`ConfigError` with a message naming the offending key.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an over-long integer literal, or nesting too deep
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    # the leaf keys of _DEFAULTS are unique, and they are RunConfig's fields
    cfg = {}
    for key, val in _merge(_DEFAULTS, doc).items():
        cfg.update(val if isinstance(val, dict) else {key: val})

    n, length = cfg["n"], cfg["length"]
    if not isinstance(n, int) or n < 64 or (n & (n - 1)) != 0:
        raise ConfigError("grid.n must be a power of two >= 64")
    if length <= 0:
        raise ConfigError("grid.length must be positive")
    c, kappa = cfg["c"], cfg["kappa"]
    if not 0.0 < c < 2.0:
        raise ConfigError(f"physics.c = {c} violates the open bound (0, 2)")
    if kappa < 0:
        raise ConfigError("physics.kappa must be nonnegative")
    h = length / n
    if cfg["delta"] is None:
        cfg["delta"] = 4.0 * h
    if cfg["delta"] < 2.0 * h:
        raise ConfigError("physics.delta must be at least 2 grid spacings")
    dt, t_end, t_start = cfg["dt"], cfg["t_end"], cfg["t_start"]
    if dt <= 0 or t_end <= t_start or t_start < 0:
        raise ConfigError("time must satisfy dt > 0 and t_end > t_start >= 0")
    try:
        evolution.step_count(t_start, t_end, dt)
    except ValueError as exc:
        raise ConfigError(f"time.dt does not divide time.t_end - time.t_start: {exc}") from exc
    # the kernel width of the first snapshot, c t_start + kappa, the least of the run
    if not c * t_start + kappa >= sys.float_info.min:
        raise ConfigError("physics.c * time.t_start + physics.kappa, the initial kernel width, "
                          f"must be at least {sys.float_info.min!r}")
    output_every = cfg["output_every"]
    if not isinstance(output_every, int) or output_every < 1:
        raise ConfigError("time.output_every must be a positive integer")
    trunc = cfg["trunc_radius"]
    if trunc < 10.0 * (c * t_end + kappa):
        raise ConfigError("quadrature.trunc_radius must be at least 10*(c*t_end + kappa)")
    if trunc > length / 2:
        raise ConfigError("quadrature.trunc_radius must not exceed half the period")
    try:
        evolution.trapezoid_reach(n, h, trunc)
    except ValueError as exc:
        raise ConfigError(f"quadrature.trunc_radius is too small for this grid: {exc}") from exc
    family, modes = cfg["family"], cfg["modes"]
    if family not in _FAMILIES:
        raise ConfigError(f"initial.family must be one of {_FAMILIES}")
    if family == "file" and not cfg["path"]:
        raise ConfigError("initial.path is required for the file family")
    if modes < 0:
        raise ConfigError("initial.modes must be nonnegative")
    if family == "cosine_packet" and modes > n // 2:
        # waves above the Nyquist frequency alias on the grid
        raise ConfigError(f"initial.modes must be at most grid.n // 2 = {n // 2} for a packet")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    if family in ("gaussian_bump", "cosine_packet") and cfg["width"] == 0:
        raise ConfigError("initial.width must be nonzero")
    return RunConfig(**cfg)


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _packet_phases(seed: int, modes: int) -> list[float]:
    """``numpy.random.default_rng(seed).uniform(0, 2 pi, modes)``, bit for bit.

    In integer Python, so that ``simulate`` never imports ``numpy.random``,
    which loads ``hashlib``, ``secrets`` and ``random`` with it and adds
    about 6 MB of resident memory.  numpy's ``SeedSequence`` hashes
    the seed's 32-bit words into a pool of four and draws PCG64's 128-bit
    state and increment from it; PCG64 (O'Neill, 2014) steps a 128-bit LCG
    and outputs its XSL-RR 128/64 permutation, whose top 53 bits over 2^53
    make the uniform double.  ``seed`` must be nonnegative.
    """
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    const, halves = 0x8B51F9DD, []
    for i in range(8):  # generate_state(4, np.uint64), as 32-bit halves
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    u0, u1, u2, u3 = (halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2))
    # pcg_setseq_128_srandom_r: state (u0, u1), stream (u2, u3)
    inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
    state = ((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _MASK128
    phases = []
    for _ in range(modes):
        state = (state * _PCG_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        phases.append(2.0 * math.pi * ((x >> 11) * 2.0**-53))
    return phases


def initial_data(cfg: RunConfig) -> GridFunction1D:
    """Construct the initial interface height for a parsed configuration.

    The ``cosine_packet`` phases are exactly
    ``numpy.random.default_rng(seed).uniform(0, 2 pi, modes)``, computed by
    :func:`_packet_phases` without importing ``numpy.random``.  Raises
    :class:`ConfigError` when the table of the ``file`` family cannot be
    read or holds heights that are not finite.
    """
    if cfg.family == "zero":
        return GridFunction1D.zeros(cfg.n, cfg.length)
    if cfg.family == "gaussian_bump":
        return GridFunction1D.from_callable(
            lambda x: cfg.amplitude * np.exp(-(((x - cfg.center) / cfg.width) ** 2)),
            cfg.n,
            cfg.length,
        )
    if cfg.family == "cosine_packet":
        phases = _packet_phases(cfg.seed, cfg.modes)

        def packet(x):
            envelope = np.exp(-(((x - cfg.center) / cfg.width) ** 2))
            waves = sum(
                np.cos(2.0 * np.pi * (k + 1) * x / cfg.length + phases[k])
                for k in range(cfg.modes)
            )
            return cfg.amplitude * envelope * waves / max(cfg.modes, 1)

        return GridFunction1D.from_callable(packet, cfg.n, cfg.length)
    if cfg.family == "file":
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty table fails below
                data = np.loadtxt(cfg.path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"initial.path cannot be read as an x,f table: {exc}") from exc
        if data.shape != (cfg.n, 2):
            raise ConfigError(
                f"initial.path must be an x,f table of grid.n = {cfg.n} rows, "
                f"found a {data.shape[0]} x {data.shape[1]} table"
            )
        if not np.all(np.isfinite(data[:, 1])):
            raise ConfigError("initial.path holds heights that are not finite")
        return GridFunction1D(data[:, 1], cfg.length)
    raise ConfigError(f"unhandled family {cfg.family}")


def _format_row(values) -> str:
    return ",".join(f"{v:.17g}" for v in values)


def _snapshot_text(xs: np.ndarray, values: np.ndarray) -> str:
    """The ``x,f`` table of a snapshot; Python floats format as numpy's do, only faster."""
    rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(xs.tolist(), values.tolist()))
    return "x,f\n" + rows


def run_simulate(cfg: RunConfig, outdir: Path) -> int:
    """Run the configured evolution and write trace, snapshots and metadata.

    Returns the process exit code: 0, or 1 when a subsolution condition
    (|gamma| >= 1/2 or a hull slack below the violation band) fails before
    t_end or the integration fails; the trajectory is written either way.
    A ``dt`` that exceeds the stability probe is a :class:`ConfigError`, raised
    before anything is written.
    """
    f0 = initial_data(cfg)
    try:
        traj = evolution.integrate(
            f0,
            c=cfg.c,
            delta=cfg.delta,
            kappa=cfg.kappa,
            dt=cfg.dt,
            t_end=cfg.t_end,
            output_every=cfg.output_every,
            t_start=cfg.t_start,
            trunc_radius=cfg.trunc_radius,
        )
    except evolution.StabilityError as exc:
        raise ConfigError(
            f"time.dt = {exc.dt} exceeds the stability probe {exc.limit:.6g} of the initial data"
        ) from exc
    outdir.mkdir(parents=True, exist_ok=True)
    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    # every snapshot's kernel width is at least the parsed floor: one row each
    report = subsolution.subsolution_report(traj)

    failure_time = None
    lines = ["t,l2_norm,h4_norm,energy,max_gamma,min_slack,m_bound"]
    for state, diag, row in zip(traj.snapshots, traj.diagnostics, report, strict=True):
        slope = state.f.derivative()
        en = spectral.energy(state.f, slope, state.t)
        if not row["ok"] and failure_time is None:
            failure_time = state.t
        lines.append(_format_row([state.t, diag["l2"], diag["h4"], en, row["max_gamma"],
                                  row["min_slack"], row["m_bound"]]))
        (snapdir / f"f_{diag['step']:06d}.csv").write_text(_snapshot_text(state.f.x, state.f.values))
    (outdir / "trace.csv").write_text("\n".join(lines) + "\n")

    def figure(value):  # JSON has no infinity: a figure past the float range is null
        return value if value is None or math.isfinite(value) else None

    meta = {
        "version": __version__,
        "config": cfg.as_dict(),
        "numpy": np.__version__,
        "snapshots": len(traj.snapshots),
        "integration_failed": traj.failed,
        "integration_failure": traj.failure_reason,
        "integration_failure_step": traj.failure_step,
        "integration_failure_stage": traj.failure_stage,
        "subsolution_failure_time": failure_time,
        "measured": {
            "final_h4": figure(traj.diagnostics[-1]["h4"] if traj.diagnostics else None),
            "final_dinv_d5": figure(traj.diagnostics[-1]["dinv_d5"] if traj.diagnostics else None),
            "m_bound": figure(None if not report else report[-1]["m_bound"]),
            "max_zero_mean_residual": figure(
                None if not report else max(r["zero_mean_residual"] for r in report)
            ),
        },
    }
    text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False)
    (outdir / "meta.json").write_text(text + "\n")
    return 1 if (failure_time is not None or traj.failed) else 0


def run_verify(suite: str, stream=None) -> int:
    """Execute one verification suite; prints a JSON report."""
    from . import verify

    stream = stream or sys.stdout
    try:
        checks = verify.run_suite(suite)
    except KeyError:
        print(f"unknown suite: {suite}; available: {verify.available_suites()}", file=sys.stderr)
        return 2
    report = {"suite": suite, "checks": checks, "passed": all(c["passed"] for c in checks)}
    json.dump(report, stream, indent=2, default=float)
    stream.write("\n")
    return 0 if report["passed"] else 1


def _number(accept, what: str):
    """argparse type: a float for which ``accept`` holds."""

    def parse(text: str) -> float:
        val = float(text)
        if not accept(val):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return val

    return parse


_finite = _number(math.isfinite, "a finite number")
_nonnegative = _number(lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_positive = _number(lambda v: 0.0 < v < math.inf, "a finite number > 0")


def _cmd_flat_demo(args) -> int:
    from . import flatlab

    cfg = flatlab.FlatConfig(mu1=args.mu1, mu2=args.mu2, sigma_sign=args.sigma, c=args.c)
    interval = flatlab.flat_admissible_c(args.mu1, args.mu2, args.sigma)
    print(f"gamma = {flatlab.flat_gamma(cfg):.17g}")
    print(f"admissible c interval: {interval}")
    cs = np.linspace(0.1, 2.5, 13)
    for row in flatlab.flat_hull_sweep(args.mu1, args.mu2, args.sigma, cs):
        print(f"c = {row['c']:.4f}  min_slack = {row['min_slack']:+.6e}  {row['status']}")
    return 0


def _cmd_kernel_eval(args) -> int:
    closed = kernel.kernel_values(args.dx, args.df, args.eps)
    oracle = kernel.kernel_quadrature_oracle(args.dx, args.df, args.eps)
    print(f"closed_form      = {closed:.17g}")
    print(f"quadrature       = {oracle:.17g}")
    print(f"muskat_limit     = {float(kernel.muskat_limit(args.dx, args.df)):.17g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads ``-1.27e-288`` as a value, not an option.

    argparse takes only ``-1`` and ``-1.5`` style tokens for negative
    numbers; this parser, and the subcommand parsers it makes, accept an
    exponent too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def main(argv=None) -> int:
    parser = _Parser(
        prog="mixzone",
        description="Mixing-zone interface evolution and subsolution verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured evolution")
    p_sim.add_argument("config", type=Path, help="JSON configuration file")
    p_sim.add_argument("--out", type=Path, default=Path("out"), help="output directory")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help="suite name; an unknown one lists the suites")

    p_flat = sub.add_parser("flat-demo", help="straight-interface closed forms")
    p_flat.add_argument("--mu1", type=_nonnegative, default=1.0)
    p_flat.add_argument("--mu2", type=_finite, default=0.0)
    p_flat.add_argument("--sigma", type=int, default=-1, choices=(-1, 1))
    p_flat.add_argument("--c", type=_positive, default=1.0)

    p_ker = sub.add_parser("kernel-eval", help="evaluate the kernel at a point")
    p_ker.add_argument("--dx", type=_finite, required=True)
    p_ker.add_argument("--df", type=_finite, required=True)
    p_ker.add_argument("--eps", type=_positive, required=True)

    args = parser.parse_args(argv)
    if args.command == "flat-demo" and args.mu1 == 0.0 and args.mu2 == 0.0:
        p_flat.error("the direction (--mu1, --mu2) must be nonzero")
    try:
        if args.command == "simulate":
            try:
                text = args.config.read_text()
            except OSError as exc:
                print(f"cannot read config: {exc}", file=sys.stderr)
                return 2
            cfg = parse_config(text)
            return run_simulate(cfg, args.out)
        if args.command == "verify":
            return run_verify(args.suite)
        if args.command == "flat-demo":
            return _cmd_flat_demo(args)
        if args.command == "kernel-eval":
            return _cmd_kernel_eval(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
