"""The table of checks behind ``mixzone verify`` and the acceptance tests.

Each entry of :data:`TABLE` has a name, a suite, a function returning its
measured values, and the contract bound each bounded value must meet.
The ten acceptance criteria are entries named ``criterion_NN_...``; the
other entries are the module invariants that no criterion states.  Each
check is implemented here once: ``mixzone verify <suite>`` runs the
entries of one suite, and the tests run every entry exactly once (the
criteria in ``tests/test_acceptance.py``, each invariant in the unit-test
module of its suite), each printing its verdict line.  The criterion-08
convergence study is an entry too, so ``mixzone verify evolution`` takes
a few seconds.
Every bound is fixed by the project contract; nothing is tuned at run
time.

Importing this module does no numerics; the trajectory of criteria 09
and 10 is built on first use and cached.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import evolution, flatlab, kernel, spectral, subsolution
from .grid import GridFunction1D

__all__ = ["Check", "TABLE", "available_suites", "run_suite"]

_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One table entry; ``bounds`` maps a measured key to ``(op, limit)``."""

    name: str
    suite: str
    fn: Callable[[], dict]
    bounds: dict

    def run(self) -> dict:
        """Record ``{"name", "passed", "measured"}``: passed iff every bound holds."""
        measured = {key: float(val) for key, val in self.fn().items()}
        passed = all(_OPS[op](measured[key], limit) for key, (op, limit) in self.bounds.items())
        return {"name": self.name, "passed": passed, "measured": measured}


TABLE: list[Check] = []


def _entry(name: str, suite: str, **bounds):
    """Decorator adding its function to :data:`TABLE` under ``name``."""

    def register(fn):
        TABLE.append(Check(name, suite, fn, bounds))
        return fn

    return register


def available_suites() -> list[str]:
    return sorted({entry.suite for entry in TABLE})


def run_suite(name: str) -> list[dict]:
    """Run the entries of one suite; raises KeyError for unknown names."""
    if name not in available_suites():
        raise KeyError(name)
    return [entry.run() for entry in TABLE if entry.suite == name]


# the evolution benchmark: f0 = 0.1 exp(-x^2) on a period of 40 with
# c = 1, kappa = 1e-3 and delta = 4h, the default PV window
LENGTH = 40.0
TRUNC = evolution.DEFAULT_TRUNC_RADIUS


def _bump(n: int, amp: float = 0.1) -> GridFunction1D:
    return GridFunction1D.from_callable(lambda x: amp * np.exp(-(x**2)), n, LENGTH)


@functools.cache
def _benchmark_trajectory() -> evolution.Trajectory:
    """N = 256 Gaussian bump run to t = 0.05 with every step output."""
    f0 = _bump(256)
    return evolution.integrate(
        f0, c=1.0, delta=4 * f0.h, kappa=1e-3, dt=0.0125, t_end=0.05,
        output_every=1, trunc_radius=TRUNC,
    )


# --------------------------------------------------------------- kernel


@_entry("criterion_01_kernel_closed_form_vs_oracle", "kernel",
        max_rel_err=("<=", 1e-8), runtime_s=("<", 5.0))
def _closed_form_vs_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed, draws in ((0, 100), (7, 20)):
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            eps = rng.uniform(0.01, 1.0)
            dx = rng.uniform(0.01, 10.0) * rng.choice([-1.0, 1.0])
            df = rng.uniform(-2.0, 2.0) * abs(dx)
            oracle = kernel.kernel_quadrature_oracle(dx, df, eps)
            err = abs(kernel.kernel_values(dx, df, eps) - oracle) / max(abs(oracle), 1e-300)
            worst = max(worst, err)
    return {"max_rel_err": worst, "runtime_s": time.perf_counter() - start}


@_entry("criterion_07_small_width_kernel_limit", "kernel", min_order=(">=", 1.9))
def _small_width_limit():
    # separations of order one and larger, so eps = 0.1 already sits in
    # the asymptotic regime of the width expansion
    rng = np.random.default_rng(7)
    points = [(1.0, 0.3)]
    for _ in range(10):
        dx = rng.uniform(1.0, 10.0) * rng.choice([-1.0, 1.0])
        points.append((dx, rng.uniform(-2.0, 2.0) * abs(dx)))
    worst = np.inf
    for dx, df in points:
        lim = float(kernel.muskat_limit(dx, df))
        errs = [abs(kernel.kernel_values(dx, df, e) - lim) for e in (0.1, 0.05, 0.025)]
        worst = min(worst, np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
    return {"min_order": worst}


@_entry("criterion_10_l1_bounds_and_coercivity", "kernel",
        min_l1=(">", 0.0), l1_margin=(">=", -1e-9), max_slope_l1=("<", 2.0), coercivity=(">=", 0.5))
def _l1_bounds_and_coercivity():
    slopes = (0.25, 0.5, 1.0, 2.0)
    l1 = [kernel.ktilde_c_l1(a) for a in slopes]
    slope_l1 = [kernel.ktilde_slope_l1(a) for a in slopes]
    margin = min(2.0 * a * a / (1.0 + a * a) - v for a, v in zip(slopes, l1))
    sine = GridFunction1D.from_callable(lambda x: 0.5 * np.sin(2 * np.pi * x / 20), 128, 20.0)
    ratio = min(
        spectral.coercivity_probe(_benchmark_trajectory().snapshots[-1].f.derivative(), 0.05,
                                  trials=12, seed=0),
        spectral.coercivity_probe(sine, 0.05, trials=12, seed=3),
    )
    return {"min_l1": min(l1 + slope_l1), "l1_margin": margin,
            "max_slope_l1": max(slope_l1), "coercivity": ratio}


@_entry("frozen_kernel_oddness", "kernel", max_defect=("==", 0.0))
def _frozen_oddness():
    # K_A(-y) = -K_A(y) bit for bit, as the pair-symmetric quadrature needs
    worst = 0.0
    for seed, draws, y_range, eps_low in ((7, 50, (-5.0, 5.0), 0.05),
                                          (3, 100, (0.01, 8.0), 0.02)):
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            a, y, eps = rng.uniform(-2, 2), rng.uniform(*y_range), rng.uniform(eps_low, 1.0)
            odd = kernel.kernel_frozen(a, y, eps) + kernel.kernel_frozen(a, -y, eps)
            worst = max(worst, abs(odd))
    return {"max_defect": worst}


# ------------------------------------------------------------- spectral


def _dft_rel_err(slope_a: float, n: int, periods: float, band: tuple[float, float]) -> float:
    """Worst relative error of ``k_hat`` against a DFT of sampled ``K_A``.

    The slow 1/y tail and the jump are peeled off with their exact
    transforms, so the DFT of the continuous O(1/y^3) remainder is clean
    for ``xi eps`` in ``band``.
    """
    eps = 0.1
    length = periods * eps
    h = length / n
    x = -length / 2 + h * np.arange(n)
    freqs = np.fft.fftfreq(n, d=h)
    sigma = 1.0 / (1.0 + slope_a * slope_a)
    aw, bw = 2.0 * eps, 1.0 / (2.0 * eps)
    tail = (sigma / np.pi) * x / (x**2 + aw**2)
    jump = (1.0 / (2.0 * eps)) * np.sign(x) * np.exp(-bw * np.abs(x))
    samples = np.asarray(kernel.kernel_frozen(slope_a, x, eps))
    rest = h * np.fft.fft(np.fft.ifftshift(samples - tail - jump))
    tail_hat = -1j * sigma * np.sign(freqs) * np.exp(-2 * np.pi * aw * np.abs(freqs))
    jump_hat = (1.0 / (2.0 * eps)) * (-4j * np.pi * freqs) / (bw**2 + 4 * np.pi**2 * freqs**2)
    oracle = rest + tail_hat + jump_hat
    ks = np.arange(1, n // 2)
    ks = ks[(freqs[ks] * eps >= band[0]) & (freqs[ks] * eps <= band[1])]
    exact = spectral.k_hat(slope_a, freqs[ks], eps)
    return float(np.max(np.abs(oracle[ks] - exact) / np.abs(exact)))


@_entry("criterion_02_frozen_kernel_transform_vs_dft", "spectral",
        max_rel_err=("<=", 1e-3), runtime_s=("<", 30.0))
def _transform_vs_dft():
    start = time.perf_counter()
    worst = max(
        [_dft_rel_err(a, 2**14, 200.0, (0.05, 5.0)) for a in (0.0, 0.5, 1.0, 2.0)]
        + [_dft_rel_err(a, 2**12, 100.0, (0.1, 3.0)) for a in (0.0, 1.0)]
    )
    return {"max_rel_err": worst, "runtime_s": time.perf_counter() - start}


@_entry("criterion_03_damping_exponent_fundamental_theorem", "spectral",
        max_residual=("<=", 1e-6))
def _fundamental_theorem():
    worst = 0.0
    grids = (((-2.0, -1.0, 0.0, 1.0, 2.0), np.logspace(-3, 4, 29)),
             ((-2.0, 0.0, 1.5), np.logspace(-3, 3, 8)))
    for slopes, ss in grids:
        for a in slopes:
            for s in ss:
                r = 1e-5
                deriv = (spectral.H_integral(s * (1 + r), a)
                         - spectral.H_integral(s * (1 - r), a)) / (2 * s * r)
                ig = spectral.h_integrand(s, a)
                worst = max(worst, abs(deriv - ig) / (1.0 + abs(ig)))
    return {"max_residual": worst}


@_entry("criterion_04_symbol_bounds", "spectral",
        band_lo=(">", 0.0), band_hi=("<", np.inf), refinement_drift=("<=", 0.01),
        normalization_err=("<=", 1e-12), nonpositive=("==", 0))
def _symbol_bounds():
    def band(n_a, n_s):
        s = np.linspace(0.0, 100.0, n_s)
        vals = [(1.0 + s) * np.exp(-spectral.h_values(s, float(a)))
                for a in np.linspace(-2, 2, n_a)]
        return min(float(v.min()) for v in vals), max(float(v.max()) for v in vals)

    (lo1, hi1), (lo2, hi2), (lo3, hi3) = band(41, 201), band(81, 401), band(21, 301)
    worst, nonpositive = 0.0, 0
    for seed, draws, xi_max in ((4, 200, 50.0), (8, 50, 40.0)):
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            xi, a, t = rng.uniform(-xi_max, xi_max), rng.uniform(-2, 2), rng.uniform(0, 2)
            m = float(spectral.symbol_m(xi, a, t))
            mt = float(spectral.symbol_mtilde(xi, a, t))
            nonpositive += int(not (m > 0 and mt > 0))
            want = (1 + t * abs(xi)) * m
            worst = max(worst, abs(mt - want) / min(mt, want))
    return {"band_lo": min(lo1, lo2, lo3), "band_hi": max(hi1, hi2, hi3),
            "refinement_drift": max(abs(lo1 - lo2) / lo2, abs(hi1 - hi2) / hi2),
            "normalization_err": worst, "nonpositive": nonpositive}


@_entry("k_hat_hermitian_symmetry", "spectral", max_defect=("==", 0.0))
def _hermitian():
    worst = 0.0
    for seed, draws, xi_range, eps_range in ((11, 30, (0.05, 50.0), (0.02, 0.5)),
                                             (5, 100, (0.01, 100.0), (0.01, 1.0))):
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            a, xi, eps = rng.uniform(-2, 2), rng.uniform(*xi_range), rng.uniform(*eps_range)
            defect = np.conj(spectral.k_hat(a, xi, eps)) - spectral.k_hat(a, -xi, eps)
            worst = max(worst, abs(defect))
    return {"max_defect": worst}


@_entry("h_closed_form_vs_quadrature", "spectral", max_abs_err=("<=", 1e-10))
def _h_closed_form():
    worst = 0.0
    for slopes, ss in (((-1.0, 0.3, 2.0), np.logspace(-3, 3, 9)),
                       ((-2.0, -0.5, 0.0, 1.0, 2.0), np.logspace(-3, 4, 12))):
        for a in slopes:
            hq = np.array([spectral.H_integral(s, a) for s in ss])
            worst = max(worst, float(np.max(np.abs(hq - spectral.h_values(ss, a)))))
    return {"max_abs_err": worst}


@_entry("dinv_multiplier_roundtrip", "spectral", max_abs_err=("<=", 1e-12))
def _dinv_roundtrip():
    worst = 0.0
    for n, t, amp, k in ((128, 0.7, 0.2, 3), (256, 0.8, 0.3, 4)):
        f = GridFunction1D.from_callable(
            lambda x: np.sin(2 * np.pi * x / 20.0) + amp * np.cos(2 * k * np.pi * x / 20.0), n, 20.0
        )
        damped = spectral.apply_dinv(f, t)
        back = np.fft.ifft(np.fft.fft(damped.values) * (1.0 + t * np.abs(f.freqs()))).real
        worst = max(worst, float(np.max(np.abs(back - f.values))))
    return {"max_abs_err": worst}


# ---------------------------------------------------------- evolution


@_entry("criterion_08_evolution_self_convergence", "evolution",
        dt_order=(">=", 3.5), h_order=(">=", 2.0), n1024_s=("<", 120.0))
def _self_convergence():
    def final(n, dt):
        f0 = _bump(n)
        traj = evolution.integrate(f0, c=1.0, delta=4 * f0.h, kappa=1e-3, dt=dt, t_end=0.1,
                                   output_every=10**6, trunc_radius=TRUNC)
        return traj.snapshots[-1].f.values

    # dt order at fixed grid
    f_dt = [final(256, dt) for dt in (0.05, 0.025, 0.0125)]
    dt_order = np.log2(np.max(np.abs(f_dt[0] - f_dt[1])) / np.max(np.abs(f_dt[1] - f_dt[2])))
    # h order against the next-finer reference (pairwise halving approaches
    # the asymptotic rate 2 from below at delta = 4h)
    start = time.perf_counter()
    f1024 = final(1024, 0.0125)
    n1024_s = time.perf_counter() - start
    f512, ref = final(512, 0.0125), final(2048, 0.0125)
    h_order = np.log2(np.max(np.abs(f512 - ref[::4])) / np.max(np.abs(f1024 - ref[::2])))
    return {"dt_order": dt_order, "h_order": h_order, "n1024_s": n1024_s}


@_entry("zero_fixed_point", "evolution", max_abs_rhs=("==", 0.0))
def _zero_fixed_point():
    zero = GridFunction1D.zeros(128, LENGTH)
    state = evolution.InterfaceState(f=zero, t=0.05, c=1.0, delta=4 * zero.h, kappa=1e-3)
    return {"max_abs_rhs": np.max(np.abs(evolution.rhs_regularized(state).values))}


@_entry("mollifier_preserves_constants", "evolution", max_abs_err=("<=", 1e-15))
def _mollifier_constants():
    ones = GridFunction1D(np.ones(128), LENGTH)
    return {"max_abs_err": np.max(np.abs(evolution.mollify(ones, 4 * ones.h).values - 1.0))}


@_entry("mollifier_semigroup", "evolution", max_abs_err=("<=", 1e-10))
def _mollifier_semigroup():
    worst = 0.0
    for n in (128, 256):
        f = _bump(n)
        delta = 4 * f.h
        twice = evolution.mollify(evolution.mollify(f, delta), delta)
        once = evolution.mollify(f, np.sqrt(2.0) * delta)
        worst = max(worst, float(np.max(np.abs(twice.values - once.values))))
    return {"max_abs_err": worst}


@_entry("sobolev_parseval", "evolution", max_rel_err=("<=", 1e-12))
def _sobolev_parseval():
    errs = [abs(evolution.sobolev_norm(f, 0) - f.l2_norm()) / f.l2_norm()
            for f in (_bump(128), _bump(256, amp=0.3))]
    return {"max_rel_err": max(errs)}


# -------------------------------------------------------- subsolution


EPS = 0.05


def _whole_period(f: GridFunction1D) -> float:
    """The widest PV window of a grid: everything but the wrap-around node."""
    return f.length / 2.0 - f.h


@_entry("criterion_09_small_time_subsolution", "subsolution",
        max_gamma=("<", 0.5), zero_mean_residual=("<=", 1e-6))
def _small_time_subsolution():
    traj = _benchmark_trajectory()
    n = traj.snapshots[0].f.n
    rows = subsolution.subsolution_report(
        traj, s_indices=list(range(n // 2 - 16, n // 2 + 17, 4)), n_lambda=9
    )
    return {"max_gamma": max(r["max_gamma"] for r in rows),
            "zero_mean_residual": max(r["zero_mean_residual"] for r in rows)}


@_entry("tangential_identity", "subsolution", max_defect=("<=", 1e-8))
def _tangential_identity():
    # u_c . dz_perp = u . dz_perp, relative to 1 + |u|
    worst = 0.0
    for f, sites in ((_bump(128), ((67, 0.3),)),
                     (_bump(256), ((131, 0.3), (120, -0.7), (128, 0.0)))):
        slope = f.derivative().values
        for j, frac in sites:
            s = subsolution.site_samples(f, EPS, 1.0, [j], [frac * EPS], _whole_period(f))
            u, perp = s.u[0], np.array([-slope[j], 1.0])
            worst = max(worst, abs(s.uc2[0] - u @ perp) / (1.0 + np.linalg.norm(u)))
    return {"max_defect": worst}


@_entry("boundary_matching", "subsolution",
        rho_mismatches=("==", 0), max_flux_gap=("<=", 1e-15))
def _boundary_matching():
    # rho = -1 and +1 on the strip edges, |rho| < 1 inside, m = rho u on the edges
    mismatches, gap, coarse = 0, 0.0, _bump(128)
    for f, j, fracs, trunc in ((coarse, 64, (-1.0, 0.0, 1.0), _whole_period(coarse)),
                               (_bump(256), 128, (-1.0, -0.5, 0.0, 0.5, 1.0), TRUNC)):
        s = subsolution.site_samples(f, EPS, 1.0, [j], [frac * EPS for frac in fracs], trunc)
        mismatches += int(s.rho[[0, -1]].tolist() != [-1.0, 1.0])
        mismatches += int(np.sum(np.abs(s.rho[1:-1]) >= 1.0))
        edges = s.m[[0, -1]] - s.rho[[0, -1], None] * s.u[[0, -1]]
        gap = max(gap, float(np.max(np.linalg.norm(edges, axis=1))))
    return {"rho_mismatches": mismatches, "max_flux_gap": gap}


@_entry("zero_mean_identity", "subsolution", max_residual=("<=", 1e-15))
def _zero_mean_identity():
    # the N = 128 site over the whole period, the N = 256 sites in the window
    coarse, f = _bump(128), _bump(256)
    residuals = np.concatenate([
        subsolution.site_samples(coarse, EPS, 1.0, [69], [0.0], _whole_period(coarse)).residual,
        subsolution.site_samples(f, EPS, 1.0, [122, 128, 137], [0.0], TRUNC).residual,
    ])
    return {"max_residual": np.max(np.abs(residuals))}


# ---------------------------------------------------------------- flat


@_entry("criterion_05_flat_horizontal_pipeline", "flat",
        gamma_err=("<=", 1e-12), closed_form_err=("<=", 1e-12), sweep_mismatches=("==", 0))
def _flat_pipeline():
    # gamma = -(1 - c)/2 on a flat interface: evolved zero data and zero data
    gamma_err = 0.0
    for c in (0.5, 1.0, 1.5):
        f0 = GridFunction1D.zeros(128, LENGTH)
        final = evolution.integrate(f0, c=c, delta=4 * f0.h, kappa=1e-3, dt=0.01, t_end=0.04,
                                    output_every=4, trunc_radius=5.0).snapshots[-1]
        cases = [(final.f, final.width, (-0.7, 0.0, 0.4), 5.0),
                 (f0, EPS, (-0.9, 0.0, 0.2, 0.4), _whole_period(f0))]
        for f, width, fracs, trunc in cases:
            lams = [frac * width for frac in fracs]
            s = subsolution.site_samples(f, width, c, [f.n // 2], lams, trunc)  # the site at x = 0
            gamma_err = max(gamma_err, float(np.max(np.abs(s.gamma - (-(1 - c) / 2)))))

    closed = 0.0
    for mu1, mu2, sg, c in ((1.0, 0.0, -1, 1.0), (0.0, 1.0, 1, 0.5), (1.0, 1.0, -1, 0.25)):
        expected = 0.5 * (mu1 / np.hypot(mu1, mu2) + sg * c)
        gamma = flatlab.flat_gamma(flatlab.FlatConfig(mu1, mu2, sg, c))
        closed = max(closed, abs(gamma - expected))

    # |gamma| < 1/2 exactly on the admissible interval: two sweeps and random states
    cs = np.linspace(0.05, 3.0, 30)
    sweeps = [(1.0, 0.0, -1, (0.0, 2.0), cs),
              (1.0, 1.0, -1, flatlab.flat_admissible_c(1.0, 1.0, -1), cs)]
    rng = np.random.default_rng(9)
    for _ in range(40):
        mu1, mu2, sg = rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0), int(rng.choice([-1, 1]))
        interval = flatlab.flat_admissible_c(mu1, mu2, sg)
        sweeps.append((mu1, mu2, sg, interval, rng.uniform(0.01, 3.0, 6)))
    mismatches = 0
    for mu1, mu2, sg, interval, cs in sweeps:
        for c in cs:
            inside = interval is not None and interval[0] < c < interval[1]
            gamma = flatlab.flat_gamma(flatlab.FlatConfig(mu1, mu2, sg, float(c)))
            mismatches += int((abs(gamma) < 0.5) != inside)
    return {"gamma_err": gamma_err, "closed_form_err": closed, "sweep_mismatches": mismatches}


def _edge_and_beyond(interval):
    upper = interval[1] if interval else 1.0
    return upper * np.concatenate([np.linspace(0.15, 0.85, 5), [1.0, 1.1, 1.3, 1.7, 2.4]])


def _inside_and_beyond(interval):
    if interval is None:
        return np.linspace(0.1, 2.0, 10)
    return interval[1] * np.concatenate([np.linspace(0.1, 0.9, 5), [1.05, 1.2, 1.5, 2.0, 3.0]])


@_entry("criterion_06_hull_membership_sweep", "flat", cases=(">=", 200), misclassified=("==", 0))
def _hull_membership():
    # 2 x 20 random directions and signs, 10 growth rates each; on the
    # interval edge the verdict may be boundary or fail within the band
    cases = misclassified = 0
    for seed, growth_rates in ((6, _edge_and_beyond), (21, _inside_and_beyond)):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            angle = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05)
            mu1, mu2 = float(np.cos(angle)), float(np.sin(angle))
            sg = int(rng.choice([-1, 1]))
            interval = flatlab.flat_admissible_c(mu1, mu2, sg)
            for row in flatlab.flat_hull_sweep(mu1, mu2, sg, growth_rates(interval)):
                cases += 1
                inside = interval is not None and interval[0] < row["c"] < interval[1]
                if interval is not None and abs(row["c"] - interval[1]) <= 1e-12:
                    ok = row["status"] in ("boundary", "fail") and row["min_slack"] <= 2e-6
                else:
                    ok = row["status"] == ("pass" if inside else "fail")
                misclassified += int(not ok)
    return {"cases": cases, "misclassified": misclassified}


@_entry("admissible_intervals", "flat", max_endpoint_err=("<=", 1e-14))
def _admissible_intervals():
    cases = [((1.0, 0.0, -1), (0.0, 2.0)), ((1.0, 0.0, 1), None),
             ((1.0, 1.0, 1), (0.0, 1.0 - 1.0 / np.sqrt(2.0))), ((0.0, 1.0, 1), (0.0, 1.0))]
    worst = 0.0
    for args, want in cases:
        got = flatlab.flat_admissible_c(*args)
        if (got is None) != (want is None):
            worst = np.inf
        elif got is not None:
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    return {"max_endpoint_err": worst}


@_entry("transport_identity", "flat", max_residual=("<=", 1e-12))
def _transport_identity():
    def either_sign(rng):
        return rng.uniform(-2, 2) or 1.0

    def away_from_zero(rng):
        return rng.uniform(0.1, 2) * rng.choice([-1, 1])

    worst = 0.0
    for seed, draw_mu2, s_max in ((3, either_sign, 1.0), (12, away_from_zero, 2.0)):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            cfg = flatlab.FlatConfig(mu1=rng.uniform(0, 2), mu2=float(draw_mu2(rng)),
                                     sigma_sign=int(rng.choice([-1, 1])), c=rng.uniform(0.1, 1.5))
            t = rng.uniform(0.2, 1.0)
            lam = rng.uniform(-0.9, 0.9) * cfg.c * t
            x = flatlab.to_physical(cfg, rng.uniform(-s_max, s_max), lam)
            worst = max(worst, abs(flatlab.transport_residual(cfg, x, t)))
    return {"max_residual": worst}


@_entry("horizontal_unstable_sweep", "flat", status_mismatches=("==", 0), edge_slack=("<=", 2e-6))
def _horizontal_sweep():
    # interval (0, 2): c = 1 inside, c = 2 on the edge, c = 2.5 outside
    rows = flatlab.flat_hull_sweep(1.0, 0.0, -1, [1.0, 2.0, 2.5])
    statuses = [row["status"] for row in rows]
    mismatches = sum(s != want for s, want in zip(statuses, ("pass", "boundary", "fail")))
    return {"status_mismatches": mismatches, "edge_slack": abs(rows[1]["min_slack"])}
