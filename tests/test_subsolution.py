import numpy as np
import pytest
from _table import run_check

from mixzone import evolution, subsolution
from mixzone.grid import GridFunction1D, spectral_derivative
from mixzone.subsolution import HullMargin, MixCoords, SubsolutionSample

LENGTH = 40.0
EPS = 0.05


@pytest.fixture(scope="module")
def bump():
    return GridFunction1D.from_callable(lambda x: 0.1 * np.exp(-(x**2)), 256, LENGTH)


@pytest.fixture(scope="module")
def flat():
    return GridFunction1D.zeros(128, LENGTH)


def evolution_rhs(f, width, trunc_radius=None):
    r = trunc_radius if trunc_radius is not None else f.length / 2 - f.h
    g = spectral_derivative(f.values, f.length)
    return -evolution.kernel_quadrature(f.values, g, f.length, width, r)


def test_flat_velocity_vanishes(flat):
    u = subsolution.velocity_field(flat, EPS, MixCoords(0.0, 0.2 * EPS))
    assert abs(u[1]) == 0.0
    assert abs(u[0]) <= 1e-15


def test_flat_velocity_translation_invariant(flat):
    u1 = subsolution.velocity_field(flat, EPS, MixCoords(0.0, 0.0))
    u2 = subsolution.velocity_field(flat, EPS, MixCoords(5.0, 0.0))
    assert u1[0] == pytest.approx(u2[0], abs=1e-15)


def test_velocity_rejects_outside_strip(bump):
    with pytest.raises(ValueError):
        subsolution.velocity_field(bump, EPS, MixCoords(0.0, 2 * EPS))


def test_velocity_requires_grid_aligned_site(bump):
    with pytest.raises(ValueError):
        subsolution.velocity_field(bump, EPS, MixCoords(0.077, 0.0))


@pytest.mark.parametrize("w", [1e-6, 1e-4, 1e-2, 0.5])
def test_transverse_average_matches_gauss_legendre(bump, w):
    # closed form vs a 96-node Gauss-Legendre average over lam' in [-w, w],
    # on the far offsets and the singular-cell nodes the rule resolves
    site = subsolution._SiteVelocity(subsolution._Snapshot(bump, w, 10.0), 131)
    y = site.y_near[np.abs(site.y_near) >= w]
    dx = np.concatenate([site.dx, y])
    xg, wg = np.polynomial.legendre.leggauss(96)
    for frac in (-0.9, 0.0, 0.4):
        d = np.concatenate([site.df, site.slope * y]) + frac * w
        exact = site._inner(dx, d)
        z = d[:, None] - w * xg[None, :]
        oracle = (dx[:, None] / (dx[:, None] ** 2 + z**2) * wg[None, :]).sum(axis=1) / 2.0
        assert np.max(np.abs(exact - oracle) / np.abs(oracle)) <= 1e-13


@pytest.mark.parametrize("w", [1e-10, 1e-6, 1e-4, 1e-2, 0.1, 0.5])
def test_lambda_integral_matches_mpmath(bump, w):
    # closed form vs the 50-digit mixed second difference of
    # A(u) = u arctan(u/x) - (x/2) log(x^2 + u^2), whose cancellation
    # float64 cannot afford; on far offsets and near-cell nodes of both
    # signs (into the innermost panel, (0, 4h 4^-8]), steep near-cell
    # slopes, the clamped half strips of the report (their 1e-6 w edge
    # slivers included) and the full strip, with d shifted so d + lam
    # crosses +-w, and on random points with a corner of the difference
    # within x of the singularity u = 0
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50

    def oracle(x, d, a, b):
        x, d, a, b, ww = (mp.mpf(float(v)) for v in (x, d, a, b, w))

        def anti(u):
            return u * mp.atan(u / abs(x)) - abs(x) / 2 * mp.log(x * x + u * u)

        diff = anti(d + b + ww) - anti(d + b - ww) - anti(d + a + ww) + anti(d + a - ww)
        return float(mp.sign(x) * diff / (2 * ww))

    site = subsolution._SiteVelocity(subsolution._Snapshot(bump, w, 10.0), 131)
    lam = subsolution._lambda_fractions(9) * w
    a = np.append(np.where(lam <= 0, -w, lam), -w)
    b = np.append(np.where(lam <= 0, lam, w), w)
    far = np.arange(0, site.dx.size, 13)
    near = np.union1d(np.arange(0, site.y_near.size, 31), np.argsort(np.abs(site.y_near))[:2])
    assert np.min(np.abs(site.y_near[near])) < 4 * bump.h * 4.0**-8
    assert np.any(site.dx[far] < 0) and np.any(site.y_near[near] < 0)
    cases = []
    for shift in (0.0, w, -w):
        for slope in (site.slope, 5.0, -5.0):
            x = np.concatenate([site.dx[far], site.y_near[near]])
            d = np.concatenate([site.df[far], slope * site.y_near[near]]) + shift
            got = subsolution._lambda_integral(x[:, None], d[:, None], a, b, w)
            cases += [(got[i, k], x[i], d[i], a[k], b[k]) for i in range(x.size) for k in range(a.size)]
    rng = np.random.default_rng(int(-np.log10(w)))
    for _ in range(60):
        k = rng.integers(a.size)
        x = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.5, 1.0)
        corner = rng.choice([a[k] - w, a[k] + w, b[k] - w, b[k] + w])
        d = -corner + rng.uniform(-3.0, 3.0) * abs(x) * 10.0 ** rng.uniform(-3.0, 0.0)
        got = subsolution._lambda_integral(np.array([[x]]), np.array([[d]]), a[k], b[k], w)
        cases.append((got[0, 0], x, d, a[k], b[k]))
    worst = max(abs(got - want) / abs(want)
                for got, *args in cases for want in [oracle(*args)])
    assert worst <= 1e-12


def _composite_gl(a, b, panels):
    # 8-node Gauss-Legendre on equal panels: the lam rule the closed form replaced
    xg, wg = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mids[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


@pytest.mark.parametrize("w", [1e-4, 1e-2, EPS, 0.5])
def test_gamma_matches_gauss_legendre(bump, w):
    # gamma and the zero-mean residual from the closed form vs composite GL
    # over the same velocities (16 panels per strip width)
    dtz = evolution_rhs(bump, w, trunc_radius=10.0)
    for j in (116, 128, 132):
        site = subsolution._SiteVelocity(subsolution._Snapshot(bump, w, 10.0), j)
        lams = subsolution._lambda_fractions(9) * w
        _, _, _, gamma, resid = site.samples(lams, 1.0, float(dtz[j]))
        x, wt = _composite_gl(-w, w, 16)
        assert abs(resid) <= 1e-15
        assert abs(((site.velocities(x)[2] - dtz[j]) * wt).sum()) <= 1e-15
        for lam, g in zip(lams, gamma):
            a, b = (-w, lam) if lam <= 0 else (lam, w)
            x, wt = _composite_gl(a, b, max(2, int(np.ceil(16 * (b - a) / (2 * w)))))
            half = ((site.velocities(x)[2] - dtz[j]) * wt).sum() * (1.0 if lam <= 0 else -1.0)
            assert abs(g - half / ((1.0 - (lam / w) ** 2) * w)) <= 1e-14


def test_tangential_identity():
    run_check("tangential_identity")


def test_modified_velocity_is_vertical(bump):
    uc = subsolution.velocity_modified(bump, EPS, MixCoords(bump.x[131], 0.2 * EPS))
    assert uc[0] == 0.0


def test_strip_average_matches_evolution_rhs(bump):
    # the transverse mean of the modified velocity is the interface speed
    dtz = evolution_rhs(bump, EPS, trunc_radius=10.0)
    for j in (120, 128, 140):
        site = subsolution._SiteVelocity(subsolution._Snapshot(bump, EPS, 10.0), j)
        assert site.strip_average() == pytest.approx(dtz[j], abs=1e-15)


def test_zero_mean_identity():
    run_check("zero_mean_identity")


def test_gamma_rejects_closed_strip(bump):
    with pytest.raises(ValueError):
        subsolution.gamma_sharp(bump, EPS, 1.0, MixCoords(0.0, EPS))


def test_gamma_continuous_across_zero(bump):
    j = 131
    dtz = float(evolution_rhs(bump, EPS, 10.0)[j])
    site = subsolution._SiteVelocity(subsolution._Snapshot(bump, EPS, 10.0), j)
    lo = site.gamma(-1e-9 * EPS, 1.0, dtz)
    hi = site.gamma(1e-9 * EPS, 1.0, dtz)
    assert abs(hi - lo) <= 1e-6


def test_gamma_bounded_near_edges(bump):
    j = 131
    dtz = float(evolution_rhs(bump, EPS, 10.0)[j])
    site = subsolution._SiteVelocity(subsolution._Snapshot(bump, EPS, 10.0), j)
    for frac in (-1 + 1e-6, 1 - 1e-6):
        g = site.gamma(frac * EPS, 1.0, dtz)
        assert np.isfinite(g) and abs(g) < 0.5


def test_build_fields_boundary_matching():
    run_check("boundary_matching")


def test_build_fields_center_sample(bump):
    (sample,) = subsolution.build_fields(
        bump, EPS, 1.0, [MixCoords(bump.x[128], 0.0)], trunc_radius=10.0
    )
    assert sample.rho == 0.0
    # m = rho u - (gamma + 1/2)(1 - rho^2) e2: at rho = 0 the e-part is (0, 1/2)
    assert sample.m[1] == pytest.approx(-(sample.gamma + 0.5), rel=1e-12)
    assert sample.m[0] == pytest.approx(0.0, abs=1e-15)


def test_build_fields_flat_unit_rate(flat):
    lattice = [MixCoords(0.0, lam) for lam in (-0.6 * EPS, 0.2 * EPS)]
    samples = subsolution.build_fields(flat, EPS, 1.0, lattice)
    for s, lam in zip(samples, (-0.6 * EPS, 0.2 * EPS)):
        rho = lam / EPS
        expected_m = rho * s.u - 0.5 * (1 - rho**2) * np.array([0.0, 1.0])
        assert np.allclose(s.m, expected_m, atol=1e-12)
        assert abs(s.gamma) <= 1e-12


def test_hull_check_interior_point():
    s = SubsolutionSample(rho=0.0, u=np.zeros(2), m=np.array([0.0, -0.25]), gamma=0.0)
    margin = subsolution.hull_check(s, 2.0)
    assert margin.slack1 == pytest.approx(0.25)
    assert margin.strict


def test_hull_check_equality_case():
    # m = 0 at rho = 0, u = 0 sits exactly on the first constraint sphere
    s = SubsolutionSample(rho=0.0, u=np.zeros(2), m=np.zeros(2), gamma=0.0)
    margin = subsolution.hull_check(s, 2.0)
    assert margin.slack1 == 0.0
    assert not margin.strict
    # pushing m upward violates the constraint by exactly the push
    for zeta in (1e-3, 1e-6):
        s2 = SubsolutionSample(rho=0.0, u=np.zeros(2), m=np.array([0.0, zeta]), gamma=0.0)
        assert subsolution.hull_check(s2, 2.0).slack1 == pytest.approx(-zeta)


def test_hull_check_rejects_small_bound():
    s = SubsolutionSample(rho=0.0, u=np.zeros(2), m=np.zeros(2), gamma=0.0)
    with pytest.raises(ValueError):
        subsolution.hull_check(s, 1.0)


def test_hull_slacks_match_hull_check_bitwise():
    # the array form the report uses and the scalar API give the same bits,
    # on interior, boundary (rho = +-1, m = rho u) and violating samples
    rng = np.random.default_rng(11)
    rho = np.concatenate([rng.uniform(-1, 1, 40), [-1.0, 1.0, -1.0, 1.0, 0.0, 0.5]])
    u = rng.normal(0.0, 0.3, (rho.size, 2))
    m = rho[:, None] * u
    m[:, 1] -= rng.uniform(0.0, 1.0, rho.size) * (1.0 - rho**2)
    m[-2:] += np.array([[0.0, 0.4], [3.0, -2.0]])  # pushed out of the hull
    slacks = subsolution._hull_slacks(rho, u, m, 4.0)
    assert slacks.min() < 0.0 < slacks.max()
    for k in range(rho.size):
        margin = subsolution.hull_check(SubsolutionSample(rho[k], u[k], m[k], 0.0), 4.0)
        scalar = [margin.slack1, margin.slack2, margin.slack3, margin.slack4]
        assert np.array_equal(slacks[k], scalar)


def test_hull_margin_min_slack():
    m = HullMargin(slack1=0.1, slack2=3.0, slack3=-0.2, slack4=1.0, m_bound=9.0)
    assert m.min_slack == -0.2 and not m.strict


def test_choose_m_values():
    assert subsolution.choose_M(np.zeros((3, 2))) == pytest.approx(8.0, rel=1e-5)
    u = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert subsolution.choose_M(u) == pytest.approx(16.0, rel=1e-5)
    with pytest.raises(ValueError):
        subsolution.choose_M(np.zeros((0, 2)))


def test_choose_m_stable_under_lattice_refinement(bump):
    def m_for(n_lambda):
        lams = np.linspace(-EPS, EPS, n_lambda)
        lattice = [MixCoords(bump.x[j], lam) for j in (120, 128, 136) for lam in lams]
        samples = subsolution.build_fields(bump, EPS, 1.0, lattice, trunc_radius=10.0)
        return subsolution.choose_M(np.array([s.u for s in samples]))

    m9, m17 = m_for(9), m_for(17)
    assert abs(m9 - m17) / m17 <= 0.02


def test_report_flat_trajectory():
    f = GridFunction1D.zeros(128, LENGTH)
    c = 0.5
    traj = evolution.integrate(f, c=c, delta=4 * f.h, kappa=1e-3, dt=0.025, t_end=0.05)
    rows = subsolution.subsolution_report(traj, s_indices=[32, 64], n_lambda=5)
    assert rows
    for row in rows:
        assert row["max_gamma"] == pytest.approx(abs(1 - c) / 2, abs=1e-10)
        assert row["ok"]


def test_report_empty_trajectory():
    assert subsolution.subsolution_report(evolution.Trajectory()) == []


def test_report_reproducible(bump):
    traj = evolution.integrate(
        bump, c=1.0, delta=4 * bump.h, kappa=1e-3, dt=0.025, t_end=0.025, output_every=1
    )
    r1 = subsolution.subsolution_report(traj, s_indices=[120, 128], n_lambda=5)
    r2 = subsolution.subsolution_report(traj, s_indices=[120, 128], n_lambda=5)
    assert r1 == r2


def test_report_matches_scalar_api(bump):
    traj = evolution.integrate(
        bump, c=1.0, delta=4 * bump.h, kappa=1e-3, dt=0.025, t_end=0.025, output_every=1
    )
    sites, r = (118, 128, 138), evolution.DEFAULT_TRUNC_RADIUS
    rows = subsolution.subsolution_report(traj, s_indices=sites, n_lambda=5, trunc_radius=r)
    assert len(rows) == len(traj.snapshots) == 2
    for row, state in zip(rows, traj.snapshots):
        f, w, c = state.f, state.width, state.c
        dtz = evolution_rhs(f, w, trunc_radius=r)
        samples, resids = [], []
        for j in sites:
            x = float(f.x[j])
            resids.append(abs(subsolution.zero_mean_residual(f, w, x, float(dtz[j]), r)))
            for lam in subsolution._lambda_fractions(5) * w:
                pt = MixCoords(x, lam)
                u = subsolution.velocity_field(f, w, pt, r)
                gamma = subsolution.gamma_sharp(f, w, c, pt, float(dtz[j]), r)
                rho = lam / w
                m = rho * u - (gamma + 0.5) * (1 - rho**2) * np.array([0.0, 1.0])
                samples.append(SubsolutionSample(rho, u, m, gamma))
        m_bound = subsolution.choose_M(np.array([s.u for s in samples]))
        assert row["m_bound"] == pytest.approx(m_bound, rel=1e-12)
        assert row["max_gamma"] == pytest.approx(max(abs(s.gamma) for s in samples), abs=1e-12)
        min_slack = min(subsolution.hull_check(s, m_bound).min_slack for s in samples)
        assert row["min_slack"] == pytest.approx(min_slack, abs=1e-12)
        assert row["zero_mean_residual"] == pytest.approx(max(resids), abs=1e-12)
