import numpy as np
import pytest
from _table import run_check

from mixzone import evolution, kernel, spectral, subsolution
from mixzone.grid import GridFunction1D, spectral_derivative

LENGTH = 40.0
EPS = 0.05


@pytest.fixture(scope="module")
def bump():
    return GridFunction1D.from_callable(lambda x: 0.1 * np.exp(-(x**2)), 256, LENGTH)


@pytest.fixture(scope="module")
def flat():
    return GridFunction1D.zeros(128, LENGTH)


def whole_period(f):
    return f.length / 2 - f.h


def test_snapshot_derivatives_match_spectral_derivative(bump):
    # g = f' and its derivatives 0-5 from one transform pair, against one
    # spectral_derivative pair each: equal up to the roundoff of g, which
    # order k amplifies by up to (2 pi xi_max)^k, about 20^k here
    snap = subsolution._Snapshot(bump, 0.1, evolution.DEFAULT_TRUNC_RADIUS)
    g = spectral_derivative(bump.values, bump.length)
    want = np.stack([spectral_derivative(g, bump.length, k) for k in range(6)])
    amplify = (np.pi * bump.n / bump.length) ** np.arange(6)
    err = np.max(np.abs(snap.g_derivs - want), axis=1)
    assert np.all(err <= 1e-15 * amplify * np.max(np.abs(g)))
    assert np.array_equal(snap.g, snap.g_derivs[0])


@pytest.mark.parametrize("n", [64, 256, 1024, 2048])
def test_snapshot_slope_is_bitwise_spectral_derivative(n):
    # site_samples reads the quadrature's g = f' from the snapshot, so the
    # batched transform's first row must be spectral_derivative bit for bit
    f = GridFunction1D(np.random.default_rng(n).standard_normal(n), LENGTH)
    snap = subsolution._Snapshot(f, 0.1, evolution.DEFAULT_TRUNC_RADIUS)
    assert snap.g.tobytes() == spectral_derivative(f.values, f.length).tobytes()


def test_flat_velocity_vanishes(flat):
    # the site at x = 0
    (u,) = subsolution.site_samples(flat, EPS, 1.0, [64], [0.2 * EPS], whole_period(flat)).u
    assert abs(u[1]) == 0.0
    assert abs(u[0]) <= 1e-15


def test_flat_velocity_translation_invariant(flat):
    # the sites at x = 0 and x = 5
    u = subsolution.site_samples(flat, EPS, 1.0, [64, 80], [0.0], whole_period(flat)).u
    assert u[0, 0] == pytest.approx(u[1, 0], abs=1e-15)


def test_velocity_rejects_outside_strip(bump, monkeypatch):
    # the lams are checked before the whole-grid quadrature of dtz runs
    calls = []
    monkeypatch.setattr(subsolution, "kernel_quadrature", lambda *args: calls.append(args))
    for lams in ([2 * EPS], [0.0, -1.5 * EPS], [np.nan]):
        with pytest.raises(ValueError, match="half-width"):
            subsolution.site_samples(bump, EPS, 1.0, [128], lams)
    assert not calls


def _site(f, w, j):
    """A snapshot's quadrature data, and site j's far height differences and slope."""
    snap = subsolution._Snapshot(f, w, 10.0)
    return snap, f.values[j] - f.values[(j - snap.offsets) % f.n], snap.g[j]


def _full_cell(f):
    """The singular cell's nodes of both signs, with their moment rows y^k w, k = 0..5."""
    plan = evolution.quadrature_plan(f.n, f.h, 10.0)
    y = np.concatenate([-plan.near_y[::-1], plan.near_y])
    w_near = np.concatenate([plan.near_w[::-1], plan.near_w])
    return y, (y[:, None] ** np.arange(6) * w_near[:, None]).T


@pytest.mark.parametrize("w", [1e-6, 1e-4, 1e-2, 0.5])
def test_transverse_average_matches_gauss_legendre(bump, w):
    # closed form vs a 96-node Gauss-Legendre average over lam' in [-w, w],
    # on the far offsets and the singular-cell nodes the rule resolves
    snap, df, slope = _site(bump, w, 131)
    y = snap.y_near[np.abs(snap.y_near) >= w]
    dx = np.concatenate([snap.dx, y])
    xg, wg = np.polynomial.legendre.leggauss(96)
    for frac in (-0.9, 0.0, 0.4):
        d = np.concatenate([df, slope * y]) + frac * w
        exact = subsolution._inner(dx, d, w)
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

    snap, df, site_slope = _site(bump, w, 131)
    y_near = _full_cell(bump)[0]
    lam = subsolution._lambda_fractions(9) * w
    a = np.append(np.where(lam <= 0, -w, lam), -w)
    b = np.append(np.where(lam <= 0, lam, w), w)
    far = np.arange(0, snap.dx.size, 13)
    near = np.union1d(np.arange(0, y_near.size, 31), np.argsort(np.abs(y_near))[:2])
    assert np.min(np.abs(y_near[near])) < 4 * bump.h * 4.0**-8
    assert np.any(snap.dx[far] < 0) and np.any(y_near[near] < 0)
    cases = []
    for shift in (0.0, w, -w):
        for slope in (site_slope, 5.0, -5.0):
            x = np.concatenate([snap.dx[far], y_near[near]])
            d = np.concatenate([df[far], slope * y_near[near]]) + shift
            got = kernel.lambda_integral(x[:, None], d[:, None], a, b, w)
            cases += [(got[i, k], x[i], d[i], a[k], b[k]) for i in range(x.size) for k in range(a.size)]
    rng = np.random.default_rng(int(-np.log10(w)))
    for _ in range(60):
        k = rng.integers(a.size)
        x = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.5, 1.0)
        corner = rng.choice([a[k] - w, a[k] + w, b[k] - w, b[k] + w])
        d = -corner + rng.uniform(-3.0, 3.0) * abs(x) * 10.0 ** rng.uniform(-3.0, 0.0)
        got = kernel.lambda_integral(np.array([[x]]), np.array([[d]]), a[k], b[k], w)
        cases.append((got[0, 0], x, d, a[k], b[k]))
    worst = max(abs(got - want) / abs(want)
                for got, *args in cases for want in [oracle(*args)])
    assert worst <= 1e-12


def _per_site_samples(f, w, c, sites, lams):
    """Reference for :func:`subsolution.site_samples`: one site at a time, each
    summing its own near cell of both signs at its own slope and its far
    offsets directly (no blocks, no slope tables, no mirrors)."""
    snap = subsolution._Snapshot(f, w, 10.0)
    y_near, near_wts = _full_cell(f)
    dtz = subsolution._default_dtz(f, spectral_derivative(f.values, f.length), w, 10.0)
    lam_g = np.clip(lams, -(1 - subsolution.EDGE_CLAMP) * w, (1 - subsolution.EDGE_CLAMP) * w)
    lower = lam_g <= 0
    a = np.append(np.where(lower, -w, lam_g), -w)
    b = np.append(np.where(lower, lam_g, w), w)
    nfar = snap.dx.size
    out = {"u": [], "m": [], "gamma": [], "uc2": []}
    for j in sites:
        back = (j - snap.offsets) % f.n
        df, slope, g_back = f.values[j] - f.values[back], snap.g[j], snap.g[back]
        x = np.concatenate([snap.dx, y_near])[:, None]
        d = np.concatenate([df, slope * y_near])[:, None]
        cols = np.concatenate([kernel.lambda_integral(x, d, a, b, w),
                               subsolution._inner(x, d + lams, w)], axis=1)
        far1, far2, farc = np.stack([snap.wts, snap.wts * g_back,
                                     snap.wts * (slope - g_back)]) @ cols[:nfar]
        jk = near_wts @ cols[nfar:]
        g0, g1, g2, g3, g4, g5 = snap.g_derivs[:, j]
        nearc = g1 * jk[1] - g2 / 2 * jk[2] + g3 / 6 * jk[3] - g4 / 24 * jk[4] + g5 / 120 * jk[5]
        u1, u2 = (far1 + jk[0]) / np.pi, (far2 + g0 * jk[0] - nearc) / np.pi
        uc2 = -(farc + nearc) / np.pi
        integrals = uc2[: a.size] - dtz[j] * (b - a)
        half = np.where(lower, integrals[:-1], -integrals[:-1])
        gamma = -(1 - c) / 2 + half / ((1 - (lam_g / w) ** 2) * w)
        rho = lams / w
        u = np.stack([u1[a.size:], u2[a.size:]], axis=1)
        m = rho[:, None] * u - ((gamma + 0.5) * (1 - rho * rho))[:, None] * [0.0, 1.0]
        for key, val in (("u", u), ("m", m), ("gamma", gamma), ("uc2", uc2[a.size:])):
            out[key].append(val)
    return {key: np.concatenate(val) for key, val in out.items()}


def _assert_matches_per_site(f, w, sites, lams=None):
    lams = subsolution._lambda_fractions(9) * w if lams is None else np.asarray(lams)
    got = subsolution.site_samples(f, w, 0.7, sites, lams, 10.0)
    ref = _per_site_samples(f, w, 0.7, sites, lams)
    for key, want in ref.items():
        assert np.max(np.abs(getattr(got, key) - want)) <= 1e-13, key


def _far_degree(snap, sites):
    """Degree of the far rows' tables for ``sites`` sites, as :func:`subsolution.site_samples` takes it."""
    return spectral.chebyshev_degree(snap.a_max, 2 * sites - 1)


def _tables(f, w, sites):
    """Whether the far rows and the near cell of ``sites`` take slope tables."""
    snap = subsolution._Snapshot(f, w, 10.0)
    top = np.max(np.abs(snap.g[list(sites)]))
    return (_far_degree(snap, len(sites)) is not None,
            spectral.slope_nodes(top, 2 * len(sites)) is not None)


@pytest.mark.parametrize("w", [1e-10, 1e-6, 1e-4, 1e-2, 0.1, 0.5])
@pytest.mark.parametrize("amp", [0.1, 1.0, 3.0])
def test_site_blocks_match_per_site_sums(w, amp):
    # every site: far rows and near cell from slope tables; every 4th site
    # across the bump: for the steep bumps too many nodes for 14 sites, so
    # per-site sums
    f = GridFunction1D.from_callable(lambda x: amp * np.exp(-(x**2)), 256, LENGTH)
    assert _tables(f, w, range(256)) == (True, True)
    _assert_matches_per_site(f, w, range(256))
    sites = range(100, 156, 4)
    assert _tables(f, w, sites) == ((True, True) if amp == 0.1 else (False, False))
    _assert_matches_per_site(f, w, sites)


@pytest.mark.parametrize("w", [1e-10, 1e-4, 0.1])
def test_site_blocks_match_per_site_sums_with_grid_ripple(w):
    # a ripple at the grid scale: g = f' drops the Nyquist mode, so the
    # spectral slopes stay those of the bump, but the mean slopes of odd far
    # offsets reach far beyond them; the far tables must span the one-cell
    # slopes
    bump = GridFunction1D.from_callable(lambda x: 0.1 * np.exp(-(x**2)), 256, LENGTH)
    f = bump.with_values(bump.values + 0.05 * (-1.0) ** np.arange(256))
    snap = subsolution._Snapshot(f, w, 10.0)
    mean = np.abs(f.values[133] - f.values[128]) / (5 * f.h)
    assert mean > 2.0 * np.max(np.abs(snap.g))
    assert _tables(f, w, range(256)) == (True, True)
    _assert_matches_per_site(f, w, range(256))


@pytest.mark.parametrize("w", [1e-4, EPS])
def test_site_blocks_asymmetric_lams(bump, w):
    # one lam: its mirror closure doubles the columns, and only the given
    # ones come back
    _assert_matches_per_site(bump, w, range(256), [0.2 * w])
    _assert_matches_per_site(bump, w, range(100, 156, 4), [0.2 * w, -0.7 * w, w])


@pytest.mark.parametrize("w", [1e-10, 1e-6, 1e-2, 0.1, 0.5])
def test_far_tables_match_direct_far_sums(bump, w):
    # the far rows alone, from the per-offset tables and by the direct sum
    # over every (site, offset, column)
    snap = subsolution._Snapshot(bump, w, 10.0)
    lams = subsolution._lambda_fractions(9) * w
    a = np.append(np.where(lams <= 0, -w, lams), -w)
    b = np.append(np.where(lams <= 0, lams, w), w)
    cols, _ = subsolution._closed_columns(a, b, lams)
    js = np.arange(bump.n)
    degree = _far_degree(snap, js.size)
    got = subsolution._far_rows(snap, bump.values, js, w, cols, degree)
    want = subsolution._far_rows(snap, bump.values, js, w, cols, None)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("w", [1e-6, 0.5])
def test_near_cell_has_the_parity_of_its_columns(bump, w):
    # J_k(-A) = -(-1)^k J_k(A) column for column (the column mirror is folded
    # into J_k): |A| <= 18 takes 742 nodes, so 400 slopes and their negatives;
    # the bound is the barycentric sums' roundoff (1e-15 to 4e-15 of each
    # column's largest value measured), and a mirror of the opposite sign
    # misses it by O(1)
    snap = subsolution._Snapshot(bump, w, 10.0)
    lams = subsolution._lambda_fractions(9) * w
    a = np.append(np.where(lams <= 0, -w, lams), -w)
    b = np.append(np.where(lams <= 0, lams, w), w)
    cols, _ = subsolution._closed_columns(a, b, lams)
    slopes = np.random.default_rng(12).uniform(-18.0, 18.0, 400)
    slopes[0] = 18.0
    assert spectral.slope_nodes(18.0, 800).size == 742
    jk = subsolution._near_cell(snap, np.concatenate([slopes, -slopes]), w, cols)
    scale = np.max(np.abs(jk), axis=0)
    assert np.all(np.abs(jk[400:] + subsolution._PARITY * jk[:400]) <= 1e-14 * scale)


def test_closed_columns_mirror():
    w = 0.5
    lams = subsolution._lambda_fractions(9) * w
    a = np.append(np.where(lams <= 0, -w, lams), -w)
    b = np.append(np.where(lams <= 0, lams, w), w)
    cols, pick = subsolution._closed_columns(a, b, lams)
    # the report's symmetric lams: [0, w] joins [-w, 0]
    assert cols.mirror.size == 20 and cols.a.size == 11
    assert np.array_equal(cols.a[pick[:10]], a) and np.array_equal(cols.b[pick[:10]], b)
    assert np.array_equal(cols.lams[pick[10:] - 11], lams)
    assert np.array_equal(cols.a[cols.mirror[:11]], -cols.b)
    assert np.array_equal(cols.lams[cols.mirror[11:] - 11], -cols.lams)
    assert np.array_equal(cols.mirror[cols.mirror], np.arange(20))


def _count_entries(monkeypatch, f):
    """Far and near column entries evaluated from here on, by the size of |x| against the near cell."""
    seen = {"far": 0, "near": 0}

    def counted(fn):
        def wrapper(x, *args):
            out = fn(x, *args)
            seen["far" if np.min(np.abs(x)) >= 4 * f.h else "near"] += out.size
            return out
        return wrapper

    monkeypatch.setattr(subsolution, "lambda_integral", counted(subsolution.lambda_integral))
    monkeypatch.setattr(subsolution, "_inner", counted(subsolution._inner))
    return seen


def test_report_entry_counts(monkeypatch, bump):
    # the report's 32 sites and 9 lams (20 mirror-closed columns) on the 0.1
    # bump: the far rows evaluate their table at the nodes t >= 0 only, the
    # near cell its half cell at the nonnegative nodes of [-M, M]
    state = evolution.InterfaceState(f=bump, t=EPS)
    snap = subsolution._Snapshot(bump, EPS, 10.0)
    n_pos = snap.offsets.size // 2
    a_max = np.max(np.abs(np.diff(bump.values, prepend=bump.values[-1]))) / bump.h
    degree = spectral.chebyshev_degree(a_max, np.inf)
    sites = range(0, 256, 8)
    top = np.max(np.abs(snap.g[sites]))
    nodes = spectral.slope_nodes(top).size
    assert (degree, nodes) == (13, 12)
    seen = _count_entries(monkeypatch, bump)
    subsolution.subsolution_report([state])
    assert seen == {"far": (degree + 2) // 2 * n_pos * 20, "near": (nodes + 1) // 2 * 144 * 20}


def test_steep_bump_few_sites_take_per_site_sums(monkeypatch):
    f = GridFunction1D.from_callable(lambda x: 3.0 * np.exp(-(x**2)), 256, LENGTH)
    sites = range(100, 156, 4)
    seen = _count_entries(monkeypatch, f)
    subsolution.site_samples(f, EPS, 1.0, sites, subsolution._lambda_fractions(9) * EPS, 10.0)
    n_far = subsolution._Snapshot(f, EPS, 10.0).offsets.size
    assert seen == {"far": 14 * n_far * 20, "near": 14 * 144 * 20}


def test_site_blocks_flat_take_one_node(flat):
    sites = range(0, 128, 5)
    snap = subsolution._Snapshot(flat, EPS, 10.0)
    assert _far_degree(snap, len(sites)) == 0
    assert spectral.slope_nodes(0.0).size == 1
    _assert_matches_per_site(flat, EPS, sites)


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
    # over the sampled modified velocity (16 panels per strip width)
    sites = (116, 128, 132)
    dtz = subsolution._default_dtz(bump, spectral_derivative(bump.values, bump.length), w, 10.0)
    lams = subsolution._lambda_fractions(9) * w
    samples = subsolution.site_samples(bump, w, 1.0, sites, lams, 10.0)
    # the full strip, then each gamma's half strip
    rules = [_composite_gl(-w, w, 16)]
    for lam in lams:
        a, b = (-w, lam) if lam <= 0 else (lam, w)
        rules.append(_composite_gl(a, b, max(2, int(np.ceil(16 * (b - a) / (2 * w))))))
    nodes = np.concatenate([x for x, _ in rules])
    uc2 = subsolution.site_samples(bump, w, 1.0, sites, nodes, 10.0).uc2.reshape(len(sites), -1)
    ends = np.cumsum([x.size for x, _ in rules])[:-1]
    blocks = np.split(uc2 - dtz[list(sites)][:, None], ends, axis=1)
    integrals = np.stack([(blk * wt).sum(axis=1) for blk, (_, wt) in zip(blocks, rules)], axis=1)
    assert np.max(np.abs(samples.residual)) <= 1e-15
    assert np.max(np.abs(integrals[:, 0])) <= 1e-15
    half = integrals[:, 1:] * np.where(lams <= 0, 1.0, -1.0)
    gamma = samples.gamma.reshape(len(sites), -1)
    assert np.max(np.abs(gamma - half / ((1.0 - (lams / w) ** 2) * w))) <= 1e-14


def test_tangential_identity():
    run_check("tangential_identity")


def test_strip_average_matches_evolution_rhs(bump):
    # the transverse mean of the modified velocity is the interface speed:
    # the residual int (u_c2 - dtz) dlam over the strip width 2 EPS
    residual = subsolution.site_samples(bump, EPS, 1.0, (120, 128, 140), [0.0], 10.0).residual
    assert np.max(np.abs(residual / (2.0 * EPS))) <= 1e-15


def test_zero_mean_identity():
    run_check("zero_mean_identity")


def test_gamma_continuous_across_zero(bump):
    lo, hi = subsolution.site_samples(bump, EPS, 1.0, [131], [-1e-9 * EPS, 1e-9 * EPS], 10.0).gamma
    assert abs(hi - lo) <= 1e-6


def test_gamma_bounded_near_edges(bump):
    lams = [(-1 + 1e-6) * EPS, (1 - 1e-6) * EPS]
    gamma = subsolution.site_samples(bump, EPS, 1.0, [131], lams, 10.0).gamma
    assert np.all(np.isfinite(gamma)) and np.all(np.abs(gamma) < 0.5)


def test_build_fields_boundary_matching():
    run_check("boundary_matching")


def test_build_fields_center_sample(bump):
    s = subsolution.site_samples(bump, EPS, 1.0, [128], [0.0], 10.0)
    assert s.rho[0] == 0.0
    # m = rho u - (gamma + 1/2)(1 - rho^2) e2: at rho = 0 the e-part is (0, 1/2)
    assert s.m[0, 1] == pytest.approx(-(s.gamma[0] + 0.5), rel=1e-12)
    assert s.m[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_build_fields_flat_unit_rate(flat):
    lams = np.array([-0.6 * EPS, 0.2 * EPS])
    s = subsolution.site_samples(flat, EPS, 1.0, [64], lams, whole_period(flat))
    rho = lams / EPS
    expected_m = rho[:, None] * s.u - 0.5 * (1 - rho[:, None] ** 2) * np.array([0.0, 1.0])
    assert np.allclose(s.m, expected_m, atol=1e-12)
    assert np.max(np.abs(s.gamma)) <= 1e-12


def _slacks(m, m_bound=2.0):
    # the slacks of one sample at rho = 0, u = 0
    return subsolution.hull_slacks(np.zeros(1), np.zeros((1, 2)), np.array([m]), m_bound)[0]


def test_hull_check_interior_point():
    slacks = _slacks([0.0, -0.25])
    assert slacks[0] == pytest.approx(0.25)
    assert slacks.min() > 0.0


def test_hull_check_equality_case():
    # m = 0 at rho = 0, u = 0 sits exactly on the first constraint sphere
    slacks = _slacks([0.0, 0.0])
    assert slacks[0] == 0.0 and not slacks.min() > 0.0
    # pushing m upward violates the constraint by exactly the push
    for zeta in (1e-3, 1e-6):
        assert _slacks([0.0, zeta])[0] == pytest.approx(-zeta)


def test_hull_check_rejects_small_bound():
    with pytest.raises(ValueError):
        _slacks([0.0, 0.0], m_bound=1.0)


def test_choose_m_values():
    assert subsolution.choose_M(np.zeros((3, 2))) == pytest.approx(8.0, rel=1e-5)
    u = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert subsolution.choose_M(u) == pytest.approx(16.0, rel=1e-5)
    with pytest.raises(ValueError):
        subsolution.choose_M(np.zeros((0, 2)))


def test_choose_m_stable_under_lattice_refinement(bump):
    def m_for(n_lambda):
        lams = np.linspace(-EPS, EPS, n_lambda)
        return subsolution.choose_M(subsolution.site_samples(bump, EPS, 1.0, (120, 128, 136), lams,
                                                             10.0).u)

    m9, m17 = m_for(9), m_for(17)
    assert abs(m9 - m17) / m17 <= 0.02


def test_report_flat_trajectory():
    f = GridFunction1D.zeros(128, LENGTH)
    c = 0.5
    traj = evolution.integrate(f, c=c, delta=4 * f.h, kappa=1e-3, dt=0.025, t_end=0.05)
    rows = subsolution.subsolution_report(traj.snapshots, s_indices=[32, 64], n_lambda=5)
    assert rows
    for row in rows:
        assert row["max_gamma"] == pytest.approx(abs(1 - c) / 2, abs=1e-10)
        assert row["ok"]


def test_empty_site_list_is_rejected_by_name(bump):
    with pytest.raises(ValueError, match="s_indices"):
        subsolution.site_samples(bump, EPS, 1.0, [], [0.0])
    traj = evolution.integrate(bump, c=1.0, delta=4 * bump.h, kappa=1e-3, dt=0.025, t_end=0.025)
    with pytest.raises(ValueError, match="s_indices"):
        subsolution.subsolution_report(traj.snapshots, s_indices=[])


def test_report_empty_trajectory():
    assert subsolution.subsolution_report([]) == []


def test_report_reproducible(bump):
    traj = evolution.integrate(
        bump, c=1.0, delta=4 * bump.h, kappa=1e-3, dt=0.025, t_end=0.025, output_every=1
    )
    r1 = subsolution.subsolution_report(traj.snapshots, s_indices=[120, 128], n_lambda=5)
    r2 = subsolution.subsolution_report(traj.snapshots, s_indices=[120, 128], n_lambda=5)
    assert r1 == r2


def test_report_checks_each_snapshot_at_the_window_of_the_run(bump):
    # the window is part of each state: a run at trunc_radius = 5 is checked at 5
    traj = evolution.integrate(bump, c=1.0, delta=4 * bump.h, kappa=1e-3, dt=0.0125,
                               t_end=0.025, output_every=1, trunc_radius=5.0)
    rows = subsolution.subsolution_report(traj.snapshots, s_indices=[120, 128], n_lambda=5)
    assert len(rows) == len(traj.snapshots) == 3
    for row, state in zip(rows, traj.snapshots):
        assert state.trunc_radius == 5.0
        lams = subsolution._lambda_fractions(5) * state.width
        s = subsolution.site_samples(state.f, state.width, state.c, [120, 128], lams,
                                     trunc_radius=5.0)
        m_bound = subsolution.choose_M(s.u)
        assert row["m_bound"] == m_bound
        assert row["max_gamma"] == np.max(np.abs(s.gamma))
        assert row["min_slack"] == subsolution.hull_slacks(s.rho, s.u, s.m, m_bound).min()
        assert row["zero_mean_residual"] == np.max(np.abs(s.residual))


def test_report_matches_scalar_api(bump):
    # each row is the hull data of the samples, evaluated here one site
    # and one offset at a time, with the default window and rate
    traj = evolution.integrate(
        bump, c=1.0, delta=4 * bump.h, kappa=1e-3, dt=0.025, t_end=0.025, output_every=1
    )
    sites = (118, 128, 138)
    rows = subsolution.subsolution_report(traj.snapshots, s_indices=sites, n_lambda=5)
    assert len(rows) == len(traj.snapshots) == 2
    for row, state in zip(rows, traj.snapshots):
        f, w = state.f, state.width
        singles = [subsolution.site_samples(f, w, state.c, [j], [lam])
                   for j in sites for lam in subsolution._lambda_fractions(5) * w]
        rho, u, m, gamma, _, residual = (np.concatenate(col) for col in zip(*singles))
        m_bound = subsolution.choose_M(u)
        assert row["m_bound"] == pytest.approx(m_bound, rel=1e-12)
        assert row["max_gamma"] == pytest.approx(np.max(np.abs(gamma)), abs=1e-12)
        min_slack = subsolution.hull_slacks(rho, u, m, m_bound).min()
        assert row["min_slack"] == pytest.approx(min_slack, abs=1e-12)
        assert row["zero_mean_residual"] == pytest.approx(np.max(np.abs(residual)), abs=1e-12)
