import math
import warnings

import numpy as np
import pytest
from _table import run_check

from mixzone import spectral
from mixzone.grid import GridFunction1D


@pytest.fixture
def wave():
    return GridFunction1D.from_callable(
        lambda x: np.sin(2 * np.pi * x / 20.0) + 0.3 * np.cos(8 * np.pi * x / 20.0),
        256,
        20.0,
    )


def test_k_hat_rejects_zero_frequency():
    with pytest.raises(ValueError):
        spectral.k_hat(0.5, 0.0, 0.1)
    with pytest.raises(ValueError):
        spectral.k_hat(0.5, np.array([1.0, 0.0]), 0.1)


def test_k_hat_hermitian_symmetry():
    run_check("k_hat_hermitian_symmetry")


def test_k_hat_zero_slope_bracket():
    xi, eps = 3.7, 0.05
    s = xi * eps
    expected = (1 + (np.exp(-4 * np.pi * s) - 1) / (4 * np.pi * s)) * (
        -1j / (2 * np.pi * xi * eps)
    )
    assert spectral.k_hat(0.0, xi, eps) == pytest.approx(expected, rel=1e-14)


def test_k_hat_equals_complex_pole_form():
    # the transform can also be written through the two complex poles
    # sigma (1 -+ i A sign xi); both forms must agree identically
    rng = np.random.default_rng(13)
    for _ in range(60):
        a = rng.uniform(-2.5, 2.5)
        xi = rng.uniform(0.01, 40.0) * rng.choice([-1.0, 1.0])
        eps = rng.uniform(0.02, 0.8)
        sg = np.sign(xi)
        sigma = 1.0 / (1.0 + a * a)
        zp = 1.0 + 1j * a * sg
        zm = 1.0 - 1j * a * sg
        pole_form = (-1j * sg / (8 * np.pi * eps**2 * abs(xi))) * (
            4 * eps
            + (np.exp(-4 * np.pi * abs(xi) * sigma * eps * zm) - 1) / (2 * np.pi * abs(xi) * sigma * zm)
            + (np.exp(-4 * np.pi * abs(xi) * sigma * eps * zp) - 1) / (2 * np.pi * abs(xi) * sigma * zp)
        )
        assert spectral.k_hat(a, xi, eps) == pytest.approx(pole_form, rel=1e-12)


def test_damping_integrand_is_transform_times_derivative_symbol():
    # the structural relation behind the damping exponent: at eps = t the
    # kernel transform times the derivative symbol 2 pi i xi equals
    # |xi| times the exponent's integrand evaluated at t |xi|
    rng = np.random.default_rng(14)
    for _ in range(40):
        a = rng.uniform(-2, 2)
        xi = rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0])
        t = rng.uniform(0.01, 1.5)
        lhs = spectral.k_hat(a, xi, t) * (2j * np.pi * xi)
        rhs = abs(xi) * spectral.h_integrand(t * abs(xi), a)
        assert abs(lhs.imag) <= 1e-12 * abs(lhs.real)
        assert lhs.real == pytest.approx(rhs, rel=1e-10)


def test_k_hat_high_frequency_asymptote():
    # normalized symbol approaches 1 - 1/(4 pi s) + exponentially small terms
    eps = 0.07
    s = 1e4
    v = spectral.k_hat(1.3, s / eps, eps) * (2 * np.pi * s) / (-1j)
    assert abs(v - (1.0 - 1.0 / (4 * np.pi * s))) <= 1e-12
    assert abs(v - 1.0) <= 1e-5


def test_h_zero_and_monotone_start():
    assert spectral.H_integral(0.0, 1.0) == 0.0
    # integrand limit at 0 is 2 pi sigma
    a = 0.7
    sigma = 1 / (1 + a * a)
    assert spectral.h_integrand(1e-9, a) == pytest.approx(2 * np.pi * sigma, rel=1e-6)
    assert spectral.H_integral(1e-4, a) == pytest.approx(2 * np.pi * sigma * 1e-4, rel=1e-3)


def test_h_closed_form_matches_quadrature():
    run_check("h_closed_form_vs_quadrature")


def test_h_values_matches_mpmath():
    # 50-digit Re[Ein(w) - 1 + (1 - e^-w) / w], Ein(w) = gamma + log w + E1(w),
    # at random s in [1e-9, 1e3] and |A| <= 200, and where |w| crosses the
    # switch from the power series to the continued fraction near the
    # imaginary axis (|A| large), where the fraction converges slowest
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    rng = np.random.default_rng(21)
    s = np.concatenate([10.0 ** rng.uniform(-9, 3, 240), [1e-9, 1e3, 1e-9, 1e3]])
    a = rng.choice([-1.0, 1.0], 240) * 10.0 ** rng.uniform(-3, np.log10(200), 240)
    a = np.concatenate([a, [0.0, 0.0, 200.0, -200.0]])
    # |w| = 4 pi s / sqrt(1 + A^2) within 1 % of the switch radius 4
    a_edge = rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(0, np.log10(200), 60)
    s_edge = 4.0 * rng.uniform(0.99, 1.01, 60) * np.sqrt(1 + a_edge**2) / (4 * np.pi)
    s, a = np.concatenate([s, s_edge]), np.concatenate([a, a_edge])

    def h_exact(sv, av):
        sv, av = mp.mpf(sv), mp.mpf(av)
        w = 4 * mp.pi / (1 + av * av) * mp.mpc(1, av) * sv
        return float(mp.re(mp.euler + mp.log(w) + mp.e1(w) - 1 + (1 - mp.exp(-w)) / w))

    want = np.array([h_exact(sv, av) for sv, av in zip(s, a)])
    got = spectral.h_values(s, a)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert spectral.h_values(0.0, 3.0) == 0.0


def test_symbol_broadcast_matches_one_slope_calls():
    # each chunk of apply_mtilde_dinv's (node, mode) table is one broadcast
    # call; row for row it is the one-slope call, bit for bit (checked here
    # on 16 slopes of either sign)
    freqs = np.fft.fftfreq(256, d=40.0 / 256)
    k = np.arange(16)
    nodes = -0.5 + 2.5 * np.cos((2 * k + 1) * np.pi / 32)
    for t in (0.0, 1e-4, 0.3, 5.0):
        table = spectral.symbol_mtilde(freqs, nodes[:, None], t)
        rows = np.stack([spectral.symbol_mtilde(freqs, float(a), t) for a in nodes])
        assert np.array_equal(table, rows)
        m_table = spectral.symbol_m(freqs, nodes[:, None], t)
        assert np.array_equal(m_table, np.stack([spectral.symbol_m(freqs, float(a), t) for a in nodes]))


def test_h_minus_log_bounded():
    # |H - log(1+s)| <= C (1 + |A|); C = 2.2 is the measured constant
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        ss = np.logspace(-4, 4, 200)
        gap = np.abs(spectral.h_values(ss, a) - np.log1p(ss))
        assert gap.max() <= 2.2 * (1.0 + abs(a))


def test_symbols_at_zero_time():
    xi = np.array([-3.0, 0.5, 11.0])
    assert np.allclose(spectral.symbol_m(xi, 1.3, 0.0), 1.0)
    assert np.allclose(spectral.symbol_mtilde(xi, 1.3, 0.0), 1.0)


def test_mtilde_zero_slope_limit_converges():
    v1 = float(spectral.symbol_mtilde(1e4, 0.0, 1.0))
    v2 = float(spectral.symbol_mtilde(1e5, 0.0, 1.0))
    assert v1 > 0 and abs(v1 - v2) <= 1e-3


def test_multiplier_identity_and_contraction(wave):
    assert spectral.apply_dinv(wave, 0.8).l2_norm() <= wave.l2_norm()


def test_dinv_multiplier_roundtrip():
    run_check("dinv_multiplier_roundtrip")


def test_symbol_table_band():
    slope = GridFunction1D.from_callable(lambda x: 0.5 * np.sin(2 * np.pi * x / 20.0), 64 * 2, 20.0)
    table = spectral.mtilde_table(slope, 0.4)
    lo, hi = table.min(), table.max()
    assert 0.0 < lo <= hi < np.inf
    # entries inside exp(+-C (1 + max|A|)) with the measured constant C = 2.2
    amax = float(np.max(np.abs(slope.values)))
    assert lo >= np.exp(-2.2 * (1 + amax)) and hi <= np.exp(2.2 * (1 + amax))


def test_apply_mtilde_dinv_constant_slope_is_multiplier(wave):
    t = 0.5
    a0 = 0.8
    slope = GridFunction1D(np.full(wave.n, a0), wave.length)
    xi = wave.freqs()
    sym = spectral.symbol_mtilde(xi, a0, t) / (1.0 + t * np.abs(xi))
    via_mult = np.fft.ifft(np.fft.fft(wave.values) * sym).real
    for apply in (spectral.apply_mtilde_dinv, spectral.mtilde_dinv_mode_sum):
        via_op = apply(wave, slope, t)
        assert np.max(np.abs(via_op.values - via_mult)) <= 1e-10


def test_apply_mtilde_dinv_zero_time_identity(wave):
    slope = GridFunction1D.from_callable(lambda x: 0.3 * np.sin(np.pi * x / 10), wave.n, wave.length)
    for apply in (spectral.apply_mtilde_dinv, spectral.mtilde_dinv_mode_sum):
        out = apply(wave, slope, 0.0)
        assert np.max(np.abs(out.values - wave.values)) <= 1e-12


def test_apply_mtilde_dinv_fast_path_agrees(wave):
    slope = GridFunction1D.from_callable(
        lambda x: 0.5 * np.sin(2 * np.pi * x / 20.0), wave.n, wave.length
    )
    t = 0.3
    direct = spectral.mtilde_dinv_mode_sum(wave, slope, t)
    fast = spectral.apply_mtilde_dinv(wave, slope, t)
    assert np.max(np.abs(direct.values - fast.values)) <= 1e-8


def test_apply_mtilde_dinv_operator_norm_bound(wave):
    rng = np.random.default_rng(4)
    slope = GridFunction1D(rng.uniform(-1, 1, wave.n), wave.length)
    t = 0.2
    table = spectral.mtilde_table(slope, t)
    damped = spectral.apply_dinv(wave, t)
    for apply in (spectral.apply_mtilde_dinv, spectral.mtilde_dinv_mode_sum):
        out = apply(wave, slope, t)
        assert out.l2_norm() <= table.max() * damped.l2_norm() * (1 + 1e-12)


def test_coercivity_probe_flat_slope():
    n, length = 128, 20.0
    slope = GridFunction1D.zeros(n, length)
    t = 0.3
    ratio = spectral.coercivity_probe(slope, t, trials=10, seed=1)
    freqs = np.fft.fftfreq(n, d=length / n)
    floor = float(np.min(spectral.symbol_mtilde(freqs, 0.0, t)))
    assert ratio >= floor - 1e-10
    assert ratio > 0


def test_coercivity_probe_identity_at_zero_time():
    slope = GridFunction1D.from_callable(lambda x: 0.5 * np.sin(np.pi * x / 10), 128, 20.0)
    ratio = spectral.coercivity_probe(slope, 0.0, trials=10, seed=2)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_energy_properties(wave):
    slope = GridFunction1D.from_callable(lambda x: 0.2 * np.sin(np.pi * x / 10), wave.n, wave.length)
    zero = GridFunction1D.zeros(wave.n, wave.length)
    assert spectral.energy(zero, slope, 0.4) == 0.0
    e0 = spectral.energy(wave, slope, 0.0)
    assert e0 == pytest.approx(wave.l2_norm() ** 2, rel=1e-12)
    doubled = wave.with_values(2.0 * wave.values)
    assert spectral.energy(doubled, slope, 0.4) == pytest.approx(
        4.0 * spectral.energy(wave, slope, 0.4), rel=1e-10
    )
    tiny = wave.with_values(np.full(wave.n, 1e-14))
    assert spectral.energy(tiny, slope, 0.4) <= 1e-20


def _bump(n, amp, length=40.0):
    return GridFunction1D.from_callable(lambda x: amp * np.exp(-(x**2)), n, length)


@pytest.mark.parametrize("t", [0.1, 1.0])
@pytest.mark.parametrize("amp", [0.1, 1.0, 3.0, 30.0, 1000.0])  # largest slopes 0.086 to 857
@pytest.mark.parametrize("n", [256, 1024])
def test_apply_mtilde_dinv_matches_mode_sum_on_steep_bumps(n, amp, t):
    # the nodes in tau = asinh A are as many as the slope range needs, so
    # steep data keep the digits of shallow data
    f = _bump(n, amp)
    slope = f.derivative()
    ref = spectral.mtilde_dinv_mode_sum(f, slope, t).values
    got = spectral.apply_mtilde_dinv(f, slope, t).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _tau_nodes(top):
    """The weighted energy's Chebyshev points in ``tau = asinh A`` for ``|A| <= top``."""
    return spectral.slope_nodes(float(np.arcsinh(top)), semi_minor=spectral._TAU_SEMI_MINOR)


def test_apply_mtilde_dinv_site_on_a_node_takes_its_field():
    # slopes up to 30: 292 nodes in tau, 146 of them (t >= 0) evaluated, in
    # 3 chunks of 64 at n = 256; sites on both end nodes, and on nodes t > 0
    # of every chunk and their mirrors t < 0, take that node's field, at
    # the node slope sinh(T t_p), bit for bit
    n, t, top = 256, 0.4, 30.0
    f = _bump(n, 1.0)
    f = f.with_values(f.values + 0.2 * np.sin(np.arange(n)))
    t_nodes = _tau_nodes(top)
    d = t_nodes.size - 1
    assert d == 291
    values = np.random.default_rng(7).uniform(-25.0, 25.0, n)
    values[[0, 10]] = -top, top
    big = float(np.arcsinh(top))
    # the interior nodes whose slope maps back onto them
    nodes = [p for p in (5, 70, 71, 140, 145) if np.arcsinh(np.sinh(big * t_nodes[p])) / big == t_nodes[p]]
    assert len(nodes) >= 3
    on_node = {0: d, 10: 0}
    for k, p in enumerate(nodes):
        on_node[50 + 2 * k], on_node[51 + 2 * k] = p, d - p
        values[50 + 2 * k] = np.sinh(big * t_nodes[p])
        values[51 + 2 * k] = -values[50 + 2 * k]
    slope = GridFunction1D(values, f.length)
    got = spectral.apply_mtilde_dinv(f, slope, t).values
    xi = np.fft.rfftfreq(n, d=f.h)
    damped = np.fft.rfft(f.values) / (1.0 + t * xi)
    for site, p in on_node.items():
        field = np.fft.irfft(damped * spectral.symbol_mtilde(xi, np.sinh(big * t_nodes[p]), t), n=n)
        assert got[site] == field[site], (site, p)
    ref = spectral.mtilde_dinv_mode_sum(f, slope, t).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("amp", [0.1, 3.0, 1000.0])
def test_mtilde_and_the_weighted_energy_are_even_in_the_slope(amp):
    # mtilde is evaluated at |A|, so it is even bit for bit; the energy's
    # node -t_p takes the field of t_p and its terms at -t are those at t,
    # so it is even bit for bit too
    xi = np.fft.fftfreq(256, d=40.0 / 256)
    slopes = np.random.default_rng(13).uniform(-10.0, 10.0, 64)[:, None]
    for t in (0.0, 0.1, 1.0):
        assert np.array_equal(spectral.symbol_mtilde(xi, -slopes, t), spectral.symbol_mtilde(xi, slopes, t))
        assert np.array_equal(spectral.symbol_m(xi, -slopes, t), spectral.symbol_m(xi, slopes, t))
    f = _bump(256, amp)
    f = f.with_values(f.values + 0.3 * np.sin(np.arange(256)))
    slope = f.derivative()
    for t in (0.1, 1.0):
        got = spectral.apply_mtilde_dinv(f, slope, t).values
        assert np.array_equal(spectral.apply_mtilde_dinv(f, slope.with_values(-slope.values), t).values, got)


def test_apply_mtilde_dinv_node_count_is_logarithmic_in_the_slope(monkeypatch):
    # d = ceil(37 / asinh((pi / 6) / asinh M)): at most 900 nodes up to |A| = 1e5,
    # and the fields are taken at the (d + 2) // 2 nodes t >= 0 only, while
    # they do not outnumber the sites; beyond, one field a site
    counts = [_tau_nodes(top).size for top in np.logspace(-3, 5, 33)]
    assert counts == sorted(counts) and counts[-1] == 864 <= 900
    assert [_tau_nodes(top).size for top in (0.086, 2.55, 25.5)] == [16, 121, 280]
    rows, real = [], spectral.symbol_mtilde
    monkeypatch.setattr(spectral, "symbol_mtilde",
                        lambda xi, a, t: rows.append(np.size(a)) or real(xi, a, t))
    for n, fields in ((512, (864 + 1) // 2), (256, 256)):
        rows.clear()
        f = _bump(n, 1.0)
        values = np.linspace(-1e5, 1e5, n)
        spectral.apply_mtilde_dinv(f, GridFunction1D(values, f.length), 0.5)
        assert sum(rows) == fields


def test_chebyshev_degree_none_where_not_a_finite_integer():
    # log rho = asinh(0.5 / 1e308) is subnormal, so 37 / log rho overflows;
    # a range near the float limit takes no degree, however many nodes are allowed
    assert spectral.chebyshev_degree(1e308, math.inf) is None
    assert spectral.chebyshev_degree(1e308, math.inf, 0.9) is None
    assert spectral.slope_nodes(1e308) is None
    assert spectral.chebyshev_degree(1.0, math.inf) == 46


def test_chebyshev_half_is_the_widest_range_of_its_degree():
    # a_d = b / sinh(37 / d) inverts the degree rule: every degree up to the
    # caps (36 for the near band, n / 8 nodes for the near cell, 2 per site for
    # the check's) maps back to itself, and a range 1e-9 wider needs d + 1
    for d in range(0, 4097):
        half = spectral.chebyshev_half(d)
        assert spectral.chebyshev_degree(half, math.inf) == d, d
        if d:
            assert spectral.chebyshev_degree(half * (1.0 + 1e-9), math.inf) == d + 1, d
    assert spectral.chebyshev_half(0) == 0.0


def test_chebyshev_monomial_map_matches_cheb2poly():
    # the recurrence's integer entries are numpy.polynomial's conversion bit
    # for bit, up to degrees beyond those the tables reach
    from numpy.polynomial.chebyshev import cheb2poly

    for degree in range(64):
        to_monomial = spectral.chebyshev_maps(degree)[2]
        for k in range(degree + 1):
            want = np.zeros(degree + 1)
            want[: k + 1] = cheb2poly(np.eye(k + 1)[k])
            assert np.array_equal(to_monomial[:, k], want), (degree, k)


def test_apply_mtilde_dinv_is_finite_at_slopes_of_1e150(wave):
    # 1e150 takes 24,457 nodes in tau (the slope itself would take none): a
    # finite result, the mode sum's, and no warning; so does the float limit,
    # where sinh(asinh A) rounds past it
    assert _tau_nodes(1e150).size == 24457
    for top in (1e150, np.finfo(float).max):
        values = np.zeros(wave.n)
        values[[3, 7]] = [-top, top]
        slope = GridFunction1D(values, wave.length)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral.apply_mtilde_dinv(wave, slope, 0.5).values
            ref = spectral.mtilde_dinv_mode_sum(wave, slope, 0.5).values
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_h_values_takes_any_finite_slope_without_a_warning():
    # 1 + A^2 overflows past |A| = 1.3e154; H is then 0 to double precision
    s = np.array([0.0, 1e-3, 1.0, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1e154, 1e155, 1e300, np.finfo(float).max):
            got = spectral.h_values(s, a)
            assert np.all((got >= 0.0) & (got <= 1e-300))
            assert np.array_equal(spectral.symbol_mtilde(s, -a, 1.0), spectral.symbol_mtilde(s, a, 1.0))
