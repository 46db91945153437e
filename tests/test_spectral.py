import numpy as np
import pytest

from mixzone import spectral
from mixzone.grid import GridFunction1D
from mixzone.kernel import kernel_frozen
from mixzone.spectral import SpectralField


@pytest.fixture
def wave():
    return GridFunction1D.from_callable(
        lambda x: np.sin(2 * np.pi * x / 20.0) + 0.3 * np.cos(8 * np.pi * x / 20.0),
        256,
        20.0,
    )


def test_field_roundtrip_and_symmetry(wave):
    field = SpectralField.from_grid(wave)
    back = field.to_grid()
    assert np.max(np.abs(back.values - wave.values)) <= 1e-12 * np.max(np.abs(wave.values))
    assert field.hermitian_defect() <= 1e-13
    assert field.l2_norm() == pytest.approx(wave.l2_norm(), rel=1e-13)


def test_k_hat_rejects_zero_frequency():
    with pytest.raises(ValueError):
        spectral.k_hat(0.5, 0.0, 0.1)
    with pytest.raises(ValueError):
        spectral.k_hat(0.5, np.array([1.0, 0.0]), 0.1)


def test_k_hat_hermitian_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.uniform(-2, 2)
        xi = rng.uniform(0.01, 100.0)
        eps = rng.uniform(0.01, 1.0)
        assert np.conj(spectral.k_hat(a, xi, eps)) == pytest.approx(
            spectral.k_hat(a, -xi, eps), rel=1e-14
        )


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


def _dft_oracle(slope_a, eps, n, length):
    """DFT of sampled K_A with the slow tail and the jump peeled off.

    Both templates have closed-form transforms; the remainder is
    continuous and O(1/y^3), so its plain DFT is accurate mid-band.
    """
    h = length / n
    x = -length / 2 + h * np.arange(n)
    sigma = 1.0 / (1.0 + slope_a**2)
    samples = np.asarray(kernel_frozen(slope_a, x, eps))
    a = 2.0 * eps
    b = 1.0 / (2.0 * eps)
    tail = (sigma / np.pi) * x / (x**2 + a**2)
    jump = (1.0 / (2.0 * eps)) * np.sign(x) * np.exp(-b * np.abs(x))
    rest = h * np.fft.fft(np.fft.ifftshift(samples - tail - jump))
    freqs = np.fft.fftfreq(n, d=h)
    tail_hat = -1j * sigma * np.sign(freqs) * np.exp(-2 * np.pi * a * np.abs(freqs))
    jump_hat = (1.0 / (2.0 * eps)) * (-4j * np.pi * freqs) / (b**2 + 4 * np.pi**2 * freqs**2)
    return rest + tail_hat + jump_hat, freqs


@pytest.mark.parametrize("slope_a", [0.0, 1.0])
def test_k_hat_vs_dft_oracle(slope_a):
    eps = 0.1
    n, length = 2**12, 100 * eps
    oracle, freqs = _dft_oracle(slope_a, eps, n, length)
    ks = np.arange(1, n // 2)
    band = ks[(freqs[ks] * eps > 0.1) & (freqs[ks] * eps < 3.0)]
    exact = spectral.k_hat(slope_a, freqs[band], eps)
    rel = np.abs(oracle[band] - exact) / np.abs(exact)
    assert rel.max() <= 1e-3


def test_h_zero_and_monotone_start():
    assert spectral.H_integral(0.0, 1.0) == 0.0
    # integrand limit at 0 is 2 pi sigma
    a = 0.7
    sigma = 1 / (1 + a * a)
    assert spectral.h_integrand(1e-9, a) == pytest.approx(2 * np.pi * sigma, rel=1e-6)
    assert spectral.H_integral(1e-4, a) == pytest.approx(2 * np.pi * sigma * 1e-4, rel=1e-3)


def test_h_closed_form_matches_quadrature():
    for a in (-2.0, -0.5, 0.0, 1.0, 2.0):
        ss = np.logspace(-3, 4, 12)
        hq = np.array([spectral.H_integral(s, a) for s in ss])
        hc = spectral.h_values(ss, a)
        assert np.max(np.abs(hq - hc)) <= 1e-10


def test_h_minus_log_bounded():
    # |H - log(1+s)| <= C (1 + |A|); C = 2.2 is the measured constant
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        ss = np.logspace(-4, 4, 200)
        gap = np.abs(spectral.h_values(ss, a) - np.log1p(ss))
        assert gap.max() <= 2.2 * (1.0 + abs(a))


def test_h_fundamental_theorem():
    worst = 0.0
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for s in np.logspace(-3, 4, 15):
            r = 1e-5
            d = (
                spectral.H_integral(s * (1 + r), a)
                - spectral.H_integral(s * (1 - r), a)
            ) / (2 * s * r)
            ig = spectral.h_integrand(s, a)
            worst = max(worst, abs(d - ig) / (1 + abs(ig)))
    assert worst <= 1e-6


def test_symbols_at_zero_time():
    xi = np.array([-3.0, 0.5, 11.0])
    assert np.allclose(spectral.symbol_m(xi, 1.3, 0.0), 1.0)
    assert np.allclose(spectral.symbol_mtilde(xi, 1.3, 0.0), 1.0)


def test_mtilde_is_normalized_m():
    rng = np.random.default_rng(8)
    for _ in range(50):
        xi = rng.uniform(-40, 40)
        a = rng.uniform(-2, 2)
        t = rng.uniform(0, 2)
        m = float(spectral.symbol_m(xi, a, t))
        mt = float(spectral.symbol_mtilde(xi, a, t))
        assert mt == pytest.approx((1 + t * abs(xi)) * m, rel=1e-12)
        assert m > 0 and mt > 0


def test_mtilde_zero_slope_limit_converges():
    v1 = float(spectral.symbol_mtilde(1e4, 0.0, 1.0))
    v2 = float(spectral.symbol_mtilde(1e5, 0.0, 1.0))
    assert v1 > 0 and abs(v1 - v2) <= 1e-3


def test_multiplier_identity_and_contraction(wave):
    field = SpectralField.from_grid(wave)
    same = spectral.apply_multiplier(field, lambda xi: np.ones_like(xi))
    assert np.max(np.abs(same.to_grid().values - wave.values)) <= 1e-14 * np.max(
        np.abs(wave.values)
    )
    damped = spectral.apply_dinv(field, 0.8)
    assert damped.to_grid().l2_norm() <= wave.l2_norm()
    # composition with the inverse symbol returns the field
    undone = spectral.apply_multiplier(damped, lambda xi: 1.0 + 0.8 * np.abs(xi))
    assert np.max(np.abs(undone.to_grid().values - wave.values)) <= 1e-12


def test_multiplier_hermitian_check(wave):
    field = SpectralField.from_grid(wave)
    with pytest.raises(ValueError):
        # a symbol without Hermitian symmetry breaks real-valuedness
        spectral.apply_multiplier(field, lambda xi: 1.0 + 1j * (xi > 0), check_hermitian=True)


def test_symbol_table_band_and_refinement():
    slope = GridFunction1D.from_callable(lambda x: 0.5 * np.sin(2 * np.pi * x / 20.0), 64 * 2, 20.0)
    table = spectral.mtilde_table(slope, 0.4)
    lo, hi = table.min(), table.max()
    assert 0.0 < lo <= hi < np.inf
    # entries inside exp(+-C (1 + max|A|)) with the measured constant C = 2.2
    amax = float(np.max(np.abs(slope.values)))
    assert lo >= np.exp(-2.2 * (1 + amax)) and hi <= np.exp(2.2 * (1 + amax))
    # the (A, t|xi|) sweep band is stable under refinement within 1 percent
    a_grid = np.linspace(-2, 2, 41)
    s_grid = np.linspace(0.0, 100.0, 201)
    a_fine = np.linspace(-2, 2, 81)
    s_fine = np.linspace(0.0, 100.0, 401)

    def band(agrid, sgrid):
        lo, hi = np.inf, 0.0
        for a in agrid:
            vals = (1 + sgrid) * np.exp(-spectral.h_values(sgrid, float(a)))
            lo, hi = min(lo, vals.min()), max(hi, vals.max())
        return lo, hi

    lo1, hi1 = band(a_grid, s_grid)
    lo2, hi2 = band(a_fine, s_fine)
    assert abs(lo1 - lo2) / lo2 <= 0.01
    assert abs(hi1 - hi2) / hi2 <= 0.01


def test_apply_mtilde_dinv_constant_slope_is_multiplier(wave):
    t = 0.5
    a0 = 0.8
    slope = GridFunction1D(np.full(wave.n, a0), wave.length)
    via_op = spectral.apply_mtilde_dinv(wave, slope, t, method="direct")
    field = SpectralField.from_grid(wave)
    sym = lambda xi: spectral.symbol_mtilde(xi, a0, t) / (1.0 + t * np.abs(xi))
    via_mult = spectral.apply_multiplier(field, sym).to_grid()
    assert np.max(np.abs(via_op.values - via_mult.values)) <= 1e-10


def test_apply_mtilde_dinv_zero_time_identity(wave):
    slope = GridFunction1D.from_callable(lambda x: 0.3 * np.sin(np.pi * x / 10), wave.n, wave.length)
    out = spectral.apply_mtilde_dinv(wave, slope, 0.0, method="direct")
    assert np.max(np.abs(out.values - wave.values)) <= 1e-12


def test_apply_mtilde_dinv_fast_path_agrees(wave):
    slope = GridFunction1D.from_callable(
        lambda x: 0.5 * np.sin(2 * np.pi * x / 20.0), wave.n, wave.length
    )
    t = 0.3
    direct = spectral.apply_mtilde_dinv(wave, slope, t, method="direct")
    fast = spectral.apply_mtilde_dinv(wave, slope, t, method="fast")
    assert np.max(np.abs(direct.values - fast.values)) <= 1e-8


def test_apply_mtilde_dinv_operator_norm_bound(wave):
    rng = np.random.default_rng(4)
    slope = GridFunction1D(rng.uniform(-1, 1, wave.n), wave.length)
    t = 0.2
    table = spectral.mtilde_table(slope, t)
    out = spectral.apply_mtilde_dinv(wave, slope, t, method="direct")
    damped = spectral.apply_dinv(SpectralField.from_grid(wave), t).to_grid()
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


def test_coercivity_probe_sine_slope_small_time():
    slope = GridFunction1D.from_callable(lambda x: 0.5 * np.sin(2 * np.pi * x / 20), 128, 20.0)
    ratio = spectral.coercivity_probe(slope, 0.05, trials=12, seed=3)
    assert ratio >= 0.5


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
