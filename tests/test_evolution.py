import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from _table import run_check

from mixzone import cli, evolution, grid, kernel, spectral
from mixzone.evolution import InterfaceState, Trajectory
from mixzone.grid import GridFunction1D, NonFiniteError, spectral_derivative

LENGTH = 40.0


def bump(n, amp=0.1):
    return GridFunction1D.from_callable(lambda x: amp * np.exp(-(x**2)), n, LENGTH)


def test_state_invariants():
    f = bump(128)
    s = InterfaceState(f=f, t=0.1, c=1.0, delta=0.5, kappa=1e-3)
    assert s.eps == pytest.approx(0.1)
    assert s.width == pytest.approx(0.101)
    with pytest.raises(ValueError):
        InterfaceState(f=f, t=0.1, c=2.5)
    with pytest.raises(ValueError):
        InterfaceState(f=f, t=-0.1, c=1.0)


def test_mollifier_preserves_constants_exactly():
    run_check("mollifier_preserves_constants")


def test_mollifier_rejects_unresolved_width():
    f = bump(128)
    with pytest.raises(ValueError):
        evolution.mollify(f, 1.5 * f.h)


def test_mollifier_symbol_is_one_at_zero_and_below_elsewhere():
    # the theta sum over its value at xi = 0: exactly 1 there, which the
    # diffusion bound of stability_limit takes as the symbol's largest value
    for n, length, ratio in ((64, 1e-3, 2.0), (256, 40.0, 4.0), (2048, 1e3, 40.0)):
        h = length / n
        sym = evolution.mollifier_symbol(ratio * h, h, np.fft.rfftfreq(n, d=h))
        assert sym.max() == sym[0] == 1.0
        assert np.all(sym[1:] < 1.0) and np.all(sym >= 0.0)


def test_mollifier_symbol_memory_does_not_grow_with_the_width():
    # delta = 0.05 on h = 1e-3 / 64 is a stencil of 38,401 points, whose
    # cosine table over the 33 modes took 10 MB (a traced peak of 20 MB)
    h = 1e-3 / 64
    freqs = np.fft.rfftfreq(64, d=h)
    tracemalloc.start()
    try:
        evolution.mollifier_symbol(0.05, h, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_mollifier_second_order_in_width():
    f = GridFunction1D.from_callable(lambda x: np.sin(2 * np.pi * x / LENGTH), 512, LENGTH)
    errs = []
    for delta in (1.0, 0.5, 0.25):
        out = evolution.mollify(f, delta)
        errs.append(np.max(np.abs(out.values - f.values)))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)
    assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.1)


def test_mollifier_gaussian_semigroup():
    run_check("mollifier_semigroup")


def test_kernel_quadrature_vanishes_for_constant_slope():
    # tilted data: the slope difference vanishes so the quadrature must too
    n = 128
    x = -LENGTH / 2 + (LENGTH / n) * np.arange(n)
    f_vals = 0.3 * x
    g_vals = np.full(n, 0.3)
    out = evolution.kernel_quadrature(f_vals, g_vals, LENGTH, 0.05, 10.0)
    assert np.max(np.abs(out)) == 0.0


def test_near_cell_rule_is_numpys_gauss_legendre():
    # the plan's 16-node table, written out, is leggauss(16) bit for bit
    from numpy.polynomial.legendre import leggauss

    for got, want in zip(evolution._GL16, leggauss(16)):
        assert np.array_equal(got, want)


def _row_by_row_quadrature(f_vals, g_vals, width, trunc_radius):
    """Unblocked reference: one site at a time, far trapezoid + near cell."""
    n = f_vals.size
    h = LENGTH / n
    plan = evolution.quadrature_plan(n, h, trunc_radius)
    offsets = plan.offsets
    far = np.empty(n)
    for i in range(n):
        idx = (i - offsets) % n
        k = kernel.kernel_values(offsets * h, f_vals[i] - f_vals[idx], width)
        far[i] = np.sum((g_vals[i] - g_vals[idx]) * k * plan.weights)
    slope = spectral_derivative(f_vals, LENGTH)
    g1, g3, g5 = (spectral_derivative(g_vals, LENGTH, k) for k in (1, 3, 5))
    i1, i3, i5 = _direct_near_moments(slope, plan, width).T
    return far + g1 * i1 + g3 / 6.0 * i3 + g5 / 120.0 * i5


def _direct_near_moments(slope, plan, width):
    """Near-cell moments ``(I1, I3, I5)`` summed at every site's own slope."""
    y = plan.near_y
    return kernel.kernel_values(y, slope[:, None] * y, width) @ plan.moments


def _quadrature_nodes(slope):
    """:func:`spectral.slope_nodes` of ``[-M, M]``, ``M = max |slope|``, with the quadrature's cap."""
    return spectral.slope_nodes(float(np.max(np.abs(slope))), slope.size // evolution._SITES_PER_NODE)


def _interpolated_near_moments(slope, plan, width):
    """The moments :func:`evolution.nearfield_correction` uses, one column per unit g."""
    one, zero = np.ones(slope.size), np.zeros(slope.size)
    units = ((one, zero, zero), (zero, 6.0 * one, zero), (zero, zero, 120.0 * one))
    return np.stack(
        [evolution.nearfield_correction(slope, *g, plan, width) for g in units], axis=1
    )


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, 0.0), (0.3, 0.3), (-0.01, 0.01), (-0.3, 0.0), (-1.0, 1.0), (2.0, 3.0), (-10.0, 10.0)],
)
def test_near_moments_interpolated_in_the_slope_match_direct_sum(n, lo, hi):
    plan = evolution.quadrature_plan(n, LENGTH / n, 10.0)
    slope = np.random.default_rng(3).uniform(lo, hi, n)
    slope[:2] = lo, hi
    if (lo, hi) == (-10.0, 10.0):  # 413 Chebyshev nodes: the sites' own slopes instead
        assert _quadrature_nodes(slope) is None
    for width in (1e-10, 1e-6, 1e-3, 0.1, 0.5):
        ref = _direct_near_moments(slope, plan, width)
        got = _interpolated_near_moments(slope, plan, width)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


def test_near_moments_are_even_in_the_slope():
    # I_k(-A) = I_k(A): the table's rows at t < 0 mirror those at t > 0 with
    # sign +1.  |A| <= 18 takes 742 nodes, so 8192 sites; the bound is the
    # barycentric sums' roundoff (4e-15 to 7e-15 of each moment's largest
    # value measured), and a mirror of sign -1 misses it by O(1)
    n = 8192
    plan = evolution.quadrature_plan(n, LENGTH / n, 10.0)
    a = np.random.default_rng(11).uniform(-18.0, 18.0, n // 2)
    a[0] = 18.0
    slope = np.concatenate([a, -a])
    assert _quadrature_nodes(slope).size == 742
    for width in (1e-6, 0.5):
        m = _interpolated_near_moments(slope, plan, width)
        assert np.all(np.abs(m[n // 2 :] - m[: n // 2]) <= 1e-14 * np.max(np.abs(m), axis=0))


def test_near_moments_node_counts():
    # d = ceil(37 / asinh(b / M)), M = max |A|, b = 0.9: the table lies on [-M, M]
    for (lo, hi), nodes in (((0.0, 0.0), 1), ((-0.086, 0.086), 14), ((-1.0, 1.0), 47),
                            ((2.0, 3.0), 127)):
        slope = np.linspace(lo, hi, 2048)
        assert _quadrature_nodes(slope).size == nodes


def test_near_moments_of_overflowing_and_non_finite_slopes_match_direct_sum():
    # the range of finite slopes +-1e308 overflows a naive hi - lo, and a
    # non-finite slope poisons the range: both take the sites' own slopes,
    # with the direct sum's values, a NaN only at the NaN site and no warning
    n = 256
    plan = evolution.quadrature_plan(n, LENGTH / n, 10.0)
    huge = np.resize([1e308, -1e308, 0.3, 1.7e308, -5.0], n)
    with_nan = np.linspace(-0.1, 0.1, n)
    with_nan[7] = np.nan
    for slope in (huge, with_nan):
        assert _quadrature_nodes(slope) is None
        ref = _direct_near_moments(slope, plan, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _interpolated_near_moments(slope, plan, 0.05)
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)
    assert np.flatnonzero(np.isnan(got).any(axis=1)).tolist() == [7]


def _a_max(f):
    """Largest one-cell slope ``max |f_i - f_{i-1}| / h`` of periodic heights on the default period."""
    return float(np.max(np.abs(np.diff(f, prepend=f[-1])))) / (LENGTH / f.size)


def _far_table_nodes(f):
    """Chebyshev points of the near band's table: ``ceil(d / 2) + 1`` for the one-cell slope range."""
    return -(-spectral.chebyshev_degree(_a_max(f), 10**6) // 2) + 1


def _band_start(f):
    """Index of the first FFT-band offset for heights f on the default window."""
    n = f.size
    plan = evolution.quadrature_plan(n, LENGTH / n, 10.0)
    return evolution._band_start(float(np.ptp(f)), _a_max(f), LENGTH / n, plan)


def _counted_quadrature(monkeypatch, f):
    """Kernel entries per ``kernel_values`` call, and the ``nearfield_correction`` and ``_fft_band`` calls."""
    entries, near_calls, band_calls = [], [], []
    real_kernel, real_near, real_band = (evolution.kernel_values, evolution.nearfield_correction,
                                         evolution._fft_band)

    def counting_kernel(dx, delta_f, *args, **kwargs):
        out = real_kernel(dx, delta_f, *args, **kwargs)
        entries.append(out.size)
        return out

    def counting_near(*args, **kwargs):
        near_calls.append(1)
        return real_near(*args, **kwargs)

    def counting_band(*args, **kwargs):
        band_calls.append(1)
        return real_band(*args, **kwargs)

    monkeypatch.setattr(evolution, "kernel_values", counting_kernel)
    monkeypatch.setattr(evolution, "nearfield_correction", counting_near)
    monkeypatch.setattr(evolution, "_fft_band", counting_band)
    evolution.kernel_quadrature(f, spectral_derivative(f, LENGTH), LENGTH, 0.05, 10.0)
    return entries, len(near_calls), len(band_calls)


def test_kernel_quadrature_takes_the_near_cell_once_per_call(monkeypatch):
    # one nearfield_correction call per quadrature, whose kernel entries are
    # the 144 near-cell nodes times the nonnegative Chebyshev nodes of [-M, M];
    # the near band is one table of its Chebyshev nodes in the squared slope
    # per offset, or, for steep data, one entry per pair; the FFT band, when
    # it holds at least _MIN_BAND offsets, is one _fft_band call whose table
    # has D + 1 nodes per offset, D = 7 on these bumps (see
    # test_band_degree_follows_its_floor); the 0.1 bump (A_max <= 1/8) starts
    # it at dx >= osc, leaving 0 and 2 near-band offsets at n = 1024 and 2048,
    # the others at dx >= 8 osc
    for n, amp, band, steep, split in ((256, 0.3, False, False, 61), (512, 0.3, True, False, 27),
                                       (1024, 0.1, True, False, 0), (2048, 0.1, True, False, 2),
                                       (1024, 1.0, False, True, 253), (2048, 1.0, True, True, 406)):
        h = LENGTH / n
        plan = evolution.quadrature_plan(n, h, 10.0)
        n_pos = plan.offsets.size // 2
        f = bump(n, amp=amp).values
        assert _band_start(f) == split
        assert (split < n_pos) == band
        entries, near_calls, band_calls = _counted_quadrature(monkeypatch, f)
        nodes = _quadrature_nodes(spectral_derivative(f, LENGTH)).size
        assert near_calls == 1 and 1 < nodes <= n // 8 and band_calls == int(band)
        assert (_far_table_nodes(f) > evolution._MAX_FAR_DEGREE + 1) == steep
        near_band = n * split if steep else _far_table_nodes(f) * split
        fft_band = 8 * (n_pos - split) if band else 0
        assert sum(entries) == fft_band + near_band + plan.near_y.size * ((nodes + 1) // 2)
        monkeypatch.undo()


# the per-width table memos of the rhs: near cell, near band, FFT band
_WIDTH_TABLES = (evolution._near_table, evolution._near_band_table, evolution._band_rows)


@pytest.mark.parametrize("n, amp, used", [
    (2048, 0.1, (True, True, True)),  # FFT band and a near band of two offsets
    (256, 0.3, (True, True, False)),  # the near band's polynomials only
    (1024, 1.0, (True, False, False)),  # steep: the near band entry by entry
])
def test_kernel_quadrature_is_the_same_from_cold_and_warm_tables(n, amp, used):
    # a table depends on its key only: heights that share the key read the
    # tables another's call built, and get the bits of a cold call
    f, other = bump(n, amp=amp).values, bump(n, amp=amp * (1.0 + 1e-9)).values
    g = spectral_derivative(f, LENGTH)
    cold = evolution.kernel_quadrature(f, g, LENGTH, 0.05, 10.0)
    for memo in _WIDTH_TABLES:
        memo.cache_clear()
    evolution.kernel_quadrature(other, spectral_derivative(other, LENGTH), LENGTH, 0.05, 10.0)
    assert tuple(memo.cache_info().misses == 1 for memo in _WIDTH_TABLES) == used
    warm = evolution.kernel_quadrature(f, g, LENGTH, 0.05, 10.0)
    assert tuple(memo.cache_info().hits == 1 for memo in _WIDTH_TABLES) == used
    assert warm.tobytes() == cold.tobytes()


def test_integrate_builds_tables_once_per_kernel_width(monkeypatch):
    # the default run, n = 256 and 8 RK4 steps, meets 1 + 2 * 8 kernel widths:
    # stages 2 and 3 share t + dt / 2, and stage 4 shares t + dt with the next
    # step's stage 1, bit for bit; each width takes one near-band and one
    # near-cell table, where one per stage took 2 * 4 * 8 = 64 calls
    cfg = cli.parse_config("{}")
    calls = []
    real = evolution.kernel_values

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "kernel_values", counting)
    traj = evolution.integrate(cli.initial_data(cfg), c=cfg.c, delta=cfg.delta, kappa=cfg.kappa,
                               dt=cfg.dt, t_end=cfg.t_end, t_start=cfg.t_start,
                               trunc_radius=cfg.trunc_radius)
    assert cfg.n == 256 and not traj.failed and traj.steps[-1] == 8
    assert len(calls) == 2 * (1 + 2 * 8)


def _band_fit(monkeypatch, f):
    """Degree and per-offset ranges ``u_top`` of the FFT band's table in one quadrature."""
    fits, real = [], evolution._offset_polynomials

    def spy(dx, wts, width, u_top, degree):
        fits.append((degree, u_top))
        return real(dx, wts, width, u_top, degree)

    monkeypatch.setattr(evolution, "_offset_polynomials", spy)
    evolution.kernel_quadrature(f, spectral_derivative(f, LENGTH), LENGTH, 0.05, 10.0)
    monkeypatch.undo()
    # the band's table is made before the near band's
    n_pos = evolution.quadrature_plan(f.size, LENGTH / f.size, 10.0).offsets.size // 2
    assert fits[0][1].size == n_pos - _band_start(f)
    return fits[0]


def _rippled(n, a_max):
    """A bump plus a grid-scale ripple, scaled so its largest one-cell slope is ``a_max``.

    The ripple ``(-1)^i`` has no spectral slope, so the one-cell slopes
    reach about three times the range of the spectral slope.
    """
    h = LENGTH / n
    x = -LENGTH / 2 + h * np.arange(n)
    base = np.exp(-(x**2)) + h * (-1.0) ** np.arange(n)
    return base * (a_max * h / np.max(np.abs(np.diff(base, prepend=base[-1]))))


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize("a_max", [0.0, 0.01, 0.086, 0.3, 0.4, 0.5, 0.7, 3.0])
def test_kernel_quadrature_far_table_matches_row_by_row_sum(n, a_max):
    # the table path up to degree 18 in the squared slope (a_max up to about
    # 0.74), the per-entry kernel beyond it (steep data); flat data are one
    # node; at n = 2048 the FFT band takes the offsets beyond 8 oscillations
    f = _rippled(n, a_max) if a_max else np.full(n, 0.3)
    h = LENGTH / n
    plan = evolution.quadrature_plan(n, h, 10.0)
    dx = plan.offsets[plan.offsets > 0] * h
    g = spectral_derivative(bump(n).values, LENGTH)
    assert (_band_start(f) < dx.size) == (n == 2048 and a_max < 3.0)
    degree = evolution._far_degree(_a_max(f))
    assert (degree is None) == (a_max > 0.74)
    for width in (1e-10, 1e-6, 1e-3, 0.05, 0.5):
        if degree is not None:
            coef = evolution._offset_polynomials(dx, np.ones(dx.size), width, _a_max(f) * dx,
                                                 degree)
            assert coef is not None and (coef.shape[0] == 1) == (a_max == 0.0)
        out = evolution.kernel_quadrature(f, g, LENGTH, width, 10.0)
        ref = _row_by_row_quadrature(f, g, width, 10.0)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


@pytest.mark.parametrize("a_max", [0.01, 0.086, 0.125, 0.3, 0.4, 0.73])
def test_far_degree_rule_matches_kernel_values(a_max):
    # the far kernel's degree rule (semi-minor axis 0.9 in the strip |Im A| < 1)
    # at one-cell slopes up to its cap and at the FFT band's 1/8: every entry
    # within 1.5e-15 of the largest kernel value, where kernel_values' own
    # rounding sits (the near cell's rule, semi-minor axis 1/2, reached 1.56e-15)
    n = 2048
    h = LENGTH / n
    plan = evolution.quadrature_plan(n, h, 10.0)
    dx = plan.offsets[plan.offsets > 0] * h
    degree = evolution._far_degree(a_max)
    assert degree <= evolution._MAX_FAR_DEGREE and evolution._far_degree(0.75) is None
    u = np.linspace(-1.0, 1.0, 101)[:, None] * (a_max * dx)
    for width in (1e-10, 1e-6, 1e-3, 0.05, 0.5):
        coef = evolution._offset_polynomials(dx, np.ones(dx.size), width, a_max * dx, degree)
        got = evolution._far_polynomial(coef, np.sqrt(2.0) / (a_max * dx), u,
                                        np.empty((2,) + u.shape))
        want = kernel.kernel_values(dx, u, width)
        assert np.max(np.abs(got - want)) <= 1.5e-15 * np.max(np.abs(want))


def _near_chunks(n, f):
    """Near-band offsets and offsets per chunk that :func:`evolution.kernel_quadrature` takes."""
    split = _band_start(f)
    return split, min(split, grid.block_rows(n))


def test_kernel_quadrature_blocks_match_row_by_row_sum(monkeypatch):
    # chunks of ten offsets across all 512 sites: several chunks, the last ragged
    n, trunc = 512, 10.0
    monkeypatch.setattr(grid, "BLOCK_ENTRIES", 10 * n)
    f = bump(n, amp=0.3).values
    split, cols = _near_chunks(n, f)
    assert split > cols and split % cols != 0
    g = spectral_derivative(f, LENGTH)
    for width in (1e-4, 0.05, 0.5):
        out = evolution.kernel_quadrature(f, g, LENGTH, width, trunc)
        ref = _row_by_row_quadrature(f, g, width, trunc)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


def test_kernel_quadrature_names_global_site_of_bad_kernel():
    n, trunc = 512, 10.0
    f = bump(n).values.copy()
    f[300] = np.inf
    offsets = evolution.quadrature_plan(n, LENGTH / n, trunc).offsets
    with np.errstate(invalid="ignore"):
        # the first site whose row meets the bad height, found one row at a time
        first = next(
            i for i in range(n)
            if not np.all(np.isfinite(kernel.kernel_values(
                offsets * LENGTH / n, f[i] - f[(i - offsets) % n], 0.05)))
        )
        # the back end of the pair at the window's last offset, which the
        # rescan meets in its last chunk of offsets, not its first
        plan = evolution.quadrature_plan(n, LENGTH / n, trunc)
        assert first == 300 - offsets[-1]
        assert offsets[-1] - plan.near >= grid.block_rows(n)
        with pytest.raises(FloatingPointError, match=rf"at site {first}$"):
            evolution.kernel_quadrature(f, np.zeros(n), LENGTH, 0.05, trunc)


@pytest.mark.parametrize("amp", [0.1, 3.0])
def test_kernel_quadrature_names_slope_site_of_bad_g(amp):
    # finite heights and a NaN in g: every flux of site 100 is NaN, but no
    # kernel value is, so the slope check names the site, on the polynomial
    # table (0.1 bump) and on the per-entry kernel (3 bump) alike
    n = 256
    f = bump(n, amp=amp).values
    assert (evolution._far_degree(_a_max(f)) is None) == (amp == 3.0)
    assert _band_start(f) == evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets.size // 2
    g = spectral_derivative(f, LENGTH)
    g[100] = np.nan
    with pytest.raises(FloatingPointError, match=r"^non-finite slope at site 100$"):
        evolution.kernel_quadrature(f, g, LENGTH, 0.05, 10.0)


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("amp", [0.1, 0.3, 1.0, 3.0])
def test_kernel_quadrature_fft_band_matches_row_by_row_sum(n, amp):
    # the band holds the offsets of at least 8 height oscillations when they
    # number at least _MIN_BAND: bumps 0.1 and 0.3 at both sizes, 1 at 2048
    f = bump(n, amp=amp).values
    n_pos = evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets.size // 2
    assert (_band_start(f) < n_pos) == (amp < 1.0 or (amp == 1.0 and n == 2048))
    g = spectral_derivative(f, LENGTH)
    for width in (1e-10, 1e-6, 1e-3, 0.05, 0.5):
        out = evolution.kernel_quadrature(f, g, LENGTH, width, 10.0)
        ref = _row_by_row_quadrature(f, g, width, 10.0)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


@pytest.mark.parametrize("n", [1024, 2048])
def test_kernel_quadrature_fft_band_of_rippled_and_flat_heights(n):
    # a grid-scale ripple, and flat heights (osc = 0: the band is every
    # offset and the near band is empty)
    g = spectral_derivative(bump(n).values, LENGTH)
    for f in (_rippled(n, 0.05), _rippled(n, 0.3), np.full(n, 0.3)):
        split = _band_start(f)
        assert split < evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets.size // 2
        assert split == 0 or np.ptp(f) > 0.0
        for width in (1e-10, 1e-6, 1e-3, 0.05, 0.5):
            out = evolution.kernel_quadrature(f, g, LENGTH, width, 10.0)
            ref = _row_by_row_quadrature(f, g, width, 10.0)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


def _long_wave(n, kind):
    """Gently sloped heights, ``A_max <= 1/8``, whose band starts at one height oscillation."""
    x = -LENGTH / 2 + (LENGTH / n) * np.arange(n)
    if kind.startswith("sine"):  # one period: A_max 0.0047, 0.094 and 0.124, osc 0.06, 1.2 and 1.58
        return float(kind[4:]) * np.sin(2.0 * np.pi * x / LENGTH)
    if kind == "two bumps":
        return 0.1 * np.exp(-((x - 5.0) ** 2)) - 0.08 * np.exp(-((x + 6.0) ** 2) / 2.0)
    # a packet of the first four modes under a width-4 envelope, fixed phases
    waves = sum(np.cos(2.0 * np.pi * k * x / LENGTH + phase)
                for k, phase in zip(range(1, 5), (0.3, 2.1, 4.0, 5.5)))
    return 0.8 * np.exp(-((x / 4.0) ** 2)) * waves / 4.0


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("kind", ["sine0.03", "sine0.6", "sine0.79", "two bumps", "packet"])
def test_kernel_quadrature_band_from_one_oscillation_matches_row_by_row_sum(monkeypatch, n, kind):
    # A_max <= 1/8: the band starts at dx >= osc, below 8 osc, and offset k is
    # fitted on |u| <= A_max dx_k clipped to [osc 8^(-7/D), osc]; the 0.79 sine
    # sits at the edge, and the 0.03 sine at n = 2048 was off by 1.5e-13
    # without a floor (degree 4 with row factors (osc / u_top)^(2 l) up to
    # 2.7e4^l); the floor keeps the largest, (osc / u_top)^(2D), within 8^14
    f = _long_wave(n, kind)
    degree, u_top = _band_fit(monkeypatch, f)
    assert (np.ptp(f) / np.min(u_top)) ** (2 * degree) <= evolution._BAND_SPAN ** 14
    h = LENGTH / n
    plan = evolution.quadrature_plan(n, h, 10.0)
    split = _band_start(f)
    assert _a_max(f) <= 1.0 / evolution._BAND_SPAN
    start = (plan.near + split) * h
    assert split < plan.offsets.size // 2 and start < evolution._BAND_SPAN * np.ptp(f)
    assert start >= np.ptp(f) and (split == 0 or start - h < np.ptp(f))
    g = spectral_derivative(f, LENGTH)
    for width in (1e-10, 1e-6, 1e-3, 0.05, 0.5):
        out = evolution.kernel_quadrature(f, g, LENGTH, width, 10.0)
        ref = _row_by_row_quadrature(f, g, width, 10.0)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


def _packet(n, seed):
    """The ``cosine_packet`` heights of ``mixzone simulate`` (amplitude 0.1, width 4, 4 modes)."""
    config = {"grid": {"n": n}, "seed": seed,
              "initial": {"family": "cosine_packet", "amplitude": 0.1, "width": 4.0, "modes": 4}}
    return cli.initial_data(cli.parse_config(json.dumps(config))).values


@pytest.mark.parametrize("kind, n, degree", [
    ("packet5", 1024, 4), ("sine0.03", 1024, 4), ("sine0.03", 2048, 5),
    ("bump0.1", 512, 7), ("bump0.1", 1024, 7), ("bump0.1", 2048, 7)])
def test_band_degree_follows_its_floor(monkeypatch, kind, n, degree):
    # the least degree D whose floor osc 8^(-7/D) leaves the first band offset
    # within D: the seed-5 packet and the 0.03 sine need 4-5 where the fixed
    # floor osc / 8 gave 5, 6 and 7; the 0.1 bump keeps 7 (the floor osc / 8)
    if kind == "packet5":
        f = _packet(n, 5)
    else:
        f = _long_wave(n, kind) if kind.startswith("sine") else bump(n, amp=0.1).values
    assert _band_start(f) < evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets.size // 2
    assert _band_fit(monkeypatch, f)[0] == degree


@pytest.mark.parametrize("n, amp", [(1024, 0.3), (2048, 0.3), (2048, 1.0)])
def test_steep_band_keeps_the_full_range_fit(n, amp):
    # A_max > 1/8: the band starts at 8 osc, where osc / dx_0 <= 1/8 < A_max,
    # so its degree and rounded osc, the key of its table, are those of an
    # infinite A_max (the fit over the whole range |u| <= osc)
    f = bump(n, amp=amp).values
    h = LENGTH / n
    plan = evolution.quadrature_plan(n, h, 10.0)
    n_pos = plan.offsets.size // 2
    osc = float(np.ptp(f))
    split = _band_start(f)
    assert _a_max(f) > 1.0 / evolution._BAND_SPAN and split < n_pos
    assert split == math.ceil(evolution._BAND_SPAN * osc / h) - plan.near
    dx0 = plan.offsets[n_pos + split] * h
    assert evolution._band_key(osc, _a_max(f), dx0) == evolution._band_key(osc, np.inf, dx0)


def test_kernel_quadrature_fft_band_gives_exactly_zero_for_constant_g():
    # g is centred by a grid value: 123.456 - mean(123.456, ...) is 3 * 2^-46,
    # not 0 (and not a power of two, whose products would cancel exactly)
    for n in (1024, 2048):
        f = bump(n, amp=0.3).values
        assert _band_start(f) < evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets.size // 2
        g = np.full(n, 123.456)
        assert math.frexp(g[0] - np.mean(g))[0] == 0.75
        out = evolution.kernel_quadrature(f, g, LENGTH, 0.05, 10.0)
        assert np.all(out == 0.0)


def test_kernel_quadrature_names_site_of_infinite_height_at_band_size():
    # without the bad height these data would take the FFT band; an infinite
    # height has no oscillation, so the whole row goes to the blocked loop
    # and the loop names the sites of its non-finite kernel values
    n = 2048
    f = bump(n).values.copy()
    assert _band_start(f) < evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets.size // 2
    f[1500] = np.inf
    offsets = evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets
    first = int(np.argmax(((np.arange(n)[:, None] - offsets) % n == 1500).any(axis=1)))
    assert first == 1500 - offsets[-1]
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match=rf"at site {first}$"):
        evolution.kernel_quadrature(f, np.zeros(n), LENGTH, 0.05, 10.0)


@pytest.mark.parametrize(
    "n, trunc, m_max, near, blocks",
    [
        (128, LENGTH / 2, 63, 4, 2),  # m_max = n//2 - 1: back sites wrap to the far side
        (128, 2.5, 8, 2, 2),  # the near = 2 small-window branch
        (64, 10.0, 16, 4, 1),  # one near-cell block covers the whole grid
    ],
)
def test_kernel_quadrature_pair_edges_match_row_by_row_sum(n, trunc, m_max, near, blocks):
    # windows too short for the FFT band: every positive offset is in one
    # near-band chunk across all sites.  Too few sites for a slope table, so
    # the near cell's moments run on the sites' own slopes, in blocks of
    # block_rows(nodes) sites
    plan = evolution.quadrature_plan(n, LENGTH / n, trunc)
    assert (plan.offsets[-1], plan.near) == (m_max, near)
    assert -(-n // grid.block_rows(plan.near_y.size)) == blocks
    f = GridFunction1D.from_callable(
        lambda x: 0.3 * np.exp(-(x**2)) + 0.1 * np.sin(2 * np.pi * x / LENGTH), n, LENGTH
    ).values
    split = evolution._band_start(float(np.ptp(f)), _a_max(f), LENGTH / n, plan)
    assert split == plan.offsets.size // 2 <= grid.block_rows(n)
    g = spectral_derivative(f, LENGTH)  # also the slope
    assert spectral.slope_nodes(np.max(np.abs(g)), n // evolution._SITES_PER_NODE) is None
    for width in (1e-4, 0.05, 0.5):
        out = evolution.kernel_quadrature(f, g, LENGTH, width, trunc)
        ref = _row_by_row_quadrature(f, g, width, trunc)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


@pytest.mark.parametrize(
    "n, amp, entries, band, split, cols",
    [
        (256, 0.3, None, False, 61, 61),  # one chunk
        (512, 0.3, None, True, 27, 27),  # one chunk beside the FFT band
        (256, 0.3, 3000, False, 61, 11),  # ragged last chunk: five of 11, one of 6
        (256, 0.3, 200, False, 61, 1),  # one offset per chunk: BLOCK_ENTRIES below n
        (2048, 0.1, 3000, True, 2, 1),  # one offset per chunk beside the band
        (2048, 0.09, None, True, 1, 1),  # one near offset (split = 1): no padding
        (2048, 0.09, 300, True, 1, 1),  # one near offset, BLOCK_ENTRIES below n
        (1024, 1.0, None, False, 253, 16),  # steep: 16 chunks, the last of 13
        (2048, 1.0, None, True, 406, 8),  # steep beside the band: 51 chunks, the last of 6
    ],
)
def test_kernel_quadrature_near_band_edges_match_row_by_row_sum(
        monkeypatch, n, amp, entries, band, split, cols):
    # the near band's chunks of offsets across all sites against the row-by-row
    # sum: one chunk, a last chunk narrower than the others (the pad's stale
    # rows unread), one offset per chunk, a single offset (split = 1), with
    # and without the band
    if entries is not None:
        monkeypatch.setattr(grid, "BLOCK_ENTRIES", entries)
    f = bump(n, amp=amp).values
    n_pos = evolution.quadrature_plan(n, LENGTH / n, 10.0).offsets.size // 2
    assert (_band_start(f) < n_pos) == band
    assert _near_chunks(n, f) == (split, cols)
    # g varies on the whole period, so every site carries fluxes
    g = spectral_derivative(f, LENGTH) + 0.1 * np.sin(2.0 * np.pi * np.arange(n) / n)
    for width in (1e-4, 0.05, 0.5):
        out = evolution.kernel_quadrature(f, g, LENGTH, width, 10.0)
        ref = _row_by_row_quadrature(f, g, width, 10.0)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


def test_barycentric_takes_node_rows_and_propagates_a_non_finite_row():
    # t on the first, the last and an interior node takes that node's row
    # exactly; elsewhere the interpolant of degree d; a NaN row reaches
    # every t off the nodes and its own node, and no other node's row
    d = 8
    t_nodes = np.cos(np.pi * np.arange(d + 1) / d)
    table = np.random.default_rng(4).standard_normal((d + 1, 3))
    t = np.array([t_nodes[0], 0.3, t_nodes[-1], -0.77, t_nodes[3], t_nodes[5]])
    got = spectral.barycentric(t_nodes, table, t)
    assert np.array_equal(got[[0, 2, 4, 5]], table[[0, -1, 3, 5]])
    fit = np.polynomial.polynomial.polyfit(t_nodes, table, d)
    want = np.polynomial.polynomial.polyval(t[[1, 3]], fit).T
    assert np.max(np.abs(got[[1, 3]] - want)) <= 1e-12 * np.max(np.abs(table))
    table[5] = np.nan
    got = spectral.barycentric(t_nodes, table, t)
    assert np.array_equal(got[[0, 2, 4]], table[[0, -1, 3]])
    assert np.all(np.isnan(got[[1, 3, 5]]))


def test_kernel_quadrature_makes_no_sites_by_offsets_temporary():
    # the traced peak of one call at N = 4096 stays below an eighth of one
    # float64 array of N x M entries (M = 2042 window offsets), for data
    # with the FFT band, for steep data that take every offset in the
    # blocked loop, kernel entry by entry, and for a long-wave sine whose
    # band starts at one oscillation (at 8 it would hold too few offsets)
    n = 4096
    plan = evolution.quadrature_plan(n, LENGTH / n, 10.0)
    bound = n * plan.offsets.size  # bytes: 8 N M / 8
    for f in (bump(n).values, _rippled(n, 3.0), _long_wave(n, "sine0.6")):
        g = spectral_derivative(f, LENGTH)
        evolution.kernel_quadrature(f, g, LENGTH, 0.05, 10.0)  # caches filled
        tracemalloc.start()
        try:
            evolution.kernel_quadrature(f, g, LENGTH, 0.05, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def _stencil_sum(values, weights):
    """Direct periodic stencil sum ``sum_k w_k v[(i - k) % n]``, k = -m..m."""
    m = (weights.size - 1) // 2
    idx = (np.arange(values.size)[:, None] - np.arange(-m, m + 1)) % values.size
    return values[idx] @ weights


@pytest.mark.parametrize("n, delta", [(256, 4 * LENGTH / 256), (64, 8.0)])
def test_mollify_matches_direct_stencil_sum(n, delta):
    # (64, 8.0): 6 delta / h = 76, so the 153-point stencil wraps the grid
    rng = np.random.default_rng(2)
    f = GridFunction1D(rng.standard_normal(n), LENGTH)
    m = int(6.0 * delta / f.h)
    stencil = np.exp(-0.5 * (np.arange(-m, m + 1) * f.h / (0.5 * delta)) ** 2)
    want = _stencil_sum(f.values, stencil / stencil.sum())
    out = evolution.mollify(f, delta).values
    assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))


def test_mean_velocity_zero_data():
    # the unmollified mean velocity: rhs_regularized at delta = kappa = 0
    state = InterfaceState(f=GridFunction1D.zeros(128, LENGTH), t=0.05, c=1.0)
    out = evolution.rhs_regularized(state)
    assert np.all(out.values == 0.0)


def test_rhs_regularized_zero_fixed_point():
    run_check("zero_fixed_point")


def test_rhs_regularized_reduces_to_mean_velocity():
    # kappa = 0, delta -> 0: the mollified path converges at second order
    # (the rate approaches 2 from below; delta = 8h here is preasymptotic)
    f = bump(1024)
    base = InterfaceState(f=f, t=0.06, c=1.0, delta=0.0, kappa=0.0)
    target = evolution.rhs_regularized(base).values
    errs = []
    for delta in (8 * f.h, 4 * f.h, 2 * f.h):
        state = InterfaceState(f=f, t=0.06, c=1.0, delta=delta, kappa=0.0)
        reg = evolution.rhs_regularized(state).values
        errs.append(np.max(np.abs(reg - target)))
    assert np.log2(errs[0] / errs[1]) >= 1.8
    assert np.log2(errs[1] / errs[2]) >= 1.9


def test_rhs_regularized_self_convergence():
    # half-grid refinement of the unmollified velocity quadrature: order >= 2
    vals = {}
    for n in (512, 1024, 2048):
        state = InterfaceState(f=bump(n), t=0.06, c=1.0)
        vals[n] = evolution.rhs_regularized(state).values
    e1 = np.max(np.abs(vals[512] - vals[1024][::2]))
    e2 = np.max(np.abs(vals[1024] - vals[2048][::2]))
    assert np.log2(e1 / e2) >= 2.0


def test_pure_diffusion_symbol():
    # the diffusion multiplier rhs_regularized applies: mode k decays at
    # kappa * (2 pi k/L)^2 times the squared stencil symbol (exact linear
    # solution of the mollified heat term)
    n, k, kappa = 256, 5, 1e-3
    h = LENGTH / n
    delta = 4 * h
    diffusion = evolution._fourier_multipliers(delta, h, n)[1]
    sym = evolution.mollifier_symbol(delta, h, np.array([k / LENGTH]))[0]
    rate = kappa * (2 * np.pi * k / LENGTH) ** 2 * sym**2
    assert abs(kappa * diffusion[k] + rate) <= 1e-6 * rate


def test_diffusion_mean_and_monotone_l2():
    # the zero mode is untouched (mean conserved) and no mode grows (L2 norm)
    f = bump(128)
    kappa = 1e-2
    diffusion = evolution._fourier_multipliers(4 * f.h, f.h, f.n)[1]
    assert diffusion[0] == 0.0
    assert np.all(diffusion <= 0.0)
    out = kappa * np.fft.irfft(np.fft.rfft(f.values) * diffusion, n=f.n)
    assert abs(out.mean()) <= 1e-17
    stepped = f.values + 0.01 * out
    assert np.sqrt(np.sum(stepped**2)) <= np.sqrt(np.sum(f.values**2))


def test_rhs_mean_conservation():
    # quadrature mean error decays ~h^2; at n = 8192 it sits below the
    # 1e-8-per-unit-time tolerance
    f = bump(8192)
    state = InterfaceState(f=f, t=0.05, c=1.0, delta=4 * f.h, kappa=1e-3)
    out = evolution.rhs_regularized(state)
    assert abs(out.values.mean()) <= 1e-8


def test_stability_bound_rejects_large_dt():
    f = bump(256)
    kappa = 0.5
    with pytest.raises(ValueError, match="stability"):
        evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=kappa, dt=1.0, t_end=2.0)


@pytest.mark.parametrize("dt", [5e-324, 1e-310])
def test_integrate_rejects_infinite_step_count_before_the_probe(monkeypatch, dt):
    # (t_end - t_start) / dt overflows to inf: a ValueError, not an
    # OverflowError after a full stability probe
    def probe(*args, **kwargs):
        raise AssertionError("the stability probe ran")

    monkeypatch.setattr(evolution, "stability_limit", probe)
    f = bump(128)
    with pytest.raises(ValueError, match="finite step count"):
        evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=1e-3, dt=dt, t_end=0.1)


def test_integrate_requires_positive_start_without_kappa():
    f = bump(128)
    with pytest.raises(ValueError):
        evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=0.0, dt=0.01, t_end=0.05)


@pytest.mark.parametrize("kappa, t_start", [(1e-320, 0.0), (0.0, 1e-320)])
def test_integrate_rejects_subnormal_kernel_width(monkeypatch, kappa, t_start):
    # the width floor is InterfaceState's, as parse_config's: a subnormal
    # initial width c t_start + kappa stops the run before any right-hand side
    f = bump(64)
    calls = []
    real_rhs = evolution.rhs_regularized
    monkeypatch.setattr(evolution, "rhs_regularized",
                        lambda *args, **kwargs: calls.append(1) or real_rhs(*args, **kwargs))
    with warnings.catch_warnings(), pytest.raises(ValueError, match="kernel width"):
        warnings.simplefilter("error")
        evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=kappa, dt=0.0125, t_end=0.0125,
                            t_start=t_start)
    assert calls == []
    with pytest.raises(ValueError, match="kernel width"):
        InterfaceState(f=f, t=t_start, c=1.0, kappa=kappa)


def test_integrate_zero_data_stays_zero():
    f = GridFunction1D.zeros(128, LENGTH)
    traj = evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=1e-3, dt=0.025, t_end=0.1)
    assert not traj.failed
    for snap in traj.snapshots:
        assert np.all(snap.f.values == 0.0)


def test_integrate_snapshot_cadence_and_diagnostics():
    f = bump(128)
    traj = evolution.integrate(
        f, c=1.0, delta=4 * f.h, kappa=1e-3, dt=0.0125, t_end=0.05, output_every=2
    )
    times = np.array([snap.t for snap in traj.snapshots])
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.05)
    assert np.all(np.diff(times) > 0)
    for snap in traj.snapshots:
        assert (np.isfinite(evolution.sobolev_norm(snap.f, 4))
                and np.isfinite(evolution.dinv_d5_norm(snap.f, snap.t)))
    assert traj.steps == [0, 2, 4]


def test_integrate_computes_no_figures(monkeypatch):
    # the figures of a snapshot are its callers': integrate runs without them
    def unavailable(*args):
        raise AssertionError("integrate took a figure of a snapshot")

    for name in ("sobolev_norm", "dinv_d5_norm"):
        monkeypatch.setattr(evolution, name, unavailable)
    cfg = cli.parse_config("{}")
    traj = evolution.integrate(cli.initial_data(cfg), c=cfg.c, delta=cfg.delta, kappa=cfg.kappa,
                               dt=cfg.dt, t_end=cfg.t_end, output_every=cfg.output_every,
                               t_start=cfg.t_start, trunc_radius=cfg.trunc_radius)
    assert len(traj.snapshots) == 5 and traj.steps == [0, 2, 4, 6, 8]


@pytest.mark.parametrize("t_start, kappa, probes", [(1e-4, 0.0, 0), (0.0, 1e-3, 0)])
def test_integrate_takes_the_stability_probe_as_the_first_stage(monkeypatch, t_start, kappa, probes):
    # the probe runs at t_start and its velocity is bitwise stage 1 of step 1,
    # so two steps take 8 right-hand sides and no extra probe, from t_start = 0 too
    f = bump(256, amp=0.3)
    dt = 0.0125
    calls = []
    real_rhs = evolution.rhs_regularized

    def counting_rhs(state, *args, **kwargs):
        calls.append(state.t)
        return real_rhs(state, *args, **kwargs)

    monkeypatch.setattr(evolution, "rhs_regularized", counting_rhs)
    traj = evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=kappa, dt=dt,
                               t_end=t_start + 2 * dt, t_start=t_start)
    monkeypatch.undo()
    assert len(calls) == 8 + probes
    # the first step, with all four stages evaluated
    k, vals = [], f.values
    for node in evolution._RK4_NODES:
        state = InterfaceState(f=GridFunction1D(vals + node * dt * k[-1] if k else vals, LENGTH),
                               t=t_start + node * dt, c=1.0, delta=4 * f.h, kappa=kappa)
        k.append(evolution.rhs_regularized(state).values)
    step1 = vals + dt / 6.0 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
    one = evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=kappa, dt=dt,
                              t_end=t_start + dt, t_start=t_start)
    assert one.snapshots[-1].f.values.tobytes() == step1.tobytes()
    assert traj.snapshots[1].f.values.tobytes() == step1.tobytes()


def test_time_reversal_single_step():
    # forward then backward RK4 with frozen width recovers the state at the
    # local truncation order
    f = bump(256)
    width = 0.08

    def step(values, dt):
        def rhs(v):
            state = InterfaceState(
                f=GridFunction1D(v, LENGTH), t=width, c=1.0, delta=4 * f.h, kappa=0.0
            )
            return evolution.rhs_regularized(state).values

        k1 = rhs(values)
        k2 = rhs(values + 0.5 * dt * k1)
        k3 = rhs(values + 0.5 * dt * k2)
        k4 = rhs(values + dt * k3)
        return values + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    errs = []
    for dt in (0.2, 0.1):
        back = step(step(f.values, dt), -dt)
        errs.append(np.max(np.abs(back - f.values)))
    # fifth-order local error: halving dt divides the defect by ~32
    assert errs[1] <= errs[0] / 16.0


def _failing_rhs(monkeypatch, call, exc):
    """Make the ``call``-th rhs evaluation raise ``exc`` (call 1 is the
    stability probe, which is stage 1 of step 1, then three more for step 1
    and four per later RK4 step)."""
    real = evolution.rhs_regularized
    calls = []

    def rhs(state):
        calls.append(state.t)
        if len(calls) == call:
            raise exc
        return real(state)

    monkeypatch.setattr(evolution, "rhs_regularized", rhs)


def _overflowing_step_2(monkeypatch):
    """Every stage of step 2 (rhs calls 5 to 8) returns the largest float:
    each stage's state stays finite, but the RK4 update of step 2 overflows."""
    real = evolution.rhs_regularized
    calls = []

    def rhs(state):
        calls.append(state.t)
        if 5 <= len(calls) <= 8:
            return state.f.with_values(np.full(state.f.n, np.finfo(float).max))
        return real(state)

    monkeypatch.setattr(evolution, "rhs_regularized", rhs)


def test_blowup_flag_truncates_trajectory(monkeypatch):
    f = bump(128)
    _overflowing_step_2(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=1e-3, dt=0.0125, t_end=0.1)
    assert traj.failed and traj.failure_reason == "non-finite state: grid values must be finite"
    assert traj.failure_time == pytest.approx(0.025)
    assert [s.t for s in traj.snapshots] == [0.0, 0.0125]


def test_integrate_records_failing_step_and_stage(monkeypatch):
    f = bump(128)
    _failing_rhs(monkeypatch, 1 + 3 + 3, NonFiniteError("non-finite kernel value at site 7"))
    traj = evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=1e-3, dt=0.0125, t_end=0.05)
    assert traj.failed
    assert (traj.failure_step, traj.failure_stage) == (2, 3)
    assert traj.failure_time == pytest.approx(0.025)
    assert traj.failure_reason == "non-finite state: non-finite kernel value at site 7"
    assert len(traj.snapshots) == 2


def test_integrate_records_step_of_norm_blowup(monkeypatch):
    # an overflowing update is recorded at its step, with no stage
    f = bump(128)
    _overflowing_step_2(monkeypatch)
    traj = evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=1e-3, dt=0.0125, t_end=0.1)
    assert (traj.failure_step, traj.failure_stage) == (2, None)


def test_integrate_propagates_errors_that_are_not_non_finite(monkeypatch):
    f = bump(128)
    _failing_rhs(monkeypatch, 3, ValueError("a bug, not a blow-up"))
    with pytest.raises(ValueError, match="a bug"):
        evolution.integrate(f, c=1.0, delta=4 * f.h, kappa=1e-3, dt=0.0125, t_end=0.05)


def test_finiteness_checks_raise_non_finite_error():
    # the checks a stage meets: grid values and kernel values; the error
    # stays a ValueError / FloatingPointError for callers that catch those
    assert issubclass(NonFiniteError, ValueError)
    assert issubclass(NonFiniteError, FloatingPointError)
    with pytest.raises(NonFiniteError):
        GridFunction1D(np.full(128, np.inf), LENGTH)
    f = bump(128).values.copy()
    f[5] = np.nan
    with pytest.raises(NonFiniteError):
        evolution.kernel_quadrature(f, np.zeros(128), LENGTH, 0.05, 10.0)


def test_trajectory_rejects_nonincreasing_times():
    f = bump(128)
    traj = Trajectory()
    s = InterfaceState(f=f, t=0.1, c=1.0)
    traj.append(s, 0)
    with pytest.raises(ValueError):
        traj.append(InterfaceState(f=f, t=0.1, c=1.0), 1)


def test_damped_fifth_derivative_growth_stable_across_resolutions():
    # || Dinv d5 f || stays finite on the benchmark window and, at fixed
    # mollifier width (same equation on both grids), its growth factor
    # over [0, 0.1] agrees across resolutions within 5 percent
    delta = 4 * LENGTH / 256
    factors = []
    for n in (256, 512):
        f0 = bump(n)
        traj = evolution.integrate(
            f0, c=1.0, delta=delta, kappa=1e-3, dt=0.0125, t_end=0.1,
            output_every=8,
        )
        series = [evolution.dinv_d5_norm(s.f, s.t) for s in traj.snapshots]
        assert all(np.isfinite(series))
        factors.append(series[-1] / series[0])
    assert abs(factors[0] - factors[1]) / factors[1] <= 0.05


def test_sobolev_norm_zero_and_single_mode():
    zero = GridFunction1D.zeros(128, LENGTH)
    assert evolution.sobolev_norm(zero, 4) == 0.0
    amp = 0.7
    f = GridFunction1D.from_callable(lambda x: amp * np.sin(2 * np.pi * x / LENGTH), 128, LENGTH)
    xi1 = 1.0 / LENGTH
    for k in (0, 2, 4):
        expected = amp * np.sqrt(LENGTH / 2.0) * (1 + xi1**2) ** (k / 2.0)
        assert evolution.sobolev_norm(f, k) == pytest.approx(expected, rel=1e-12)


def test_sobolev_parseval_matches_grid_norm():
    run_check("sobolev_parseval")


def test_sobolev_rejects_bad_order():
    with pytest.raises(ValueError):
        evolution.sobolev_norm(bump(128), 6)
