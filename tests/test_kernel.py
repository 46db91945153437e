import warnings

import numpy as np
import pytest
from _table import run_check

from mixzone import kernel


def test_flat_kernel_odd_in_separation():
    for d in (0.3, 1.0, 7.5):
        a = kernel.kernel_values(d, 0.0, 0.2)
        b = kernel.kernel_values(-d, 0.0, 0.2)
        assert a == pytest.approx(-b, abs=1e-15)


def test_joint_odd_symmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        dx = rng.uniform(0.01, 5.0) * rng.choice([-1, 1])
        df = rng.uniform(-3, 3)
        eps = rng.uniform(0.02, 1.0)
        a = kernel.kernel_values(dx, df, eps)
        b = kernel.kernel_values(-dx, -df, eps)
        assert a == pytest.approx(-b, rel=1e-13, abs=1e-15)


def test_dx_zero_convention():
    assert kernel.kernel_values(0.0, 0.7, 0.3) == 0.0
    vals = kernel.kernel_values(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.3)
    assert vals[0] == 0.0 and np.isfinite(vals[1])


def test_magnitude_bounded_by_c_over_eps():
    rng = np.random.default_rng(2)
    for _ in range(100):
        eps = rng.uniform(0.01, 1.0)
        v = abs(kernel.kernel_values(rng.uniform(-10, 10), rng.uniform(-5, 5), eps))
        assert v <= 2.0 / eps


def test_oracle_self_check_flat_point():
    a = kernel.kernel_values(1.0, 0.0, 0.5)
    b = kernel.kernel_quadrature_oracle(1.0, 0.0, 0.5)
    assert abs(a - b) <= 1e-10


def test_oracle_resolves_the_diagonal_spike():
    # |dx| small against eps: the integrand is a spike of width |dx| on the
    # diagonal lam = lam' (dx = 1e-80 included), or at the strip-edge corner,
    # where the kernel is O(dx log dx), not sign(dx) / (2 eps), down to the
    # subnormal |dx| = 1e-310 (the kernel about 5.67e-307)
    for dx, df in ((1e-3, 0.0), (1e-4, 0.0), (1e-6, 0.0), (1e-80, 0.0), (-1e-9, 0.2), (1e-7, -0.2),
                   (1e-302, 0.2), (1e-310, 0.2), (-1e-310, -0.2)):
        closed = kernel.kernel_values(dx, df, 0.1)
        assert abs(kernel.kernel_quadrature_oracle(dx, df, 0.1) - closed) <= 1e-12 * abs(closed)


def test_oracle_of_a_subnormal_kernel_keeps_its_digits():
    # at the strip-edge corner with |dx| / eps below about 1e-308 the kernel
    # itself is subnormal; the oracle integrates tent / hypot and multiplies
    # by |dx| once, so it warns of nothing and rounds into the subnormal
    # range once: within a relative 1e-10 of the closed form at 5.76e-312,
    # and within two subnormal spacings at 2.92e-320 (5913.7 spacings by a
    # 700-digit evaluation; the oracle gives 5914, the closed form 5912)
    spacing = 5e-324
    for dx, tol in ((1e-315, None), (5e-324, 2 * spacing), (-5e-324, 2 * spacing)):
        closed = kernel.kernel_values(dx, 0.2, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel.kernel_quadrature_oracle(dx, 0.2, 0.1)
        assert np.sign(got) == np.sign(dx)
        assert abs(got - closed) <= (1e-10 * abs(closed) if tol is None else tol)


def test_oracle_small_eps_limit():
    # eps = 0.01 at (dx, df) = (1, 0.2): the Muskat limit up to O(eps^2)
    v = kernel.kernel_quadrature_oracle(1.0, 0.2, 0.01)
    assert v == pytest.approx(float(kernel.muskat_limit(1.0, 0.2)), abs=5e-5)


def test_oracle_joint_odd_symmetry():
    v1 = kernel.kernel_quadrature_oracle(1.3, 0.4, 0.2)
    v2 = kernel.kernel_quadrature_oracle(-1.3, -0.4, 0.2)
    assert v1 == pytest.approx(-v2, rel=1e-13)


def _corner_points(eps):
    # the strip-edge corner: |delta_f| within a few |dx| of 2 eps, with
    # dx / eps from 1e-2 to 1e-12, where the log1p argument cancels; and at
    # widths up to 1, |dx| so small that the squares and triple products of
    # the strip integral leave the normal range (the last point, at eps =
    # 3.58e-12, is a fuzz finding at |delta_f| = 2.0028 eps)
    dx = np.repeat(np.outer([-1.0, 1.0], eps * 10.0 ** -np.arange(2.0, 13.0, 2.0)).ravel(), 5)
    df = 2.0 * eps + np.tile([-3.0, -1.0, 0.0, 1.0, 3.0], dx.size // 5) * np.abs(dx)
    if eps <= 1.0:
        deep_dx = np.array([1e-170, -1e-200, 1e-300, -1.27e-288 * (eps / 3.58e-12)])
        deep_df = np.array([2.0, 2.0, 2.0, 7.17e-12 / 3.58e-12]) * eps
        keep = (np.abs(deep_dx) > 0.0) & (np.abs(deep_dx) < 1e-12 * eps)
        dx, df = np.append(dx, deep_dx[keep]), np.append(df, deep_df[keep])
    return np.concatenate([dx, dx]), np.concatenate([df, -df])


@pytest.mark.parametrize("eps", [1e-170, 3.58e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5,
                                 1.0, 1e150, 1e200])
def test_closed_form_matches_mpmath(eps):
    # second difference of the unfolded antiderivative, with 50 digits more
    # than it cancels (about (eps / r)^2 |dx| / |delta_f| of its terms): the
    # cancellation that float64 cannot afford costs mpmath nothing.  Widths
    # from 1e-170 to 1e200 (eps^2 under- and overflows outside about
    # [1e-154, 1e154]), and far-field points where |dx| is tiny against
    # |delta_f| (the first arctan2 underflows there)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()

    def oracle(dx, df):
        r = np.hypot(dx, df)
        mp.dps = 50 + int(2 * np.log10(1.0 + r / eps) + np.log10(1.0 + abs(df / dx)))
        dx, df, w = mp.mpf(dx), mp.mpf(df), mp.mpf(eps)

        def anti(u):
            return u * mp.atan(u / dx) - dx / 2 * mp.log(dx * dx + u * u)

        bracket = anti(df + 2 * w) - 2 * anti(df) + anti(df - 2 * w)
        return bracket / (4 * mp.pi * w * w)

    dxs = np.array([1e-3, 1e-2, 0.1, 1.0, 10.0])
    dxs = np.concatenate([-dxs, dxs])
    slopes = np.array([-3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0])
    dx = np.repeat(dxs, slopes.size)
    df = np.tile(slopes, dxs.size) * np.abs(dx)
    corner_dx, corner_df = _corner_points(eps)
    far_dx, far_df = np.array([1e-200, -1e-200, 1e-100]), np.array([1e40, 1e40, -1e60])
    dx, df = np.concatenate([dx, corner_dx, far_dx]), np.concatenate([df, corner_df, far_df])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel.kernel_values(dx, df, eps)
    want = np.array([float(oracle(a, b)) for a, b in zip(dx, df)])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0])
def test_kernel_values_pair_identity_is_bitwise(eps):
    # K(-dx, -u) == -K(dx, u) exactly: the PV quadrature evaluates each
    # (site, site - k) pair once and credits it to both sites
    rng = np.random.default_rng(5)
    dx = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-3, 1, 400)
    u = rng.uniform(-3, 3, 400) * np.abs(dx)
    u[:40] = 0.0
    corner_dx, corner_u = _corner_points(eps)
    dx, u = np.concatenate([dx, corner_dx]), np.concatenate([u, corner_u])
    assert np.array_equal(kernel.kernel_values(-dx, -u, eps), -kernel.kernel_values(dx, u, eps))


@pytest.mark.parametrize("eps", [1e-4, 0.1])
def test_kernel_values_far_field_where_r4_overflows(eps):
    # r^4 overflows once |delta_f| passes ~1e77; there the kernel is the
    # Muskat kernel to a relative (2 eps / r)^2, far below roundoff
    dx = np.array([1.0, -1.0, 2.5, 1.0, -1.0, 0.5])
    u = np.array([1e78, -1e78, 1e80, -1e80, 1e150, -1e150])
    with np.errstate(over="ignore"):
        got = kernel.kernel_values(dx, u, eps)
        huge = kernel.kernel_values(np.ones(4), np.array([1e160, -1e160, 1e300, -1e300]), eps)
        odd = kernel.kernel_values(-dx, -u, eps)
    want = dx / (np.pi * (dx * dx + u * u))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    assert np.all(np.isfinite(huge))
    assert np.array_equal(odd, -got)
    # in-range entries next to out-of-range ones keep their values bitwise
    mixed = np.array([0.3, 1e80])
    with np.errstate(over="ignore"):
        assert kernel.kernel_values(1.0, mixed, eps)[0] == kernel.kernel_values(1.0, 0.3, eps)


def test_kernel_values_where_r4_underflows():
    # r^4 underflows once r falls below ~1e-77; there the kernel is the
    # r -> 0 limit sign(dx) / (2 eps), or the rescaled kernel when eps is
    # as small as r (checked against a 400-digit second difference)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 400

    def oracle(dx, df, eps):
        dx, df, w = mp.mpf(dx), mp.mpf(df), mp.mpf(eps)

        def anti(u):
            return u * mp.atan(u / dx) - dx / 2 * mp.log(dx * dx + u * u)

        return float((anti(df + 2 * w) - 2 * anti(df) + anti(df - 2 * w)) / (4 * mp.pi * w * w))

    dx = np.array([1e-80, 1e-80, 1e-300, -1e-80, 1e-70])
    u = np.array([0.0, 1e-80, 0.0, 3e-81, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel.kernel_values(dx, u, 0.1)
        tiny_eps = kernel.kernel_values(np.array([1e-80, -2e-79]), np.array([5e-81, 1e-79]), 1e-79)
    assert np.array_equal(got[:4], [5.0, 5.0, 5.0, -5.0])
    assert got[4] == kernel.kernel_values(1e-70, 0.0, 0.1) == pytest.approx(oracle(1e-70, 0.0, 0.1))
    assert tiny_eps == pytest.approx([oracle(1e-80, 5e-81, 1e-79), oracle(-2e-79, 1e-79, 1e-79)],
                                     rel=1e-13)
    assert np.array_equal(kernel.kernel_values(-dx, -u, 0.1), -got)
    # in-range entries next to underflowing ones keep their values bitwise
    mixed = kernel.kernel_values(np.array([1.0, 1e-80]), 0.3, 0.1)
    assert mixed[0] == kernel.kernel_values(1.0, 0.3, 0.1)


def test_far_field_evaluations_are_silent():
    # no RuntimeWarning on far-field inputs that are handled correctly:
    # the kernel, the Muskat limit and the Gauss-Legendre oracle
    mpmath = pytest.importorskip("mpmath")
    dx = np.array([1.0, -1.0, 1.0, 1e160, -1e200, 1e300, 0.0, 2.0])
    u = np.array([1e78, 1e160, -1e300, 1e160, 1.0, -1e300, 1e160, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel.kernel_values(dx, u, 0.1)
        limit = kernel.muskat_limit(dx[:-2], u[:-2])
        oracle = kernel.kernel_quadrature_oracle(1.0, 1e160, 0.1)
        scalar = kernel.kernel_values(1.0, 1e160, 0.1)
    # the kernel is odd in dx and even in delta_f
    assert np.isfinite(oracle) and scalar == -got[1]
    assert got[-2] == 0.0 and got[-1] == kernel.kernel_values(2.0, 0.3, 0.1)
    want = np.array([float(mpmath.mpf(a) / (mpmath.pi * (mpmath.mpf(a) ** 2 + mpmath.mpf(b) ** 2)))
                     for a, b in zip(dx[:-2], u[:-2])])
    normal = np.abs(want) > 1e-300  # subnormal results keep fewer digits
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(limit))
    assert np.max(np.abs(got[:-2] - want)[normal] / np.abs(want[normal])) <= 1e-13
    assert np.max(np.abs(limit - want)[normal] / np.abs(want[normal])) <= 1e-13
    assert np.allclose(got[:-2][~normal], want[~normal], rtol=1e-3, atol=0.0)


def test_frozen_oddness_exact():
    run_check("frozen_kernel_oddness")


def test_frozen_is_closed_form_substitution():
    a, y, eps = 0.7, 0.3, 0.2
    assert float(kernel.kernel_frozen(a, y, eps)) == pytest.approx(
        kernel.kernel_values(y, a * y, eps), rel=1e-15
    )


def test_frozen_far_field():
    a, eps = 1.0, 0.1
    y = 10 * eps
    expected = y / (np.pi * y * y * (1 + a * a))
    assert float(kernel.kernel_frozen(a, y, eps)) == pytest.approx(expected, rel=0.05)


def test_frozen_jump_height():
    eps = 0.2
    near = float(kernel.kernel_frozen(0.7, 1e-12, eps))
    assert near == pytest.approx(1.0 / (2.0 * eps), rel=1e-6)


def test_ktilde_is_derivative_of_frozen_kernel():
    a, t = 0.8, 0.3
    for y in (0.05, 0.4, 2.0, -1.3):
        d = 1e-6 * max(abs(y), 1.0)
        fd = (
            float(kernel.kernel_frozen(a, y + d, t))
            - float(kernel.kernel_frozen(a, y - d, t))
        ) / (2 * d)
        assert float(kernel.ktilde(a, y, t)) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_ktilde_c_vanishes_at_zero_slope():
    y = np.linspace(-5, 5, 101)
    y = y[y != 0]
    assert np.max(np.abs(kernel.ktilde_c(0.0, y, 0.4))) <= 1e-14


def test_ktilde_c_even_and_finite_at_origin():
    a, t = 1.2, 0.3
    y = np.array([1e-9, 0.01, 0.5, 2.0])
    left = kernel.ktilde_c(a, -y, t)
    right = kernel.ktilde_c(a, y, t)
    assert np.allclose(left, right, rtol=1e-12)
    expected0 = (-2 * a * np.arctan(a) + np.log(1 + a * a)) / (4 * np.pi * t * t)
    assert right[0] == pytest.approx(expected0, rel=1e-6)


def _direct_l1(fn, a, t):
    # t * int |fn(A; y, t)| dy by adaptive quadrature at width t
    from scipy.integrate import quad

    return 2.0 * t * quad(lambda y: abs(fn(a, y, t)), 0.0, np.inf, limit=400)[0]


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_ktilde_c_l1_bound(a, t):
    # the statistic does not depend on t, so the bound holds at every t
    direct = _direct_l1(kernel.ktilde_c, a, t)
    assert direct == pytest.approx(kernel.ktilde_c_l1(a), rel=1e-5)
    assert 0.0 < direct <= 2.0 * a * a / (1.0 + a * a) + 1e-9


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
def test_ktilde_slope_l1_below_two(a):
    for t in (0.1, 0.5):
        direct = _direct_l1(kernel.ktilde_slope_derivative, a, t)
        assert direct == pytest.approx(kernel.ktilde_slope_l1(a), rel=1e-5)
        assert 0.0 < direct < 2.0


def test_ktilde_slope_matches_finite_difference():
    a, t = 0.6, 0.4
    for y in (0.1, 0.9, 3.0):
        d = 1e-6
        fd = (
            float(kernel.ktilde(a + d, y, t)) - float(kernel.ktilde(a - d, y, t))
        ) / (2 * d)
        assert float(kernel.ktilde_slope_derivative(a, y, t)) == pytest.approx(
            fd, rel=1e-6, abs=1e-10
        )


@pytest.mark.parametrize("t", [1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0])
def test_ktilde_family_matches_mpmath(t):
    # 50-digit evaluation of the unfolded arctan/log differences, which
    # lose every digit in float64 once t/y is small
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50

    def oracle(a, y, centered, slope):
        a, y, w = mp.mpf(a), mp.mpf(y), mp.mpf(t)
        arct = -2 * mp.atan(a) + mp.atan(a - 2 * w / y) + mp.atan(a + 2 * w / y)
        q1 = y * y + (a * y - 2 * w) ** 2
        q2 = y * y + (a * y + 2 * w) ** 2
        if slope:
            out = arct + 16 * a * y * y * w * w / (q1 * q2)
        else:
            ref = (1 + a * a) * (y * y + 4 * w * w) if centered else y * y * (1 + a * a)
            out = a * arct + mp.log(ref) - mp.log(q1) / 2 - mp.log(q2) / 2
        return float(out / (4 * mp.pi * w * w))

    for a in (-2.0, -0.3, 0.3, 1.0, 2.0):
        for y in (-5.0, -1.0, 0.1, 1.0, 5.0):
            for fn, centered, slope in ((kernel.ktilde, False, False),
                                        (kernel.ktilde_c, True, False),
                                        (kernel.ktilde_slope_derivative, False, True)):
                want = oracle(a, y, centered, slope)
                assert float(fn(a, y, t)) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lambda_integral_beyond_the_float_range_of_its_denominator():
    # past heights of about 1e77, (x^2 + p^2)^2 overflows: the far entries
    # take x (b - a) / r^2, r = hypot(x, midpoint height), those whose
    # widths are not small against r the integral scaled by a power of two;
    # both without a warning
    w = 0.05
    heights = np.logspace(78, 300, 38)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1.0, 1e-3, 1e3):
            got = kernel.lambda_integral(x, heights, -w, w, w)
            want = 2.0 * w * x / heights / heights
            normal = want > 1e-290
            assert np.all(np.abs(got - want)[normal] <= 1e-13 * want[normal])
            assert np.all(np.abs(got[~normal]) <= 1e-290)
        for scale in (1.0, 1e-3):
            x = scale * heights
            got = kernel.lambda_integral(x, heights, -w, 0.3 * w, w)
            want = 1.3 * w * (x / np.hypot(x, heights)) / np.hypot(x, heights)
            assert np.all(np.abs(got - want) <= 1e-13 * want)
        # widths of the heights' order: the integral is homogeneous of degree 0
        x, d, a, b = np.array([1e100, -2e100, 3e-10]), np.full(3, 3e100), -1e100, 5e99
        got = kernel.lambda_integral(x, d, a, b, 1e100)
        c = 2.0**-400
        want = kernel.lambda_integral(c * x, c * d, c * a, c * b, c * 1e100)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_lambda_integral_broadcasts_its_arguments():
    # the entry at x = 3e-110 takes the small-|1 + zeta| branch, which picks
    # its entries out of every argument at the full broadcast shape: scalar
    # or lower-dimensional arguments give the bits of the full arrays
    x = np.array([1.0, -2.0, 3e-110])
    full = (x, np.full(3, 3.0), np.full(3, -1.0), np.full(3, 0.5), np.full(3, 1.0))
    want = kernel.lambda_integral(*full)
    for d, a, b in ((3.0, -1.0, 0.5), (full[1], -1.0, 0.5), (3.0, full[2], full[3])):
        assert kernel.lambda_integral(x, d, a, b, 1.0).tobytes() == want.tobytes()
    d = np.array([3.0, -0.7])
    got = kernel.lambda_integral(x[:, None], d, -1.0, 0.5, 1.0)
    want = kernel.lambda_integral(*np.broadcast_arrays(x[:, None], d, -1.0, 0.5, 1.0))
    assert got.shape == (3, 2) and got.tobytes() == want.tobytes()
