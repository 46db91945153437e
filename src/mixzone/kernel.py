"""Closed-form kernels of the averaged-velocity interface equation.

The driving kernel is the double transverse average, over a strip of
half-width ``eps``, of the Poisson-type kernel

    dx / (dx^2 + (delta_f + (lam - lam'))^2),

normalized by ``1 / (4 pi eps^2)``.  Both averaging integrals can be done
exactly: the kernel is the second central difference, at ``delta_f``
and ``delta_f +- 2 eps``, of the antiderivative ``-Re(z log z)`` with
``z = dx + i u``.  The difference is folded algebraically before any
transcendental is evaluated, so that with ``u = delta_f`` and
``r^2 = dx^2 + u^2`` the bracket is

    u arctan2(-8 eps^2 dx u, r^4 + 4 eps^2 (dx^2 - u^2))
      + 2 eps arctan2(4 eps dx, r^2 - 4 eps^2)
      - (dx/2) log1p((8 eps^2 (dx^2 - u^2) + 16 eps^4) / r^4).

No term is a difference of nearly equal O(|dx| log |dx|) values, and the
principal ``arctan2`` branches are right for either sign of ``dx``.  The
log1p argument itself cancels only near the strip-edge corner
(``|delta_f|`` close to ``2 eps``, ``|dx|`` small against eps), where
``kernel_values`` takes the same second difference in the form of
:func:`lambda_integral`.  Together they are accurate to roundoff at
every width (within 1e-13 relative of a 50-digit evaluation, ``eps =
1e-10``, ``dx / eps`` down to 1e-12 and ``|dx|`` down to 1e-300 at the
corner included).  Where ``eps^4`` or ``r^4`` would leave the float
range, and in the far field ``r >= 1e8 eps`` where the three terms
cancel, ``kernel_values`` uses the kernel's homogeneity ``K(dx, u, eps)
= K(dx / eps, u / eps, 1) / eps`` and its two limits, the Muskat kernel
and ``sign(dx) / (2 eps)``; the tests cover widths from 1e-170 to 1e200.

This module provides that closed form, an adaptive-quadrature oracle
for it, the lam integral of the transverse average that the subsolution
check uses (:func:`lambda_integral`), the frozen-slope kernel ``K_A``,
and the differentiated kernels ``ktilde`` / ``ktilde_c`` together with
their L1 statistics.  The differentiated kernels are folded the same
way (one ``arctan2``, one ``log1p``), so they too are accurate to
roundoff at every width; the L1 statistics evaluate them at t = 1 by
scale invariance.  The oracle and the L1 statistics import scipy's
``quad`` when called; the closed forms need numpy only.

Conventions adopted here (asserted by the test suite):

* the ``1/(4 pi eps^2)`` normalization, so the ``eps -> 0`` limit is the
  Muskat kernel ``(1/pi) dx / (dx^2 + delta_f^2)``;
* ``kernel_values`` at ``dx == 0`` returns 0 (the kernel is odd and
  every consumer multiplies it by a difference vanishing there), which
  sidesteps the arctan branch at ``dx = 0``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kernel_values",
    "kernel_quadrature_oracle",
    "kernel_frozen",
    "muskat_limit",
    "lambda_integral",
    "ktilde",
    "ktilde_c",
    "ktilde_slope_derivative",
    "ktilde_c_l1",
    "ktilde_slope_l1",
]


_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
# kernel_values evaluates the folded form for widths in this range, where no
# power of eps it forms leaves the float range; other widths are rescaled
_EPS_RANGE = (1e-20, 1e20)
# and for entries with _NEAR eps <= r < _FAR eps; the far ones take the
# Muskat kernel, exact to (2 eps / r)^2, the near ones the r -> 0 limit
_NEAR = 1e-20
_FAR = 1e8


def _maybe_scalar(out: np.ndarray):
    return out if out.ndim else float(out)


def kernel_values(dx, delta_f, eps: float, work: np.ndarray | None = None):
    """Vectorized closed-form kernel; dx == 0 entries return 0.

    Two ``arctan2`` and one ``log1p`` per entry (see the module docstring).
    The imaginary part of the folded product is exactly ``-8 eps^2 dx u``,
    so the first ``arctan2`` carries no cancellation either.  Finite
    entries with ``r >= 1e8 eps`` (the far field, where the three terms
    cancel to ``O(eps^2 / r^2)``) or ``r < 1e-20 eps`` take
    :func:`_by_scale` instead, found by two scalar thresholds on ``r^4``;
    so does every entry when ``eps`` lies outside [1e-20, 1e20].  Near the
    strip-edge corner (``|u|`` close to ``2 eps``, ``|dx|`` small against
    eps) the log1p argument ``1 + x = |z-|^2 |z+|^2 / r^4`` cancels;
    entries with ``1 + x < 1/2`` take the same second difference from
    :func:`lambda_integral`, which builds that small factor directly, at
    a width scaled into [1/2, 1) when eps is below 1/2.

    ``work``, a float array of shape ``(5,) + shape`` for the broadcast
    shape of ``dx`` and ``delta_f``, holds the temporaries of the folded
    form, so a caller that evaluates many blocks of one shape allocates
    them once.  The folded form returns its values in ``work[0]``.
    """
    dx = np.asarray(dx, dtype=float)
    u = np.asarray(delta_f, dtype=float)
    zero = dx == 0.0
    if zero.any():
        safe = kernel_values(np.where(zero, 1.0, dx), u, eps)
        return _maybe_scalar(np.where(zero, 0.0, safe))
    if not _EPS_RANGE[0] <= eps <= _EPS_RANGE[1]:
        return _maybe_scalar(_by_scale(*np.broadcast_arrays(dx, u), eps))
    if work is None:
        work = np.empty((5,) + np.broadcast(dx, u).shape)
    out, diff, r2, r4, tmp = (work[k, ...] for k in range(5))  # 0-d views for scalars
    w2 = eps * eps
    # edge and corner entries are evaluated too, and replaced below
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        dx2 = dx * dx
        np.multiply(u, u, out=diff)
        np.add(dx2, diff, out=r2)
        np.multiply(r2, r2, out=r4)
        np.subtract(dx2, diff, out=diff)
        np.multiply(diff, 4.0 * w2, out=tmp)
        tmp += r4
        np.multiply(-8.0 * w2 * dx, u, out=out)
        np.arctan2(out, tmp, out=out)
        out *= u
        np.subtract(r2, 4.0 * w2, out=tmp)
        np.arctan2(4.0 * eps * dx, tmp, out=tmp)
        tmp *= 2.0 * eps
        out += tmp
        diff *= 8.0 * w2
        diff += 16.0 * w2 * w2
        diff /= r4
        np.log1p(diff, out=tmp)
        tmp *= 0.5 * dx
        out -= tmp
        out *= 1.0 / (4.0 * np.pi * w2)
    near4, far4 = (_NEAR * eps) ** 4, (_FAR * eps) ** 4  # normal floats in the range
    edge = (r4 < near4) | (r4 >= far4)
    corner = diff < -0.5
    if edge.any():
        edge &= np.isfinite(dx) & np.isfinite(u)
        corner &= ~edge
        dxb, ub = np.broadcast_arrays(dx, u)
        out[edge] = _by_scale(dxb[edge], ub[edge], eps)
    if corner.any():
        # below width 1/2 the products of powers of eps in the strip integral
        # reach the subnormal range; scaling by a power of two is exact
        dxb, ub = np.broadcast_arrays(dx, u)
        m, e = math.frexp(eps)
        w, e = (m, e) if e < 0 else (eps, 0)
        strip = lambda_integral(np.ldexp(dxb[corner], -e), np.ldexp(ub[corner], -e), -w, w, w)
        out[corner] = np.ldexp(strip / (2.0 * np.pi * w), -e)
    return _maybe_scalar(out)


def _by_scale(dx: np.ndarray, u: np.ndarray, eps: float) -> np.ndarray:
    """The kernel at nonzero-``dx`` entries, by their size against ``eps``.

    With ``size = max(|dx|, |u|)``, so that ``r / sqrt 2 <= size <= r``:

    * far, ``size > 5e7 eps``: the Muskat kernel ``dx / (pi r^2)``, to a
      relative ``(2 eps / r)^2 < 2e-15``;
    * near, ``size < 2e-20 eps``: the ``r -> 0`` limit ``sign(dx) / (2
      eps)``, to a relative ``O((r / eps) log(eps / r))``;
    * otherwise the kernel is homogeneous of degree -1: with ``eps = m 2^e``,
      ``m`` in [1/2, 1), ``K(dx, u, eps) = 2^-e K(2^-e dx, 2^-e u, m)``, and
      the power-of-two scaling is exact.  A scaled ``dx`` that underflows to
      0 is kept at the smallest normal float of its sign, where the kernel
      has reached its ``dx -> 0`` limit.

    The margins of 2 on both sides make the entries that :func:`kernel_values`
    hands over (``r >= 1e8 eps`` or ``r < 1e-20 eps``) far or near, and the
    scaled ones fall inside its main branch.  Non-finite entries give
    non-finite values.
    """
    size = np.maximum(np.abs(dx), np.abs(u))
    out = np.array(np.sign(dx) / (2.0 * eps))
    far = size > 0.5 * _FAR * eps
    out[far] = muskat_limit(dx[far], u[far])
    scaled = ~far & (size >= 2.0 * _NEAR * eps)
    if scaled.any():
        m, e = math.frexp(eps)
        sx, su = np.ldexp(dx[scaled], -e), np.ldexp(u[scaled], -e)
        sx[sx == 0.0] = np.copysign(_TINY, dx[scaled][sx == 0.0])
        out[scaled] = np.ldexp(kernel_values(sx, su, m), -e)
    return out


def lambda_integral(x, d, a, b, w: float) -> np.ndarray:
    """``int_a^b inner(x, d + lam) dlam`` in closed form, for a <= b.

    ``inner(x, d)`` is the transverse average over ``[-w, w]`` of the
    Poisson kernel ``x / (x^2 + (d - lam')^2)``, so the kernel itself is
    this integral over the strip (a = -w, b = w, w = eps) over ``2 pi eps``.
    With ``A(u) = -Re(z log z)``, ``z = x + iu``, this is the mixed second
    difference of A over steps ``s1 = b - a``, ``s2 = 2w``, over 2w.  About
    a base corner z0 (z1 = z0 + i s1, z2 = z0 + i s2) it folds to ``-Re[z0
    log1p(zeta) + i s1 log1p(i s2/z1) + i s2 log1p(i s1/z2)]``, ``zeta = s1
    s2/(z1 z2)``, each complex log1p one real log1p and one ``arctan2``; odd
    in x, as the integral is.  It stays at roundoff near the singularity
    u = 0: the base is the outer corner nearer to it (``inner`` is even in d,
    so ``(d, a, b) -> (-d, -b, -a)`` mirrors the other into place), a small
    ``1 + zeta`` is built from its small factor z0 z12, and corners are
    ``d + (a - w)`` etc., exact where a or b is a strip edge.
    """
    s1, s2 = b - a, 2.0 * w
    mirror = np.abs(d + (b + w)) < np.abs(d + (a - w))
    d, a, b = np.where(mirror, -d, d), np.where(mirror, -b, a), np.where(mirror, -a, b)
    q, p1, p2, p12 = d + (a - w), d + (b - w), d + (a + w), d + (b + w)
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x * x
        den = (x2 + p1 * p1) * (x2 + p2 * p2)
        huge = np.isinf(den) & np.isfinite(x) & np.isfinite(q) & np.isfinite(p12)
        if huge.any():
            beyond = _beyond_range(*(np.broadcast_to(v, den.shape)[huge] for v in (x, d, a, b, w)))
        del d, a, b  # dead from here on; freed, they cut the call's peak by 3 of ~17 full arrays
        s12, cross = s1 * s2, x2 - p1 * p2
        # 1 + zeta = z0 z12 conj(z1 z2) / den; ratio = |1 + zeta|^2 - 1, folded
        theta = np.arctan2(-s12 * x * (p1 + p2), den + s12 * cross)
        ratio = s12 * (2.0 * cross + s12) / den
        logs = np.log1p(np.maximum(ratio, -0.5))
        small = ratio < -0.5
        if small.any():  # |1 + zeta| < 0.71: build it from its small factor z0 z12
            xs, qs, ps, psum = (np.broadcast_to(v, small.shape)[small] for v in (x, q, p12, p1 + p2))
            re, im, cr, ci = xs * xs - qs * ps, xs * (qs + ps), cross[small], -xs * psum
            theta[small] = np.arctan2(re * ci + im * cr, re * cr - im * ci)
            r0, r12, dens = xs * xs + qs * qs, xs * xs + ps * ps, den[small]
            arg = r0 * r12 / dens
            # where |z0|^2 or the ratio is subnormal, log |z0| comes from |z0| itself
            deep = np.minimum(r0, arg) < _TINY
            lg = np.log(np.where(deep, 1.0, arg))
            lg[deep] = 2.0 * np.log(np.hypot(xs[deep], qs[deep])) + np.log(r12[deep] / dens[deep])
            logs[small] = lg
        out = q * theta - 0.5 * x * logs
        out += s1 * np.arctan2(s2 * x, x2 + p1 * p12)
        out += s2 * np.arctan2(s1 * x, x2 + p2 * p12)
        out /= s2
    if huge.any():
        out[huge] = beyond
    return out


def _beyond_range(x, d, a, b, w) -> np.ndarray:
    """:func:`lambda_integral` where ``(x^2 + p^2)^2`` overflows, ``p`` a corner (``r`` above 1e77).

    For half-widths below ``r / 1e8`` the far limit ``x (b - a) / r^2``, ``r = hypot(x, d + (a +
    b)/2)``; otherwise the integral, homogeneous of degree 0, scaled by a power of two.
    """
    r = np.hypot(x, d + 0.5 * (a + b))
    out = (b - a) * (x / r) / r
    near = r < _FAR * np.maximum(w, 0.5 * (b - a))
    if near.any():
        x, d, a, b, w = (v[near] for v in (x, d, a, b, w))
        e = np.frexp(np.maximum.reduce([np.abs(x), np.abs(d + (a - w)), np.abs(d + (b + w))]))[1]
        out[near] = lambda_integral(*(np.ldexp(v, -e) for v in (x, d, a, b, w)))
    return out


def kernel_quadrature_oracle(dx: float, delta_f: float, eps: float) -> float:
    """Adaptive quadrature of the unintegrated kernel.

    Independent oracle for :func:`kernel_values`.  The average of
    ``F(delta_f + lam - lam')``, ``F(u) = dx / (dx^2 + u^2)``, over the
    square ``[-eps, eps]^2`` depends on ``v = lam - lam'`` only, so the
    kernel is the tent integral ``int (2 eps - |v|) F(delta_f + v) dv``
    over ``|v| <= 2 eps``, divided by ``4 pi eps^2``.  It is even in
    delta_f and odd in dx.  The tent is split at its kink v = 0 and at the
    spike u = 0 of F; on each piece ``|u| = |dx| sinh(tau)`` turns
    ``F du`` into ``sign(dx) dtau / cosh(tau)``, with tau counted from the
    piece's end nearest the spike, so that a piece far out keeps its width.
    The tent is taken over its height 2 eps, so no width underflows it.
    No floor on |dx|: at the strip-edge corner the kernel is O(dx log dx),
    not ``sign(dx) / (2 eps)``, down to the smallest subnormal.  The
    integrand is ``tent / hypot(|dx|, u)`` and ``|dx|`` multiplies the sum
    once at the end (after the division by ``2 pi eps`` where the product
    would be subnormal), so nothing inside the quadrature is subnormal
    where ``|dx| / |u|`` is.  A subnormal dx, which keeps few digits in
    products, is first scaled to a normal one by a power of two (exact);
    the integral scales inversely, so the end product is unchanged.
    """
    from scipy.integrate import quad

    if not eps > 0:
        raise ValueError("eps must be positive")
    if dx == 0.0:
        return 0.0
    e = 0
    if abs(dx) < _TINY and max(eps, abs(delta_f)) < 1e290:  # s <= 2^53 keeps them finite
        e = -1021 - math.frexp(dx)[1]
    ax, df, tent = (math.ldexp(v, e) for v in (abs(dx), abs(delta_f), 2.0 * eps))

    def piece(v0: float, v1: float) -> float:
        start, step = (v0, 1.0) if df + v0 >= 0.0 else (v1, -1.0)
        # the tent over its height is linear on the piece: head + rate * grow,
        # exact at the edges
        head, rate = 1.0 - abs(start) / tent, (-step if v0 >= 0.0 else step) / tent
        p0, length = abs(df + start), v1 - v0  # |u| grows from p0 by length
        q0, r0 = p0 + length, np.hypot(ax, p0)
        r1 = np.hypot(ax, q0)
        # asinh(q0 / ax) - asinh(p0 / ax), without the difference; where that
        # overflows (p0 and ax tiny), asinh(q0 / ax) = log(2 q0 / ax) from logs
        with np.errstate(over="ignore"):
            arg = length * ((q0 + p0) / r1) / (q0 * (r0 / r1) + p0)
        if np.isfinite(arg):
            span = np.arcsinh(arg)
        else:
            span = math.log(2.0 * q0) - math.log(ax) - math.asinh(p0 / ax)

        def integrand(tau: float) -> float:
            sh, ch = np.sinh(0.5 * tau), np.cosh(0.5 * tau)
            grow = 2.0 * sh * (r0 * ch + p0 * sh)  # |u| - p0 = r0 sinh(tau) + p0 (cosh(tau) - 1)
            hyp = np.hypot(ax, p0 + grow)  # hypot(|dx|, |u|)
            return head / hyp + rate * (grow / hyp)  # tent / hyp; grow / hyp <= 1 keeps its digits

        return quad(integrand, 0.0, span, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    cuts = sorted({-tent, max(-df, -tent), 0.0, tent})
    total = sum(piece(v0, v1) for v0, v1 in zip(cuts[:-1], cuts[1:]))
    # ax total = int tent / cosh(tau) over the pieces, at most pi, is scale-free
    if ax * total >= _TINY:
        return float(np.sign(dx) * (ax * total) / (2.0 * np.pi * eps))
    return float(np.sign(dx) * ax * (total / (2.0 * np.pi * eps)))


def kernel_frozen(slope_a: float, y, eps: float):
    """Frozen-slope kernel K_A(y): the closed form at ``delta_f = A*y``.

    Odd in y, with a jump of height ``1/eps`` across ``y = 0``.
    """
    y = np.asarray(y, dtype=float)
    return kernel_values(y, slope_a * y, eps)


def muskat_limit(dx, delta_f):
    """The eps -> 0 limit ``(1/pi) dx / (dx^2 + delta_f^2)``.

    Rescaled where the squares leave the float range; ``inf`` of the sign of
    ``dx``, silently, where the limit itself does (``|dx|`` below about
    ``1 / (pi max)``).
    """
    dx, u = np.broadcast_arrays(np.asarray(dx, dtype=float), np.asarray(delta_f, dtype=float))
    with np.errstate(over="ignore"):
        r2 = dx * dx + u * u
    size = np.maximum(np.abs(dx), np.abs(u))
    # pi * r2 stays finite below max / 4
    fix = ((r2 < _TINY) | (r2 > _HUGE / 4.0)) & (size > 0) & np.isfinite(size)
    if not fix.any():
        return _maybe_scalar(np.asarray(dx / (np.pi * r2)))
    out = np.asarray(dx / (np.pi * np.where(fix, 1.0, r2)))
    a, b = dx[fix] / size[fix], u[fix] / size[fix]
    with np.errstate(over="ignore"):
        out[fix] = a / (np.pi * (a * a + b * b)) / size[fix]
    return _maybe_scalar(out)


# ---------------------------------------------------------------------------
# Differentiated kernels: ktilde = dK_A/dy away from the jump, and its
# slow-part subtraction ktilde_c = ktilde(A) - ktilde(0).  Their second
# differences are folded before any transcendental, as in kernel_values:
# with s = 2t/y the arctan addition formula gives
#   -2 arctan A + arctan(A - s) + arctan(A + s)
#     = arctan2(-8 A t^2, y^2 (1 + A^2)^2 + 4 t^2 (1 - A^2)),
# and each log combination is one log1p of its exact ratio minus one.
# ---------------------------------------------------------------------------


def _folded_arctan(a: float, y2: np.ndarray, t2: float) -> np.ndarray:
    """``-2 arctan a + arctan(a - 2t/y) + arctan(a + 2t/y)`` as one ``arctan2``.

    The imaginary part of the folded product is exactly ``-8 a t^2`` and
    the sum lies in (-pi, pi), so the principal branch is the right one.
    """
    p = 1.0 + a * a
    return np.arctan2(-8.0 * a * t2, y2 * p * p + 4.0 * t2 * (1.0 - a * a))


def _ktilde_args(y, t: float) -> tuple[np.ndarray, float]:
    """Validated ``y`` and ``t^2``."""
    if not t > 0:
        raise ValueError("t must be positive")
    return np.asarray(y, dtype=float), t * t


def ktilde(slope_a: float, y, t: float):
    """Derivative kernel K~(A; y) at mixing half-width t.

    Equals ``d/dy K_A(y)`` for ``y != 0`` (checked against finite
    differences of :func:`kernel_frozen` in the tests).  The logs are
    ``-1/2 log1p((8 t^2 y^2 (1 - A^2) + 16 t^4) / (y^4 (1 + A^2)^2))``.
    """
    y, t2 = _ktilde_args(y, t)
    y2 = y * y
    a = slope_a
    p = 1.0 + a * a
    excess = 8.0 * t2 * y2 * (1.0 - a * a) + 16.0 * t2 * t2
    logs = -0.5 * np.log1p(excess / (y2 * y2 * p * p))
    out = a * _folded_arctan(a, y2, t2) + logs
    return _maybe_scalar(np.asarray(out / (4.0 * np.pi * t2)))


def ktilde_c(slope_a: float, y, t: float):
    """Centered derivative kernel ``K~(A; y) - K~(0; y)``.

    Integrable in y (the log(y^2) singularity cancels); identically zero
    for A = 0.  The logs are ``-1/2 log1p(-A^2 (8 t^2 y^2 (3 + A^2) +
    16 t^4 (2 + A^2)) / ((1 + A^2)^2 (y^2 + 4 t^2)^2))``.
    """
    y, t2 = _ktilde_args(y, t)
    y2 = y * y
    a = slope_a
    a2 = a * a
    q = (1.0 + a2) * (y2 + 4.0 * t2)
    excess = -a2 * (8.0 * t2 * y2 * (3.0 + a2) + 16.0 * t2 * t2 * (2.0 + a2))
    logs = -0.5 * np.log1p(excess / (q * q))
    out = a * _folded_arctan(a, y2, t2) + logs
    return _maybe_scalar(np.asarray(out / (4.0 * np.pi * t2)))


def ktilde_slope_derivative(slope_a: float, y, t: float):
    """Partial derivative of K~ with respect to the frozen slope A.

    The rational term is ``16 A y^2 t^2 / ((y^2 + (A y - 2t)^2)(y^2 + (A y
    + 2t)^2))``, a product of sums of squares.
    """
    y, t2 = _ktilde_args(y, t)
    y2 = y * y
    a = slope_a
    ay = a * y
    quartic = (y2 + (ay - 2.0 * t) ** 2) * (y2 + (ay + 2.0 * t) ** 2)
    rational = 16.0 * a * y2 * t2 / quartic
    out = _folded_arctan(a, y2, t2) + rational
    return _maybe_scalar(np.asarray(out / (4.0 * np.pi * t2)))


def _scaled_l1(scaled_integrand) -> float:
    """Integrate |g(y')| over the line for an even scaled integrand g."""
    from scipy.integrate import quad

    val, _ = quad(
        lambda yp: abs(scaled_integrand(yp)),
        0.0,
        np.inf,
        limit=400,
    )
    return 2.0 * val


def ktilde_c_l1(slope_a: float) -> float:
    """``int t * |ktilde_c(A; y, t)| dy``; bounded by ``2 A^2 / (1 + A^2)``.

    The integral is the same at every t (``t^2 ktilde_c(A; y, t)`` depends
    on ``y/t`` only), so it is ``int |ktilde_c(A; y', 1)| dy'``, where the
    adaptive quadrature needs no tail truncation.
    """
    return _scaled_l1(lambda yp: ktilde_c(slope_a, yp, 1.0))


def ktilde_slope_l1(slope_a: float) -> float:
    """``int t * |d/dA ktilde(A; y, t)| dy``; strictly below 2 for every A.

    The same at every t, like :func:`ktilde_c_l1`, so evaluated at t = 1.
    """
    return _scaled_l1(lambda yp: ktilde_slope_derivative(slope_a, yp, 1.0))
