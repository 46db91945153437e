"""Fourier-side machinery: transforms, damping symbols, weighted energy.

The frozen-slope kernel acts in frequency as an explicit multiplier
``k_hat``; exponentiating its time integral produces the damping symbol
``m = exp(-H(t|xi|, A))`` and its normalized companion
``mtilde = (1 + t|xi|) m``, which stays pinched between positive
constants.  ``H`` is an integral with a removable singularity at 0.  It
is evaluated two ways: an adaptive-quadrature reference (`H_integral`,
which imports scipy when called) and a closed form (`h_values`), which
the symbol tables and the weighted energy use.  With ``sigma = 1/(1 +
A^2)`` and ``w = 4 pi sigma (1 + iA) s`` the closed form is

    H(s, A) = Re F(w),   F(w) = Ein(w) - 1 + (1 - e^-w) / w,

where ``Ein`` is the entire exponential integral; ``F`` is computed in
numpy from its power series near 0 and from the continued fraction of
``E1`` beyond (Abramowitz & Stegun 5.1.11 and 5.1.22), to about 1e-15
absolute.  The symbols broadcast the slope against the frequencies, so
a table over many slopes is one call.  The weighted energy
``|| mtilde Dinv F ||_L2`` and a randomized coercivity probe for it live
here too.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction1D

__all__ = [
    "k_hat",
    "h_integrand",
    "H_integral",
    "h_values",
    "symbol_m",
    "symbol_mtilde",
    "mtilde_table",
    "mtilde_dinv_mode_sum",
    "apply_dinv",
    "apply_mtilde_dinv",
    "coercivity_probe",
    "energy",
]

_SERIES_CUTOFF = 1e-3
# Chebyshev slope nodes over which apply_mtilde_dinv interpolates the symbol
_INTERP_NODES = 16
# F(w) = sum_{j>=1} (-1)^(j+1) w^j / (j (j+1)!) for |w| <= _F_RADIUS, where 32
# terms leave a remainder below 1e-20; beyond it the continued fraction of E1
# at depth _E1_DEPTH (both measured against 40-digit mpmath: 5e-16 absolute
# near the switch, |arg w| up to 89.99 degrees)
_F_RADIUS = 4.0
_F_SERIES = tuple((-1.0) ** (j + 1) / (j * math.factorial(j + 1)) for j in range(1, 33))
_E1_DEPTH = 45


def k_hat(slope_a: float, xi, eps: float):
    """Exact Fourier transform of the frozen-slope kernel K_A.

    Purely a function of ``s = |xi| eps``, ``sign(xi)`` and the slope;
    satisfies ``conj(k_hat(xi)) = k_hat(-xi)``.  The symbol has a sign
    jump through ``xi = 0``, so zero frequencies are rejected.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    xi = np.asarray(xi, dtype=float)
    if np.any(xi == 0.0):
        raise ValueError("k_hat is undefined at xi = 0 (sign(xi) jump)")
    sigma = 1.0 / (1.0 + slope_a * slope_a)
    s = np.abs(xi) * eps
    b = 4.0 * np.pi * s * sigma
    bracket = 1.0 + (
        np.exp(-b) * (np.cos(b * slope_a) - slope_a * np.sin(b * slope_a)) - 1.0
    ) / (4.0 * np.pi * s)
    out = np.asarray(
        (-1j * np.sign(xi) / (2.0 * np.pi * np.abs(xi) * eps)) * bracket
    )
    return out if out.ndim else complex(out)


def h_integrand(tau, slope_a: float):
    """Integrand of H; removable singularity at tau = 0 (limit 2 pi sigma).

    Below tau = 1e-3 the direct expression loses all digits to
    cancellation, so the Taylor series takes over there.
    """
    tau = np.asarray(tau, dtype=float)
    sigma = 1.0 / (1.0 + slope_a * slope_a)
    b = 4.0 * np.pi * tau * sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (
            1.0
            + (np.exp(-b) * (np.cos(b * slope_a) - slope_a * np.sin(b * slope_a)) - 1.0)
            / (4.0 * np.pi * tau)
        ) / tau
    c = _series_coefficients(slope_a)
    series = c[0] + tau * (c[1] + tau * (c[2] + tau * c[3]))
    val = np.where(tau < _SERIES_CUTOFF, series, val)
    return val if val.ndim else float(val)


def _series_coefficients(slope_a: float):
    """Taylor coefficients of the integrand at 0, c_n for n = 0..3."""
    z = 4.0 * np.pi * (1.0 + 1j * slope_a) / (1.0 + slope_a * slope_a)
    coeffs = []
    for n in (2, 3, 4, 5):
        a_n = ((1.0 - 1j * slope_a) * (-z) ** n).real / math.factorial(n)
        coeffs.append(a_n / (4.0 * np.pi))
    return coeffs


def H_integral(s: float, slope_a: float) -> float:
    """Reference evaluation of H(s, A).

    Four-term Taylor series of the integrand on ``[0, 1e-3]`` plus
    adaptive Gauss-Kronrod on the rest; H(0, A) = 0.
    """
    from scipy.integrate import quad

    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    top = min(s, _SERIES_CUTOFF)
    c = _series_coefficients(slope_a)
    out = sum(cn * top ** (n + 1) / (n + 1) for n, cn in enumerate(c))
    if s > _SERIES_CUTOFF:
        val, _ = quad(
            h_integrand,
            _SERIES_CUTOFF,
            s,
            args=(slope_a,),
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
        )
        out += val
    return float(out)


def _damping_f(w: np.ndarray) -> np.ndarray:
    """``F(w) = Ein(w) - 1 + (1 - e^-w) / w`` elementwise, for ``Re w >= 0``.

    The power series of F itself near 0 (F(0) = 0, no cancellation at
    small |w|); beyond ``_F_RADIUS`` ``Ein(w) = gamma + log w + E1(w)`` with
    the even continued fraction ``E1(w) = e^-w / (w + 1 - 1^2 / (w + 3 -
    2^2 / (w + 5 - ...)))`` evaluated bottom-up at a fixed depth.
    """
    out = np.empty(w.shape, dtype=complex)
    near = np.abs(w) <= _F_RADIUS
    wn = w[near]
    acc = np.full(wn.shape, _F_SERIES[-1], dtype=complex)
    for coef in _F_SERIES[-2::-1]:
        acc *= wn
        acc += coef
    out[near] = acc * wn
    if not near.all():
        wf = w[~near]
        tail = wf + (2 * _E1_DEPTH + 1)
        for k in range(_E1_DEPTH, 0, -1):
            tail = wf + (2 * k - 1) - (k * k) / tail
        decay = np.exp(-wf)
        out[~near] = np.euler_gamma - 1.0 + np.log(wf) + decay / tail + (1.0 - decay) / wf
    return out


def h_values(s, slope_a):
    """Closed form of H (vectorized; ``s`` and ``slope_a`` broadcast).

    Integrating the ``1/tau^2`` term of the integrand by parts, and using
    ``(1 - iA) w = 4 pi s``, leaves ``H(s, A) = Re F(w)`` with ``w = 4 pi
    sigma (1 + iA) s`` (see the module docstring and :func:`_damping_f`).
    Within 1e-14 absolute of a 50-digit evaluation for s in [1e-9, 1e3] and
    |A| <= 200; H(0, A) = 0.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("s must be nonnegative")
    a = np.asarray(slope_a, dtype=float)
    re = 4.0 * np.pi / (1.0 + a * a) * s
    out = _damping_f(np.asarray(re + 1j * (a * re))).real
    return out if out.ndim else float(out)


def symbol_m(xi, slope_a, t: float):
    """Damping symbol ``m = exp(-H(t|xi|, A))``; m = 1 at t = 0.

    ``slope_a`` broadcasts against ``xi``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    s = t * np.abs(np.asarray(xi, dtype=float))
    return np.exp(-h_values(s, slope_a))


def symbol_mtilde(xi, slope_a, t: float):
    """Normalized symbol ``mtilde = (1 + t|xi|) exp(-H)``; strictly positive.

    ``slope_a`` broadcasts against ``xi``: ``symbol_mtilde(freqs, a[:, None],
    t)`` is the (slope, mode) table, row for row the one-slope calls.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    s = t * np.abs(np.asarray(xi, dtype=float))
    return (1.0 + s) * np.exp(-h_values(s, slope_a))


def mtilde_table(slope: GridFunction1D, t: float) -> np.ndarray:
    """mtilde(xi_k, A(x_j), t) on the (site j, mode k) lattice, one row per site."""
    return symbol_mtilde(slope.freqs(), slope.values[:, None], t)


def _damped_spectrum(f: GridFunction1D, t: float) -> np.ndarray:
    """``fft(f) / (1 + t |xi|)``: the spectrum of ``Dinv f``."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return np.fft.fft(f.values) / (1.0 + t * np.abs(f.freqs()))


def mtilde_dinv_mode_sum(f: GridFunction1D, slope: GridFunction1D, t: float) -> GridFunction1D:
    """``mtilde(xi, A(x), t) Dinv f`` as the exact O(N^2) mode sum per site.

    Reference for :func:`apply_mtilde_dinv`, which interpolates the symbol
    in the slope instead.
    """
    n = f.n
    damped = _damped_spectrum(f, t)
    phase = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return f.with_values((mtilde_table(slope, t) * (damped[None, :] * phase)).sum(axis=1).real / n)


def apply_dinv(f: GridFunction1D, t: float) -> GridFunction1D:
    """Damping multiplier ``Dinv = 1 / (1 + t |xi|)``; an L2 contraction."""
    return f.with_values(np.fft.ifft(_damped_spectrum(f, t)).real)


def _lagrange_weights(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange evaluation weights, shape (len(x), len(nodes))."""
    w = np.ones(nodes.size)
    for p in range(nodes.size):
        diffs = nodes[p] - np.delete(nodes, p)
        w[p] = 1.0 / np.prod(diffs)
    dx = x[:, None] - nodes[None, :]
    exact = np.isclose(dx, 0.0)
    dx_safe = np.where(exact, 1.0, dx)
    terms = w[None, :] / dx_safe
    out = terms / terms.sum(axis=1, keepdims=True)
    out[exact.any(axis=1)] = exact[exact.any(axis=1)].astype(float)
    return out


def apply_mtilde_dinv(f: GridFunction1D, slope: GridFunction1D, t: float) -> GridFunction1D:
    """Apply the x-dependent operator ``mtilde(xi, A(x), t) Dinv``.

    The per-site symbol is interpolated barycentrically over
    ``_INTERP_NODES`` Chebyshev slope nodes: one (node, mode) symbol table
    and one batch of inverse FFTs, one per node.  It agrees with the exact
    mode sum :func:`mtilde_dinv_mode_sum` to better than 1e-8 (enforced in
    tests).
    """
    if f.n != slope.n or f.length != slope.length:
        raise ValueError("field and slope must share a grid")
    freqs = f.freqs()
    damped = _damped_spectrum(f, t)
    a_min, a_max = float(slope.values.min()), float(slope.values.max())
    if np.isclose(a_min, a_max):
        vals = symbol_mtilde(freqs, 0.5 * (a_min + a_max), t)
        return f.with_values(np.fft.ifft(damped * vals).real)
    k = np.arange(_INTERP_NODES)
    cheb = np.cos((2 * k + 1) * np.pi / (2 * _INTERP_NODES))
    nodes = 0.5 * (a_min + a_max) + 0.5 * (a_max - a_min) * cheb
    per_node = np.fft.ifft(damped * symbol_mtilde(freqs, nodes[:, None], t), axis=1).real
    weights = _lagrange_weights(nodes, slope.values)
    return f.with_values(np.einsum("jp,pj->j", weights, per_node))


def coercivity_probe(
    slope: GridFunction1D,
    t: float,
    trials: int = 16,
    seed: int = 0,
) -> float:
    """Worst ratio ``||mtilde Dinv F|| / ||Dinv F||`` over random smooth F.

    Randomized lower-bound probe of the weighted norm's coercivity.  The
    trial fields have spectra decaying like ``1/(1+|k|)^2`` with random
    phases; at t = 0 the ratio is exactly 1.
    """
    if trials < 10:
        raise ValueError("trials must be at least 10")
    rng = np.random.default_rng(seed)
    n, length = slope.n, slope.length
    worst = np.inf
    for _ in range(trials):
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeffs *= 1.0 / (1.0 + np.abs(np.fft.fftfreq(n) * n)) ** 2
        field = GridFunction1D(np.fft.ifft(coeffs).real, length)
        damped = apply_dinv(field, t)
        weighted = apply_mtilde_dinv(field, slope, t)
        denom = damped.l2_norm()
        if denom == 0.0:
            continue
        worst = min(worst, weighted.l2_norm() / denom)
    return float(worst)


def energy(f: GridFunction1D, slope: GridFunction1D, t: float) -> float:
    """Weighted energy ``|| mtilde Dinv f ||_L2^2``; zero iff f vanishes."""
    return apply_mtilde_dinv(f, slope, t).l2_norm() ** 2
