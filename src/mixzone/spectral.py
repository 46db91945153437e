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

So does the lab's one slope table: a quantity analytic in the slope on
``|Im A| < 1`` and even or odd in it (the near-cell moments) is taken at the
Chebyshev points ``t >= 0`` of the degree d that ``M = max |A|`` needs, on
its widest range ``[-a_d, a_d]`` (:func:`chebyshev_half`), and interpolated
to within e^-37 (:func:`slope_interpolated`; 14 nodes for M = 0.086, 47 for 1,
413 for 10); the weighted energy takes the points of ``[-M, M]`` in ``asinh A``.  The
degree rule and :func:`chebyshev_maps` give the per-offset tables of the PV
far kernel and of the subsolution check's far rows.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import GridFunction1D, block_rows

__all__ = [
    "k_hat", "h_integrand", "H_integral", "h_values", "symbol_m", "symbol_mtilde",
    "mtilde_table", "mtilde_dinv_mode_sum", "apply_dinv", "apply_mtilde_dinv",
    "coercivity_probe", "energy", "chebyshev_degree", "chebyshev_half", "chebyshev_maps",
    "slope_nodes", "table_slopes", "barycentric", "slope_interpolated",
]

_SERIES_CUTOFF = 1e-3
# slope interpolation (see chebyshev_degree): semi-minor axis of the Bernstein
# ellipse inside the strip |Im A| < 1 where every slope table is analytic, a
# margin below 1 (near moments and far kernel measured within 3.4e-15 and
# 1.4e-15 of their largest values), and minus the log of the tolerance e^-37
_STRIP_SEMI_MINOR = 0.9
_LOG_TOL = 37.0
_TAU_SEMI_MINOR = math.pi / 6  # the energy's strip in tau = asinh A (see apply_mtilde_dinv)
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
    |A| <= 200; H(0, A) = 0.  H is even in A, and evaluated at |A|, so the
    symbols are even in the slope bit for bit.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("s must be nonnegative")
    a = np.abs(np.asarray(slope_a, dtype=float))
    with np.errstate(over="ignore"):  # 1 + A^2 = inf past |A| = 1.3e154: H = 0 to 1e-306 (1 + s^2)
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


def chebyshev_degree(half: float, max_degree: float,
                     semi_minor: float = _STRIP_SEMI_MINOR) -> int | None:
    """Degree ``d = ceil(37 / log rho)`` for a slope range of half-width ``half``, or None.

    ``rho`` is the parameter of the Bernstein ellipse about the range with
    semi-minor axis ``semi_minor``: a function analytic and bounded inside
    it is interpolated at ``d + 1`` Chebyshev points with an error of order
    ``rho^-d`` (Trefethen, ATAP, Thm 8.2), at most ``e^-37``.  0 for a
    constant slope.  None when ``half`` is not finite, ``d`` would exceed
    ``max_degree`` or ``d`` is not a finite integer (``37 / log rho``
    overflows once ``log rho`` is subnormal).
    """
    if not math.isfinite(half):
        return None
    if half == 0.0:
        return 0
    # rho = (b + sqrt(half^2 + b^2)) / half, so log rho = asinh(b / half):
    # no overflow or cancellation at any finite half (inf once b / half is)
    log_rho = math.asinh(semi_minor / half)
    if not _LOG_TOL < log_rho * max_degree:  # ceil(tol / log rho) > max_degree
        return None
    degree = _LOG_TOL / log_rho
    return max(1, math.ceil(degree)) if math.isfinite(degree) else None


@lru_cache(maxsize=32)
def chebyshev_maps(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev points ``t_j`` of the first kind and the maps from values there to monomials.

    ``t_j = cos((2j + 1) pi / (2 degree + 2))``, decreasing, with ``t_{degree
    - j} = -t_j``.  The first matrix takes the values of a function at the
    ``t_j`` to the Chebyshev coefficients of its interpolant (a discrete
    cosine transform), the second those to its monomial coefficients in
    ``t``.  They are applied one after the other: their product has entries
    of order ``(1 + sqrt 2)^degree`` that cancel, and its own roundoff would
    not.  Read-only.
    """
    odd = 2 * np.arange(degree + 1) + 1
    t = np.cos(odd * np.pi / (2 * degree + 2))
    # T_k(t_j) = cos(pi m / (2 degree + 2)), m = k (2j + 1), with m reduced in
    # integers to [0, degree + 1]: the three-term recurrence loses about k^2
    # ulps near t = +-1, and a rounded k theta_j about k
    m = np.outer(np.arange(degree + 1), odd) % (4 * degree + 4)
    m = np.minimum(m, 4 * degree + 4 - m)
    sign = np.where(m > degree + 1, -1.0, 1.0)
    m = np.minimum(m, 2 * degree + 2 - m)
    to_chebyshev = sign * np.cos(m * np.pi / (2 * degree + 2)) * (2.0 / (degree + 1))
    to_chebyshev[0] *= 0.5
    # column k: the monomial coefficients of T_k, by T_k = 2 t T_(k-1) - T_(k-2)
    to_monomial = np.eye(degree + 1)
    for k in range(2, degree + 1):
        to_monomial[1:, k] = 2.0 * to_monomial[:-1, k - 1]
        to_monomial[:, k] -= to_monomial[:, k - 2]
    for arr in (t, to_chebyshev, to_monomial):
        arr.flags.writeable = False
    return t, to_chebyshev, to_monomial


@lru_cache(maxsize=64)
def chebyshev_half(degree: int) -> float:
    """The widest half-width of :func:`chebyshev_degree` ``degree``: ``b / sinh(37 / degree)``.

    ``b`` is the strip's axis.  Nudged down an ulp where roundoff would give
    ``degree + 1``; 0 at degree 0.
    """
    if degree == 0:
        return 0.0
    half = _STRIP_SEMI_MINOR / math.sinh(_LOG_TOL / degree)
    while chebyshev_degree(half, math.inf) > degree:
        half = math.nextafter(half, 0.0)
    return half


@lru_cache(maxsize=64)
def _points(degree: int) -> np.ndarray:
    """The points ``t_j = cos(j pi / d)`` of :func:`slope_nodes`; read-only."""
    t = np.sin(np.pi * (degree - 2 * np.arange(degree + 1)) / (2 * degree)) if degree else np.zeros(1)
    t.flags.writeable = False
    return t


def slope_nodes(half: float, max_nodes: float = math.inf,
                semi_minor: float = _STRIP_SEMI_MINOR) -> np.ndarray | None:
    """Chebyshev points ``t_j = cos(j pi / d)``, j = 0..d, of :func:`chebyshev_degree` ``d``, or None.

    Written ``sin((d - 2j) pi / (2d))``, so ``t_{d - j} = -t_j`` bit for
    bit (one node, 0, at ``half = 0``).  None when ``half`` is not finite
    or the nodes would number more than ``max_nodes``.  Read-only.
    """
    d = chebyshev_degree(half, max_nodes - 1, semi_minor)
    return None if d is None else _points(d)


def table_slopes(degree: int) -> np.ndarray:
    """The slopes ``chebyshev_half(d) t_j`` of the nodes ``t_j >= 0`` (j <= d // 2) of degree d."""
    return chebyshev_half(degree) * _points(degree)[: degree // 2 + 1]


def _node_terms(t_nodes: np.ndarray, t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``w_p / (t - t_p)`` for the Chebyshev points ``t_p``, p in ``nodes``: a row per p, a column per t.

    ``w_p = (-1)^p``, halved at both ends: the barycentric weights of the
    points ``cos(p pi / d)`` (Berrut & Trefethen, SIAM Review 46, 2004).
    """
    weights = np.where(nodes % 2, -1.0, 1.0)
    weights[(nodes == 0) | (nodes == t_nodes.size - 1)] *= 0.5
    c = np.subtract(t, t_nodes[nodes, None])
    with np.errstate(divide="ignore"):
        return np.divide(weights[:, None], c, out=c)


def barycentric(t_nodes: np.ndarray, table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows of ``table`` (values at the Chebyshev points ``t_nodes``) interpolated to ``t``.

    The barycentric formula of the second kind, numerator and denominator
    from one product of ``[table | 1]`` with :func:`_node_terms`, in chunks
    of ``t`` whose node terms hold about ``BLOCK_ENTRIES`` entries; a ``t``
    on a node, whose denominator is infinite, takes that node's row.
    """
    ext = np.concatenate([table.T, np.ones((1, t_nodes.size))])
    out = np.empty((t.size, table.shape[1]))
    chunk = block_rows(t_nodes.size)
    for start in range(0, t.size, chunk):
        blk = t[start : start + chunk]
        # one column per t, so every pass runs along t
        c = _node_terms(t_nodes, blk, np.arange(t_nodes.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = ext @ c
            out[start : start + chunk] = (frac[:-1] / frac[-1]).T
        hit = np.isinf(frac[-1]).nonzero()[0]
        out[start + hit] = table[np.abs(blk[hit, None] - t_nodes).argmin(axis=1)]
    return out


def slope_interpolated(slope: np.ndarray, max_nodes: float, moments, table, parity) -> np.ndarray:
    """``moments(slope)``, taken from a table on ``[-a, a]``, ``a = chebyshev_half(d)``.

    ``moments`` maps an array of slopes to one row (of any shape) per
    slope, its row at ``-A`` being ``parity`` (signs that broadcast against
    a row) times its row at A.  d is the degree of ``max |slope|``, and
    ``table(d)`` is ``moments`` at :func:`table_slopes` ``(d)``, so a caller
    may keep it per degree.  The rows at ``-t`` are their mirrors, and
    :func:`barycentric` takes the table to every slope.  One node is
    broadcast.  Without nodes ``moments`` runs on the slopes themselves.
    """
    d = chebyshev_degree(float(np.abs(slope).max()), max_nodes - 1)
    if d is None:
        return moments(slope)
    rows = table(d)
    shape = (slope.size, *rows.shape[1:])
    if d == 0:
        return np.broadcast_to(rows, shape)
    # the nodes t_{d - j} = -t_j, j < (d + 1) // 2, from the nodes t_j
    rows = np.concatenate([rows, parity * rows[: (d + 1) // 2][::-1]])
    return barycentric(_points(d), rows.reshape(d + 1, -1), slope / chebyshev_half(d)).reshape(shape)


def apply_mtilde_dinv(f: GridFunction1D, slope: GridFunction1D, t: float) -> GridFunction1D:
    """Apply the x-dependent operator ``mtilde(xi, A(x), t) Dinv``.

    For real A, ``H(s, A) = (F(w) + F(w*)) / 2`` with ``w = 4 pi s / (1 -
    iA)`` and F entire, so the symbol is singular only at ``A = +-i``,
    ``tau = asinh A = +-i pi / 2``; on ``|Im tau| <= pi / 6``, ``|w| <= 8 pi
    s`` as on ``|Im A| <= 1/2``.  So the nodes are the points ``t_p`` of
    :func:`slope_nodes` for ``[-T, T]``, ``T = asinh max |A|``, semi-minor
    axis ``pi / 6``, at slopes ``A_p = sinh(T t_p)``: 16 for ``|A| <=
    0.086``, 121 for 2.55, 864 for 1e5.  Each node ``t_p >= 0`` gives one
    field ``F_p = irfft(rfft(f) / (1 + t xi) mtilde(xi, A_p, t))``, also
    that of ``-t_p`` (mtilde is even in A), and site j, at ``asinh(A_j) /
    T``, takes the barycentric formula on the diagonal, ``sum_p c_pj F_pj
    / sum_p c_pj`` (:func:`_node_terms`); a site on a node takes its
    field.  When those fields (``d // 2 + 1``) would outnumber the sites,
    each site takes the field at its own slope instead, as the check's
    slope tables do: at most one field a site (n = 256 reaches the cap at
    |A| of about 690).  Streamed in chunks of ``BLOCK_ENTRIES`` field
    entries; within 1e-12 of the largest value of
    :func:`mtilde_dinv_mode_sum` (tested).
    """
    if f.n != slope.n or f.length != slope.length:
        raise ValueError("field and slope must share a grid")
    if t < 0:
        raise ValueError("t must be nonnegative")
    t_sites = np.arcsinh(slope.values)
    tau_max = float(np.max(np.abs(t_sites)))
    t_nodes = slope_nodes(tau_max, 2 * f.n, _TAU_SEMI_MINOR)
    xi = np.fft.rfftfreq(f.n, d=f.h)
    damped = np.fft.rfft(f.values) / (1.0 + t * xi)

    def fields(slopes: np.ndarray) -> np.ndarray:
        return np.fft.irfft(damped * symbol_mtilde(xi, slopes[:, None], t), n=f.n)

    chunk = block_rows(f.n)
    if t_nodes is None:  # each site takes the field at its own slope
        out = np.empty(f.n)
        for start in range(0, f.n, chunk):
            own = np.arange(start, min(start + chunk, f.n))
            out[own] = fields(slope.values[own])[np.arange(own.size), own]
        return f.with_values(out)
    d = t_nodes.size - 1
    with np.errstate(over="ignore"):  # sinh(asinh A) may round past the float limit
        node_slopes = np.minimum(np.sinh(tau_max * t_nodes[: d // 2 + 1]), np.finfo(float).max)
    if d == 0:
        return f.with_values(fields(node_slopes)[0])
    t_sites /= tau_max
    num, den, on_node = np.zeros(f.n), np.zeros(f.n), np.empty(f.n)
    # a site on a node has an infinite term there: inf * 0 and inf / inf are NaN
    with np.errstate(invalid="ignore"):
        for start in range(0, d // 2 + 1, chunk):
            own = np.arange(start, min(start + chunk, d // 2 + 1))
            per_node = fields(node_slopes[own])
            c = _node_terms(t_nodes, t_sites, own)
            # the node d - p, at -t_p, shares the field of p
            mirrored = own[own < (d + 1) // 2]
            c[: mirrored.size] += _node_terms(t_nodes, t_sites, d - mirrored)
            part = c.sum(axis=0)
            den += part
            num += np.einsum("pj,pj->j", c, per_node)
            hit = np.flatnonzero(np.isinf(part))
            on_node[hit] = per_node[np.argmin(np.abs(np.abs(t_sites[hit]) - t_nodes[own, None]), 0), hit]
        return f.with_values(np.where(np.isinf(den), on_node, num / den))


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
    """Weighted energy ``|| mtilde Dinv f ||_L2^2``; zero iff f vanishes, inf past the float range."""
    norm = apply_mtilde_dinv(f, slope, t).l2_norm()
    # ** keeps its bits below 1e154; past the float range it raises OverflowError, * gives inf
    return norm**2 if norm < 1e154 else norm * norm
