"""Time evolution of the interface height under the averaged velocity.

The height f on a periodic grid moves with minus the kernel-weighted
slope difference,

    df/dt = - int (df/dx(x) - df/dx(y)) K_w(x, y) dy,

with kernel half-width ``w = c*t + kappa``, optionally mollified on both
sides of the integral and stabilized by a mollified ``kappa``-diffusion
term.  One function, :func:`rhs_regularized`, computes this right-hand
side; at ``delta = kappa = 0`` it is the unmollified averaged velocity.
Spatial quadrature is the PV trapezoid over grid-aligned offsets, with
Gregory ends and a Gauss-Legendre near cell integrated on fixed geometric
panels against the odd Taylor expansion of the slope difference
(frozen-slope kernel); ``quadrature_plan`` builds that layout once per
grid and window, and the subsolution check reads it too.  The window
``trunc_radius`` is a field of :class:`InterfaceState`, next to ``delta``
and ``kappa``, so a state fixes its right-hand side.  Without the near
cell the quadrature is first order once the kernel width drops below
the mesh; with it the scheme is second order in h and the right-hand side
stays smooth in t, preserving the RK4 order.  The frozen-slope moments
are analytic and even in the slope, so they are tabulated at the
nonnegative Chebyshev points of the degree d that M, the largest slope,
needs (7 of 14 for the criterion-08 data), and interpolated to every site
within e^-37 by the slope interpolator of :mod:`mixzone.spectral`, which
the subsolution check's near cell uses too (:func:`nearfield_correction`).

Each slope table lies on the widest range of its degree
(:func:`~mixzone.spectral.chebyshev_half`), so it depends on the grid,
window, kernel width and degree only, and is kept for the last width.
RK4 stage times are ``t_start + (step - 1 + node) dt``, so the stages
that share a width run in a row.  Lengths are taken in units of ``2^e``
(:func:`~mixzone.grid.unit_exponent`).

The far offsets split at ``dx = osc``, ``osc = max f - min f``, or at ``8
osc`` for one-cell slopes above 1/8 (:func:`kernel_quadrature`).  Below it
the sum is pair symmetric, in chunks of offsets across every site that
stay in L2, with the kernel a polynomial per offset in the squared slope
(the closed form per pair for one-cell slopes above about 0.74).  Beyond
it, in the FFT band, the kernel is a polynomial of degree D <= 7 in the
squared height difference, the least degree whose range floor ``osc
8^(-7/D)`` keeps the fit's row factors within ``8^14``, so the band's O(N
M) pair sum is ``2 (2D + 1)`` circular convolutions.  The mollifier is the
exact Fourier multiplier of its discrete stencil, a theta sum in closed
form.

Time stepping is classical RK4 with ``eps(t) = c*t`` advanced exactly at
the stage times; the stability probe runs at ``t_start`` and its velocity
is the first stage of step 1.  A finiteness check that fails inside a
stage, in the RK4 update, or in the stability probe before the first step,
raises :class:`~mixzone.grid.NonFiniteError`; the stepper records the step
and stage and truncates the trajectory, and lets every other error through;
no norm is held to a threshold, which would carry a unit of length.
A step that exceeds the stability probe raises :class:`StabilityError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (GridFunction1D, NonFiniteError, block_rows, derivative_symbols, max_cell_slope,
                   root_sum, unit_exponent)
from .kernel import kernel_values
from .spectral import (apply_dinv, chebyshev_degree, chebyshev_half, chebyshev_maps,
                       slope_interpolated, table_slopes)

__all__ = [
    "InterfaceState",
    "Trajectory",
    "StabilityError",
    "trapezoid_reach",
    "step_count",
    "mollifier_symbol",
    "mollify",
    "kernel_quadrature",
    "nearfield_correction",
    "rhs_regularized",
    "stability_limit",
    "integrate",
    "sobolev_norm",
    "quadrature_plan",
    "DEFAULT_TRUNC_RADIUS",
]

DEFAULT_TRUNC_RADIUS = 10.0
# numpy's leggauss(16) bit for bit: the positive nodes and their weights, mirrored
_GL16_HALF = np.array([
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]])
_GL16 = np.concatenate([_GL16_HALF[:, ::-1] * [[-1.0], [1.0]], _GL16_HALF], axis=1)
_NEAR_LEVELS = 8
_RK4_NODES = (0.0, 0.5, 0.5, 1.0)
# fewest trapezoid offsets a window may have: the smallest near cell (2
# spacings) plus the Gregory ends of both sides (6)
_MIN_REACH = 8
# near-cell moments are interpolated in the slope (see nearfield_correction),
# with Chebyshev nodes only when there are at most n / 8 of them: timed on 2 vCPUs
# with n / 8 nodes, table plus interpolation cost 0.2-0.5 of the sites' own
# slopes at n = 256-2048 and 1.2 at n = 4096
_SITES_PER_NODE = 8
# the far kernel is a polynomial in the squared slope (see kernel_quadrature)
# of at most this degree: timed on 2 vCPUs at n = 1024 and 2048, a call then
# costs about what the per-entry kernel does (degree 16: 1.04 and 0.92 of it,
# degree 18: 1.03 and 1.06, degree 20: 1.01 and 1.03; fastest of 30 each)
_MAX_FAR_DEGREE = 18
# the FFT band (see _band_start) is taken when it holds at least _MIN_BAND
# offsets.  Timed on 2 vCPUs at w = 0.05 (median of 41, two runs), kernel_quadrature
# took, with the band against without, for bumps of amplitude 0.1 and 0.3 and a
# one-period sine of 0.6: 1.09-1.15 / 1.10-1.13, 1.54-1.60 / 1.17-1.21 and
# 1.43-1.45 / 1.05-1.07 ms at 61, 49 and 57 band offsets (n = 256), 1.38-1.41 /
# 2.28-2.30, 2.03-2.05 / 2.59 and 1.87 / 2.31-2.33 ms at 125, 98 and 113 (n =
# 512): the crossover lies between 61 and 98.  Spans of 4, 6 and 8 timed alike
# at n = 1024 and 2048; 8 caps the band's degree at 7 and its row factors at 8^14
_BAND_SPAN = 8.0
_MIN_BAND = 96


@dataclass(frozen=True)
class InterfaceState:
    """Full state of the regularized flow, PV window included; its kernel width is a normal float."""

    f: GridFunction1D
    t: float
    c: float = 1.0
    delta: float = 0.0
    kappa: float = 0.0
    trunc_radius: float = DEFAULT_TRUNC_RADIUS

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if not 0.0 < self.c < 2.0:
            raise ValueError("growth rate c must lie in (0, 2)")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not self.width >= sys.float_info.min:
            raise ValueError(f"kernel width c * t + kappa = {self.width!r} must be at least "
                             f"{sys.float_info.min!r}")

    @property
    def eps(self) -> float:
        """Mixing half-width eps(t) = c*t."""
        return self.c * self.t

    @property
    def width(self) -> float:
        """Kernel half-width eps(t) + kappa used on the regularized path."""
        return self.eps + self.kappa


@dataclass
class Trajectory:
    """Snapshots at output times plus per-snapshot diagnostics."""

    snapshots: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    failed: bool = False
    failure_time: float | None = None
    failure_reason: str | None = None
    # step (1-based) whose RK4 update failed, and the stage (1-4) whose
    # rhs failed; the stage is None when the updated state itself failed.
    # Step 0 is the stability probe of the initial state (no snapshots).
    failure_step: int | None = None
    failure_stage: int | None = None

    def append(self, state: InterfaceState, diag: dict):
        if self.snapshots and state.t <= self.snapshots[-1].t:
            raise ValueError("snapshot times must be strictly increasing")
        self.snapshots.append(state)
        self.diagnostics.append(diag)

    def fail(self, t: float, reason: str, step: int, stage: int | None = None):
        """Flag the trajectory as truncated at time t, step and stage."""
        self.failed = True
        self.failure_time = t
        self.failure_reason = reason
        self.failure_step = step
        self.failure_stage = stage


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------


def mollifier_symbol(delta: float, h: float, freqs: np.ndarray) -> np.ndarray:
    """Exact Fourier symbol of the discrete mean-one Gaussian stencil of width delta on spacing h.

    The stencil samples the Gaussian of standard deviation ``s = delta / 2``
    at the offsets ``kh``, summing to 1.  By Poisson summation its symbol is
    ``sum_j exp(-2 pi^2 s^2 (xi - j/h)^2)`` over its value at ``xi = 0``:
    exactly 1 there and below 1 elsewhere.  With xi reduced mod ``1/h`` and
    ``s >= h``, ``|j| <= 2`` leave out a relative e^-118: O(1) per mode.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta < 2.0 * h:
        raise ValueError("mollifier width below 2h is unresolved on this grid")
    xi = np.asarray(freqs, dtype=float)
    xi = xi - np.round(xi * h) / h
    scale = 2.0 * (np.pi * 0.5 * delta) ** 2
    images = np.arange(-2, 3)[:, None] / h
    return np.exp(-scale * (xi - images) ** 2).sum(axis=0) / np.exp(-scale * images**2).sum()


@lru_cache(maxsize=16)
def _fourier_multipliers(delta: float, h: float, n: int) -> tuple[np.ndarray, ...]:
    """Multipliers on the rfft modes: slope, diffusion and stencil.

    The stencil symbol is 1 without a mollifier (``delta = 0``).  The
    slope multiplier is ``2 pi i xi`` times the stencil symbol (its
    Nyquist term is imaginary, so ``irfft`` drops it as
    :func:`spectral_derivative` does); the diffusion multiplier is
    ``(2 pi i xi)^2`` times the squared symbol.  The stencil acts as the
    exact multiplier ``irfft(rfft(v) * symbol)``, aliased as the periodic
    stencil sum is.
    """
    xi = np.fft.rfftfreq(n, d=h)
    sym = mollifier_symbol(delta, h, xi) if delta > 0 else np.ones(xi.size)
    slope = 2j * np.pi * xi * sym
    diffusion = -((2.0 * np.pi * xi * sym) ** 2)
    for arr in (slope, diffusion, sym):
        arr.flags.writeable = False
    return slope, diffusion, sym


def mollify(f: GridFunction1D, delta: float) -> GridFunction1D:
    """Smooth f by the discrete mean-one Gaussian of width delta."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    sym = _fourier_multipliers(delta, f.h, f.n)[2]
    return f.with_values(np.fft.irfft(np.fft.rfft(f.values) * sym, n=f.n))


# ---------------------------------------------------------------------------
# Kernel quadrature
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """Quadrature layout of one grid and window (see :func:`quadrature_plan`)."""

    grid: tuple  # (n, h, trunc_radius), the key of its tables
    offsets: np.ndarray  # trapezoid offsets in grid spacings, both signs
    weights: np.ndarray  # Gregory end-corrected trapezoid weights times h
    near: int  # near-cell half-width in grid spacings
    near_y: np.ndarray  # near-cell Gauss-Legendre nodes on (0, near*h]
    near_w: np.ndarray  # their weights
    moments: np.ndarray  # odd-moment table 2 (y, y^3, y^5) w


_GREGORY_END = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])


def trapezoid_reach(n: int, h: float, trunc_radius: float) -> int:
    """Largest PV trapezoid offset, in grid spacings, of a grid and window.

    ``trunc_radius / h`` rounded to the nearest integer, at most ``n // 2 -
    1``.  Raises ValueError below 8, where the near cell and the Gregory
    ends of both sides leave no room.
    """
    m_max = min(int(np.floor(trunc_radius / h + 0.5)), n // 2 - 1)
    if m_max < _MIN_REACH:
        raise ValueError(
            f"the window reaches {m_max} grid spacings, fewer than {_MIN_REACH}"
        )
    return m_max


@lru_cache(maxsize=16)
def quadrature_plan(n: int, h: float, trunc_radius: float) -> _Plan:
    """PV quadrature layout, shared with :mod:`mixzone.subsolution`; read-only.

    The near cell spans four spacings so the kernel core is always either
    inside the Gauss-Legendre cell or resolved by the far grid; very
    small windows fall back to two spacings.  The cell is integrated on
    fixed geometric panels on (0, near*h], resolving all kernel widths.
    The trapezoid carries Gregory end corrections: the plain rule leaves
    an uncanceled h^2 Euler-Maclaurin boundary term at the junction with
    the near cell (the integrand's slope there is ~g'/width, so the term
    even grows while the mesh is coarser than the kernel); the third-order
    end correction removes it on both ends.  The plan holds layout
    only; each blocked pass takes its rows from :func:`~mixzone.grid.block_rows`.
    """
    m_max = trapezoid_reach(n, h, trunc_radius)
    near = 4 if m_max >= 10 else 2
    pos = np.arange(near, m_max + 1)
    offsets = np.concatenate([-pos[::-1], pos])
    side = np.ones(pos.size)
    side[:3] = _GREGORY_END
    side[-3:] = _GREGORY_END[::-1]
    weights = np.concatenate([side[::-1], side]) * h
    # panel edges 0, near*h 4^-8, ..., near*h / 4, near*h; 16 GL nodes per panel
    edges = np.append(0.0, near * h * 4.0 ** -np.arange(_NEAR_LEVELS, -1.0, -1.0))
    lo, hi = edges[:-1, None], edges[1:, None]
    xg, wg = _GL16
    near_y = (0.5 * (lo + hi) + 0.5 * (hi - lo) * xg).ravel()
    near_w = (0.5 * (hi - lo) * wg).ravel()
    moments = 2.0 * near_y[:, None] ** np.array([1, 3, 5]) * near_w[:, None]
    for arr in (offsets, weights, near_y, near_w, moments):
        arr.flags.writeable = False
    return _Plan((n, h, trunc_radius), offsets, weights, near, near_y, near_w, moments)


def _near_moments(slopes: np.ndarray, plan: _Plan, width: float,
                  work: np.ndarray | None = None) -> np.ndarray:
    """Frozen-slope moments ``2 int_0^{near*h} y^k K(y, A y, w) dy``, k = 1, 3, 5.

    One row ``(I1, I3, I5)`` per slope A, summed on the plan's near-cell
    nodes in blocks of ``work.shape[1]`` slopes; ``work`` has shape
    ``(6, rows, nodes)``, by default ``rows = min(block_rows(nodes), slopes)``.
    """
    y = plan.near_y
    if work is None:
        work = np.empty((6, min(block_rows(y.size), slopes.size), y.size))
    rows = work.shape[1]
    out = np.empty((slopes.size, 3))
    for start in range(0, slopes.size, rows):
        stop = min(start + rows, slopes.size)
        u = np.multiply(slopes[start:stop, None], y, out=work[0, : stop - start])
        out[start:stop] = kernel_values(y, u, width, work=work[1:, : stop - start]) @ plan.moments
    return out


@lru_cache(maxsize=1)
def _near_table(n: int, h: float, trunc_radius: float, width: float, degree: int) -> np.ndarray:
    """:func:`_near_moments` at the ``table_slopes`` of ``degree``; read-only."""
    out = _near_moments(table_slopes(degree), quadrature_plan(n, h, trunc_radius), width)
    out.flags.writeable = False
    return out


def _far_degree(a_max: float) -> int | None:
    """Degree in ``s = A^2`` of the far kernel on ``|A| <= a_max``, or None.

    Half the :func:`~mixzone.spectral.chebyshev_degree` of ``[-a_max, a_max]``,
    rounded up (the kernel is even in A); None when that would exceed
    ``_MAX_FAR_DEGREE``.
    """
    d = chebyshev_degree(a_max, 2 * _MAX_FAR_DEGREE)
    return None if d is None else (d + 1) // 2


# the FFT band's largest degree, that of one-cell slopes up to 1 / _BAND_SPAN
_BAND_DEGREE = _far_degree(1.0 / _BAND_SPAN)


def nearfield_correction(
    slope: np.ndarray,
    g1: np.ndarray,
    g3: np.ndarray,
    g5: np.ndarray,
    plan: _Plan,
    width: float,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Near-cell integral ``int_{|y| < near*h} (Delta g)(y) K_w(y) dy`` at every site.

    Uses the odd Taylor expansion ``Delta g = g' y + g''' y^3/6 + g^(5)
    y^5/120`` with the kernel frozen at the local slope A; even terms
    drop by parity, and the three weighted moments ``I_k(A) = 2
    int_0^{near*h} y^k K(y, A y, w) dy`` are one product with the plan's
    moment table.

    The moments are smooth and even in the one scalar A, so they are
    evaluated at the nonnegative Chebyshev points of the widest range of
    the degree that ``M = max |A|`` needs, once per kernel width
    (:func:`_near_table`), and interpolated to every site.  ``K(y, A y, w)`` is built
    from ``-Re(z log z)`` at ``z = y (1 + i A) + i c``, ``c`` in ``{0, +-2w}``.  For
    complex A and real ``y > 0`` both ``z`` and its conjugate partner
    ``y (1 - i A) - i c`` keep a positive real part while ``|Im A| < 1``,
    so no branch point is met and every moment (a finite sum over the
    nodes) is analytic in that strip.  The Bernstein ellipse about
    ``[-M, M]`` with semi-minor axis ``b = 0.9`` lies inside it, so the
    degree of :func:`~mixzone.spectral.chebyshev_degree` makes the
    interpolation error at most ``e^-37``: 7 of 14 nodes evaluated for ``M
    = 0.086``, 24 of 47 for ``M = 1``, 207 of 413 for ``M = 10``, by the
    lab's one slope table :func:`~mixzone.spectral.slope_interpolated`.

    The one evaluator, :func:`_near_moments`, runs on the sites' own
    slopes instead (the interpolation is then the identity) when the
    nodes would number more than an eighth of the sites, or when a slope
    is not finite.  Zero slopes are one node, exact.

    :func:`kernel_quadrature` calls it once per call, with ``work``: a
    float array of shape ``(6, block_rows(nodes), nodes)`` for the frozen
    height differences and the kernel's temporaries.
    """
    m = slope_interpolated(slope, slope.size // _SITES_PER_NODE,
                           lambda slopes: _near_moments(slopes, plan, width, work),
                           lambda degree: _near_table(*plan.grid, width, degree), 1.0)
    return g1 * m[:, 0] + g3 / 6.0 * m[:, 1] + g5 / 120.0 * m[:, 2]


def _back_windows(values: np.ndarray, reach: int, near: int) -> np.ndarray:
    """Read-only view ``w[c, i] = values[(i - near - c) % n]`` for c = 0..reach - near."""
    ext = np.concatenate([values[-reach:], values])
    out = np.ndarray((reach - near + 1, values.size), ext.dtype, ext, (reach - near) * ext.itemsize,
                     (-ext.itemsize, ext.itemsize))
    out.flags.writeable = False
    return out


def _offset_polynomials(dx: np.ndarray, wts: np.ndarray, width: float, u_top: np.ndarray,
                        degree: int) -> np.ndarray | None:
    """``wts_k K(dx_k, u, width)`` as monomials in ``t = 2 (u / u_top_k)^2 - 1``, or None.

    One column per offset, one row per power of t: :func:`kernel_values` at
    the ``degree + 1`` Chebyshev points of t in ``[-1, 1]`` (``|u| <=
    u_top_k``), taken to monomials by
    :func:`~mixzone.spectral.chebyshev_maps`.  None when a coefficient is
    not finite.
    """
    t, to_chebyshev, to_monomial = chebyshev_maps(degree)
    table = kernel_values(dx, np.sqrt(0.5 + 0.5 * t)[:, None] * u_top, width)
    coef = to_monomial @ (to_chebyshev @ table)
    coef *= wts
    return coef if np.isfinite(coef).all() else None


@lru_cache(maxsize=1)
def _near_band_table(n: int, h: float, trunc_radius: float, width: float, degree: int,
                     split: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The near band's :func:`_offset_polynomials` on ``|u| <= a dx``, ``a = chebyshev_half(2 D)``.

    With ``scale = sqrt(2) / (a dx)``, unread at degree 0; or None.  Read-only.
    """
    plan = quadrature_plan(n, h, trunc_radius)
    n_pos = plan.offsets.size // 2
    dx = plan.offsets[n_pos : n_pos + split] * h
    u_top = chebyshev_half(2 * degree) * dx
    with np.errstate(over="ignore", divide="ignore"):
        scale = math.sqrt(2.0) / u_top[:, None]
    coef = _offset_polynomials(dx, plan.weights[n_pos : n_pos + split], width, u_top, degree)
    if coef is None or degree and not np.isfinite(scale).all():
        return None
    for arr in (coef, scale):
        arr.flags.writeable = False
    return coef, scale


def _far_polynomial(coef: np.ndarray, scale: np.ndarray, u: np.ndarray,
                    work: np.ndarray) -> np.ndarray:
    """``sum_m coef[m] t^m``, ``t = (scale u)^2 - 1``, by Horner; in ``work[0]``.

    ``coef`` holds the monomial coefficients of :func:`_offset_polynomials`,
    one row per power of t, and ``scale`` is ``sqrt(2) / u_top``, each
    broadcast against the height differences ``u``; ``scale`` is not read
    at degree 0.  ``work`` has shape ``(2,) + u.shape``; ``work[1]`` holds
    ``t`` and may be ``u`` itself.
    """
    out = work[0]
    if coef.shape[0] == 1:
        out[...] = coef[0]
        return out
    t = np.multiply(u, scale, out=work[1])
    t *= t
    t -= 1.0
    np.multiply(t, coef[-1], out=out)
    for a in coef[-2:0:-1]:
        out += a
        out *= t
    out += coef[0]
    return out


def _band_start(osc: float, a_max: float, h: float, plan: _Plan) -> int:
    """Index of the first FFT-band offset among the plan's positive offsets.

    The band holds the offsets ``dx_k >= osc``, or ``dx_k >= _BAND_SPAN *
    osc`` when the largest one-cell slope ``a_max`` exceeds ``1 / _BAND_SPAN``;
    the index is the number of positive offsets (no band) when ``osc`` is not
    finite or the band would hold fewer than ``_MIN_BAND`` offsets.
    """
    m_max, n_pos = int(plan.offsets[-1]), plan.offsets.size // 2
    reach = (1.0 if a_max <= 1.0 / _BAND_SPAN else _BAND_SPAN) * osc / h
    if not reach <= m_max - _MIN_BAND + 1:  # also when reach is NaN
        return n_pos
    return max(plan.near, math.ceil(reach)) - plan.near


@lru_cache(maxsize=8)
def _band_map(degree: int) -> np.ndarray:
    """Monomial coefficients in ``t = v / 2 - 1`` to ``(2 l)!`` times those in ``v``, l = 0..degree.

    Entry ``(l, m)`` is ``(2 l)! C(m, l) 2^-l (-1)^(m - l)``, from the
    binomial expansion of ``t^m``.
    """
    out = np.array([[math.factorial(2 * l) * math.comb(m, l) * (-1.0) ** (m - l) / 2.0**l
                     for m in range(degree + 1)] for l in range(degree + 1)])
    out.flags.writeable = False
    return out


def _band_top(dx, osc: float, degree: int):
    """The FFT band's fit range: ``chebyshev_half(2 D) dx`` clipped to ``[osc c^(-7 / D), osc]``."""
    floor = osc * _BAND_SPAN ** (-_BAND_DEGREE / max(degree, 1))
    return np.minimum(np.maximum(chebyshev_half(2 * degree) * dx, floor), osc)


def _band_key(osc: float, a_max: float, dx0: float) -> tuple[int, float]:
    """The FFT band's ``osc`` rounded up and degree D, the least whose :func:`_band_top` holds ``dx0``.

    Searched up from ``_far_degree(min(a_max, osc / dx0))``: every range holds its heights.
    """
    m, e = math.frexp(osc)
    top = math.ldexp(math.ceil(16.0 * m), e - 4)  # four significant bits, at most 9/8 of osc
    degree = _far_degree(min(a_max, osc / dx0))
    while _far_degree(_band_top(dx0, top, degree) / dx0) > degree:
        degree += 1
    return degree, top


@lru_cache(maxsize=1)
def _band_rows(n: int, h: float, trunc_radius: float, width: float, degree: int, osc: float,
               split: int) -> np.ndarray | None:
    """The row spectra :func:`_fft_band` convolves with, for offsets from ``split``; or None.  Read-only."""
    plan = quadrature_plan(n, h, trunc_radius)
    n_pos = plan.offsets.size // 2
    pos = plan.offsets[n_pos + split :]
    dx = pos * h
    u_top = _band_top(dx, osc, degree)
    coef = _offset_polynomials(dx, plan.weights[n_pos + split :], width, u_top, degree)
    if coef is None:
        return None
    lo, hi = int(pos[0]), int(pos[-1]) + 1
    # (2 j)! times the coefficient of v^j, on an odd row: -k carries the
    # flux that each pair credits to its back site
    rows = np.zeros((degree + 1, n))
    rows[:, lo:hi] = _band_map(degree) @ coef
    if degree:
        rows[1:, lo:hi] *= (osc / u_top) ** np.arange(2, 2 * degree + 1, 2)[:, None]
    rows[:, n - hi + 1 : n - lo + 1] = -rows[:, lo:hi][:, ::-1]
    # an odd row's transform is imaginary, i r_j; r_j, copied over the real
    # parts, acts on the real and imaginary parts of the powers' transforms
    rows = np.fft.rfft(rows).view(float)
    rows[:, ::2] = rows[:, 1::2]
    rows.flags.writeable = False
    return rows


def _fft_band(f_values: np.ndarray, g_values: np.ndarray, rows: np.ndarray,
              osc: float) -> np.ndarray:
    """Sum of the band's fluxes over both signs of its offsets, from its table ``rows``.

    The two-sided sum ``sum_k wts_k (g_i - g_{i-k}) K(dx_k, f_i - f_{i-k})``
    over the band (see :func:`kernel_quadrature`) as circular convolutions:
    the kernel per offset is a polynomial in ``v = (z_i - z_{i-k})^2``, ``z
    = (f - mid) / (osc / 2)``, and the binomial expansion of ``v^j`` splits
    every term into a power of ``z_i`` times a convolution of
    :func:`_band_rows` with a power of z.  ``osc`` is the table's, at
    least ``max f - min f``, so ``|z| <= 1``.
    """
    n, degree = f_values.size, rows.shape[0] - 1
    z = np.zeros(n)
    if osc > 0:
        np.subtract(f_values, 0.5 * f_values.max() + 0.5 * f_values.min(), out=z)
        z /= osc
        z *= 2.0
    # g centred by a grid value, so a constant g is exactly zero
    g_c = g_values - g_values[0]
    # spectra[p] = transforms of z^p / p! and z^p g_c / p!: one call for each
    # input, so only half the powers are ever held in real space
    powers, steps = np.empty((2 * degree + 1, n)), np.arange(1, 2 * degree + 1)[:, None]
    powers[0] = 1.0
    np.divide(z, steps, out=powers[1:])
    for p in range(2, 2 * degree + 1):  # a row at a time: cumprod(axis=0) strides by column
        powers[p] *= powers[p - 1]
    spectra = np.empty((2 * degree + 1, 2, n // 2 + 1), dtype=complex)
    np.fft.rfft(powers, out=spectra[:, 0])
    powers *= g_c
    np.fft.rfft(powers, out=spectra[:, 1])
    # X_q and Y_q sum the rows j >= q / 2 against the powers p = 2 j - q, p <=
    # 2 D - q; no later q reads power 2 D - q, so its slot takes them
    parts = spectra.view(float)
    for q in range(2 * degree + 1):
        j0 = (q + 1) // 2
        parts[2 * degree - q] = np.einsum(
            "jw,jcw->cw", rows[j0:], parts[2 * j0 - q : 2 * degree - q + 1 : 2])
    spectra *= 1j
    # g_c sum_q (-z)^q / q! X_q - the same of Y_q, X_q and Y_q in slot 2 D - q;
    # the (-z)^q / q!, q >= 1, take the memory of the X transforms once inverted
    xs = np.fft.irfft(spectra[:, 0], n=n, out=powers)
    terms = np.divide(np.negative(z), steps, out=parts[1:, 0, :n])
    for q in range(1, 2 * degree):
        terms[q] *= terms[q - 1]
    sum_x = xs[-1] + np.einsum("qn,qn->n", terms, xs[-2::-1])
    ys = np.fft.irfft(spectra[:, 1], n=n, out=powers)
    return g_c * sum_x - (ys[-1] + np.einsum("qn,qn->n", terms, ys[-2::-1]))


def kernel_quadrature(
    f_values: np.ndarray,
    g_values: np.ndarray,
    length: float,
    width: float,
    trunc_radius: float,
) -> np.ndarray:
    """``int (g(x) - g(y)) K_w(x, y) dy`` at every site (PV trapezoid + near cell).

    Each pair (i, i - k), k > 0, is evaluated once.  ``K(-dx, -u) =
    -K(dx, u)`` holds bitwise and the weights are mirror symmetric, so the
    flux ``wts_k (g_i - g_{i-k}) K(k h, f_i - f_{i-k})`` is the same term in
    the rows of both sites: it is summed into site i and into site i - k
    (``k <= n//2 - 1``, so no pair is met twice).

    The trapezoid offsets split at ``dx_k >= osc``, ``osc = max f - min f``, or
    at ``dx_k >= c osc``, ``c = _BAND_SPAN``, when the largest one-cell slope
    ``A_max`` exceeds ``1 / c``.  Beyond it, in the FFT band, every height
    difference is at most ``dx_k / c``; the band is taken when it holds at
    least ``_MIN_BAND`` offsets and ``osc`` is finite (not at n = 256 on the
    default window).  The near band, the offsets below it (all of them without
    the band), is streamed in whole rows: chunks of ``cols = min(split,
    block_rows(n))`` offsets, each across every site, so a chunk holds at
    most ``BLOCK_ENTRIES`` entries, or one offset's n.  A chunk's w rows of
    fluxes sit between ``cols - 1`` zeros on either side; the diagonal view
    that shifts row j left by j has column sums equal to the back-site sums,
    read from ``(n + w - 1) w`` entries, so no N x M temporary is ever made.

    Both bands take the kernel from per-offset polynomials in the squared
    slope, with the Gregory weights folded in (:func:`_offset_polynomials`).
    Write ``u = A dx`` for an offset ``dx > 0``.  ``K(dx, A dx, w)`` is
    even in A and analytic in the strip ``|Im A| < 1`` by the argument of
    :func:`nearfield_correction`, with branch points on the strip's edges
    (at ``Re A = 0`` and ``+-2w / dx``).  So on ``[-a, a]`` the degree of
    :func:`~mixzone.spectral.chebyshev_degree` (the slope tables' one
    semi-minor axis, 0.9) interpolates within about ``e^-37``, and by
    evenness half of it in ``s = A^2`` does (:func:`_far_degree`).

    * Near band: ``a = A_max = max |f_i - f_{i-1}| / h``, which bounds
      every mean slope ``(f_i - f_{i-k}) / (k h)``, an average of k
      one-cell slopes; the range of the spectral slope does not (a
      grid-scale ripple has none).  The fit lies on the widest range of
      its degree D, ``a_2D = chebyshev_half(2 D) >= A_max``, and a chunk
      takes one Horner pass per entry in ``t = 2 (u / (a_2D dx))^2 - 1``: no
      transcendental, no edge or corner mask.  When ``A_max`` is not finite or the degree would
      exceed ``_MAX_FAR_DEGREE`` (``A_max`` above about 0.74), the loop
      takes :func:`kernel_values` per entry, the only kernel that can be
      non-finite; the chunk marks the sites of such a pair, named after the loop.
    * FFT band: ``osc`` is rounded up to four bits, and offset k is fitted
      over ``|u| <= u_top_k``, ``a_2D dx_k`` clipped to ``[osc c^(-7 / D),
      osc]``, which holds its height differences; D is the least degree
      that covers the first offset's range under its own floor, from the
      floor-free ``_far_degree(min(A_max, osc / dx_0))`` up to at most 7, the
      degree at ``a = 1 / c`` (where the floor is ``osc / c``).  With
      the heights centred, ``z = (f - mid) / (osc / 2)`` in ``[-1, 1]``,
      the kernel is a polynomial ``sum_j b_jk v^j`` in ``v = (z_i -
      z_{i-k})^2``; expanding ``v^j`` binomially, with ``C(2j, q) = (2j)! /
      (q! p!)``, ``p = 2j - q``, the band's sum at site i is ``sum_q
      (-z_i)^q / q! (g_i X_q - Y_q)``, where ``X_q`` and ``Y_q`` are
      circular convolutions of the rows ``(2j)! b_jk`` (odd in k: the
      offset ``-k`` carries the back site's share) with ``z^p / p!`` and
      ``z^p g / p!``.  That is one ``rfft`` of the ``D + 1`` rows, one
      transform pair for the ``2D + 1`` powers of each input, and real
      products in frequency (an odd row's transform is imaginary)
      (:func:`_fft_band`); g is centred by ``g_0`` first, so a constant g
      gives exactly 0.  Roundoff: with ``|z| <= 1`` and the kernel ``sum_j
      c_jk A^(2j)``, ``A = u / dx_k``, each term of the expansion is at most
      ``|c_jk| (osc / dx_k)^(2j) <= |c_jk|`` times ``2 max |g - g_0|``, so it
      adds a few ulps of the band's absolute flux sum, the transforms
      ``O(log n)``.  The fit's own roundoff grows with the row factors
      ``(osc / u_top_k)^(2j)``, j <= D, which the floor caps at
      ``c^(14 j / D) <= c^14`` at every degree (without a floor a
      one-period sine of amplitude 0.03 at n = 2048 was off by 1.5e-13).
      The band matched the per-entry sum to 1.3e-15 of the largest result
      at n = 1024 and 2048.
    """
    n = f_values.size
    top, bottom = float(f_values.max()), float(f_values.min())
    # in units of 2^e (see unit_exponent): the velocity is dimensionless, and
    # the exact scaling leaves it as it is
    e = unit_exponent(length, max(abs(top), abs(bottom)), width)
    if e:
        f_values = np.ldexp(f_values, -e)
        top, bottom, length, width, trunc_radius = (
            math.ldexp(v, -e) for v in (top, bottom, length, width, trunc_radius))
    osc = top - bottom
    h = length / n
    plan = quadrature_plan(n, h, trunc_radius)
    n_pos = plan.offsets.size // 2
    dx = plan.offsets[n_pos:] * h
    a_max = max_cell_slope(f_values, h)
    split = _band_start(osc, a_max, h, plan)
    band = None
    if split < n_pos:
        degree, osc = _band_key(osc, a_max, dx[split])
        rows = _band_rows(n, h, trunc_radius, width, degree, osc, split)
        if rows is None:
            split = n_pos
        else:
            band = _fft_band(f_values, g_values, rows, osc)
    # the near band: offsets near..reach, in chunks of cols offsets across every site
    reach = plan.near + split - 1
    cols = min(split, block_rows(n))
    # acc[p] accumulates site (p - reach) % n
    acc = np.zeros(n + reach)
    # the chunks' height differences and kernel temporaries, far then near,
    # in one buffer: no chunk allocates a full-size array, so the heap the
    # chunks reuse is neither returned to the system nor faulted in again
    n_near = plan.near_y.size
    near_rows = block_rows(n_near)
    buf = np.empty(6 * max(cols * n, near_rows * n_near))
    near_work = buf[: 6 * near_rows * n_near].reshape(6, near_rows, n_near)
    if split:
        wts = plan.weights[n_pos:]
        f_back = _back_windows(f_values, reach, plan.near)  # row c: offset near + c
        g_back = _back_windows(g_values, reach, plan.near)
        # pad[j, cols - 1 + i] is the flux of site i and offset near + c0 + j, between
        # cols - 1 zeros on either side: for a chunk of w offsets, column q of
        # diag[j, q] = pad[j, cols - w + j + q] sums the fluxes bound for acc[back + q]
        pad = np.zeros((cols, n + 2 * (cols - 1)))
        step, item = pad.strides
        # the weighted kernel per offset in t = (scale u)^2 - 1, or entry by entry (None)
        degree = _far_degree(a_max)
        table = None if degree is None else _near_band_table(n, h, trunc_radius, width, degree,
                                                             split)
        # both sites of each pair with a non-finite kernel value, which its column sum shows
        bad = np.zeros(n, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for c0 in range(0, split, cols):
                w = min(cols, split - c0)
                c = slice(c0, c0 + w)
                work = buf[: 6 * w * n].reshape(6, w, n)
                u = np.subtract(f_values, f_back[c], out=work[0])
                if table is None:  # the weighted kernel entry by entry
                    kern = kernel_values(dx[c, None], u, width, work=work[1:])
                    kern *= wts[c, None]
                else:  # the polynomial's t over u
                    kern = _far_polynomial(table[0][:, c, None], table[1][c], u, work[1::-1])
                fl = np.multiply(kern, np.subtract(g_values, g_back[c], out=u),
                                 out=pad[:w, cols - 1 : cols - 1 + n])
                sums = fl.sum(axis=0)
                if not np.isfinite(sums).all():
                    j, i = (~np.isfinite(kern)).nonzero()
                    bad[i] = True
                    bad[(i - plan.near - c0 - j) % n] = True
                acc[reach:] += sums
                diag = np.ndarray((w, n + w - 1), float, pad, (cols - w) * item, (step + item, item))
                back = split - w - c0
                acc[back : back + n + w - 1] += diag.sum(axis=0)
        if bad.any():
            raise NonFiniteError(f"non-finite kernel value at site {int(bad.argmax())}")
    # slope, g', g''' and g^(5) from one transform pair; odd orders drop Nyquist
    with np.errstate(over="ignore", invalid="ignore"):
        spectra = np.fft.rfft(np.array([f_values, g_values]))[[0, 1, 1, 1]]
        spectra *= derivative_symbols(n, length, (1, 1, 3, 5))
        spectra[:, -1] = 0.0
        slope, g1, g3, g5 = rows = np.fft.irfft(spectra, n=n)
    # after the kernel check, which names the site of a non-finite height; finite
    # heights can overflow in the transform, and a finite slope g in its derivatives
    finite, what = np.isfinite(slope) & np.isfinite(g_values), "slope"
    if finite.all():
        finite, what = np.isfinite(rows[1:]).all(axis=0), "derivative of the slope"
    if not finite.all():
        raise NonFiniteError(f"non-finite {what} at site {int(finite.argmin())}")
    out = acc[reach:]
    out[n - reach :] += acc[:reach]
    if band is not None:
        out += band
    out += nearfield_correction(slope, g1, g3, g5, plan, width, near_work)
    return out


def rhs_regularized(state: InterfaceState) -> GridFunction1D:
    """Mollified velocity term plus mollified kappa-diffusion, in the state's PV window.

    At ``delta = kappa = 0`` (the :class:`InterfaceState` defaults) this is
    the unmollified averaged velocity ``-int (Delta df/dx) K_w dy``, which
    vanishes for constant and affine-on-the-period data.  The
    diffusion term ``kappa * phi_d * d2/dx2 phi_d * f`` conserves the mean
    exactly.  The mollified slope and the diffusion term come from one
    ``rfft`` of f; the velocity is mollified by one more transform pair.
    """
    f = state.f
    slope, diffusion, sym = _fourier_multipliers(state.delta, f.h, f.n)
    # heights near the float64 limit overflow the transform; the finiteness
    # checks of the quadrature and of the result report it, so it stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        fhat = np.fft.rfft(f.values)
        g = np.fft.irfft(fhat * slope, n=f.n)
        diff = state.kappa * np.fft.irfft(fhat * diffusion, n=f.n)
    vel = kernel_quadrature(f.values, g, f.length, state.width, state.trunc_radius)
    if state.delta > 0:
        vel = np.fft.irfft(np.fft.rfft(vel) * sym, n=f.n)
    return f.with_values(diff - vel)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


class StabilityError(ValueError):
    """The time step exceeds the stability probe of the initial state."""

    def __init__(self, dt: float, limit: float):
        super().__init__(f"dt = {dt} exceeds the stability probe {limit:.6g}")
        self.dt = dt
        self.limit = limit


def step_count(t_start: float, t_end: float, dt: float) -> int:
    """Number of steps of size ``dt`` from ``t_start`` to ``t_end``.

    Raises ValueError unless the quotient is finite and an integer to a
    relative 1e-9 of ``t_end``, a tolerance without a unit of time.
    """
    steps = (t_end - t_start) / dt
    if not np.isfinite(steps):
        raise ValueError(f"(t_end - t_start) / dt = {steps} is not a finite step count")
    n_steps = int(round(steps))
    if abs(t_start + n_steps * dt - t_end) > 1e-9 * abs(t_end):
        raise ValueError("t_end - t_start must be an integer number of steps")
    return n_steps


def stability_limit(state: InterfaceState, out: np.ndarray | None = None) -> float:
    """Measured step probe ``min(h^2/(2 kappa), h / V_max)`` of a state; not a stability bound.

    The mollifier symbol is at most 1; ``V_max`` is the largest velocity of
    ``state``, which ``out`` receives.  A smaller step can blow up: at
    ``delta = 0`` (Python only), a 0.1 bump plus ``0.05 cos(6 pi x /
    40)``, N = 1024, c = 1, kappa = 0, ``t = 1e-4`` gets 0.286, yet ``dt =
    0.0125`` takes H4 from 0.287 to 5.6e5 in 3 steps, unflagged.
    """
    h = state.f.h
    limit = np.inf
    if state.kappa > 0:
        limit = h * h / (2.0 * state.kappa)
    v = rhs_regularized(state)
    if out is not None:
        out[...] = v.values
    v_max = float(np.max(np.abs(v.values)))
    if v_max > 0:
        limit = min(limit, h / v_max)
    return limit


def integrate(
    f0: GridFunction1D,
    c: float,
    delta: float,
    kappa: float,
    dt: float,
    t_end: float,
    output_every: int = 1,
    t_start: float = 0.0,
    trunc_radius: float = DEFAULT_TRUNC_RADIUS,
) -> Trajectory:
    """March the regularized flow with classical RK4.

    ``eps = c*t`` is advanced exactly at the stage times.  Snapshots are
    recorded every ``output_every`` steps (plus the initial and final
    states) with L2 / H4 norms and the damped fifth-derivative norm.
    The trajectory is truncated and flagged, with the step and the RK4
    stage, when a stage or the update leaves the finite range: a finiteness
    check of the right-hand side or of the new state raises
    :class:`NonFiniteError` (the update's stage is None); any other
    exception propagates.  A run that grows without overflowing runs to
    ``t_end``; its verdict is the subsolution check's.  The
    stability probe of ``f0`` runs at ``t_start``, and its velocity is the
    first stage of step 1; when the probe raises it, the trajectory is empty
    and flagged at step 0.  A ``dt`` that exceeds the stability probe raises
    :class:`StabilityError`, and a subnormal initial kernel width ValueError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if output_every < 1:
        raise ValueError("output_every must be at least 1")
    n_steps = step_count(t_start, t_end, dt)

    def state_at(values: np.ndarray, t: float) -> InterfaceState:
        return InterfaceState(GridFunction1D(values, f0.length), t, c, delta, kappa, trunc_radius)

    def diagnose(state: InterfaceState, step: int) -> dict:
        return {
            "t": state.t,
            "step": step,
            "l2": state.f.l2_norm(),
            "h4": sobolev_norm(state.f, 4),
            "dinv_d5": _dinv_d5_norm(state.f, state.t),
        }

    traj = Trajectory()
    state = state_at(f0.values.copy(), t_start)
    # the probe's velocity, at t_start, is the first stage of step 1
    probe = np.empty(f0.n)
    try:
        limit = stability_limit(state, out=probe)
    except NonFiniteError as exc:
        # the initial state's velocity leaves the finite range: no step is taken
        traj.fail(t_start, f"non-finite state: {exc}", 0)
        return traj
    if dt > limit:
        raise StabilityError(dt, limit)
    traj.append(state, diagnose(state, 0))
    vals = state.f.values
    for step in range(1, n_steps + 1):
        k = [probe] if step == 1 else []
        try:
            for stage, node in enumerate(_RK4_NODES[len(k):], start=len(k) + 1):
                stage_state = state_at(vals + node * dt * k[-1] if k else vals,
                                       t_start + (step - 1 + node) * dt)
                k.append(rhs_regularized(stage_state).values)
            stage = None
            # an overflowing update is named by the new state's finiteness check
            with np.errstate(over="ignore", invalid="ignore"):
                vals = vals + dt / 6.0 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
            state = state_at(vals, t_start + step * dt)
        except NonFiniteError as exc:
            # a stage or the update left the finite range; truncate rather than crash
            traj.fail(t_start + step * dt, f"non-finite state: {exc}", step, stage)
            break
        if step % output_every == 0 or step == n_steps:
            traj.append(state, diagnose(state, step))
    return traj


def _dinv_d5_norm(f: GridFunction1D, t: float) -> float:
    """``|| Dinv f^(5) ||_L2`` at time t, taken in units of ``2^e``; inf past the float range."""
    e = unit_exponent(f.length, float(np.abs(f.values).max()))
    scaled = GridFunction1D(np.ldexp(f.values, -e), math.ldexp(f.length, -e))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            norm = apply_dinv(scaled.derivative(5), math.ldexp(t, -e)).l2_norm()
        except NonFiniteError:
            return math.inf
        # f^(5) scales as 2^-4e, sqrt(h) as 2^(e/2)
        return float(np.ldexp(norm * math.sqrt(2.0 ** (e % 2)), e // 2 - 4 * e))


def sobolev_norm(f: GridFunction1D, k: int) -> float:
    """Spectral Sobolev norm ``(sum (1 + xi^2)^k |fhat|^2)^(1/2)``; inf past the float range.

    Frequencies in cycles per unit length; at k = 0 this is the grid L2
    norm (discrete Parseval).  From the ``rfft`` modes: each interior mode
    stands for itself and its conjugate, DC and Nyquist for themselves.
    Where the weighted sum overflows even with the values scaled
    (:func:`~mixzone.grid.root_sum`), as the weights do at short lengths,
    the largest weight ``(1 + xi_max^2)^k`` is factored out too; a sum
    that does not overflow keeps its bits.
    """
    if not 0 <= k <= 5:
        raise ValueError("order k must lie in [0, 5]")
    xi = np.fft.rfftfreq(f.n, d=f.h)
    weight = 1.0 + xi * xi

    def squares(values: np.ndarray, top: float = 1.0) -> float:
        coeffs = np.fft.rfft(values)
        power = (weight / top) ** k * (coeffs.real**2 + coeffs.imag**2)
        power[1:-1] *= 2.0  # n is even
        return f.h / f.n * np.sum(power)

    with np.errstate(over="ignore", invalid="ignore"):
        norm = root_sum(f.values, squares)
        if np.isfinite(norm):
            return norm
        top = weight[-1]  # the Nyquist mode's, the largest
        return float(np.sqrt(top) ** k * root_sum(f.values, lambda values: squares(values, top)))
