"""Candidate subsolution fields on the mixing strip and their hull checks.

From an interface height f and strip half-width eps this module rebuilds
the relaxed state (rho, u, m) at points ``x(s, lam) = (s, f(s) + lam)``:
the density is the linear profile ``rho = lam/eps``, the velocity is the
strip-averaged Poisson integral, and the flux m carries the normal defect
``gamma`` obtained by integrating the modified-velocity imbalance across
the strip.  The four lamination-hull inequalities are evaluated as signed
slacks, with the velocity bound M chosen from the sampled speeds.

One evaluator, :func:`site_samples`, computes every sample: the
per-snapshot report, the verify checks and the tests all read it, and the
slacks of any set of samples are one :func:`hull_slacks` call.

Quadrature layout (read from the plan :mod:`mixzone.evolution` builds,
so the averaged velocity identity holds at quadrature accuracy): PV
trapezoid over grid-aligned horizontal offsets with the singular cells
integrated on geometric Gauss-Legendre panels.  The transverse average
``inner`` of the Poisson kernel is exact, one ``arctan2`` per entry.  The
velocity is linear in it, so integrals in lam (the zero-mean residual
and gamma) apply the same weights to its exact lam integral, the folded
mixed second difference :func:`mixzone.kernel.lambda_integral`; no lam
quadrature is left.  The modified velocity and the full velocity share
their moment integrals, which makes the tangential identity
``u_c . dz_perp = u . dz_perp`` exact by construction.

A column is one lam interval's integral or one lam's value.  ``inner``
is odd in x and even in its height argument, so a column at ``(x, -d)``
is its mirror column (``[a, b] -> [-b, -a]``, ``lam -> -lam``) at ``(x,
d)``, and at ``(-x, d)`` it is minus itself at ``(x, d)``.  The columns
are first closed under the mirror (the report's 9 symmetric lams add
one interval, ``[0, w]``), and the mirrors then halve every table:

* Far rows.  At an offset ``dx_k > 0`` each column is analytic in the
  mean slope ``A = d / dx_k`` on ``|Im A| < 1`` (its branch points lie on
  the strip's edges whatever lam is), and ``|A|`` is at most ``a_max``,
  the largest one-cell slope.  So each offset takes one Chebyshev table
  in A on ``[-a_max, a_max]``, at the degree rule of every slope table
  (:func:`mixzone.spectral.chebyshev_degree`, error about e^-37),
  evaluated at the nodes ``t >= 0`` only; the offset ``-k`` reads the
  table of ``+k``.  The sites are contracted with the Chebyshev basis by
  matmuls, in blocks of about ``BLOCK_ENTRIES`` entries.
* The singular cell depends on a site only through its slope.  It is
  summed over ``y > 0`` only (the ``y < 0`` half is its mirror), and
  its columns, even or odd in the slope, take the evolution's slope
  table :func:`mixzone.spectral.slope_interpolated` (the report's 32
  sites on the default bump: 12 nodes, 6 of them evaluated).

A table is taken only while its nonnegative nodes do not outnumber the
sites (a node costs what a site does) and its slope bound is finite;
otherwise each site sums its own columns, in blocks of about
``BLOCK_ENTRIES`` (site, offset, column) values.

For a run of the regularized flow the strip half-width handed to these
routines is the kernel half-width ``eps(t) + kappa`` of the evolution
actually computed, and the PV window is the state's, so all consistency
identities refer to one kernel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .evolution import DEFAULT_TRUNC_RADIUS, kernel_quadrature, quadrature_plan
from .grid import (GridFunction1D, NonFiniteError, block_rows, derivative_symbols,
                   max_cell_slope, unit_exponent)
from .kernel import lambda_integral
from .spectral import chebyshev_degree, chebyshev_maps, slope_interpolated, table_slopes

__all__ = [
    "SiteSamples", "site_samples", "hull_slacks", "choose_M",
    "subsolution_report", "SLACK_VIOLATION_BAND",
]

EDGE_CLAMP = 1e-6
SLACK_VIOLATION_BAND = 1e-5
# (-1)^k for the near-cell moments J_k, k = 0..5
_PARITY = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])[:, None]


class SiteSamples(NamedTuple):
    """Samples at every (site, offset) pair, rows in site-major order.

    ``u`` and ``m`` have one (2,)-row per sample; ``uc2`` is the modified
    vertical velocity, ``u_c = (0, uc2)``; ``residual`` holds one
    zero-mean residual ``int (u_c - dtz).dz_perp dlam`` per site.
    """

    rho: np.ndarray
    u: np.ndarray
    m: np.ndarray
    gamma: np.ndarray
    uc2: np.ndarray
    residual: np.ndarray


class _Snapshot:
    """Site-independent data of one snapshot: ``g = f'`` and its derivatives
    0-5 (one ``rfft`` of f, one batched ``irfft``), the nodes of the
    evolution's quadrature plan, and the largest one-cell slope."""

    def __init__(self, f: GridFunction1D, width: float, trunc_radius: float):
        if not width > 0:
            raise ValueError("strip half-width must be positive")
        # derivatives past the float range are named by the check of _default_dtz
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = np.fft.rfft(f.values) * derivative_symbols(f.n, f.length, (1, 2, 3, 4, 5, 6))
            spectra[:, -1] = 0.0  # g = f' drops the Nyquist mode
            self.g_derivs = np.fft.irfft(spectra, n=f.n)
        # bounds every mean slope (f_j - f_{j-k}) / (k h) of the far rows
        self.a_max = max_cell_slope(f.values, f.h)
        self.g = self.g_derivs[0]
        plan = quadrature_plan(f.n, f.h, trunc_radius)
        self.offsets = plan.offsets
        self.dx = self.offsets * f.h
        self.wts = plan.weights
        # singular-cell nodes y > 0; row k: y^k times the weight, so near_wts @
        # inner is the half cell's moment P_k
        self.y_near = plan.near_y
        self.near_wts = (plan.near_y[:, None] ** np.arange(6) * plan.near_w[:, None]).T


class _Columns(NamedTuple):
    """Lam intervals ``[a, b]`` then lams, a set closed under the mirror.

    The mirror takes ``(a, b)`` to ``(-b, -a)`` and ``lam`` to ``-lam``;
    ``mirror[c]`` is the index of column c's mirror image.
    """

    a: np.ndarray
    b: np.ndarray
    lams: np.ndarray
    mirror: np.ndarray


def _closed_columns(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> tuple[_Columns, np.ndarray]:
    """The mirror closure of the intervals ``[a_i, b_i]`` and ``lams``; the given columns' indices in it.

    The given columns come first, in their order; a mirror image not among
    them follows.  So the report's 9 symmetric lams add one interval, ``[0,
    w]``, the mirror of ``[-w, 0]``; arbitrary lams at most double the set.
    """
    given = list(zip(a.tolist(), b.tolist()))
    # dict keys keep their first order, and +0.0 and -0.0 are one key
    closure = dict.fromkeys(given + [(-b, -a) for a, b in given])
    intervals = {key: i for i, key in enumerate(closure)}
    points = {lam: len(intervals) + i
              for i, lam in enumerate(dict.fromkeys(lams.tolist() + (-lams).tolist()))}
    mirror = [intervals[(-b, -a)] for a, b in intervals] + [points[-lam] for lam in points]
    pick = [intervals[key] for key in given] + [points[lam] for lam in lams.tolist()]
    ends = np.array(list(intervals)).reshape(-1, 2)
    cols = _Columns(ends[:, 0], ends[:, 1], np.array(list(points)), np.array(mirror))
    return cols, np.array(pick)


def _inner(x: np.ndarray, d: np.ndarray, w: float) -> np.ndarray:
    """Exact transverse average of the Poisson kernel ``x/(x^2 + (d - lam')^2)``.

    ``(arctan((d + w)/x) - arctan((d - w)/x)) / (2w)`` folded into one
    ``arctan2``, valid for either sign of x without a branch fix-up.  Where
    ``(d - w)(d + w)`` overflows, its infinity gives the exact limit 0.
    """
    with np.errstate(over="ignore"):
        return np.arctan2(2.0 * w * x, x * x + (d - w) * (d + w)) / (2.0 * w)


def _column_values(x, d, w: float, cols: _Columns) -> np.ndarray:
    """The columns at the nodes ``(x, d)``, on a new last axis.

    Column k of a node is ``int_a^b inner(x, d + lam) dlam`` over the k-th
    interval, then ``inner(x, d + lam)`` at each lam.
    """
    x, d = x[..., None], d[..., None]
    return np.concatenate([lambda_integral(x, d, cols.a, cols.b, w),
                           _inner(x, d + cols.lams, w)], axis=-1)


def _in_blocks(count: int, nodes: int, columns: int, block) -> np.ndarray:
    """``block(rows)`` over consecutive slices ``rows`` of ``range(count)``, stacked.

    A slice has :func:`~mixzone.grid.block_rows` of ``nodes * columns``
    rows: as many as fit ``(rows, nodes, columns)`` in ``BLOCK_ENTRIES``
    entries, and at least one.
    """
    rows = block_rows(nodes * columns)
    return np.concatenate([block(slice(i, i + rows)) for i in range(0, count, rows)])


def _far_table(snap: _Snapshot, w: float, cols: _Columns, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the far columns in the mean slope, (degree + 1, offsets k > 0, columns).

    Entry ``(m, k)`` holds the coefficient of ``T_m(A / a_max)`` in the
    columns at ``x = dx_k``, ``d = A dx_k``.  The columns are evaluated at
    the Chebyshev points ``t >= 0`` of :func:`~mixzone.spectral.chebyshev_maps`
    only: ``inner`` is even in its height argument, so the point ``-t`` is
    the point t with its columns mirrored.  Evaluated in blocks of offsets.
    """
    t, to_chebyshev, _ = chebyshev_maps(degree)
    n_pos = snap.dx.size // 2
    dx = snap.dx[n_pos:]
    top = snap.a_max * t[: degree // 2 + 1]
    half = _in_blocks(n_pos, top.size, cols.mirror.size, lambda rows: _column_values(
        dx[rows, None], dx[rows, None] * top, w, cols))
    # points t_{degree - j} = -t_j, j < (degree + 1) // 2, from the points t_j
    values = np.concatenate([half, half[:, : (degree + 1) // 2][:, ::-1][..., cols.mirror]], axis=1)
    return (to_chebyshev @ values.transpose(1, 0, 2).reshape(degree + 1, -1)).reshape(
        degree + 1, n_pos, -1)


def _far_rows(snap: _Snapshot, f_values: np.ndarray, js: np.ndarray, w: float, cols: _Columns,
              degree: int | None) -> np.ndarray:
    """The far sums ``wts @ columns`` of each site, times the rows ``(1, g_back, g_j - g_back)``.

    One (3, columns) block per site.  With a ``degree`` the columns come
    from :func:`_far_table`: ``inner`` is odd in x, so the offset ``-k`` at
    height difference d is minus the offset ``+k`` at d, and every offset
    reads the table of ``|k|`` at ``s = d / (a_max |dx|)``.  A block of
    sites builds ``wts T_m(s)`` by the three-term recurrence, folds both
    signs of each offset together and takes each row as one matmul with
    the table.  Without a ``degree`` the columns are evaluated per site.
    """
    n, m = f_values.size, snap.dx.size
    if degree is None:
        def per_site(rows):
            j = js[rows, None]
            back = (j - snap.offsets) % n
            g_back = snap.g[back]
            wts = snap.wts * np.stack([np.ones_like(g_back), g_back, snap.g[j] - g_back], axis=1)
            return wts @ _column_values(snap.dx, f_values[j] - f_values[back], w, cols)

        return _in_blocks(js.size, m, cols.mirror.size, per_site)
    table = _far_table(snap, w, cols, degree).reshape(-1, cols.mirror.size)
    wts = snap.wts * np.sign(snap.dx)
    scale = 1.0 / (snap.a_max * np.abs(snap.dx)) if degree else None  # a_max = 0 at degree 0

    def fold(terms):
        """(site, m, offset) terms, the offset -k added onto +k: one row per site."""
        return (terms[..., m // 2 :] + terms[..., m // 2 - 1 :: -1]).reshape(terms.shape[0], -1)

    def from_table(rows):
        j = js[rows, None]
        back = (j - snap.offsets) % n
        # wts T_m(s) obeys the recurrence of T_m; one contiguous (site, offset) slab per m
        basis = np.empty((degree + 1, *back.shape))
        basis[0] = wts
        if degree:
            s = scale * (f_values[j] - f_values[back])
            np.multiply(s, wts, out=basis[1])
            two_s = 2.0 * s
        for k in range(2, degree + 1):
            np.multiply(two_s, basis[k - 1], out=basis[k])
            basis[k] -= basis[k - 2]
        by_site = basis.transpose(1, 0, 2)
        g_back = snap.g[back][:, None]
        return np.stack([fold(by_site) @ table, fold(by_site * g_back) @ table,
                         fold(by_site * (snap.g[j, None] - g_back)) @ table], axis=1)

    return _in_blocks(js.size, m, degree + 1, from_table)


def _near_cell(snap: _Snapshot, slopes: np.ndarray, w: float, cols: _Columns) -> np.ndarray:
    """The near-cell moments ``J_k = int y^k inner(y, slope y + lam)`` at each slope, k = 0..5.

    Summed over ``y > 0``: ``J_k[c] = P_k[c] - (-1)^k P_k[mirror c]`` for the half-cell moments
    ``P_k``, and ``J_k(-A) = -(-1)^k J_k(A)`` mirrors the slope table, capped at 2 nodes a slope.
    """
    def moments(at):
        half = _in_blocks(at.size, snap.y_near.size, cols.mirror.size, lambda rows: (
            snap.near_wts @ _column_values(snap.y_near, at[rows, None] * snap.y_near, w, cols)))
        return half - _PARITY * half[..., cols.mirror]

    return slope_interpolated(slopes, 2 * slopes.size, moments,
                              lambda degree: moments(table_slopes(degree)), -_PARITY)


def _assemble(far: np.ndarray, jk: np.ndarray, g_derivs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(u1, u2, u_c2) per site and column.

    ``far`` (sites, 3, columns) holds their far sums, ``jk`` (sites, 6,
    columns) the near-cell moments ``J_k = int y^k inner(y, slope y + lam)``
    and ``g_derivs`` (sites, 6) the derivatives 0-5 of g at the sites.
    """
    # g(x - y) Taylor'd through y^5; Delta g = g(x) - g(x - y) is minus its tail
    taylor = g_derivs[:, 1:] / np.array([-1.0, 2.0, -6.0, 24.0, -120.0])
    tail = (taylor[:, None, :] @ jk[:, 1:])[:, 0]
    u1 = (far[:, 0] + jk[:, 0]) / np.pi
    u2 = (far[:, 1] + g_derivs[:, :1] * jk[:, 0] + tail) / np.pi
    uc2 = -(far[:, 2] - tail) / np.pi
    return u1, u2, uc2


def _default_dtz(f: GridFunction1D, g: np.ndarray, width: float,
                 trunc_radius: float) -> np.ndarray:
    """Unmollified averaged velocity ``-int (Delta g) K_w dy``, ``g = f'``, at half-width ``width``.

    The check reads it at the run's width ``c t + kappa``, with no mollifier
    and no diffusion.  :func:`~mixzone.evolution.rhs_regularized` at ``delta
    = kappa = 0`` gives it at width ``c t`` only: an
    :class:`~mixzone.evolution.InterfaceState` ties ``kappa`` both to the
    width and to the diffusion term, so for ``kappa > 0`` no state of the
    run, at its own t and kappa, gives this velocity.
    """
    return -kernel_quadrature(f.values, g, f.length, width, trunc_radius)


def site_samples(
    f: GridFunction1D,
    width: float,
    c: float,
    s_indices,
    lams,
    trunc_radius: float = DEFAULT_TRUNC_RADIUS,
) -> SiteSamples:
    """The relaxed state at each grid site in ``s_indices`` and offset in ``lams``.

    ``dtz`` is the unmollified averaged velocity at half-width ``width`` at each site.
    gamma at lam <= 0 integrates the imbalance ``(u_c - dtz).dz_perp`` up
    from the lower edge, at lam > 0 down from the upper edge (the
    full-strip integral, the residual, vanishes), which keeps the ``1/(1 -
    rho^2)`` factor harmless; it is taken a relative EDGE_CLAMP inside the
    strip, so ``|lam| = width`` gives rho = +-1 and ``m = rho u``.
    """
    js = np.asarray(s_indices, dtype=int).ravel() % f.n
    if not js.size:
        raise ValueError("s_indices must name at least one site")
    # in units of 2^e, as the quadrature computes; runs 2^k apart sample alike bit for bit
    e = unit_exponent(f.length, float(np.abs(f.values).max()), width)
    f = GridFunction1D(np.ldexp(f.values, -e), np.ldexp(f.length, -e))
    w, trunc_radius, lams = (np.ldexp(v, -e) for v in (width, trunc_radius, np.atleast_1d(lams)))
    if not np.all(np.abs(lams) <= w):
        raise ValueError("|lam| must not exceed the strip half-width")
    snap = _Snapshot(f, w, trunc_radius)
    dtz = _default_dtz(f, snap.g, w, trunc_radius)
    lam_g = np.clip(lams, -(1.0 - EDGE_CLAMP) * w, (1.0 - EDGE_CLAMP) * w)
    lower = lam_g <= 0.0
    # half-strip intervals, then the full strip
    a = np.append(np.where(lower, -w, lam_g), -w)
    b = np.append(np.where(lower, lam_g, w), w)
    cols, pick = _closed_columns(a, b, lams)
    # the far rows' table degree, None (per-site sums) when a_max is not finite or
    # its degree // 2 + 1 nodes t >= 0 would outnumber the sites (a node costs what a site does)
    far = _far_rows(snap, f.values, js, w, cols,
                    chebyshev_degree(snap.a_max, 2 * js.size - 1))[..., pick]
    jk = _near_cell(snap, snap.g[js], w, cols)[..., pick]
    u1, u2, uc2 = _assemble(far, jk, snap.g_derivs[:, js].T)
    integrals = uc2[:, : a.size] - dtz[js, None] * (b - a)
    rho_g = lam_g / w
    half = np.where(lower, integrals[:, :-1], -integrals[:, :-1])
    gamma = (-(1.0 - c) / 2.0 + half / ((1.0 - rho_g * rho_g) * w)).ravel()
    rho = np.tile(lams / w, js.size)
    u = np.stack([u1[:, a.size:], u2[:, a.size:]], axis=-1).reshape(-1, 2)
    m = rho[:, None] * u
    m[:, 1] -= (gamma + 0.5) * (1.0 - rho * rho)
    return SiteSamples(rho, u, m, gamma, uc2[:, a.size:].ravel(), np.ldexp(integrals[:, -1], e))


def hull_slacks(rho, u, m, m_bound: float) -> np.ndarray:
    """Signed slacks of the four relaxation inequalities, one row per sample.

    ``rho`` has shape (n,), ``u`` and ``m`` shape (n, 2); column k is
    slack k + 1, positive where the inequality holds strictly.  Lengths are
    ``hypot``s and slack 2 is ``(M - |v|)(M + |v|) - (1 - rho^2)``, so no
    velocity below M overflows; past the float range slack 2 is +inf.
    """
    if not m_bound > 1.0:
        raise ValueError("the velocity bound M must exceed 1")
    r = rho[:, None]
    one = 1.0 - rho * rho
    e2 = np.array([0.0, 1.0])

    def norm(v):
        return np.hypot(v[:, 0], v[:, 1])

    v = norm(2.0 * u + r * e2)
    with np.errstate(over="ignore"):
        return np.stack([
            0.5 * one - norm(m - r * u + 0.5 * one[:, None] * e2),
            (m_bound - v) * (m_bound + v) - one,
            0.5 * m_bound * (1.0 - rho) - norm(m - u - 0.5 * (1.0 - r) * e2),
            0.5 * m_bound * (1.0 + rho) - norm(m + u + 0.5 * (1.0 + r) * e2),
        ], axis=1)


def choose_M(u_samples) -> float:
    """Velocity bound ``8 (max|u| + 1)`` with a small safety margin."""
    u = np.asarray(u_samples, dtype=float)
    if u.size == 0:
        raise ValueError("u_samples must be nonempty")
    speeds = np.hypot(*u.reshape(-1, 2).T) if u.ndim > 1 else np.abs(u)
    return 8.0 * (float(speeds.max()) + 1.0) * (1.0 + 1e-6)


def _lambda_fractions(n_lambda: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, n_lambda) * (1.0 - EDGE_CLAMP)


def subsolution_report(snapshots, s_indices=None, n_lambda: int = 9) -> list[dict]:
    """Per-snapshot record of max|gamma|, hull slacks, M and the identity.

    Each snapshot, an :class:`~mixzone.evolution.InterfaceState`, is
    checked at its own kernel width and PV window.  Sites
    default to every ``n // 32``-th grid node.  One row per
    snapshot; its ``ok`` flags whether the subsolution conditions hold
    (``|gamma| < 1/2`` and no slack below the violation band).  The
    caller finds the first failing time from the rows.  A snapshot whose
    samples leave the float range (:class:`~mixzone.grid.NonFiniteError`,
    say a derivative of the unmollified slope) is not checked: its figures
    are NaN, and it fails.
    """
    rows = []
    for state in snapshots:
        f = state.f
        width = state.width
        idxs = list(range(0, f.n, max(1, f.n // 32)) if s_indices is None else s_indices)
        x = f.x
        lams = _lambda_fractions(n_lambda) * width
        try:
            samples = site_samples(f, width, state.c, idxs, lams, state.trunc_radius)
        except NonFiniteError:
            m_bound = min_slack = max_gamma = residual = math.nan
        else:
            m_bound = choose_M(samples.u)
            min_slack = float(hull_slacks(samples.rho, samples.u, samples.m, m_bound).min())
            max_gamma = float(np.abs(samples.gamma).max())
            residual = float(np.abs(samples.residual).max())
        ok = max_gamma < 0.5 and min_slack >= -SLACK_VIOLATION_BAND
        rows.append(
            {
                "t": state.t,
                "max_gamma": max_gamma,
                "min_slack": min_slack,
                "m_bound": float(m_bound),
                "zero_mean_residual": residual,
                "ok": bool(ok),
                "s_sites": [float(x[j]) for j in idxs],
            }
        )
    return rows
