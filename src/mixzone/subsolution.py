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
of the Poisson kernel is exact at every offset, regular or singular: one
``arctan2`` per offset and lam.  The velocity is linear in that average,
so integrals in lam (the zero-mean residual and gamma) apply the same
weights to its exact lam integral, the folded mixed second difference
:func:`mixzone.kernel._lambda_integral`; no lam quadrature is left.
The modified velocity and the full velocity share their moment
integrals, which makes the tangential identity
``u_c . dz_perp = u . dz_perp`` exact by construction.

Sites are evaluated in blocks of about ``BLOCK_ENTRIES`` (site, offset,
column) values, a column being one lam interval or one lam, contracted
by one batched matmul.  The singular cell depends on a site only through
its slope A: for real ``y != 0``, ``inner(y, A y + lam)`` has its branch
points at ``Im A = +-1`` whatever lam is, so its moments are analytic in
the strip of the evolution's near-cell moments.  They are tabulated at
the same Chebyshev nodes of the sites' slope range and interpolated to
the sites by the lab's one slope interpolator,
:func:`mixzone.spectral.slope_interpolated`; with as many nodes as
sites, each site takes its own slope.

For a run of the regularized flow the strip half-width handed to these
routines is the kernel half-width ``eps(t) + kappa`` of the evolution
actually computed, so all consistency identities refer to one kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .evolution import DEFAULT_TRUNC_RADIUS, Trajectory, _quadrature_plan, kernel_quadrature
from .grid import BLOCK_ENTRIES, GridFunction1D, derivative_symbols, spectral_derivative
from .kernel import _lambda_integral
from .spectral import slope_interpolated

__all__ = [
    "SiteSamples", "site_samples", "hull_slacks", "choose_M",
    "subsolution_report", "SLACK_VIOLATION_BAND",
]

EDGE_CLAMP = 1e-6
SLACK_VIOLATION_BAND = 1e-5


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
    0-5 (one ``rfft`` of f, one batched ``irfft``), and the nodes of the
    evolution's quadrature plan."""

    def __init__(self, f: GridFunction1D, width: float, trunc_radius: float):
        if not width > 0:
            raise ValueError("strip half-width must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = np.fft.rfft(f.values) * derivative_symbols(f.n, f.length, (1, 2, 3, 4, 5, 6))
        spectra[:, -1] = 0.0  # g = f' drops the Nyquist mode
        self.g_derivs = np.fft.irfft(spectra, n=f.n)
        self.g = self.g_derivs[0]
        plan = _quadrature_plan(f.n, f.h, trunc_radius)
        self.offsets = plan.offsets
        self.dx = self.offsets * f.h
        self.wts = plan.weights
        # singular-cell nodes (both signs)
        ypos, wpos = plan.near_y, plan.near_w
        self.y_near = np.concatenate([-ypos[::-1], ypos])
        w_near = np.concatenate([wpos[::-1], wpos])
        # row k: y^k times the near-cell weight, so near_wts @ inner gives J_k
        self.near_wts = (self.y_near[:, None] ** np.arange(6)[None, :] * w_near[:, None]).T


def _inner(x: np.ndarray, d: np.ndarray, w: float) -> np.ndarray:
    """Exact transverse average of the Poisson kernel ``x/(x^2 + (d - lam')^2)``.

    ``(arctan((d + w)/x) - arctan((d - w)/x)) / (2w)`` folded into one
    ``arctan2``, valid for either sign of x without a branch fix-up.
    """
    return np.arctan2(2.0 * w * x, x * x + (d - w) * (d + w)) / (2.0 * w)


def _contract(wts, x, d, w: float, a, b, lams) -> np.ndarray:
    """``wts @ columns`` over the nodes ``(x, d)`` of a block.

    Column k of a node is ``int_a^b inner(x, d + lam) dlam`` over the k-th
    interval, then ``inner(x, d + lam)`` at each of ``lams``.
    """
    x, d = x[..., None], d[..., None]
    return wts @ np.concatenate([_lambda_integral(x, d, a, b, w), _inner(x, d + lams, w)], axis=-1)


def _in_blocks(count: int, nodes: int, columns: int, block) -> np.ndarray:
    """``block(rows)`` over consecutive slices ``rows`` of ``range(count)``, stacked.

    A slice has as many rows as fit ``(rows, nodes, columns)`` in
    ``BLOCK_ENTRIES`` entries, and at least one.
    """
    rows = max(1, BLOCK_ENTRIES // (nodes * columns))
    return np.concatenate([block(slice(i, i + rows)) for i in range(0, count, rows)])


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


def _default_dtz(f: GridFunction1D, width: float, trunc_radius: float) -> np.ndarray:
    """Instantaneous interface velocity: the evolution right-hand side."""
    g = spectral_derivative(f.values, f.length)
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

    ``dtz`` is the instantaneous evolution right-hand side at each site.
    gamma at lam <= 0 integrates the imbalance ``(u_c - dtz).dz_perp`` up
    from the lower edge, at lam > 0 down from the upper edge (the
    full-strip integral, the residual, vanishes), which keeps the ``1/(1 -
    rho^2)`` factor harmless; it is taken a relative EDGE_CLAMP inside the
    strip, so ``|lam| = width`` gives rho = +-1 and ``m = rho u``.
    """
    dtz = _default_dtz(f, width, trunc_radius)
    snap = _Snapshot(f, width, trunc_radius)
    w, n = width, f.n
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(np.abs(lams) > w):
        raise ValueError("|lam| must not exceed the strip half-width")
    lam_g = np.clip(lams, -(1.0 - EDGE_CLAMP) * w, (1.0 - EDGE_CLAMP) * w)
    lower = lam_g <= 0.0
    # half-strip intervals, then the full strip
    a = np.append(np.where(lower, -w, lam_g), -w)
    b = np.append(np.where(lower, lam_g, w), w)
    cols = a.size + lams.size
    js = np.asarray(s_indices, dtype=int).ravel() % n

    def far_block(rows):
        j = js[rows, None]
        back = (j - snap.offsets) % n
        g_back = snap.g[back]
        wts = snap.wts * np.stack([np.ones_like(g_back), g_back, snap.g[j] - g_back], axis=1)
        return _contract(wts, snap.dx, f.values[j] - f.values[back], w, a, b, lams)

    def near_moments(slopes):
        return _in_blocks(slopes.size, snap.y_near.size, cols, lambda rows: _contract(
            snap.near_wts, snap.y_near, slopes[rows, None] * snap.y_near, w, a, b, lams))

    far = _in_blocks(js.size, snap.dx.size, cols, far_block)
    # a table node costs what a site's own near cell does: fewer than one per site
    jk = slope_interpolated(snap.g[js], js.size - 1, near_moments)
    u1, u2, uc2 = _assemble(far, jk, snap.g_derivs[:, js].T)
    integrals = uc2[:, : a.size] - dtz[js, None] * (b - a)
    rho_g = lam_g / w
    half = np.where(lower, integrals[:, :-1], -integrals[:, :-1])
    gamma = (-(1.0 - c) / 2.0 + half / ((1.0 - rho_g * rho_g) * w)).ravel()
    rho = np.tile(lams / w, js.size)
    u = np.stack([u1[:, a.size:], u2[:, a.size:]], axis=-1).reshape(-1, 2)
    m = rho[:, None] * u
    m[:, 1] -= (gamma + 0.5) * (1.0 - rho * rho)
    return SiteSamples(rho, u, m, gamma, uc2[:, a.size:].ravel(), integrals[:, -1])


def hull_slacks(rho, u, m, m_bound: float) -> np.ndarray:
    """Signed slacks of the four relaxation inequalities, one row per sample.

    ``rho`` has shape (n,), ``u`` and ``m`` shape (n, 2); column k is
    slack k + 1, positive where the inequality holds strictly.
    """
    if not m_bound > 1.0:
        raise ValueError("the velocity bound M must exceed 1")
    r = rho[:, None]
    one = 1.0 - rho * rho
    e2 = np.array([0.0, 1.0])
    norm = np.linalg.norm
    return np.stack([
        0.5 * one - norm(m - r * u + 0.5 * one[:, None] * e2, axis=1),
        m_bound**2 - one - np.sum((2.0 * u + r * e2) ** 2, axis=1),
        0.5 * m_bound * (1.0 - rho) - norm(m - u - 0.5 * (1.0 - r) * e2, axis=1),
        0.5 * m_bound * (1.0 + rho) - norm(m + u + 0.5 * (1.0 + r) * e2, axis=1),
    ], axis=1)


def choose_M(u_samples) -> float:
    """Velocity bound ``8 (max|u| + 1)`` with a small safety margin."""
    u = np.asarray(u_samples, dtype=float)
    if u.size == 0:
        raise ValueError("u_samples must be nonempty")
    speeds = np.linalg.norm(u.reshape(-1, 2), axis=1) if u.ndim > 1 else np.abs(u)
    return 8.0 * (float(speeds.max()) + 1.0) * (1.0 + 1e-6)


def _lambda_fractions(n_lambda: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, n_lambda) * (1.0 - EDGE_CLAMP)


def subsolution_report(
    trajectory: Trajectory,
    s_indices=None,
    n_lambda: int = 9,
    trunc_radius: float = DEFAULT_TRUNC_RADIUS,
) -> list[dict]:
    """Per-snapshot record of max|gamma|, hull slacks, M and the identity.

    Sites default to every ``n // 32``-th grid node.  Each row flags
    whether the subsolution conditions hold; the first failing time
    (|gamma| >= 1/2 or a slack below the violation band) is marked on the
    row.
    """
    rows = []
    for state in trajectory.snapshots:
        f = state.f
        width = state.width
        if not width > 0:
            continue
        idxs = list(range(0, f.n, max(1, f.n // 32)) if s_indices is None else s_indices)
        lams = _lambda_fractions(n_lambda) * width
        samples = site_samples(f, width, state.c, idxs, lams, trunc_radius)
        m_bound = choose_M(samples.u)
        min_slack = float(hull_slacks(samples.rho, samples.u, samples.m, m_bound).min())
        max_gamma = float(np.abs(samples.gamma).max())
        ok = max_gamma < 0.5 and min_slack >= -SLACK_VIOLATION_BAND
        rows.append(
            {
                "t": state.t,
                "max_gamma": max_gamma,
                "min_slack": min_slack,
                "m_bound": float(m_bound),
                "zero_mean_residual": float(np.abs(samples.residual).max()),
                "ok": bool(ok),
                "s_sites": [float(f.x[j]) for j in idxs],
            }
        )
    return rows
