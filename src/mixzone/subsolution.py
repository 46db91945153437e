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

For a run of the regularized flow the strip half-width handed to these
routines is the kernel half-width ``eps(t) + kappa`` of the evolution
actually computed, so all consistency identities refer to one kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .evolution import DEFAULT_TRUNC_RADIUS, Trajectory, _quadrature_plan, kernel_quadrature
from .grid import GridFunction1D, spectral_derivative
from .kernel import _lambda_integral

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
    """Site-independent quadrature data of one snapshot.

    The slope ``g = f'`` and its derivatives of orders 0-5 (whole-grid
    FFTs) are computed once and shared by every site evaluated on the
    snapshot; the trapezoid offsets and weights and the singular-cell
    nodes come from the evolution's cached quadrature plan.
    """

    def __init__(self, f: GridFunction1D, width: float, trunc_radius: float):
        if not width > 0:
            raise ValueError("strip half-width must be positive")
        self.f = f
        self.width = width
        n, h, length = f.n, f.h, f.length
        self.g = spectral_derivative(f.values, length)
        self.g_derivs = np.stack([spectral_derivative(self.g, length, k) for k in range(6)])
        plan = _quadrature_plan(n, h, trunc_radius)
        self.offsets = plan.offsets
        self.dx = self.offsets * h
        self.wts = plan.weights
        # singular-cell nodes (both signs)
        ypos, wpos = plan.near_y, plan.near_w
        self.y_near = np.concatenate([-ypos[::-1], ypos])
        w_near = np.concatenate([wpos[::-1], wpos])
        # row k: y^k times the near-cell weight, so near_wts @ inner gives J_k
        self.near_wts = (self.y_near[:, None] ** np.arange(6)[None, :] * w_near[:, None]).T


class _SiteVelocity:
    """Velocity quadratures at one grid site of a snapshot.

    Evaluates u1, u2 and the modified vertical velocity u_c2 at arbitrary
    transverse offsets lam, and from them and their exact lam integrals
    the relaxed state, gamma and the zero-mean residual.
    """

    def __init__(self, snap: _Snapshot, s_index: int):
        n = snap.f.n
        self.width = snap.width
        self.j = int(s_index) % n
        vals, g, wts = snap.f.values, snap.g, snap.wts
        self.slope = float(g[self.j])
        idx = (self.j - snap.offsets) % n
        self.dx = snap.dx
        self.df = vals[self.j] - vals[idx]
        # rows: weights of the far sums for u1, u2 and u_c2 (Delta g = slope - g)
        self.far_wts = np.stack([wts, wts * g[idx], wts * (self.slope - g[idx])])
        self.y_near = snap.y_near
        self.near_wts = snap.near_wts
        # every offset's (x, d) pair at lam = 0: far offsets, then near-cell nodes
        self.x = np.concatenate([self.dx, self.y_near])[:, None]
        self.d = np.concatenate([self.df, self.slope * self.y_near])[:, None]
        # site Taylor data
        self.g_derivs = snap.g_derivs[:, self.j].tolist()

    def _inner(self, dx: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Exact transverse average of the Poisson kernel ``dx/(dx^2 + (d - lam')^2)``.

        ``(arctan((d + w)/dx) - arctan((d - w)/dx)) / (2w)`` folded into one
        ``arctan2``, valid for either sign of dx without a branch fix-up.
        """
        w = self.width
        return np.arctan2(2.0 * w * dx, dx * dx + (d - w) * (d + w)) / (2.0 * w)

    def _assemble(self, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u1, u2, u_c2) from ``inner`` (or its lam integral), one column per lam."""
        far1, far2, farc = self.far_wts @ inner[: self.dx.size]
        # J_k = int over the near cell of y^k inner(y, slope y + lam), k = 0..5
        jk = self.near_wts @ inner[self.dx.size:]
        g0, g1, g2, g3, g4, g5 = self.g_derivs
        # g(x - y) Taylor'd through y^5; Delta g uses the same coefficients
        near2 = (g0 * jk[0] - g1 * jk[1] + g2 / 2.0 * jk[2]
                 - g3 / 6.0 * jk[3] + g4 / 24.0 * jk[4] - g5 / 120.0 * jk[5])
        nearc = (g1 * jk[1] - g2 / 2.0 * jk[2] + g3 / 6.0 * jk[3]
                 - g4 / 24.0 * jk[4] + g5 / 120.0 * jk[5])
        u1 = (far1 + jk[0]) / np.pi
        u2 = (far2 + near2) / np.pi
        uc2 = -(farc + nearc) / np.pi
        return u1, u2, uc2

    def samples(self, lams, c: float, dtz: float):
        """``(rho, u, m, gamma, u_c2)`` at each offset in ``lams``, and the zero-mean residual.

        u and m have one row per offset.  ``int (u_c - dtz).dz_perp dlam``
        over the full strip and each gamma's half strip is exact.
        gamma at lam <= 0 integrates the imbalance up from the lower edge,
        at lam > 0 down from the upper edge (the full-strip integral
        vanishes), which keeps the ``1/(1 - rho^2)`` factor harmless; it is
        taken a relative EDGE_CLAMP inside the strip, so ``|lam| = width``
        gives rho = +-1 and ``m = rho u``.
        """
        w = self.width
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        if np.any(np.abs(lams) > w):
            raise ValueError("|lam| must not exceed the strip half-width")
        lam_g = np.clip(lams, -(1.0 - EDGE_CLAMP) * w, (1.0 - EDGE_CLAMP) * w)
        lower = lam_g <= 0.0
        # half-strip intervals, then the full strip
        a = np.append(np.where(lower, -w, lam_g), -w)
        b = np.append(np.where(lower, lam_g, w), w)
        _, _, integrals = self._assemble(_lambda_integral(self.x, self.d, a, b, w))
        integrals -= dtz * (b - a)
        rho_g = lam_g / w
        half = np.where(lower, integrals[:-1], -integrals[:-1])
        gamma = -(1.0 - c) / 2.0 + half / ((1.0 - rho_g * rho_g) * w)
        rho = lams / w
        u1, u2, uc2 = self._assemble(self._inner(self.x, self.d + lams[None, :]))
        u = np.stack([u1, u2], axis=1)
        m = rho[:, None] * u
        m[:, 1] -= (gamma + 0.5) * (1.0 - rho * rho)
        return rho, u, m, gamma, uc2, float(integrals[-1])


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

    ``dtz`` is the instantaneous evolution right-hand side at each site;
    the snapshot's quadrature data are built once and shared by the sites.
    """
    dtz = _default_dtz(f, width, trunc_radius)
    snap = _Snapshot(f, width, trunc_radius)
    sites = [_SiteVelocity(snap, j).samples(lams, c, float(dtz[j])) for j in s_indices]
    rho, u, m, gamma, uc2 = (np.concatenate([site[k] for site in sites]) for k in range(5))
    return SiteSamples(rho, u, m, gamma, uc2, np.array([site[5] for site in sites]))


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
