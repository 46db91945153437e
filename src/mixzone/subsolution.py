"""Candidate subsolution fields on the mixing strip and their hull checks.

From an interface height f and strip half-width eps this module rebuilds
the relaxed state (rho, u, m) at points ``x(s, lam) = (s, f(s) + lam)``:
the density is the linear profile ``rho = lam/eps``, the velocity is the
strip-averaged Poisson integral, and the flux m carries the normal defect
``gamma`` obtained by integrating the modified-velocity imbalance across
the strip.  The four lamination-hull inequalities are evaluated as signed
slacks, with the velocity bound M chosen from the sampled speeds.

Quadrature layout (read from the plan :mod:`mixzone.evolution` builds,
so the averaged velocity identity holds at quadrature accuracy): PV
trapezoid over grid-aligned horizontal offsets with the singular cells
integrated on geometric Gauss-Legendre panels.  The transverse average
of the Poisson kernel is exact at every offset, regular or singular: one
``arctan2`` per offset and lam.  Integrals in lam (the strip average,
the zero-mean residual and gamma) use composite Gauss-Legendre, and one
site's offsets, strip nodes and gamma nodes share a single batched
evaluation.  The modified velocity and the full velocity share their
moment integrals, which makes the tangential identity
``u_c . dz_perp = u . dz_perp`` exact by construction.

For a run of the regularized flow the strip half-width handed to these
routines is the kernel half-width ``eps(t) + kappa`` of the evolution
actually computed, so all consistency identities refer to one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .evolution import DEFAULT_TRUNC_RADIUS, Trajectory, _quadrature_plan, kernel_quadrature
from .grid import GridFunction1D, spectral_derivative

__all__ = [
    "MixCoords",
    "SubsolutionSample",
    "HullMargin",
    "velocity_field",
    "velocity_modified",
    "gamma_sharp",
    "build_fields",
    "hull_check",
    "choose_M",
    "zero_mean_residual",
    "subsolution_report",
    "SLACK_VIOLATION_BAND",
]

EDGE_CLAMP = 1e-6
SLACK_VIOLATION_BAND = 1e-5
_GL8 = leggauss(8)
_LAMBDA_PANELS = 16


@dataclass(frozen=True)
class MixCoords:
    """Strip coordinates: horizontal position s, transverse offset lam."""

    s: float
    lam: float


@dataclass(frozen=True)
class SubsolutionSample:
    """Relaxed state (rho, u, m) and its normal defect gamma at one point."""

    rho: float
    u: np.ndarray
    m: np.ndarray
    gamma: float


@dataclass(frozen=True)
class HullMargin:
    """Signed slacks of the four hull inequalities; positive = strict."""

    slack1: float
    slack2: float
    slack3: float
    slack4: float
    m_bound: float

    @property
    def min_slack(self) -> float:
        return min(self.slack1, self.slack2, self.slack3, self.slack4)

    @property
    def strict(self) -> bool:
        return self.min_slack > 0.0


def _composite_gl(a: float, b: float, panels: int):
    xg, wg = _GL8
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


class _Snapshot:
    """Site-independent quadrature data of one snapshot.

    The slope ``g = f'`` and its derivatives of orders 0-5 (whole-grid
    FFTs) are computed once and shared by every site evaluated on the
    snapshot; the trapezoid offsets and weights and the singular-cell
    nodes come from the evolution's cached quadrature plan.
    """

    def __init__(self, f: GridFunction1D, width: float,
                 trunc_radius: float | None = None):
        if not width > 0:
            raise ValueError("strip half-width must be positive")
        self.f = f
        self.width = width
        n, h, length = f.n, f.h, f.length
        if trunc_radius is None:
            trunc_radius = length / 2.0 - h
        self.g = spectral_derivative(f.values, length)
        self.g_derivs = np.stack(
            [spectral_derivative(self.g, length, k) for k in range(6)]
        )
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
    transverse offsets lam, and from one batch of them the relaxed
    state, gamma and the zero-mean residual.
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
        # site Taylor data
        self.g_derivs = snap.g_derivs[:, self.j].tolist()

    # -- elementary pieces -------------------------------------------------

    def _inner(self, dx: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Exact transverse average of the Poisson kernel ``dx/(dx^2 + (d - lam')^2)``.

        ``(arctan((d + w)/dx) - arctan((d - w)/dx)) / (2w)`` folded into one
        ``arctan2``, valid for either sign of dx without a branch fix-up.
        """
        w = self.width
        return np.arctan2(2.0 * w * dx, dx * dx + (d - w) * (d + w)) / (2.0 * w)

    def _near_moments(self, lams: np.ndarray) -> np.ndarray:
        """J_k(lam) = int over the near cell of y^k inner(y, lam), k = 0..5."""
        y = self.y_near[:, None]
        return self.near_wts @ self._inner(y, self.slope * y + lams[None, :])

    # -- assembled velocities ----------------------------------------------

    def velocities(self, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u1, u2, u_c2) at the requested transverse offsets."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        far1, far2, farc = self.far_wts @ self._inner(
            self.dx[:, None], self.df[:, None] + lams[None, :]
        )
        jk = self._near_moments(lams)
        g0, g1, g2, g3, g4, g5 = self.g_derivs
        # g(x - y) Taylor'd through y^5; Delta g uses the same coefficients
        near2 = (
            g0 * jk[0] - g1 * jk[1] + g2 / 2.0 * jk[2]
            - g3 / 6.0 * jk[3] + g4 / 24.0 * jk[4] - g5 / 120.0 * jk[5]
        )
        nearc = (
            g1 * jk[1] - g2 / 2.0 * jk[2] + g3 / 6.0 * jk[3]
            - g4 / 24.0 * jk[4] + g5 / 120.0 * jk[5]
        )
        u1 = (far1 + jk[0]) / np.pi
        u2 = (far2 + near2) / np.pi
        uc2 = -(farc + nearc) / np.pi
        return u1, u2, uc2

    def strip_average(self) -> float:
        """Transverse average of u_c2: the averaged velocity at this site."""
        # the zero-mean residual against dtz = 0 is the strip integral of u_c2
        return self.samples(0.0, 1.0, 0.0)[1] / (2.0 * self.width)

    def samples(self, lams, c: float, dtz: float) -> tuple[list[SubsolutionSample], float]:
        """Relaxed state at each offset in ``lams`` and the zero-mean residual.

        One velocity call covers the offsets, the full-strip nodes of
        ``int (u_c - dtz).dz_perp dlam`` and the half-strip nodes of every
        gamma.  gamma at lam <= 0 integrates the imbalance up from the
        lower edge, at lam > 0 down from the upper edge (the full-strip
        integral vanishes), which keeps the ``1/(1 - rho^2)`` factor
        harmless; it is taken a relative EDGE_CLAMP inside the strip, so
        ``|lam| = width`` gives rho = +-1 and ``m = rho u``.
        """
        w = self.width
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        if np.any(np.abs(lams) > w):
            raise ValueError("|lam| must not exceed the strip half-width")
        lam_g = np.clip(lams, -(1.0 - EDGE_CLAMP) * w, (1.0 - EDGE_CLAMP) * w)
        full_nodes, full_wts = _composite_gl(-w, w, _LAMBDA_PANELS)
        nodes, half_wts = [lams, full_nodes], []
        for lam in lam_g:
            a, b = (-w, lam) if lam <= 0.0 else (lam, w)
            panels = max(2, int(np.ceil(_LAMBDA_PANELS * (b - a) / (2.0 * w))))
            x, wt = _composite_gl(a, b, panels)
            nodes.append(x)
            half_wts.append(wt if lam <= 0.0 else -wt)
        u1, u2, uc2 = self.velocities(np.concatenate(nodes))
        n, tail = lams.size, lams.size + full_nodes.size
        resid = float(((uc2[n:tail] - dtz) * full_wts).sum())
        starts = np.cumsum([0] + [wt.size for wt in half_wts[:-1]])
        integrals = np.add.reduceat((uc2[tail:] - dtz) * np.concatenate(half_wts), starts)
        rho_g = lam_g / w
        gamma = -(1.0 - c) / 2.0 + integrals / ((1.0 - rho_g * rho_g) * w)
        out = []
        for q in range(n):
            rho = lams[q] / w
            u = np.array([u1[q], u2[q]])
            m = rho * u - (gamma[q] + 0.5) * (1.0 - rho * rho) * np.array([0.0, 1.0])
            out.append(SubsolutionSample(float(rho), u, m, float(gamma[q])))
        return out, resid

    def gamma(self, lam: float, c: float, dtz: float) -> float:
        """Normal defect gamma at offset lam in the open strip."""
        if abs(lam) >= self.width:
            raise ValueError("gamma is defined in the open strip |lam| < width")
        return self.samples(lam, c, dtz)[0][0].gamma


def _site_index(f: GridFunction1D, s: float) -> int:
    j = (s + 0.5 * f.length) / f.h
    jr = int(round(j))
    if abs(j - jr) > 1e-9:
        raise ValueError("s must lie on a grid node (PV nodes are grid aligned)")
    return jr % f.n


def velocity_field(
    f: GridFunction1D,
    eps: float,
    point: MixCoords,
    trunc_radius: float | None = None,
) -> np.ndarray:
    """Strip-averaged velocity u at ``x(s, lam)``.

    Finite for all points of the closed strip; the second component
    vanishes identically for flat data.
    """
    if abs(point.lam) > eps:
        raise ValueError("|lam| must not exceed the strip half-width")
    site = _SiteVelocity(_Snapshot(f, eps, trunc_radius), _site_index(f, point.s))
    u1, u2, _ = site.velocities(point.lam)
    return np.array([u1[0], u2[0]])


def velocity_modified(
    f: GridFunction1D,
    eps: float,
    point: MixCoords,
    trunc_radius: float | None = None,
) -> np.ndarray:
    """Modified velocity u_c (velocity minus a tangential correction).

    In graph form the correction cancels the horizontal component, so
    ``u_c = (0, u_c2)`` with ``u_c.dz_perp = u.dz_perp`` exactly.
    """
    if abs(point.lam) > eps:
        raise ValueError("|lam| must not exceed the strip half-width")
    site = _SiteVelocity(_Snapshot(f, eps, trunc_radius), _site_index(f, point.s))
    _, _, uc2 = site.velocities(point.lam)
    return np.array([0.0, uc2[0]])


def _default_dtz(f: GridFunction1D, width: float, trunc_radius: float | None) -> np.ndarray:
    """Instantaneous interface velocity: the evolution right-hand side."""
    r = trunc_radius if trunc_radius is not None else f.length / 2.0 - f.h
    g = spectral_derivative(f.values, f.length)
    return -kernel_quadrature(f.values, g, f.length, width, r)


def gamma_sharp(
    f: GridFunction1D,
    eps: float,
    c: float,
    point: MixCoords,
    dtz: float | None = None,
    trunc_radius: float | None = None,
) -> float:
    """Normal defect gamma at one strip point.

    ``dtz`` is the vertical interface speed at s; by default it is the
    instantaneous evolution right-hand side there.  Points with
    ``|lam| >= eps`` are rejected; the admissible range is clamped a
    relative 1e-6 inside the strip.
    """
    if abs(point.lam) >= eps:
        raise ValueError("gamma is defined in the open strip |lam| < eps")
    j = _site_index(f, point.s)
    if dtz is None:
        dtz = float(_default_dtz(f, eps, trunc_radius)[j])
    return _SiteVelocity(_Snapshot(f, eps, trunc_radius), j).gamma(point.lam, c, dtz)


def build_fields(
    f: GridFunction1D,
    eps: float,
    c: float,
    lattice,
    trunc_radius: float | None = None,
) -> list[SubsolutionSample]:
    """Assemble (rho, u, m, gamma) samples over an (s, lam) lattice.

    ``rho = lam/eps``, u is the strip-averaged velocity and
    ``m = rho u - (gamma + 1/2)(1 - rho^2) e2``; at ``lam = +-eps`` the
    density is exactly +-1 and m collapses to ``rho u``.
    """
    dtz_all = _default_dtz(f, eps, trunc_radius)
    snap = _Snapshot(f, eps, trunc_radius)
    sites: dict[int, _SiteVelocity] = {}
    samples = []
    for point in lattice:
        j = _site_index(f, point.s)
        if j not in sites:
            sites[j] = _SiteVelocity(snap, j)
        samples.extend(sites[j].samples(point.lam, c, float(dtz_all[j]))[0])
    return samples


def hull_check(sample: SubsolutionSample, m_bound: float) -> HullMargin:
    """Signed slacks of the four relaxation inequalities at one sample."""
    if not m_bound > 1.0:
        raise ValueError("the velocity bound M must exceed 1")
    rho, u, m = sample.rho, sample.u, sample.m
    e2 = np.array([0.0, 1.0])
    one = 1.0 - rho * rho
    s1 = 0.5 * one - float(np.linalg.norm(m - rho * u + 0.5 * one * e2))
    s2 = m_bound**2 - one - float(np.sum((2.0 * u + rho * e2) ** 2))
    s3 = 0.5 * m_bound * (1.0 - rho) - float(
        np.linalg.norm(m - u - 0.5 * (1.0 - rho) * e2)
    )
    s4 = 0.5 * m_bound * (1.0 + rho) - float(
        np.linalg.norm(m + u + 0.5 * (1.0 + rho) * e2)
    )
    return HullMargin(slack1=s1, slack2=s2, slack3=s3, slack4=s4, m_bound=m_bound)


def choose_M(u_samples) -> float:
    """Velocity bound ``8 (max|u| + 1)`` with a small safety margin."""
    u = np.asarray(u_samples, dtype=float)
    if u.size == 0:
        raise ValueError("u_samples must be nonempty")
    speeds = np.linalg.norm(u.reshape(-1, 2), axis=1) if u.ndim > 1 else np.abs(u)
    return 8.0 * (float(speeds.max()) + 1.0) * (1.0 + 1e-6)


def zero_mean_residual(
    f: GridFunction1D,
    eps: float,
    s: float,
    dtz: float | None = None,
    trunc_radius: float | None = None,
) -> float:
    """Residual of ``int (u_c - dtz).dz_perp dlam = 0`` at one site."""
    j = _site_index(f, s)
    if dtz is None:
        dtz = float(_default_dtz(f, eps, trunc_radius)[j])
    return _SiteVelocity(_Snapshot(f, eps, trunc_radius), j).samples(0.0, 1.0, dtz)[1]


def _lambda_fractions(n_lambda: int) -> np.ndarray:
    fr = np.linspace(-1.0, 1.0, n_lambda)
    return fr * (1.0 - EDGE_CLAMP)


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
        if s_indices is None:
            idxs = list(range(0, f.n, max(1, f.n // 32)))
        else:
            idxs = list(s_indices)
        dtz_all = _default_dtz(f, width, trunc_radius)
        lams = _lambda_fractions(n_lambda) * width
        snap = _Snapshot(f, width, trunc_radius)
        samples, resids = [], []
        for j in idxs:
            site = _SiteVelocity(snap, j)
            chunk, resid = site.samples(lams, state.c, float(dtz_all[j]))
            samples.extend(chunk)
            resids.append(abs(resid))
        m_bound = choose_M(np.array([s.u for s in samples]))
        slacks = [hull_check(s, m_bound).min_slack for s in samples]
        max_gamma = max(abs(s.gamma) for s in samples)
        min_slack = float(min(slacks))
        ok = max_gamma < 0.5 and min_slack >= -SLACK_VIOLATION_BAND
        rows.append(
            {
                "t": state.t,
                "max_gamma": float(max_gamma),
                "min_slack": min_slack,
                "m_bound": float(m_bound),
                "zero_mean_residual": float(max(resids)),
                "ok": bool(ok),
                "s_sites": [float(f.x[j]) for j in idxs],
            }
        )
    return rows
