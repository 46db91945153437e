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
``arctan2`` per offset and lam.  The velocity is linear in that average,
so integrals in lam (the strip average, the zero-mean residual and
gamma) apply the same weights to its exact lam integral, a folded mixed
second difference (:func:`_lambda_integral`); no lam quadrature is left.
The modified velocity and the full velocity share their moment
integrals, which makes the tangential identity
``u_c . dz_perp = u . dz_perp`` exact by construction.

For a run of the regularized flow the strip half-width handed to these
routines is the kernel half-width ``eps(t) + kappa`` of the evolution
actually computed, so all consistency identities refer to one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import DEFAULT_TRUNC_RADIUS, Trajectory, _quadrature_plan, kernel_quadrature
from .grid import GridFunction1D, spectral_derivative

__all__ = [
    "MixCoords", "SubsolutionSample", "HullMargin", "velocity_field", "velocity_modified",
    "gamma_sharp", "build_fields", "hull_check", "choose_M", "zero_mean_residual",
    "subsolution_report", "SLACK_VIOLATION_BAND",
]

EDGE_CLAMP = 1e-6
SLACK_VIOLATION_BAND = 1e-5


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


def _lambda_integral(x, d, a, b, w: float) -> np.ndarray:
    """``int_a^b inner(x, d + lam) dlam`` in closed form, for a <= b.

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
    x2, s12 = x * x, s1 * s2
    cross, den = x2 - p1 * p2, (x2 + p1 * p1) * (x2 + p2 * p2)
    # 1 + zeta = z0 z12 conj(z1 z2) / den; ratio = |1 + zeta|^2 - 1, folded
    theta = np.arctan2(-s12 * x * (p1 + p2), den + s12 * cross)
    ratio = s12 * (2.0 * cross + s12) / den
    logs = np.log1p(np.maximum(ratio, -0.5))
    small = ratio < -0.5
    if small.any():  # |1 + zeta| < 0.71: build it from its small factor z0 z12
        xs, qs, ps = np.broadcast_to(x, q.shape)[small], q[small], p12[small]
        re, im, cr, ci = xs * xs - qs * ps, xs * (qs + ps), cross[small], -xs * (p1 + p2)[small]
        theta[small] = np.arctan2(re * ci + im * cr, re * cr - im * ci)
        logs[small] = np.log((xs * xs + qs * qs) * (xs * xs + ps * ps) / den[small])
    out = q * theta - 0.5 * x * logs
    out += s1 * np.arctan2(s2 * x, x2 + p1 * p12)
    out += s2 * np.arctan2(s1 * x, x2 + p2 * p12)
    return out / s2


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

    def velocities(self, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u1, u2, u_c2) at the requested transverse offsets."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        return self._assemble(self._inner(self.x, self.d + lams[None, :]))

    def strip_average(self) -> float:
        """Transverse average of u_c2 (the residual against dtz = 0, over 2w)."""
        return self.samples(0.0, 1.0, 0.0)[4] / (2.0 * self.width)

    def samples(self, lams, c: float, dtz: float):
        """``(rho, u, m, gamma)`` at each offset in ``lams``, and the zero-mean residual.

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
        u = np.stack(self.velocities(lams)[:2], axis=1)
        m = rho[:, None] * u
        m[:, 1] -= (gamma + 0.5) * (1.0 - rho * rho)
        return rho, u, m, gamma, float(integrals[-1])

    def gamma(self, lam: float, c: float, dtz: float) -> float:
        """Normal defect gamma at offset lam in the open strip."""
        if abs(lam) >= self.width:
            raise ValueError("gamma is defined in the open strip |lam| < width")
        return float(self.samples(lam, c, dtz)[3][0])


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
        rho, u, m, gamma, _ = sites[j].samples(point.lam, c, float(dtz_all[j]))
        samples.append(SubsolutionSample(float(rho[0]), u[0], m[0], float(gamma[0])))
    return samples


def _hull_slacks(rho, u, m, m_bound: float) -> np.ndarray:
    """Signed slacks of the four relaxation inequalities, one row per sample.

    ``rho`` has shape (n,), ``u`` and ``m`` shape (n, 2); column k is
    slack k + 1, positive where the inequality holds strictly.
    """
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


def hull_check(sample: SubsolutionSample, m_bound: float) -> HullMargin:
    """Signed slacks of the four relaxation inequalities at one sample."""
    if not m_bound > 1.0:
        raise ValueError("the velocity bound M must exceed 1")
    u, m = (np.asarray(v, dtype=float).reshape(1, 2) for v in (sample.u, sample.m))
    slacks = _hull_slacks(np.array([float(sample.rho)]), u, m, m_bound)[0].tolist()
    return HullMargin(*slacks, m_bound=m_bound)


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
    return _SiteVelocity(_Snapshot(f, eps, trunc_radius), j).samples(0.0, 1.0, dtz)[4]


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
        dtz_all = _default_dtz(f, width, trunc_radius)
        lams = _lambda_fractions(n_lambda) * width
        snap = _Snapshot(f, width, trunc_radius)
        sites = [_SiteVelocity(snap, j).samples(lams, state.c, float(dtz_all[j])) for j in idxs]
        rho, u, m, gamma = (np.concatenate([site[k] for site in sites]) for k in range(4))
        m_bound = choose_M(u)
        min_slack = float(_hull_slacks(rho, u, m, m_bound).min())
        max_gamma = float(np.abs(gamma).max())
        ok = max_gamma < 0.5 and min_slack >= -SLACK_VIOLATION_BAND
        rows.append(
            {
                "t": state.t,
                "max_gamma": max_gamma,
                "min_slack": min_slack,
                "m_bound": float(m_bound),
                "zero_mean_residual": max(abs(site[4]) for site in sites),
                "ok": bool(ok),
                "s_sites": [float(f.x[j]) for j in idxs],
            }
        )
    return rows
