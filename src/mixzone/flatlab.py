"""Closed-form mixing states over a straight interface.

For a straight interface with tangent ``t = (mu1, mu2)/|mu|`` (mu1 >= 0)
and strip coordinates ``x(s, lam) = s t + lam n``, ``n = t_perp``, the
relaxed state is fully explicit: a linear density profile across the
strip, a velocity proportional to the density along the tangent, and a
flux whose normal defect is a constant.  These states are the end-to-end
oracle for the hull checker, in both the unstable (heavy fluid above)
and stable orientations: the defect stays below 1/2, and hence the state
sits strictly inside the hull, exactly when the growth rate c lies in an
explicit interval.

Sign convention: ``flat_gamma`` returns the defect in the orientation
``(mu1/|mu| + sign(sigma) c)/2`` (the customary closed form); the flux
assembled by ``flat_fields`` carries the opposite sign, which is the one
the strip transport equation ``d rho/dt + div m = 0`` forces (the hull
inequalities only see |gamma|, so membership is unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subsolution import choose_M, hull_slacks

__all__ = [
    "FlatConfig",
    "flat_gamma",
    "flat_admissible_c",
    "flat_fields",
    "transport_residual",
    "to_physical",
    "from_physical",
    "flat_hull_sweep",
]

# strip offsets sampled per growth rate, and the slack band of a boundary verdict
FLAT_N_LAMBDA = 21
FLAT_BAND = 2e-6


@dataclass(frozen=True)
class FlatConfig:
    """Straight-interface configuration.

    mu1, mu2 set the tangent direction (mu1 >= 0, not both zero);
    sigma_sign = -1 is the unstable orientation, +1 the stable one;
    c > 0 is the strip growth rate.
    """

    mu1: float
    mu2: float
    sigma_sign: int
    c: float

    def __post_init__(self):
        if self.mu1 < 0:
            raise ValueError("mu1 must be nonnegative")
        if self.mu1 == 0 and self.mu2 == 0:
            raise ValueError("direction (mu1, mu2) must be nonzero")
        if self.sigma_sign not in (-1, 1):
            raise ValueError("sigma_sign must be +1 or -1")
        if not self.c > 0:
            raise ValueError("growth rate c must be positive")

    @property
    def tangent(self) -> np.ndarray:
        mu = np.array([self.mu1, self.mu2])
        return mu / np.linalg.norm(mu)

    @property
    def normal(self) -> np.ndarray:
        t = self.tangent
        return np.array([-t[1], t[0]])

    @property
    def cos_incline(self) -> float:
        """mu1 / sqrt(mu1^2 + mu2^2), the horizontal cosine of the tangent."""
        return self.mu1 / float(np.hypot(self.mu1, self.mu2))


def flat_gamma(cfg: FlatConfig) -> float:
    """Constant normal defect ``(mu1/|mu| + sign(sigma) c) / 2``."""
    return 0.5 * (cfg.cos_incline + cfg.sigma_sign * cfg.c)


def flat_admissible_c(mu1: float, mu2: float, sigma_sign: int) -> tuple[float, float] | None:
    """Open interval of growth rates with |gamma| < 1/2; None if empty.

    Unstable: ``(0, 1 + mu1/|mu|)``.  Stable: ``(0, 1 - mu1/|mu|)``,
    which is empty for a horizontal interface.
    """
    probe = FlatConfig(mu1=mu1, mu2=mu2, sigma_sign=sigma_sign, c=1.0)
    upper = 1.0 - sigma_sign * probe.cos_incline
    if upper <= 0.0:
        return None
    return (0.0, upper)


def flat_fields(cfg: FlatConfig, lams, eps: float):
    """Exact relaxed state ``(rho, u, m, gamma)`` at the offsets ``lams``, |lam| <= eps.

    rho runs linearly from -1 to +1 across the strip, u is tangential and
    proportional to rho, and m carries the transport-consistent defect;
    the state does not depend on the tangential coordinate.  ``rho`` and
    ``gamma`` have one entry per offset, ``u`` and ``m`` one (2,)-row.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(np.abs(lams) > eps):
        raise ValueError("|lam| must not exceed eps")
    rho = -cfg.sigma_sign * lams / eps
    t, n = cfg.tangent, cfg.normal
    sin_incline = cfg.mu2 / float(np.hypot(cfg.mu1, cfg.mu2))
    u = (-sin_incline * rho)[:, None] * t
    gamma = -flat_gamma(cfg)
    one = 1.0 - rho * rho
    m = rho[:, None] * u - (gamma * one)[:, None] * n - (0.5 * one)[:, None] * np.array([0.0, 1.0])
    return rho, u, m, np.full(rho.shape, gamma)


def to_physical(cfg: FlatConfig, s: float, lam: float) -> np.ndarray:
    """Map strip coordinates to the plane: ``x = s t + lam n``.

    Conversion shim between the normal-offset coordinates used here and
    the vertical-offset coordinates of the curved-interface pipeline: for
    a horizontal tangent the two coincide (n = e2); for a tilted one the
    vertical offset is ``lam / cos_incline``.
    """
    return s * cfg.tangent + lam * cfg.normal


def from_physical(cfg: FlatConfig, x: np.ndarray) -> tuple[float, float]:
    """Inverse of :func:`to_physical`."""
    x = np.asarray(x, dtype=float)
    return float(x @ cfg.tangent), float(x @ cfg.normal)


def _density(cfg: FlatConfig, x: np.ndarray, t: float) -> float:
    _, lam = from_physical(cfg, x)
    return -cfg.sigma_sign * lam / (cfg.c * t)


def transport_residual(cfg: FlatConfig, x: np.ndarray, t: float) -> float:
    """``d rho/dt + div m`` at a physical point inside the strip.

    Evaluated by the chain rule on the closed form (rho is the only
    space-time dependent quantity), so the residual is exact arithmetic:
    it vanishes identically for the transport-consistent defect.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    eps = cfg.c * t
    rho = _density(cfg, x, t)
    if abs(rho) >= 1.0:
        raise ValueError("point must lie inside the open strip")
    drho_dt = -rho / t
    grad_rho = -cfg.sigma_sign * cfg.normal / eps
    sin_incline = cfg.mu2 / float(np.hypot(cfg.mu1, cfg.mu2))
    gamma = -flat_gamma(cfg)
    # m(rho) = -sin rho^2 t + gamma (rho^2 - 1) n + (rho^2 - 1)/2 e2
    dm_drho = (
        -2.0 * rho * sin_incline * cfg.tangent
        + 2.0 * rho * gamma * cfg.normal
        + rho * np.array([0.0, 1.0])
    )
    return float(drho_dt + dm_drho @ grad_rho)


def flat_hull_sweep(mu1: float, mu2: float, sigma_sign: int, c_values) -> list[dict]:
    """Hull classification of the straight-interface states per growth rate.

    Samples the strip at ``FLAT_N_LAMBDA`` offsets, picks M from the
    sampled speeds and reports pass / boundary / fail per c, where
    `boundary` means the worst slack sits inside ``+-FLAT_BAND``.
    """
    rows = []
    lams = np.linspace(-1.0, 1.0, FLAT_N_LAMBDA)  # the strip at eps = 1
    for c in c_values:
        cfg = FlatConfig(mu1=mu1, mu2=mu2, sigma_sign=sigma_sign, c=float(c))
        rho, u, m, _ = flat_fields(cfg, lams, 1.0)
        m_bound = choose_M(u)
        interior = np.abs(rho) < 1.0
        slacks = hull_slacks(rho[interior], u[interior], m[interior], m_bound)
        min_slack = float(slacks.min())
        if min_slack > FLAT_BAND:
            status = "pass"
        elif min_slack < -FLAT_BAND:
            status = "fail"
        else:
            status = "boundary"
        rows.append({"c": float(c), "min_slack": min_slack, "m_bound": m_bound, "status": status})
    return rows
