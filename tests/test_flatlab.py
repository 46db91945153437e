import numpy as np
import pytest
from _table import run_check

from mixzone import flatlab, subsolution
from mixzone.flatlab import FlatConfig
from mixzone.grid import GridFunction1D


def test_config_validation():
    with pytest.raises(ValueError):
        FlatConfig(mu1=-1.0, mu2=0.0, sigma_sign=-1, c=1.0)
    with pytest.raises(ValueError):
        FlatConfig(mu1=0.0, mu2=0.0, sigma_sign=-1, c=1.0)
    with pytest.raises(ValueError):
        FlatConfig(mu1=1.0, mu2=0.0, sigma_sign=0, c=1.0)
    with pytest.raises(ValueError):
        FlatConfig(mu1=1.0, mu2=0.0, sigma_sign=-1, c=0.0)


def test_gamma_closed_form_values():
    assert flatlab.flat_gamma(FlatConfig(1.0, 0.0, -1, 1.0)) == pytest.approx(0.0, abs=1e-15)
    assert flatlab.flat_gamma(FlatConfig(0.0, 1.0, 1, 0.5)) == pytest.approx(0.25)
    assert flatlab.flat_gamma(
        FlatConfig(1.0, 1.0, -1, 1.0 / np.sqrt(2.0))
    ) == pytest.approx(0.0, abs=1e-15)


def test_admissible_intervals():
    run_check("admissible_intervals")


def test_fields_center_and_boundary():
    cfg = FlatConfig(1.0, 1.0, -1, 1.0)
    eps = 0.3
    rho, u, m, _ = flatlab.flat_fields(cfg, [0.0, eps, -eps], eps)
    assert rho[0] == 0.0
    assert np.allclose(u[0], 0.0)
    assert np.array_equal(np.abs(rho[1:]), [1.0, 1.0])
    assert np.max(np.linalg.norm(m[1:] - rho[1:, None] * u[1:], axis=1)) <= 1e-15


def test_fields_divergence_structure():
    # u is tangential and rho varies along the normal: div u and u.grad rho
    # vanish identically, and the curl equals -d(rho)/dx1
    cfg = FlatConfig(1.0, 0.7, -1, 0.8)
    t_vec, n_vec = cfg.tangent, cfg.normal
    assert abs(t_vec @ n_vec) <= 1e-15
    eps, tval = 0.4, 0.5
    d = 1e-6

    def u_at(x):
        _, lam = flatlab.from_physical(cfg, x)
        return flatlab.flat_fields(cfg, lam, eps)[1][0]

    def rho_at(x):
        _, lam = flatlab.from_physical(cfg, x)
        return -cfg.sigma_sign * lam / eps

    x0 = flatlab.to_physical(cfg, 0.3, 0.1 * eps)
    e1, e2 = np.array([d, 0.0]), np.array([0.0, d])
    div = (u_at(x0 + e1)[0] - u_at(x0 - e1)[0]) / (2 * d) + (
        u_at(x0 + e2)[1] - u_at(x0 - e2)[1]
    ) / (2 * d)
    curl = (u_at(x0 + e1)[1] - u_at(x0 - e1)[1]) / (2 * d) - (
        u_at(x0 + e2)[0] - u_at(x0 - e2)[0]
    ) / (2 * d)
    drho_dx1 = (rho_at(x0 + e1) - rho_at(x0 - e1)) / (2 * d)
    grad_rho = np.array(
        [drho_dx1, (rho_at(x0 + e2) - rho_at(x0 - e2)) / (2 * d)]
    )
    assert abs(div) <= 1e-9
    assert curl == pytest.approx(-drho_dx1, abs=1e-9)
    assert abs(u_at(x0) @ grad_rho) <= 1e-9


def test_transport_identity_random_points():
    run_check("transport_identity")


def test_fields_reject_outside_strip():
    cfg = FlatConfig(1.0, 0.0, -1, 1.0)
    with pytest.raises(ValueError):
        flatlab.flat_fields(cfg, [0.4], 0.3)


def test_coordinate_shim_roundtrip():
    cfg = FlatConfig(1.0, 2.0, -1, 1.0)
    s, lam = 1.7, -0.2
    x = flatlab.to_physical(cfg, s, lam)
    s2, lam2 = flatlab.from_physical(cfg, x)
    assert (s2, lam2) == pytest.approx((s, lam))
    # horizontal tangent: normal offset equals vertical offset
    flatcfg = FlatConfig(1.0, 0.0, -1, 1.0)
    assert np.allclose(flatlab.to_physical(flatcfg, 0.5, 0.1), [0.5, 0.1])


def test_hull_slacks_match_analytic_closed_forms():
    # the straight-interface state makes every slack explicit:
    #   slack1 = (1 - rho^2)(1/2 - |gamma|)
    #   slack2 = M^2 - 1                       (|2u + rho e2|^2 collapses to rho^2)
    #   slack3 = (1 - rho)(M/2 - |rho w + gamma(1+rho) n + (rho+2)/2 e2|)
    #   slack4 = (1 + rho)(M/2 - |rho w - gamma(1-rho) n + rho/2 e2|)
    # with w the tangential unit velocity, u = rho w
    cfg = FlatConfig(1.0, 1.3, -1, 0.8)
    eps, m_bound = 0.4, 9.0
    sin_a = cfg.mu2 / np.hypot(cfg.mu1, cfg.mu2)
    w = -sin_a * cfg.tangent
    n = cfg.normal
    e2 = np.array([0.0, 1.0])
    lams = (-0.9 * eps, -0.3 * eps, 0.0, 0.55 * eps)
    rhos, u, m, gammas = flatlab.flat_fields(cfg, lams, eps)
    slacks = subsolution.hull_slacks(rhos, u, m, m_bound)
    for rho, gamma, got in zip(rhos, gammas, slacks):
        s1 = (1 - rho**2) * (0.5 - abs(gamma))
        s2 = m_bound**2 - 1.0
        s3 = (1 - rho) * (
            0.5 * m_bound
            - np.linalg.norm(rho * w + gamma * (1 + rho) * n + 0.5 * (rho + 2) * e2)
        )
        s4 = (1 + rho) * (
            0.5 * m_bound
            - np.linalg.norm(rho * w - gamma * (1 - rho) * n + 0.5 * rho * e2)
        )
        assert got == pytest.approx([s1, s2, s3, s4], abs=1e-12)


def test_flat_fields_agree_with_curved_pipeline_flat_data():
    # horizontal unstable straight interface == zero-height curved pipeline
    c = 0.7
    cfg = FlatConfig(1.0, 0.0, -1, c)
    f = GridFunction1D.zeros(128, 40.0)
    eps = 0.05
    # the site at x = 0, with the PV window over the whole period
    curved = subsolution.site_samples(f, eps, c, [64], [0.2 * eps], f.length / 2 - f.h)
    _, u, m, gamma = flatlab.flat_fields(cfg, 0.2 * eps, eps)
    assert gamma[0] == pytest.approx(curved.gamma[0], abs=1e-12)
    assert gamma[0] == pytest.approx(-flatlab.flat_gamma(cfg), abs=1e-15)
    assert np.allclose(curved.m[0], m[0], atol=1e-12)
    assert np.allclose(curved.u[0], u[0], atol=1e-12)


def test_hull_sweep_horizontal_unstable():
    run_check("horizontal_unstable_sweep")
