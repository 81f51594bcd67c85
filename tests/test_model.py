import dataclasses

import numpy as np
import pytest

from strand_reduce import model, so3
from strand_reduce import reduction as red
from strand_reduce.errors import NotAntisymmetricError
from tests.conftest import (potential_off, random_stage1_point, small_grid,
                            smooth_stage1_section)

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def identity_params(kappa=0.0, c0=1.0, C=None, D=None):
    return model.ModelParams(
        inertia_body=np.eye(3), inertia_rotor=np.eye(3),
        pot_C=np.eye(3) if C is None else C,
        pot_D=np.eye(3) if D is None else D,
        pot_kappa=kappa, pot_c0=c0)


class TestModelParams:
    def test_rejects_asymmetric(self):
        bad = np.eye(3) + 1e-6 * so3.hat(E3)
        with pytest.raises(ValueError):
            model.ModelParams(bad, np.eye(3), np.eye(3), np.eye(3), 1.0, 1.0)

    def test_rejects_indefinite_inertia(self):
        with pytest.raises(ValueError):
            model.ModelParams(np.diag([1.0, 1.0, -0.1]), np.eye(3),
                              np.eye(3), np.eye(3), 1.0, 1.0)

    def test_zero_potential_matrices_allowed(self):
        p = potential_off(model.default_params())
        assert model.potential_E(E1, E3, 2.0, p) == 0.0

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            model.ModelParams(np.eye(3), np.eye(3), np.eye(3), np.eye(3), -1.0, 1.0)


class TestPotential:
    def test_minimum(self):
        p = identity_params(kappa=2.0)
        assert model.potential_E(np.zeros(3), np.zeros(3), p.pot_c0, p) == 0.0

    def test_quadratic_terms(self):
        p = identity_params(kappa=0.0)
        # 1/2 |Omega|^2 + 1/2 |a|^2 = 0.5 + 2.0
        assert model.potential_E(E1, 2.0 * np.array([0, 1, 0]), 1.0, p) \
            == pytest.approx(2.5, abs=1e-15)

    def test_kappa_term(self):
        p = identity_params(kappa=4.0, c0=1.0, C=np.zeros((3, 3)), D=np.zeros((3, 3)))
        assert model.potential_E(np.zeros(3), np.zeros(3), 2.0, p) \
            == pytest.approx(1.0, abs=1e-15)

    def test_dE_zero_point(self):
        p = identity_params(kappa=1.5)
        dW, da, dc = model.dE(np.zeros(3), np.zeros(3), p.pot_c0, p)
        assert np.array_equal(dW, np.zeros(3))
        assert np.array_equal(da, np.zeros(3))
        assert dc == 0.0

    def test_dE_diagonal(self):
        p = identity_params(C=np.diag([1.0, 2.0, 3.0]))
        dW, _, _ = model.dE(np.ones(3), np.zeros(3), 1.0, p)
        assert np.allclose(dW, [1.0, 2.0, 3.0])

    def test_dE_matches_fd(self, rng, params):
        step = 1e-6
        for _ in range(20):
            W, a = rng.normal(size=(2, 3))
            c = float(rng.uniform(0.2, 3.0))
            dW, da, dc = model.dE(W, a, c, params)
            for i in range(3):
                e = np.zeros(3); e[i] = step
                fd = (model.potential_E(W + e, a, c, params)
                      - model.potential_E(W - e, a, c, params)) / (2 * step)
                assert fd == pytest.approx(dW[i], rel=1e-7, abs=1e-9)
                fd = (model.potential_E(W, a + e, c, params)
                      - model.potential_E(W, a - e, c, params)) / (2 * step)
                assert fd == pytest.approx(da[i], rel=1e-7, abs=1e-9)
            fd = (model.potential_E(W, a, c + step, params)
                  - model.potential_E(W, a, c - step, params)) / (2 * step)
            assert fd == pytest.approx(dc, rel=1e-7, abs=1e-9)


class TestLagrangians:
    def test_stage1_rest_state(self, params):
        pt = model.Stage1Point(*(np.zeros(3) for _ in range(6)))
        pt.rho = np.array([np.sqrt(params.pot_c0), 0.0, 0.0])
        assert model.lagrangian_stage1(pt, params) == pytest.approx(0.0, abs=1e-15)

    def test_unreduced_pure_translation(self):
        p = potential_off(identity_params())
        pt = model.UnreducedPoint(
            r=np.zeros(3), r_t=E1,
            Lambda=np.eye(3), Lambda_s=np.zeros((3, 3)), Lambda_t=np.zeros((3, 3)),
            theta_s=np.zeros(3), theta_t=np.zeros(3))
        assert model.lagrangian_unreduced(pt, p) == pytest.approx(0.5, abs=1e-15)

    def test_stage1_spec_value(self):
        p = potential_off(identity_params())
        pt = model.Stage1Point(rho=E1, rho_t=np.zeros(3), theta_s=np.zeros(3),
                               theta_t=np.zeros(3), Omega=np.zeros(3), omega=E3)
        # 0.5 |e3 x e1|^2 + 0.5 + 0.5
        assert model.lagrangian_stage1(pt, p) == pytest.approx(1.5, abs=1e-15)

    def test_unreduced_tangency_enforced(self, params):
        pt = model.UnreducedPoint(
            r=E1, r_t=np.zeros(3),
            Lambda=np.eye(3), Lambda_s=np.eye(3), Lambda_t=np.zeros((3, 3)),
            theta_s=np.zeros(3), theta_t=np.zeros(3))
        with pytest.raises(NotAntisymmetricError):
            model.lagrangian_unreduced(pt, params)

    def test_projection_identity(self, rng, params):
        for _ in range(100):
            pt = random_stage1_point(rng)
            Lam = so3.random_rotation(rng)
            lifted = model.lift_stage1(pt, Lam)
            l1 = model.lagrangian_stage1(pt, params)
            L = model.lagrangian_unreduced(lifted, params)
            assert abs(l1 - L) <= 1e-12 * (1.0 + abs(L))

    def test_invariance(self, rng, params):
        for _ in range(100):
            pt = random_stage1_point(rng)
            lifted = model.lift_stage1(pt, so3.random_rotation(rng))
            G = so3.random_rotation(rng)
            moved = dataclasses.replace(
                lifted, r=G @ lifted.r, r_t=G @ lifted.r_t,
                Lambda=G @ lifted.Lambda, Lambda_s=G @ lifted.Lambda_s,
                Lambda_t=G @ lifted.Lambda_t)
            L0 = model.lagrangian_unreduced(lifted, params)
            L1 = model.lagrangian_unreduced(moved, params)
            assert abs(L0 - L1) <= 1e-12 * (1.0 + abs(L0))

    def test_kinetic_positivity(self, rng):
        p = potential_off(identity_params())
        for _ in range(200):
            pt = random_stage1_point(rng, scale=2.0)
            assert model.lagrangian_stage1(pt, p) >= 0.0


class TestFiberDerivatives:
    def test_all_zero_at_rest(self, params):
        pt = model.Stage1Point(np.array([np.sqrt(params.pot_c0), 0, 0]),
                               *(np.zeros(3) for _ in range(5)))
        d = model.fiber_derivatives_stage1(pt, params)
        for name in ("dl_drho", "dl_drho_t", "dl_dtheta_s", "dl_dtheta_t",
                     "dl_dOmega", "dl_domega"):
            assert np.allclose(getattr(d, name), 0.0, atol=1e-15)

    def test_spec_omega_value(self):
        p = potential_off(identity_params())
        pt = model.Stage1Point(rho=E1, rho_t=np.zeros(3), theta_s=np.zeros(3),
                               theta_t=np.zeros(3), Omega=np.zeros(3), omega=E3)
        d = model.fiber_derivatives_stage1(pt, p)
        assert np.allclose(d.dl_domega, 3.0 * E3, atol=1e-15)

    def test_matches_fd_on_random_points(self, rng, params):
        for _ in range(100):
            pt = random_stage1_point(rng)
            d = model.fiber_derivatives_stage1(pt, params)
            for slot, name in zip(model.SLOTS,
                                  ("dl_drho", "dl_drho_t", "dl_dtheta_s",
                                   "dl_dtheta_t", "dl_dOmega", "dl_domega")):
                fd = model.fd_fiber_derivative(model.lagrangian_stage1, pt,
                                               slot, 1e-6, params)
                want = getattr(d, name)
                assert np.linalg.norm(fd - want) <= 1e-7 * (1 + np.linalg.norm(want))

    def test_batched_bundle_matches_pointwise(self, params):
        # a whole (n_t, n_s, 3) derivative bundle goes through the same
        # formulas as a single point
        gr = small_grid(n_t=6, n_s=8)
        f = red.project_stage2(smooth_stage1_section(gr))
        lag = model.lagrangian_stage1(f, params)
        der = model.fiber_derivatives_stage1(f, params)
        assert lag.shape == (gr.n_t, gr.n_s)
        names = ("dl_drho", "dl_drho_t", "dl_dtheta_s", "dl_dtheta_t",
                 "dl_dOmega", "dl_domega")
        for i in range(gr.n_t):
            for j in range(gr.n_s):
                pt = model.Stage1Point(*(getattr(f, slot)[i, j]
                                         for slot in model.SLOTS))
                np.testing.assert_allclose(
                    lag[i, j], model.lagrangian_stage1(pt, params),
                    rtol=1e-14, atol=0)
                d = model.fiber_derivatives_stage1(pt, params)
                for name in names:
                    np.testing.assert_allclose(
                        getattr(der, name)[i, j], getattr(d, name),
                        rtol=1e-14, atol=0)


class TestFdOracle:
    def test_quadratic_exact(self, rng):
        M = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
        v = rng.normal(size=3)
        pt = model.Stage1Point(*(np.zeros(3) for _ in range(6)))
        pt.omega = v

        def q(point, _p):
            return 0.5 * point.omega @ (M @ point.omega)

        fd = model.fd_fiber_derivative(q, pt, "omega", 1e-5, None)
        assert np.allclose(fd, M @ v, atol=1e-10)

    def test_zero_point(self, params):
        pt = model.Stage1Point(*(np.zeros(3) for _ in range(6)))
        fd = model.fd_fiber_derivative(model.lagrangian_stage1, pt, "omega",
                                       1e-6, params)
        assert np.allclose(fd, 0.0, atol=1e-10)

    def test_step_domain(self, params):
        pt = model.Stage1Point(*(np.zeros(3) for _ in range(6)))
        with pytest.raises(ValueError):
            model.fd_fiber_derivative(model.lagrangian_stage1, pt, "omega",
                                      1e-2, params)
