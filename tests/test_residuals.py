import numpy as np
import pytest

from strand_reduce import checks
from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
from strand_reduce import so3
from strand_reduce.checks import flat_pair
from tests.conftest import mollifier, small_grid, smooth_stage1_section


def static_section(gr, params):
    rho = np.zeros((gr.n_t, gr.n_s, 3))
    rho[..., 0] = np.sqrt(params.pot_c0)
    z = np.zeros_like(rho)
    return red.Stage1Section(grid=gr, rho=rho, theta=z.copy(), Omega=z.copy(),
                             omega=z.copy())


def bump_variation(gr, scale=1.0):
    """Mollifier-windowed variation, compactly supported inside the domain."""
    t = gr.t_coords()
    s = gr.s_coords()
    T, L = gr.duration, gr.length_s
    wt = mollifier(t, 0.15 * T, 0.85 * T)[:, None]
    ws = mollifier(s, 0.15 * L, 0.85 * L)[None, :] if not gr.periodic_s \
        else (1.2 + np.sin(2 * np.pi * s / L))[None, :]
    w = wt * ws
    phase = 2 * np.pi * s[None, :] / L
    d_rho = scale * w[..., None] * np.stack(
        [np.cos(phase), 0.4 * np.sin(phase), 0.7 * np.ones_like(phase)], axis=-1)
    eta = scale * w[..., None] * np.stack(
        [0.5 * np.sin(phase), np.ones_like(phase), 0.3 * np.cos(phase)], axis=-1)
    d_theta = scale * w[..., None] * np.stack(
        [0.8 * np.ones_like(phase), 0.2 * np.cos(phase), np.sin(phase)], axis=-1)
    return rs.VariationSpec(delta_rho=d_rho, eta=eta, delta_theta=d_theta)


class TestStage1Residuals:
    def test_static_equilibrium_is_exact(self, params):
        gr = small_grid()
        res = rs.stage1_residuals(static_section(gr, params), params)
        assert g.norm_max(res.vertical) == 0.0
        assert g.norm_max(res.horizontal_rho) == 0.0
        assert g.norm_max(res.horizontal_theta) == 0.0

    def test_boundary_nodes_flagged(self):
        gr = small_grid(bc=g.CLAMPED)
        mask = gr.interior_mask(2)
        assert not mask[0, 0] and not mask[1, 1]
        assert mask[gr.n_t // 2, gr.n_s // 2]

    def test_rigid_body_balance_when_s_independent(self, params_free):
        # s-independent fields reduce the vertical residual to the
        # free rigid-body-with-rotors balance evaluated nodewise.
        res, want = rigid_body_case(small_grid(), np.zeros(3), params_free)
        assert np.allclose(res.vertical, want, atol=1e-13)

    def test_rigid_body_balance_with_constant_Omega(self, params):
        # with C != 0 a constant Omega adds the torque -Omega x (C Omega)
        # of the potential, the one term the free case cannot see
        Omega = np.array([0.4, -0.3, 0.5])
        res, want = rigid_body_case(small_grid(), Omega, params)
        torque = np.cross(Omega, params.pot_C @ Omega)
        assert np.linalg.norm(torque) > 0.05
        assert np.allclose(res.vertical, want, atol=1e-13)


def rigid_body_case(gr, Omega, p):
    """The stage-1 vertical residual of an s-independent section with the
    constant ``Omega``, and its oracle: the vertical balance law of the
    README (the rigid body with rotors, plus the potential's torque
    ``- Omega x (C Omega)``; d_s terms vanish), on the section's jet."""
    t = gr.t_coords()[:, None, None]
    rho = np.broadcast_to([0.6, 0.0, 0.8], (gr.n_t, gr.n_s, 3)) * np.ones_like(t)
    omega = np.stack([0.3 * np.cos(t[..., 0]), 0.2 * np.sin(t[..., 0]),
                      0.1 + 0.0 * t[..., 0]], axis=-1)
    theta = np.stack([0.1 * t[..., 0] ** 2, -0.2 * t[..., 0],
                      0.05 * np.sin(t[..., 0])], axis=-1)
    sec = red.Stage1Section(grid=gr, rho=rho.copy(), theta=theta,
                            Omega=np.broadcast_to(Omega, rho.shape).copy(),
                            omega=omega)
    f = red.project_stage2(sec)
    I, K = p.inertia_body, p.inertia_rotor
    want = (np.cross(f.rho, f.rho_tt + 2 * np.cross(f.omega, f.rho_t)
                     + np.cross(f.omega_t, f.rho)
                     + np.sum(f.omega * f.rho, axis=-1)[..., None] * f.omega)
            + np.einsum("ij,tsj->tsi", I + K, f.omega_t)
            + np.einsum("ij,tsj->tsi", K, f.theta_tt)
            + np.cross(f.omega, np.einsum("ij,tsj->tsi", I + K, f.omega)
                       + np.einsum("ij,tsj->tsi", K, f.theta_t))
            - np.cross(f.Omega, np.einsum("ij,tsj->tsi", p.pot_C, f.Omega)))
    return rs.stage1_residuals(sec, p), want


class TestStageEquivalence:
    def test_matched_fields_bitwise(self, params):
        gr = small_grid(n_t=32, n_s=32)
        s1 = smooth_stage1_section(gr)
        s2 = red.project_stage2(s1)
        r1 = rs.stage1_residuals(s1, params)
        r2 = rs.stage2_residuals(s2, params)
        assert np.array_equal(r1.vertical, r2.vertical)
        assert np.array_equal(r1.horizontal_rho, r2.horizontal_rho)
        assert np.array_equal(r1.horizontal_theta, r2.horizontal_theta)

    def test_zero_fields(self, params):
        gr = small_grid(n_t=8, n_s=8)
        sec = static_section(gr, params)
        s2 = red.project_stage2(sec)
        r2 = rs.stage2_residuals(s2, params)
        assert g.norm_max(r2.vertical) == 0.0

    def test_check_stages_fails_with_the_rotor_law_flipped(self, monkeypatch):
        # criterion 3 states the stage-2 rotor law from the Lagrangian's fiber
        # derivatives, so a wrong balance law in the march's kernel shows
        rhs = model._rhs_packed

        def flipped(y, *args):
            out = rhs(y, *args)
            out[4] = -out[4]
            return out

        assert all(r.passed for r in checks.check_stages())
        monkeypatch.setattr(model, "_rhs_packed", flipped)
        results = checks.check_stages()
        assert not any(r.passed for r in results) and results[0].value > 1e-3


class TestDiscreteAction:
    def test_zero_section(self, params):
        gr = small_grid(n_t=8, n_s=8)
        assert rs.discrete_action(static_section(gr, params), params) == 0.0

    def test_stage1_matches_pointwise_lift_sum(self, params):
        gr = small_grid(n_t=10, n_s=12)
        s1 = smooth_stage1_section(gr)
        f = red.project_stage2(s1)
        total = 0.0
        rng = np.random.default_rng(7)
        for i in range(gr.n_t):
            for j in range(gr.n_s):
                pt = model.Stage1Point(rho=f.rho[i, j], rho_t=f.rho_t[i, j],
                                       theta_s=f.theta_s[i, j],
                                       theta_t=f.theta_t[i, j],
                                       Omega=f.Omega[i, j], omega=f.omega[i, j])
                Lam = so3.random_rotation(rng)
                total += model.lagrangian_unreduced(model.lift_stage1(pt, Lam),
                                                    params)
        want = total * gr.ds * gr.dt
        have = rs.discrete_action(s1, params)
        assert abs(have - want) <= 1e-12 * (1 + abs(want))

    def test_kinetic_homogeneity(self, params_free):
        # doubling the velocity slots (rho_t, theta_t, omega) at fixed shape
        # quadruples the kinetic density, hence the action when E == 0
        import dataclasses
        gr = small_grid()
        s1 = smooth_stage1_section(gr)
        f = red.project_stage2(s1)
        doubled = dataclasses.replace(f, rho_t=2.0 * f.rho_t,
                                      theta_t=2.0 * f.theta_t,
                                      omega=2.0 * f.omega)
        a0 = np.sum(model.lagrangian_stage1(f, params_free)) * gr.ds * gr.dt
        a1 = np.sum(model.lagrangian_stage1(doubled, params_free)) * gr.ds * gr.dt
        assert a1 == pytest.approx(4.0 * a0, rel=1e-12)


class TestActionGradient:
    def test_zero_variation(self, params):
        gr = small_grid()
        s1 = smooth_stage1_section(gr)
        z = np.zeros((gr.n_t, gr.n_s, 3))
        fd, pairing = rs.action_gradient_check(
            s1, rs.VariationSpec(z, z.copy(), z.copy()), params)
        assert fd == 0.0 and pairing == 0.0

    def test_rejects_boundary_support(self, params):
        gr = small_grid(bc=g.CLAMPED)
        s1 = smooth_stage1_section(gr)
        bad = np.ones((gr.n_t, gr.n_s, 3))
        z = np.zeros_like(bad)
        with pytest.raises(ValueError):
            rs.action_gradient_check(s1, rs.VariationSpec(bad, z, z), params)

    def test_fd_matches_pairing_second_order(self, params):
        gaps = []
        for n in (16, 32, 64):
            gr = small_grid(n_t=n, n_s=n)
            s1 = smooth_stage1_section(gr)
            var = bump_variation(gr)
            fd, pairing = rs.action_gradient_check(s1, var, params)
            gaps.append(abs(fd - pairing) / var.norm(gr))
        assert 2.5 < gaps[0] / gaps[1] < 6.0
        assert 2.5 < gaps[1] / gaps[2] < 6.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_compact_variations(self, seed, params):
        # both sides are linear in the variation; random directions probe
        # the full space, not just the hand-picked profile
        gr = small_grid(n_t=32, n_s=32)
        s1 = smooth_stage1_section(gr)
        rng = np.random.default_rng(seed)
        window = bump_variation(gr, scale=1.0)
        var = rs.VariationSpec(
            delta_rho=window.delta_rho * rng.normal(size=3),
            eta=window.eta * rng.normal(size=3),
            delta_theta=window.delta_theta * rng.normal(size=3))
        fd, pairing = rs.action_gradient_check(s1, var, params)
        h2 = gr.ds ** 2 + gr.dt ** 2
        assert abs(fd - pairing) <= 5.0 * h2 * var.norm(gr)

    def test_clamped_boundary_policy_too(self, params):
        gaps = []
        for n in (17, 33):
            gr = small_grid(n_t=n, n_s=n, bc=g.CLAMPED)
            s1 = smooth_stage1_section(gr)
            var = bump_variation(gr)
            fd, pairing = rs.action_gradient_check(s1, var, params)
            gaps.append(abs(fd - pairing) / var.norm(gr))
        assert gaps[1] <= gaps[0] / 2.5


def lifted_pair(gr):
    """Unreduced section and its exact-rate stage-1 projection."""
    Lam, Omega, omega, _ = flat_pair(gr)
    s1 = smooth_stage1_section(gr)
    r = np.einsum("tsij,tsj->tsi", Lam, s1.rho)
    u = red.UnreducedSection(grid=gr, r=r, Lambda=Lam, theta=s1.theta)
    return u, red.project_stage1(u)


class TestUnreducedResidual:
    def test_static_equilibrium(self, params):
        gr = small_grid()
        r = np.zeros((gr.n_t, gr.n_s, 3))
        r[..., 0] = np.sqrt(params.pot_c0)
        u = red.UnreducedSection(
            grid=gr, r=r,
            Lambda=np.broadcast_to(np.eye(3), (gr.n_t, gr.n_s, 3, 3)).copy(),
            theta=np.zeros((gr.n_t, gr.n_s, 3)))
        res = rs.el_unreduced_residual(u, params)
        assert g.norm_max(res.res_r) <= 1e-12
        assert g.norm_max(res.res_Lambda) <= 1e-12
        assert g.norm_max(res.res_theta) <= 1e-12

    def test_matches_stage1_combination(self, params):
        errs = []
        for n in (24, 48):
            gr = small_grid(n_t=n, n_s=n)
            u, s1 = lifted_pair(gr)
            unred = rs.el_unreduced_residual(u, params)
            res = rs.stage1_residuals(s1, params)
            Lam = u.Lambda
            mask = gr.interior_mask(3)
            want_r = -np.einsum("tsij,tsj->tsi", Lam, res.horizontal_rho)
            combo = res.vertical + np.cross(s1.rho, res.horizontal_rho)
            want_L = np.einsum("tsij,tsj->tsi", Lam, combo)
            errs.append(max(
                g.norm_max(unred.res_r - want_r, mask),
                g.norm_max(unred.res_Lambda - want_L, mask),
                g.norm_max(unred.res_theta - res.horizontal_theta, mask)))
        assert errs[1] <= errs[0] / 2.5

    def test_exact_adjoint_of_discrete_action(self, params):
        # the residual record is the exact gradient of the discrete action:
        # agreement with a central FD in epsilon is limited only by the
        # epsilon truncation, independent of the grid resolution
        gr = small_grid(n_t=9, n_s=11)
        u, _ = lifted_pair(gr)
        var = bump_variation(gr, scale=0.7)
        res = rs.el_unreduced_residual(u, params)
        pairing = -float(np.sum(
            np.sum(res.res_r * var.delta_rho, axis=-1)
            + np.sum(np.einsum("tsji,tsj->tsi", u.Lambda, res.res_Lambda)
                     * var.eta, axis=-1)
            + np.sum(res.res_theta * var.delta_theta, axis=-1)))

        def action(eps):
            moved = red.UnreducedSection(
                grid=gr, r=u.r + eps * var.delta_rho,
                Lambda=u.Lambda @ so3.exp_so3(eps * var.eta),
                theta=u.theta + eps * var.delta_theta)
            return rs.discrete_action(moved, params) / (gr.ds * gr.dt)

        eps = 1e-6
        fd = (action(eps) - action(-eps)) / (2 * eps)
        assert fd == pytest.approx(pairing, rel=1e-7, abs=1e-8)

    def test_equivariance(self, rng, params):
        gr = small_grid(n_t=10, n_s=12)
        u, _ = lifted_pair(gr)
        G = so3.random_rotation(rng)
        alpha = rng.normal(size=3)
        moved = red.UnreducedSection(
            grid=gr,
            r=np.einsum("ij,tsj->tsi", G, u.r),
            Lambda=np.einsum("ij,tsjk->tsik", G, u.Lambda),
            theta=u.theta + alpha)
        a = rs.el_unreduced_residual(u, params)
        b = rs.el_unreduced_residual(moved, params)
        assert np.allclose(b.res_r, np.einsum("ij,tsj->tsi", G, a.res_r),
                           atol=1e-12)
        assert np.allclose(b.res_Lambda,
                           np.einsum("ij,tsj->tsi", G, a.res_Lambda), atol=1e-12)
        assert np.allclose(b.res_theta, a.res_theta, atol=1e-12)
