import dataclasses

import numpy as np
import pytest

from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import reduction as red
from strand_reduce import simulate as sim
from strand_reduce import so3
from strand_reduce.errors import (BlowupError, ConfigError, UnknownPresetError)


def make_grid(n_s=32, n_t=40, T=0.1, L=1.0, bc=g.PERIODIC):
    ds = L / n_s if bc == g.PERIODIC else L / (n_s - 1)
    return g.Grid2(n_t=n_t, n_s=n_s, dt=T / (n_t - 1), ds=ds, bc_s=bc)


def rk4(y, h, f, steps):
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestPresets:
    def test_static_is_equilibrium(self, params):
        gr = make_grid()
        state = sim.presets("static", gr, params)
        I_inv = np.linalg.inv(params.inertia_body)
        K_inv = np.linalg.inv(params.inertia_rotor)
        rates = sim._rhs_packed(state.pack(), params, gr.ds, True, I_inv, K_inv)
        assert np.max(np.abs(rates)) == 0.0

    def test_twistpulse_shape(self, params):
        gr = make_grid()
        state = sim.presets("twistpulse", gr, params)
        assert np.max(np.abs(state.omega)) == 0.0
        bump = state.Omega[:, 2]
        assert bump.max() == pytest.approx(1.0, abs=1e-6)
        c = gr.n_s // 2
        assert np.argmax(bump) == c
        assert bump[c - 3] == pytest.approx(bump[c + 3], rel=1e-12)
        assert 0.0 < bump[0] < 1e-4  # far tail at the seam

    def test_helix_matches_analytic_lift(self, params):
        # uniformly rotating frame: the projected rate is machine-exact,
        # ahead of the O(ds^2) requirement
        gr = make_grid(n_s=32, n_t=8)
        state = sim.presets("helix", gr, params)
        s = gr.s_coords()
        k = 2 * np.pi / gr.length_s
        Lam_row = so3.exp_so3(np.outer(k * s, [0, 0, 1.0]))
        Lam = np.broadcast_to(Lam_row, (gr.n_t, gr.n_s, 3, 3)).copy()
        rho = np.broadcast_to(state.rho, (gr.n_t, gr.n_s, 3)).copy()
        u = red.UnreducedSection(
            grid=gr, r=np.einsum("tsij,tsj->tsi", Lam, rho), Lambda=Lam,
            theta=np.zeros((gr.n_t, gr.n_s, 3)))
        proj = red.project_stage1(u)
        assert g.norm_max(proj.Omega
                          - np.broadcast_to(state.Omega, proj.Omega.shape)) <= 1e-12
        assert np.allclose(proj.rho, rho, atol=1e-12)

    def test_unknown_preset(self, params):
        with pytest.raises(UnknownPresetError):
            sim.presets("vortex", make_grid(), params)


class TestRhs:
    def test_substitution_into_residuals(self, rng, params):
        # rates plugged back into the balance laws must zero them exactly
        gr = make_grid()
        n_s = gr.n_s
        s = gr.s_coords()
        k = 2 * np.pi / gr.length_s
        smooth = lambda a, b, c: np.stack(
            [a * np.sin(k * s), b * np.cos(2 * k * s), c * np.sin(k * s + 0.4)],
            axis=-1)
        state = sim.StateSlice(
            rho=smooth(0.2, 0.1, 0.15) + [1.0, 0, 0], u=smooth(0.1, -0.2, 0.05),
            theta=smooth(0.3, 0.2, 0.1), a=smooth(0.25, 0.15, -0.1),
            v=smooth(-0.1, 0.3, 0.2), Omega=smooth(0.4, 0.2, 0.3),
            omega=smooth(0.2, -0.3, 0.25))
        I_inv = np.linalg.inv(params.inertia_body)
        K_inv = np.linalg.inv(params.inertia_rotor)
        r = sim.StateSlice.unpack(
            sim._rhs_packed(state.pack(), params, gr.ds, True, I_inv, K_inv))
        I = params.inertia_body
        K = params.inertia_rotor
        C, D = params.pot_C, params.pot_D
        rho, u_, om, Om, v = state.rho, state.u, state.omega, state.Omega, state.v
        E_c = 0.5 * params.pot_kappa * (np.sum(rho * rho, -1) - params.pot_c0)
        CW = Om @ C.T
        vert = (np.cross(rho, r.u + 2 * np.cross(om, u_) + np.cross(r.omega, rho)
                         + np.sum(om * rho, -1)[:, None] * om)
                + r.omega @ (I + K).T + r.v @ K.T
                + np.cross(om, om @ (I + K).T + v @ K.T)
                - g.d_s_slice(CW, gr.ds, True) - np.cross(Om, CW))
        hor_rho = (np.cross(om, np.cross(rho, om) - 2 * u_) - r.u
                   - np.cross(r.omega, rho) - 2 * E_c[:, None] * rho)
        hor_theta = (r.omega + r.v) @ K.T - g.d_s_slice(state.a @ D.T, gr.ds, True)
        assert np.max(np.abs(vert)) <= 1e-10
        assert np.max(np.abs(hor_rho)) <= 1e-10
        assert np.max(np.abs(hor_theta)) <= 1e-10

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n_s", [3, 8, 64])
    @pytest.mark.parametrize("free", [False, True])
    def test_stacked_kernel_matches_per_equation_oracle(self, rng, periodic,
                                                        n_s, free):
        # the module docstring's equations, one stencil call per field and
        # np.cross, summed in the order written: equal to the last bit
        p = model.free_params() if free else model.default_params()
        I, K = p.inertia_body, p.inertia_rotor
        I_inv, K_inv = np.linalg.inv(I), np.linalg.inv(K)
        ds = 1.0 / n_s
        d_s = lambda f: g.d_s_slice(f, ds, periodic)
        y = rng.normal(size=(len(sim.COMPONENTS), n_s, 3))
        rho, u, _theta, a, v, Om, om = y
        CW, Da = Om @ p.pot_C.T, a @ p.pot_D.T
        E_c = 0.5 * p.pot_kappa * (np.sum(rho * rho, axis=-1) - p.pot_c0)
        m = om @ (I + K).T + v @ K.T
        om_t = (d_s(CW) + np.cross(Om, CW) - d_s(Da) - np.cross(om, m)) @ I_inv.T
        v_t = d_s(Da) @ K_inv.T - om_t
        F = np.cross(om, np.cross(rho, om) - 2.0 * u) - 2.0 * E_c[:, None] * rho
        u_t = F - np.cross(om_t, rho)
        Om_t = d_s(om) + np.cross(Om, om)
        want = np.stack([u, u_t, v, d_s(v), v_t, Om_t, om_t])
        got = sim._rhs_packed(y, p, ds, periodic, I_inv, K_inv)
        assert np.array_equal(got, want)

    def test_flatness_rate_consistency(self, params):
        # Omega_t equals d_s(omega) + Omega x omega by construction
        gr = make_grid()
        state = sim.presets("helix", gr, params)
        state.omega = np.stack([np.sin(2 * np.pi * gr.s_coords()),
                                np.cos(2 * np.pi * gr.s_coords()),
                                0.2 * np.ones(gr.n_s)], axis=-1)
        I_inv = np.linalg.inv(params.inertia_body)
        K_inv = np.linalg.inv(params.inertia_rotor)
        r = sim.StateSlice.unpack(
            sim._rhs_packed(state.pack(), params, gr.ds, True, I_inv, K_inv))
        want = (g.d_s_slice(state.omega, gr.ds, True)
                + np.cross(state.Omega, state.omega))
        assert np.allclose(r.Omega, want, atol=1e-14)


class TestRun:
    def test_static_stays_static(self, params):
        gr = make_grid(n_t=20)
        out = sim.run(sim.SimConfig(grid=gr, params=params, preset="static"))
        for key, value in out.summary.items():
            assert value <= 1e-12, (key, value)
        assert np.all(out.section.rho == out.section.rho[0])
        assert np.max(np.abs(out.section.omega)) == 0.0

    def test_rigid_body_matches_independent_ode(self, params_free):
        # same RK4, same dt, s-independent preset; nodewise agreement
        gr = make_grid(n_s=4, n_t=2001, T=2.0)
        cfg = sim.SimConfig(grid=gr, params=params_free, preset="rigidbody")
        out = sim.run(cfg)
        I = params_free.inertia_body
        K = params_free.inertia_rotor
        state0 = sim.presets("rigidbody", gr, params_free)
        y0 = np.concatenate([state0.rho[0], state0.u[0], state0.theta[0],
                             state0.v[0], state0.omega[0]])

        def f(y):
            rho, u, _theta, v, om = y.reshape(5, 3)
            om_t = np.linalg.solve(I, -np.cross(om, (I + K) @ om + K @ v))
            v_t = -om_t
            u_t = np.cross(om, np.cross(rho, om) - 2 * u) - np.cross(om_t, rho)
            return np.concatenate([u, u_t, v, v_t, om_t])

        y = rk4(y0, gr.dt, f, gr.n_t - 1)
        rho, u, theta, v, om = y.reshape(5, 3)
        sec = out.section
        for j in range(gr.n_s):
            assert np.max(np.abs(sec.rho[-1, j] - rho)) <= 1e-10
            assert np.max(np.abs(sec.omega[-1, j] - om)) <= 1e-10
            assert np.max(np.abs(sec.theta[-1, j] - theta)) <= 1e-10
        assert np.max(np.abs(sec.Omega)) == 0.0

    def test_twistpulse_residual_self_convergence(self, params):
        norms = []
        for (n_s, n_t) in ((32, 64), (64, 127)):
            gr = make_grid(n_s=n_s, n_t=n_t, T=0.25)
            out = sim.run(sim.SimConfig(grid=gr, params=params,
                                        preset="twistpulse"))
            norms.append(out.summary["residual_vertical_l2"])
        assert 3.0 < norms[0] / norms[1] < 5.0

    def test_midpoint_scheme_close_to_rk4(self, params):
        gr = make_grid(n_s=24, n_t=101, T=0.1)
        a = sim.run(sim.SimConfig(grid=gr, params=params, preset="twistpulse",
                                  scheme="rk4"))
        b = sim.run(sim.SimConfig(grid=gr, params=params, preset="twistpulse",
                                  scheme="midpoint"))
        diff = g.norm_max(a.section.Omega - b.section.Omega)
        assert 0.0 < diff < 1e-4

    def test_blowup_guard(self, params):
        gr = make_grid(n_s=8, n_t=10)
        state = sim.presets("static", gr, params)
        state.u = 1e9 * np.ones_like(state.u)
        cfg = sim.SimConfig(grid=gr, params=params, init=state)
        with pytest.raises(BlowupError) as err:
            sim.run(cfg)
        assert err.value.step == 0
        assert err.value.field == "u"
        assert err.value.node == 0
        assert err.value.norm == 1e9

    def test_cfl_guard(self, params):
        gr = g.Grid2(n_t=4, n_s=64, dt=0.5, ds=1.0 / 64, bc_s=g.PERIODIC)
        with pytest.raises(ConfigError):
            sim.run(sim.SimConfig(grid=gr, params=params, preset="static"))

    def test_bad_scheme(self, params):
        gr = make_grid()
        with pytest.raises(ConfigError):
            sim.run(sim.SimConfig(grid=gr, params=params, preset="static",
                                  scheme="euler"))

    def test_theta_consistent_with_a(self, params):
        # a and theta are advanced by the same linear stages, so a stays
        # the exact arclength derivative of theta
        gr = make_grid(n_s=24, n_t=51, T=0.2)
        out = sim.run(sim.SimConfig(grid=gr, params=params, preset="twistpulse"))
        want = g.d_s_slice(out.section.theta[-1], gr.ds, gr.periodic_s)
        assert np.max(np.abs(want - out.final_state.a)) <= 1e-13

    def test_rotor_momentum_drift(self, params):
        gr = make_grid(n_s=32, n_t=101, T=0.25)
        out = sim.run(sim.SimConfig(grid=gr, params=params, preset="twistpulse"))
        assert out.summary["rotor_total_drift"] <= 1e-12


class TestNoRotorLimit:
    def reference(self, gr, params):
        """Independent integrator for the strand without rotors."""
        state0 = sim.presets("twistpulse", gr, params)
        I, C = params.inertia_body, params.pot_C
        I_inv = np.linalg.inv(I)

        def f(y):
            rho, u, Om, om = y
            CW = Om @ C.T
            om_t = (g.d_s_slice(CW, gr.ds, True) + np.cross(Om, CW)
                    - np.cross(om, om @ I.T)) @ I_inv.T
            E_c = 0.5 * params.pot_kappa * (np.sum(rho * rho, -1)
                                            - params.pot_c0)
            F = np.cross(om, np.cross(rho, om) - 2 * u) - 2 * E_c[:, None] * rho
            u_t = F - np.cross(om_t, rho)
            Om_t = g.d_s_slice(om, gr.ds, True) + np.cross(Om, om)
            return np.stack([u, u_t, Om_t, om_t])

        y = np.stack([state0.rho, state0.u, state0.Omega, state0.omega])
        return rk4(y, gr.dt, f, gr.n_t - 1)

    def test_small_rotor_inertia_continuity(self, params):
        gr = make_grid(n_s=24, n_t=251, T=0.1)
        ref = self.reference(gr, params)
        diffs = []
        for eps in (1e-3, 1e-4):
            p = dataclasses.replace(params,
                                    inertia_rotor=eps * params.inertia_rotor)
            out = sim.run(sim.SimConfig(grid=gr, params=p, preset="twistpulse"))
            sec = out.section
            diffs.append(max(np.max(np.abs(sec.rho[-1] - ref[0])),
                             np.max(np.abs(sec.Omega[-1] - ref[2])),
                             np.max(np.abs(sec.omega[-1] - ref[3]))))
        assert diffs[0] <= 0.5 * 1e-3     # O(eps) with pinned constant
        assert diffs[1] <= diffs[0] / 5.0  # decays with eps
