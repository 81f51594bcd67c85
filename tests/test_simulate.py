import dataclasses

import numpy as np
import pytest

from strand_reduce import checks
from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
from strand_reduce import simulate as sim
from strand_reduce import so3
from strand_reduce.errors import (BlowupError, ConfigError, UnknownPresetError)
from tests.conftest import potential_off


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
        rates = model.rates(params, gr.ds, None)(state)
        assert np.max(np.abs(rates)) == 0.0

    def test_twistpulse_shape(self, params):
        gr = make_grid()
        *_, Omega, omega = sim.presets("twistpulse", gr, params)
        assert np.max(np.abs(omega)) == 0.0
        bump = Omega[:, 2]
        assert bump.max() == pytest.approx(1.0, abs=1e-6)
        c = gr.n_s // 2
        assert np.argmax(bump) == c
        assert bump[c - 3] == pytest.approx(bump[c + 3], rel=1e-12)
        assert 0.0 < bump[0] < 1e-4  # far tail at the seam

    def test_helix_matches_analytic_lift(self, params):
        # uniformly rotating frame: the projected rate is machine-exact,
        # ahead of the O(ds^2) requirement
        gr = make_grid(n_s=32, n_t=8)
        rho0, *_, Omega0, _ = sim.presets("helix", gr, params)
        s = gr.s_coords()
        k = 2 * np.pi / gr.length_s
        Lam_row = so3.exp_so3(np.outer(k * s, [0, 0, 1.0]))
        Lam = np.broadcast_to(Lam_row, (gr.n_t, gr.n_s, 3, 3)).copy()
        rho = np.broadcast_to(rho0, (gr.n_t, gr.n_s, 3)).copy()
        u = red.UnreducedSection(
            grid=gr, r=np.einsum("tsij,tsj->tsi", Lam, rho), Lambda=Lam,
            theta=np.zeros((gr.n_t, gr.n_s, 3)))
        proj = red.project_stage1(u)
        assert g.norm_max(proj.Omega
                          - np.broadcast_to(Omega0, proj.Omega.shape)) <= 1e-12
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
        state = np.stack([
            smooth(0.2, 0.1, 0.15) + [1.0, 0, 0], smooth(0.1, -0.2, 0.05),
            smooth(0.3, 0.2, 0.1), smooth(0.25, 0.15, -0.1),
            smooth(-0.1, 0.3, 0.2), smooth(0.4, 0.2, 0.3),
            smooth(0.2, -0.3, 0.25)])
        _, r_u, _, _, r_v, _, r_omega = model.rates(params, gr.ds, None)(state)
        I = params.inertia_body
        K = params.inertia_rotor
        C, D = params.pot_C, params.pot_D
        rho, u_, _, a, v, Om, om = state
        E_c = 0.5 * params.pot_kappa * (np.sum(rho * rho, -1) - params.pot_c0)
        CW = Om @ C.T
        vert = (np.cross(rho, r_u + 2 * np.cross(om, u_) + np.cross(r_omega, rho)
                         + np.sum(om * rho, -1)[:, None] * om)
                + r_omega @ (I + K).T + r_v @ K.T
                + np.cross(om, om @ (I + K).T + v @ K.T)
                - g.d_s_slice(CW, gr.ds, None) - np.cross(Om, CW))
        hor_rho = (np.cross(om, np.cross(rho, om) - 2 * u_) - r_u
                   - np.cross(r_omega, rho) - 2 * E_c[:, None] * rho)
        hor_theta = (r_omega + r_v) @ K.T - g.d_s_slice(a @ D.T, gr.ds, None)
        assert np.max(np.abs(vert)) <= 1e-10
        assert np.max(np.abs(hor_rho)) <= 1e-10
        assert np.max(np.abs(hor_theta)) <= 1e-10

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n_s", [3, 8, 64])
    @pytest.mark.parametrize("free", [False, True])
    def test_stacked_kernel_matches_per_equation_oracle(self, rng, periodic,
                                                        n_s, free):
        # the equations of the kernel's docstring, one slice-kernel stencil
        # call per field and np.cross, summed in the order written: equal to
        # the last bit
        p = model.default_params()
        p = potential_off(p) if free else p
        I, K = p.inertia_body, p.inertia_rotor
        I_inv, K_inv = np.linalg.inv(I), np.linalg.inv(K)
        ds, closure = 1.0 / n_s, None if periodic else g.ONE_SIDED
        d_s = lambda f: g._diff_slices(f, ds, closure, -2)
        y = rng.normal(size=(len(model.COMPONENTS), n_s, 3))
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
        got = model.rates(p, ds, closure)(y)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n_s", [3, 64])
    def test_window_equals_its_levels(self, rng, params, periodic, n_s):
        # the residual evaluators call the kernel on a block of levels
        y = rng.normal(size=(len(model.COMPONENTS), 5, n_s, 3))
        rates = model.rates(params, 1.0 / n_s, None if periodic else g.ONE_SIDED)
        assert np.array_equal(rates(y), np.stack([rates(y[:, i])
                                                  for i in range(5)], 1))

    def test_flatness_rate_consistency(self, params):
        # Omega_t equals d_s(omega) + Omega x omega by construction
        gr = make_grid()
        state = sim.presets("helix", gr, params)
        *_, Omega, omega = state
        omega[:] = np.stack([np.sin(2 * np.pi * gr.s_coords()),
                             np.cos(2 * np.pi * gr.s_coords()),
                             0.2 * np.ones(gr.n_s)], axis=-1)
        r_Omega = model.rates(params, gr.ds, None)(state)[5]
        want = g.d_s_slice(omega, gr.ds, None) + np.cross(Omega, omega)
        assert np.allclose(r_Omega, want, atol=1e-14)


class TestMarchCalls:
    def test_one_rk4_step(self, params, monkeypatch):
        # the per-call structure of the march: one stacked stencil call and
        # two cross products per right-hand side, the inverses of I and K
        # taken once when the rates are prepared, none in a step
        calls = []

        def spy(module, name, tag):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, **kw:
                                calls.append(tag) or fn(*args, **kw))

        spy(np.linalg, "inv", "inv")
        spy(g, "_diff", "diff")
        for name in ("_cross_gather", "_cross_slices"):
            spy(so3, name, "cross")
        gr = make_grid(n_s=8, n_t=3)
        march = sim._March(sim.SimConfig(grid=gr, params=params,
                                         preset="twistpulse"), None)
        march._advance(1)
        assert calls == ["inv"] * 2
        calls.clear()
        march._advance(2)
        assert sorted(calls) == ["cross"] * 8 + ["diff"] * 4


class TestRun:
    @pytest.mark.parametrize("preset, bc", [("twistpulse", g.PERIODIC),
                                            ("twistpulse", g.CLAMPED),
                                            ("helix", g.CLAMPED)])
    def test_residual_is_the_time_stencils_error(self, params, preset, bc):
        # the evaluator measures against the march's own rates, so only the
        # O(dt^2) time stencil is left: dropping every other level (dt
        # doubled) multiplies each norm by about 4
        gr = g.Grid2.uniform(161, 32, 0.5, 1.0, bc)
        sec = sim.run(sim.SimConfig(grid=gr, params=params,
                                    preset=preset)).section
        coarse = red.Stage1Section(
            grid=dataclasses.replace(gr, n_t=81, dt=2.0 * gr.dt),
            **{name: getattr(sec, name)[::2] for name in sim.FIELDS})
        fine = rs.residual_norms(sec, params)
        for name, value in rs.residual_norms(coarse, params).items():
            ratio = value / fine[name]
            assert checks.RATIO_BAND[0] <= ratio <= checks.RATIO_BAND[1], (
                name, ratio)

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
        rho0, u0, theta0, _, v0, _, omega0 = sim.presets("rigidbody", gr,
                                                         params_free)
        y0 = np.concatenate([rho0[0], u0[0], theta0[0], v0[0], omega0[0]])

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
        state[1] = 1e9                        # u
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

    @pytest.mark.parametrize("preset, init", [(None, None),
                                              ("static", "static")],
                             ids=["neither", "both"])
    def test_exactly_one_initial_state(self, params, preset, init):
        gr = make_grid()
        state = init and sim.presets(init, gr, params)
        with pytest.raises(ConfigError, match="exactly one"):
            sim.run(sim.SimConfig(grid=gr, params=params, preset=preset,
                                  init=state))

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
        want = g.d_s_slice(out.section.theta[-1], gr.ds, gr.closure_s)
        a = out.final_state[model.COMPONENTS.index("a")]
        assert np.max(np.abs(want - a)) <= 1e-13

    def test_rotor_momentum_drift(self, params):
        gr = make_grid(n_s=32, n_t=101, T=0.25)
        out = sim.run(sim.SimConfig(grid=gr, params=params, preset="twistpulse"))
        assert out.summary["rotor_total_drift"] <= 1e-12


class TestBlockGuard:
    """The march guards and records a block of levels at once, with the
    outcome of a march that advances one level at a time."""

    @staticmethod
    def march(cfg, block, step=None):
        march = sim._March(cfg, None)
        if step is not None:
            march.step = step
        if block:
            march._advance(cfg.grid.n_t)
        else:
            for i in range(cfg.grid.n_t):
                march._advance(i + 1)
        return march

    def blowup(self, cfg, block, step=None):
        with pytest.raises(BlowupError) as err:
            self.march(cfg, block, step)
        e = err.value
        return e.step, e.field, e.node, repr(e.norm), str(e)

    def test_blowup_in_the_middle_of_a_block(self, params_free):
        # potential off and omega = 0: u stays put and rho grows linearly,
        # past the guard at level 5 (2.25e7 per level at node 3)
        gr = g.Grid2(n_t=10, n_s=8, dt=0.25, ds=0.5, bc_s=g.PERIODIC)
        state = sim.presets("static", gr, params_free)
        state[1, 3, 0] = 9e7                  # u1 at node 3
        cfg = sim.SimConfig(grid=gr, params=params_free, init=state)
        got = self.blowup(cfg, block=True)
        assert got == self.blowup(cfg, block=False)
        assert got[:3] == (5, "rho", 3)
        assert 1e8 < float(got[3]) < 1.2e8

    def test_overflow_to_nan_in_the_middle_of_a_block(self, params):
        # a stage that overflows at level 4 makes one cell inf - inf
        gr = make_grid(n_s=8, n_t=10)
        cfg = sim.SimConfig(grid=gr, params=params, preset="twistpulse")

        def overflowing(y, h, f):
            out = sim._step_rk4(y, h, f)
            levels.append(None)
            if len(levels) == 4:
                big = out[4, 5, 1] + 1e308
                out[4, 5, 1] = 10.0 * big - 10.0 * big
            return out

        got = []
        for block in (True, False):
            levels = []
            got.append(self.blowup(cfg, block, overflowing))
        assert got[0] == got[1]
        assert got[0][:4] == (4, "v", 5, "nan")

    @pytest.mark.parametrize("preset, bc, n_s", [("twistpulse", g.PERIODIC, 8),
                                                 ("helix", g.CLAMPED, 8),
                                                 ("twistpulse", g.PERIODIC, 64),
                                                 ("helix", g.CLAMPED, 65)])
    def test_rows_equal_level_by_level(self, params, preset, bc, n_s):
        gr = g.Grid2.uniform(30, n_s, 0.05, 1.0, bc)
        cfg = sim.SimConfig(grid=gr, params=params, preset=preset)
        block, single = self.march(cfg, True), self.march(cfg, False)
        assert block.rows.tobytes() == single.rows.tobytes()
        assert block.y.tobytes() == single.y.tobytes()


class TestNoRotorLimit:
    def reference(self, gr, params):
        """Independent integrator for the strand without rotors."""
        rho, u, *_, Omega, omega = sim.presets("twistpulse", gr, params)
        I, C = params.inertia_body, params.pot_C
        I_inv = np.linalg.inv(I)

        def f(y):
            rho, u, Om, om = y
            CW = Om @ C.T
            om_t = (g.d_s_slice(CW, gr.ds, None) + np.cross(Om, CW)
                    - np.cross(om, om @ I.T)) @ I_inv.T
            E_c = 0.5 * params.pot_kappa * (np.sum(rho * rho, -1)
                                            - params.pot_c0)
            F = np.cross(om, np.cross(rho, om) - 2 * u) - 2 * E_c[:, None] * rho
            u_t = F - np.cross(om_t, rho)
            Om_t = g.d_s_slice(om, gr.ds, None) + np.cross(Om, om)
            return np.stack([u, u_t, Om_t, om_t])

        y = np.stack([rho, u, Omega, omega])
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
