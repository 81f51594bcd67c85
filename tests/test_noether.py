import numpy as np
import pytest

from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import noether
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
from strand_reduce import simulate as sim
from strand_reduce import so3
from strand_reduce.fields_io import write_totals
from tests.conftest import small_grid, smooth_stage1_section
from tests.test_residuals import static_section

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def identity_field(gr):
    return np.broadcast_to(np.eye(3), (gr.n_t, gr.n_s, 3, 3)).copy()


def random_rotation_field(gr, rng):
    return so3.exp_so3(0.5 * rng.normal(size=(gr.n_t, gr.n_s, 3)))


def bundle(sec, p):
    """The stage-1 derivative bundle of a section and its fiber record."""
    f = red.project_stage2(sec)
    return f, model.fiber_derivatives_stage1(f, p)


class TestCurrents:
    def test_zero_section_zero_currents(self, params):
        gr = small_grid()
        sec = static_section(gr, params)
        _, d = bundle(sec, params)
        J_s, J_t = noether.so3_current(identity_field(gr), d)
        assert g.norm_max(J_s) == 0.0 and g.norm_max(J_t) == 0.0
        # the rotor current is the record's rotor slots
        assert g.norm_max(d.dl_dtheta_s) == 0.0
        assert g.norm_max(d.dl_dtheta_t) == 0.0

    def test_identity_rotation_gives_body_frame(self, params):
        gr = small_grid(n_t=8, n_s=8)
        sec = smooth_stage1_section(gr)
        f, d = bundle(sec, params)
        J_s, _ = noether.so3_current(identity_field(gr), d)
        want_s = -model.dE(f.Omega, f.theta_s, np.sum(f.rho * f.rho, -1),
                           params)[0]
        assert np.allclose(J_s, want_s, atol=1e-15)

    def test_rotor_current_values(self):
        p = model.ModelParams(np.eye(3), np.eye(3), np.eye(3), np.eye(3),
                              0.0, 1.0)
        gr = small_grid(n_t=8, n_s=8)
        z = np.zeros((gr.n_t, gr.n_s, 3))
        omega = np.broadcast_to(E3, z.shape).copy()
        a = np.broadcast_to(E1, z.shape).copy()
        # a stage-2 point: (theta_s, theta_t) hold the rotor rates (a, b)
        d = model.fiber_derivatives_stage1(model.Stage1Point(
            rho=z, rho_t=z, theta_s=a, theta_t=z, Omega=z, omega=omega), p)
        assert np.allclose(d.dl_dtheta_t, E3, atol=1e-15)   # K (omega + b)
        assert np.allclose(d.dl_dtheta_s, -E1, atol=1e-15)  # -D a

    def test_so3_equivariance(self, rng, params):
        gr = small_grid(n_t=8, n_s=8)
        sec = smooth_stage1_section(gr)
        Lam = random_rotation_field(gr, rng)
        G = so3.random_rotation(rng)
        _, d = bundle(sec, params)
        a = noether.so3_current(Lam, d)
        b = noether.so3_current(np.einsum("ij,tsjk->tsik", G, Lam), d)
        for J_a, J_b in zip(a, b):     # J_s, then J_t
            assert np.allclose(J_b, np.einsum("ij,tsj->tsi", G, J_a),
                               atol=1e-12)


class TestDivergence:
    def test_constant_current(self):
        gr = small_grid()
        J_s = np.broadcast_to(E1, (gr.n_t, gr.n_s, 3)).copy()
        J_t = np.broadcast_to(E3, (gr.n_t, gr.n_s, 3)).copy()
        assert g.norm_max(noether.divergence(gr, J_s, J_t)) == 0.0

    def test_affine_current(self):
        gr = small_grid(bc=g.CLAMPED)
        s = gr.s_coords()[None, :, None]
        J_s = np.concatenate([s, np.zeros_like(s), np.zeros_like(s)], axis=-1)
        J_s = np.broadcast_to(J_s, (gr.n_t, gr.n_s, 3)).copy()
        J_t = np.zeros((gr.n_t, gr.n_s, 3))
        assert np.allclose(noether.divergence(gr, J_s, J_t), E1, atol=1e-12)

    def test_rotor_divergence_decays_on_solutions(self, params):
        norms = []
        for (n_s, n_t) in ((32, 64), (64, 127)):
            gr = g.Grid2(n_t=n_t, n_s=n_s, dt=0.25 / (n_t - 1), ds=1.0 / n_s,
                         bc_s=g.PERIODIC)
            out = sim.run(sim.SimConfig(grid=gr, params=params,
                                        preset="twistpulse"))
            _, d = bundle(out.section, params)
            div = noether.divergence(gr, d.dl_dtheta_s, d.dl_dtheta_t)
            norms.append(g.norm_l2(gr, div, gr.interior_mask(2)))
        assert 3.0 < norms[0] / norms[1] < 5.0


class TestDriftResidual:
    def test_identity_with_shared_fields(self, rng, params):
        gr = small_grid()
        sec = smooth_stage1_section(gr)
        Lam = random_rotation_field(gr, rng)
        f, d = bundle(sec, params)
        drift = noether.drift_residual(Lam, f, d, params)
        vert = rs.stage1_residuals(sec, params).vertical
        want = np.einsum("tsij,tsj->tsi", Lam, vert)
        scale = 1.0 + g.norm_max(want)
        assert g.norm_max(drift - want) <= 1e-12 * scale

    def test_static_equilibrium_zero(self, params):
        gr = small_grid()
        sec = static_section(gr, params)
        f, d = bundle(sec, params)
        drift = noether.drift_residual(identity_field(gr), f, d, params)
        assert g.norm_max(drift) == 0.0

    def test_drift_decays_on_solutions(self, params):
        norms = []
        for (n_s, n_t) in ((32, 64), (64, 127)):
            gr = g.Grid2(n_t=n_t, n_s=n_s, dt=0.25 / (n_t - 1), ds=1.0 / n_s,
                         bc_s=g.PERIODIC)
            out = sim.run(sim.SimConfig(grid=gr, params=params,
                                        preset="twistpulse"))
            sec = out.section
            Lam = red.reconstruct_rotation(gr, sec.Omega, sec.omega, np.eye(3),
                                           tol=None)
            f, d = bundle(sec, params)
            drift = noether.drift_residual(Lam, f, d, params)
            norms.append(g.norm_l2(gr, drift, gr.interior_mask(2)))
        assert 3.0 < norms[0] / norms[1] < 5.0


class TestTotalsFile:
    def test_totals_bytes_match_per_value_reference(self, params, tmp_path):
        gr = small_grid(n_t=8, n_s=8)
        sec = smooth_stage1_section(gr)
        # the report sweeps its rotation field from the identity
        Lam = red.reconstruct_rotation(gr, sec.Omega, sec.omega, np.eye(3),
                                       tol=None)
        _, totals = noether.noether_report(sec, params)
        path = write_totals(tmp_path / "out", gr, totals)
        # the report's totals are those of both currents on the run's own grid
        _, d = bundle(sec, params)
        assert np.array_equal(totals, np.hstack([
            g.integrate_s(gr, d.dl_dtheta_t),
            g.integrate_s(gr, noether.so3_current(Lam, d)[1])]))
        t = gr.t_coords()
        want = "t_index,t,rotor_1,rotor_2,rotor_3,so3_1,so3_2,so3_3\n"
        for i in range(gr.n_t):
            want += (f"{i},{'%.17g' % t[i]},"
                     + ",".join("%.17g" % v for v in totals[i]) + "\n")
        assert open(path, "rb").read() == want.encode()
