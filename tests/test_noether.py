import numpy as np
import pytest

from strand_reduce import checks
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
    f = rs.stage1_derivative_fields(sec, p)
    return f, model.fiber_derivatives_stage1(f, p)


class TestCurrents:
    def test_zero_section_zero_currents(self, params):
        gr = small_grid()
        sec = static_section(gr, params)
        _, d = bundle(sec, params)
        cur = noether.so3_current(gr, identity_field(gr), d)
        assert g.norm_max(cur.J_s) == 0.0 and g.norm_max(cur.J_t) == 0.0
        rot = noether.rotor_current(gr, d)
        assert g.norm_max(rot.J_s) == 0.0 and g.norm_max(rot.J_t) == 0.0

    def test_identity_rotation_gives_body_frame(self, params):
        gr = small_grid(n_t=8, n_s=8)
        sec = smooth_stage1_section(gr)
        f, d = bundle(sec, params)
        cur = noether.so3_current(gr, identity_field(gr), d)
        want_s = -f.dE_dOmega
        assert np.allclose(cur.J_s, want_s, atol=1e-15)

    def test_rotor_current_values(self):
        p = model.ModelParams(np.eye(3), np.eye(3), np.eye(3), np.eye(3),
                              0.0, 1.0)
        gr = small_grid(n_t=8, n_s=8)
        z = np.zeros((gr.n_t, gr.n_s, 3))
        omega = np.broadcast_to(E3, z.shape).copy()
        a = np.broadcast_to(E1, z.shape).copy()
        s2 = red.Stage2Section(grid=gr, rho=z, a=a, b=z.copy(), Omega=z.copy(),
                               omega=omega)
        d = model.fiber_derivatives_stage1(rs.stage2_derivative_fields(s2, p), p)
        cur = noether.rotor_current(gr, d)
        assert np.allclose(cur.J_t, E3, atol=1e-15)   # K (omega + b)
        assert np.allclose(cur.J_s, -E1, atol=1e-15)  # -D a

    def test_so3_equivariance(self, rng, params):
        gr = small_grid(n_t=8, n_s=8)
        sec = smooth_stage1_section(gr)
        Lam = random_rotation_field(gr, rng)
        G = so3.random_rotation(rng)
        _, d = bundle(sec, params)
        a = noether.so3_current(gr, Lam, d)
        b = noether.so3_current(gr, np.einsum("ij,tsjk->tsik", G, Lam), d)
        assert np.allclose(b.J_s, np.einsum("ij,tsj->tsi", G, a.J_s), atol=1e-12)
        assert np.allclose(b.J_t, np.einsum("ij,tsj->tsi", G, a.J_t), atol=1e-12)


class TestDivergence:
    def test_constant_current(self):
        gr = small_grid()
        c = noether.CurrentPair(grid=gr,
                                J_s=np.broadcast_to(E1, (gr.n_t, gr.n_s, 3)).copy(),
                                J_t=np.broadcast_to(E3, (gr.n_t, gr.n_s, 3)).copy())
        assert g.norm_max(noether.divergence(c)) == 0.0

    def test_affine_current(self):
        gr = small_grid(bc=g.CLAMPED)
        s = gr.s_coords()[None, :, None]
        J_s = np.concatenate([s, np.zeros_like(s), np.zeros_like(s)], axis=-1)
        J_s = np.broadcast_to(J_s, (gr.n_t, gr.n_s, 3)).copy()
        c = noether.CurrentPair(grid=gr, J_s=J_s,
                                J_t=np.zeros((gr.n_t, gr.n_s, 3)))
        assert np.allclose(noether.divergence(c), E1, atol=1e-12)

    def test_rotor_divergence_decays_on_solutions(self, params):
        norms = []
        for (n_s, n_t) in ((32, 64), (64, 127)):
            gr = g.Grid2(n_t=n_t, n_s=n_s, dt=0.25 / (n_t - 1), ds=1.0 / n_s,
                         bc_s=g.PERIODIC)
            out = sim.run(sim.SimConfig(grid=gr, params=params,
                                        preset="twistpulse"))
            _, d = bundle(out.section, params)
            div = noether.divergence(noether.rotor_current(gr, d))
            norms.append(g.norm_l2(gr, div, gr.interior_mask(2)))
        assert 3.0 < norms[0] / norms[1] < 5.0


class TestDriftResidual:
    def test_identity_with_shared_fields(self, rng, params):
        gr = small_grid()
        sec = smooth_stage1_section(gr)
        Lam = random_rotation_field(gr, rng)
        f, d = bundle(sec, params)
        drift = noether.drift_residual(Lam, f, d, params)
        vert = rs.stage1_residuals(sec, params, fields=f).vertical
        want = np.einsum("tsij,tsj->tsi", Lam, vert)
        scale = 1.0 + g.norm_max(want)
        assert g.norm_max(drift - want) <= 1e-12 * scale

    def test_static_equilibrium_zero(self, params):
        gr = small_grid()
        sec = static_section(gr, params)
        f, d = bundle(sec, params)
        drift = noether.drift_residual(identity_field(gr), f, d, params)
        assert g.norm_max(drift) == 0.0

    def test_drift_rhs_is_explicit_zero(self, params):
        gr = small_grid(n_t=8, n_s=8)
        sec = smooth_stage1_section(gr)
        f = rs.stage1_derivative_fields(sec, params)
        assert np.array_equal(noether.drift_rhs(f, params),
                              np.zeros_like(sec.rho))

    def test_drift_decays_on_solutions(self, params):
        norms = []
        for (n_s, n_t) in ((32, 64), (64, 127)):
            gr = g.Grid2(n_t=n_t, n_s=n_s, dt=0.25 / (n_t - 1), ds=1.0 / n_s,
                         bc_s=g.PERIODIC)
            out = sim.run(sim.SimConfig(grid=gr, params=params,
                                        preset="twistpulse"))
            sec = out.section
            flat = g.norm_max(red.flatness_residual_rotation(sec))
            Lam = red.reconstruct_rotation(gr, sec.Omega, sec.omega, np.eye(3),
                                           tol=10 * flat + 1e-6)
            f, d = bundle(sec, params)
            drift = noether.drift_residual(Lam, f, d, params)
            norms.append(g.norm_l2(gr, drift, gr.interior_mask(2)))
        assert 3.0 < norms[0] / norms[1] < 5.0


class TestConservation:
    def test_totals_conserved_on_short_pulse(self, params):
        # duration short enough that the pulse stays away from the seam:
        # the leak through the seam is then below the discretization drift
        drifts = {"rotor": [], "so3": []}
        for (n_s, n_t) in ((64, 50), (128, 100)):
            gr = g.Grid2(n_t=n_t, n_s=n_s, dt=0.125 / (n_t - 1), ds=1.0 / n_s,
                         bc_s=g.PERIODIC)
            out = sim.run(sim.SimConfig(grid=gr, params=params,
                                        preset="twistpulse"))
            sec = out.section
            flat = g.norm_max(red.flatness_residual_rotation(sec))
            Lam = red.reconstruct_rotation(gr, sec.Omega, sec.omega, np.eye(3),
                                           tol=10 * flat + 1e-6)
            _, d = bundle(sec, params)
            for name, cur in (("rotor", noether.rotor_current(gr, d)),
                              ("so3", noether.so3_current(gr, Lam, d))):
                tot = noether.totals_over_time(cur)
                drifts[name].append(np.max(np.linalg.norm(tot - tot[0], axis=-1)))
        for name in drifts:
            assert 3.0 < drifts[name][0] / drifts[name][1] < 5.0, (name, drifts)


class TestTotalsFile:
    def test_totals_bytes_match_per_value_reference(self, rng, params, tmp_path):
        gr = small_grid(n_t=8, n_s=8)
        sec = smooth_stage1_section(gr)
        Lam = random_rotation_field(gr, rng)
        _, totals = checks.noether_report(sec, Lam, params)
        path = write_totals(tmp_path / "out", gr, totals)
        # the report's totals are those of both currents on the run's own grid
        _, d = bundle(sec, params)
        assert np.array_equal(totals, np.hstack([
            noether.totals_over_time(noether.rotor_current(gr, d)),
            noether.totals_over_time(noether.so3_current(gr, Lam, d))]))
        t = gr.t_coords()
        want = "t_index,t,rotor_1,rotor_2,rotor_3,so3_1,so3_2,so3_3\n"
        for i in range(gr.n_t):
            want += (f"{i},{'%.17g' % t[i]},"
                     + ",".join("%.17g" % v for v in totals[i]) + "\n")
        assert open(path, "rb").read() == want.encode()
