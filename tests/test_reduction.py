import numpy as np
import pytest

from strand_reduce import grid as g
from strand_reduce import reduction as red
from strand_reduce import so3
from strand_reduce.checks import flat_pair
from strand_reduce.errors import NotFlatError
from tests.conftest import small_grid, svd_polar

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def sweep_order(sweep, gr, Omega, omega, Lambda0, tol):
    """reconstruct_rotation ("st"), or the ungated t-then-s sweep ("ts")."""
    if sweep == "st":
        return red.reconstruct_rotation(gr, Omega, omega, Lambda0, tol)
    return red._reconstruct_ts(gr, Omega, omega, Lambda0)


def synthetic_unreduced(gr):
    Lam, Omega, omega, _ = flat_pair(gr)
    t = gr.t_coords()[:, None]
    s = gr.s_coords()[None, :]
    L = gr.length_s
    rho = np.stack([1.0 + 0.2 * np.sin(2 * np.pi * s / L) + 0.0 * t,
                    0.1 * np.cos(2 * np.pi * s / L) + 0.05 * t,
                    0.3 * np.sin(t) + 0.0 * s], axis=-1)
    r = np.einsum("tsij,tsj->tsi", Lam, rho)
    theta = np.stack([0.2 * s + 0.0 * t, 0.1 * t + 0.0 * s,
                      0.05 * np.sin(2 * np.pi * s / L) * np.cos(t)], axis=-1)
    return red.UnreducedSection(grid=gr, r=r, Lambda=Lam, theta=theta), rho, Omega, omega


class TestProjectStage1:
    def test_exponential_row(self):
        gr = small_grid(bc=g.CLAMPED)
        s = gr.s_coords()
        Lam = np.broadcast_to(so3.exp_so3(s[:, None] * E3),
                              (gr.n_t, gr.n_s, 3, 3)).copy()
        r = np.einsum("tsij,j->tsi", Lam, E1)
        u = red.UnreducedSection(grid=gr, r=r, Lambda=Lam,
                                 theta=np.zeros((gr.n_t, gr.n_s, 3)))
        s1 = red.project_stage1(u)
        assert np.allclose(s1.rho, E1, atol=1e-12)
        assert np.allclose(s1.omega, 0.0, atol=1e-12)
        assert np.allclose(s1.Omega, E3, atol=5.0 * gr.ds ** 2)

    def test_identity_rotations(self, rng):
        gr = small_grid()
        r = rng.normal(size=(gr.n_t, gr.n_s, 3))
        Lam = np.broadcast_to(np.eye(3), (gr.n_t, gr.n_s, 3, 3)).copy()
        u = red.UnreducedSection(grid=gr, r=r, Lambda=Lam,
                                 theta=np.zeros((gr.n_t, gr.n_s, 3)))
        s1 = red.project_stage1(u)
        assert np.array_equal(s1.rho, r)
        assert np.array_equal(s1.Omega, np.zeros_like(r))
        assert np.array_equal(s1.omega, np.zeros_like(r))

    def test_rates_converge_second_order(self):
        errs = []
        for n in (16, 32, 64):
            gr = small_grid(n_t=n, n_s=n)
            Lam, Omega, omega, _ = flat_pair(gr)
            u = red.UnreducedSection(grid=gr, r=np.zeros((gr.n_t, gr.n_s, 3)),
                                     Lambda=Lam, theta=np.zeros((gr.n_t, gr.n_s, 3)))
            s1 = red.project_stage1(u)
            errs.append(max(g.norm_max(s1.Omega - Omega),
                            g.norm_max(s1.omega - omega)))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_edge_rows_follow_the_stencil_closure(self, monkeypatch):
        # one patch of the closure record (time's, and clamped s's in the
        # boundary table) moves every stencil that reads it: the
        # derivatives; the projection, whose rates are the derivatives
        # of the angle since rotations about one axis have exact logs (rows
        # of its own would miss the patched ones by 0.1 at the edges); the
        # adjoints, still the dense transposes; and the weights of integrate_s
        closure = g.Closure(((-2.0, 2.0, 0.0), (2.0, -2.0, 0.0)), 0.25)
        monkeypatch.setattr(g, "ONE_SIDED", closure)
        monkeypatch.setitem(g.BOUNDARIES, g.CLAMPED, closure)
        gr = small_grid(n_t=9, n_s=9, bc=g.CLAMPED)
        t, s = np.meshgrid(gr.t_coords(), gr.s_coords(), indexing="ij")
        angle = np.sin(3.0 * s) + s * s + np.cos(5.0 * t) * s
        d_s, d_t = g.d_s(gr, angle), g.d_t(gr, angle)
        ends = [0, 1, -2, -1]
        assert np.allclose(d_s[:, [0, -1]], np.diff(angle[:, ends], axis=1)
                           [:, [0, 2]] / gr.ds, rtol=0.0, atol=1e-12)
        assert np.allclose(d_t[[0, -1]], np.diff(angle[ends], axis=0)
                           [[0, 2]] / gr.dt, rtol=0.0, atol=1e-12)
        axis = np.array([0.6, 0.0, 0.8])
        Lam = so3.exp_so3(angle[..., None] * axis)
        s1 = red.project_stage1(red.UnreducedSection(
            grid=gr, r=gr.zeros(), Lambda=Lam, theta=gr.zeros()))
        assert np.max(np.abs(s1.Omega - d_s[..., None] * axis)) <= 1e-12
        assert np.max(np.abs(s1.omega - d_t[..., None] * axis)) <= 1e-12
        units = np.eye(angle.size).reshape((-1,) + angle.shape)
        for d, adjoint in ((g.d_s, g.d_s_adjoint), (g.d_t, g.d_t_adjoint)):
            D = np.array([d(gr, e).ravel() for e in units]).T
            Dt = np.array([adjoint(gr, e).ravel() for e in units]).T
            assert np.array_equal(D.T, Dt)
        ones = np.ones((1, gr.n_s))
        assert g.integrate_s(gr, ones)[0] == gr.ds * (gr.n_s - 1.5)

    def test_half_turn_neighbors_rejected(self):
        from strand_reduce.errors import NearAnglePiError
        gr = small_grid(n_t=4, n_s=4)
        Lam = np.broadcast_to(np.eye(3), (gr.n_t, gr.n_s, 3, 3)).copy()
        # one node flipped by (almost) pi relative to its neighbours
        Lam[2, 2] = so3.exp_so3(np.array([np.pi - 1e-8, 0.0, 0.0]))
        u = red.UnreducedSection(grid=gr, r=np.zeros((gr.n_t, gr.n_s, 3)),
                                 Lambda=Lam, theta=np.zeros((gr.n_t, gr.n_s, 3)))
        with pytest.raises(NearAnglePiError):
            red.project_stage1(u)

    def test_equivariance(self, rng):
        gr = small_grid(n_t=8, n_s=12)
        u, _, _, _ = synthetic_unreduced(gr)
        G = so3.random_rotation(rng)
        alpha = rng.normal(size=3)
        moved = red.UnreducedSection(
            grid=gr,
            r=np.einsum("ij,tsj->tsi", G, u.r),
            Lambda=np.einsum("ij,tsjk->tsik", G, u.Lambda),
            theta=u.theta + alpha)
        a = red.project_stage1(u)
        b = red.project_stage1(moved)
        assert np.allclose(a.rho, b.rho, atol=1e-12)
        assert np.allclose(a.Omega, b.Omega, atol=1e-12)
        assert np.allclose(a.omega, b.omega, atol=1e-12)
        assert np.allclose(b.theta, a.theta + alpha, atol=1e-12)


class TestProjectStage2:
    def test_affine_theta(self):
        gr = small_grid(bc=g.CLAMPED)
        t = gr.t_coords()[:, None]
        s = gr.s_coords()[None, :]
        theta = np.stack([s + 0.0 * t, 2.0 * t + 0.0 * s, 0.0 * s + 0.0 * t],
                         axis=-1)
        s1 = red.Stage1Section(grid=gr, rho=np.zeros_like(theta), theta=theta,
                               Omega=np.zeros_like(theta),
                               omega=np.zeros_like(theta))
        s2 = red.project_stage2(s1)
        assert np.allclose(s2.theta_s, E1, atol=1e-12)
        assert np.allclose(s2.theta_t, 2.0 * E2, atol=1e-12)

    def test_constant_theta(self):
        gr = small_grid()
        theta = np.ones((gr.n_t, gr.n_s, 3))
        s1 = red.Stage1Section(grid=gr, rho=theta, theta=theta,
                               Omega=theta, omega=theta)
        s2 = red.project_stage2(s1)
        assert np.array_equal(s2.theta_s, np.zeros_like(theta))
        assert np.array_equal(s2.theta_t, np.zeros_like(theta))

    def test_trig_theta_second_order(self):
        errs = []
        for n in (16, 32):
            gr = small_grid(n_t=n, n_s=n)
            t = gr.t_coords()[:, None]
            s = gr.s_coords()[None, :]
            k = 2 * np.pi / gr.length_s
            theta = np.stack([np.sin(k * s) * np.cos(t)] * 3, axis=-1)
            want_a = np.stack([k * np.cos(k * s) * np.cos(t)] * 3, axis=-1)
            s1 = red.Stage1Section(grid=gr, rho=theta, theta=theta,
                                   Omega=theta, omega=theta)
            errs.append(g.norm_max(red.project_stage2(s1).theta_s - want_a))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestFlatness:
    def test_constant_parallel(self):
        gr = small_grid()
        W = np.broadcast_to(E3, (gr.n_t, gr.n_s, 3)).copy()
        res = red.flatness_residual_rotation(gr, W, 2.0 * W)
        assert g.norm_max(res) == 0.0

    def test_constant_crossed(self):
        gr = small_grid()
        res = red.flatness_residual_rotation(
            gr, np.broadcast_to(E1, (gr.n_t, gr.n_s, 3)).copy(),
            np.broadcast_to(E2, (gr.n_t, gr.n_s, 3)).copy())
        # derivative terms vanish; only the cross term e1 x e2 survives
        assert np.allclose(res, E3, atol=1e-14)

    def test_projected_fields_nearly_flat(self):
        errs = []
        for n in (16, 32):
            gr = small_grid(n_t=n, n_s=n)
            u, _, _, _ = synthetic_unreduced(gr)
            s1 = red.project_stage1(u)
            errs.append(g.norm_max(red.flatness_residual_rotation(
                gr, s1.Omega, s1.omega)))
        assert errs[1] <= errs[0] / 3.0

    def test_rotor_flatness(self):
        gr = small_grid()
        t = gr.t_coords()[:, None]
        a = np.stack([t + 0.0 * gr.s_coords()[None, :],
                      0.0 * t + 0.0 * gr.s_coords()[None, :],
                      0.0 * t + 0.0 * gr.s_coords()[None, :]], axis=-1)
        res = red.flatness_residual_rotor(gr, a, np.zeros_like(a))
        assert np.allclose(res, E1, atol=1e-12)

    def test_rotor_mixed_partials(self):
        gr = small_grid()
        t = gr.t_coords()[:, None]
        s = gr.s_coords()[None, :]
        k = 2 * np.pi / gr.length_s
        theta = np.stack([np.sin(k * s + 0.7 * t)] * 3, axis=-1)
        s1 = red.Stage1Section(grid=gr, rho=theta, theta=theta, Omega=theta,
                               omega=theta)
        s2 = red.project_stage2(s1)
        defect = red.flatness_residual_rotor(gr, s2.theta_s, s2.theta_t)
        assert g.norm_max(defect) <= 1e-11 / (gr.ds * gr.dt)


class TestReconstructRotation:
    def test_trivial(self):
        gr = small_grid(n_t=8, n_s=8)
        Z = np.zeros((gr.n_t, gr.n_s, 3))
        Lam = red.reconstruct_rotation(gr, Z, Z, np.eye(3), tol=1e-12)
        assert np.allclose(Lam, np.eye(3), atol=1e-14)

    def test_one_parameter_subgroup(self):
        gr = small_grid(n_t=8, n_s=32, bc=g.CLAMPED)
        W = np.broadcast_to(E3, (gr.n_t, gr.n_s, 3)).copy()
        Z = np.zeros_like(W)
        Lam = red.reconstruct_rotation(gr, W, Z, np.eye(3), tol=1e-12)
        s = gr.s_coords()
        want = so3.exp_so3(s[:, None] * E3)
        err = np.max(np.abs(Lam - want[None]))
        assert err <= 5.0 * gr.ds ** 2

    def test_family_property(self, rng):
        gr = small_grid(n_t=10, n_s=12)
        _, Omega, omega, _ = flat_pair(gr)
        G = so3.random_rotation(rng)
        base = red.reconstruct_rotation(gr, Omega, omega, np.eye(3), tol=1e-2)
        moved = red.reconstruct_rotation(gr, Omega, omega, G, tol=1e-2)
        assert np.allclose(moved, np.einsum("ij,tsjk->tsik", G, base), atol=1e-10)

    def test_long_sweep_stays_orthonormal(self):
        # the sweep multiplies rotations and never projects them back: over
        # 4001 levels max|L^T L - I| grows from 4.4e-16 to about 9e-15
        gr = small_grid(n_t=4001, n_s=8, duration=20.0)
        _, Omega, omega, _ = flat_pair(gr)
        Lam = red.reconstruct_rotation(gr, Omega, omega, np.eye(3), tol=None)
        gram = np.swapaxes(Lam, -1, -2) @ Lam
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-13

    def test_not_flat_raises(self):
        gr = small_grid(n_t=8, n_s=8)
        W = np.broadcast_to(E1, (gr.n_t, gr.n_s, 3)).copy()
        w = np.broadcast_to(E2, (gr.n_t, gr.n_s, 3)).copy()
        with pytest.raises(NotFlatError):
            red.reconstruct_rotation(gr, W, w, np.eye(3), tol=1e-3)

    @pytest.mark.parametrize("field", ["Omega", "omega"])
    @pytest.mark.parametrize("tol", [1e-3, None])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fails_the_gate(self, field, tol, value):
        # a NaN in Omega used to pass the gate and a NaN in omega to end in
        # the polar iteration; an inf makes the residual NaN or inf
        gr = small_grid(n_t=16, n_s=40, bc=g.CLAMPED)
        _, Omega, omega, _ = flat_pair(gr)
        {"Omega": Omega, "omega": omega}[field][9, 17, 2] = value
        with np.errstate(invalid="ignore"), pytest.raises(NotFlatError,
                                                          match="not finite"):
            red.reconstruct_rotation(gr, Omega, omega, np.eye(3), tol=tol)

    def test_default_tol_passes_finite_data(self):
        gr = small_grid(n_t=8, n_s=8)
        W = np.broadcast_to(E1, (gr.n_t, gr.n_s, 3)).copy()
        w = np.broadcast_to(E2, (gr.n_t, gr.n_s, 3)).copy()
        red.reconstruct_rotation(gr, W, w, np.eye(3), tol=None)

    def test_coarse_step_angle_rejected(self):
        from strand_reduce.errors import NearAnglePiError
        gr = small_grid(n_t=8, n_s=8)
        W = np.broadcast_to(200.0 * E1, (gr.n_t, gr.n_s, 3)).copy()
        w = np.broadcast_to(100.0 * E1, (gr.n_t, gr.n_s, 3)).copy()  # parallel: flat
        with pytest.raises(NearAnglePiError):
            red.reconstruct_rotation(gr, W, w, np.eye(3), tol=1e-6)

    @pytest.mark.parametrize("sweep, field", [("st", "omega"), ("ts", "Omega")])
    def test_coarse_step_names_level_and_node(self, sweep, field):
        # each order first steps onto the bad cell along the rate it reads
        from strand_reduce.errors import NearAnglePiError
        gr = small_grid(n_t=8, n_s=8)
        rates = {name: np.zeros((gr.n_t, gr.n_s, 3)) for name in ("Omega", "omega")}
        rates[field][4, 5, 0] = 1e6
        with pytest.raises(NearAnglePiError, match=" at level 4, node 5$"):
            sweep_order(sweep, gr, rates["Omega"], rates["omega"], np.eye(3),
                        None)

    def test_coarse_step_message_names_the_first_step(self):
        # in sweep order: along s on level 0, then level by level, where a
        # row's largest angle names the node; a later, larger step does not
        from strand_reduce.errors import NearAnglePiError
        gr = small_grid(n_t=8, n_s=8)
        for field, cells, where in (
                ("Omega", ((0, 2, 2.0), (0, 3, 2.0), (0, 6, 3.0), (0, 7, 3.0)),
                 "2.000 >= pi/2; grid too coarse at level 0, node 3"),
                ("omega", ((2, 5, 2.0), (3, 5, 2.0), (2, 6, 2.5), (3, 6, 2.5),
                           (5, 1, 3.0), (6, 1, 3.0)),
                 "2.500 >= pi/2; grid too coarse at level 3, node 6")):
            rates = {name: np.zeros((gr.n_t, gr.n_s, 3))
                     for name in ("Omega", "omega")}
            h = gr.ds if field == "Omega" else gr.dt
            for i, j, angle in cells:
                rates[field][i, j, 1] = angle / h
            with pytest.raises(NearAnglePiError) as exc:
                red.rotation_levels(gr, rates["Omega"], rates["omega"],
                                    np.eye(3))[0:gr.n_t]
            assert str(exc.value) == f"reconstruction step angle {where}"

    def test_failed_gate_wins_over_a_coarse_step(self):
        # non-flat and too coarse for the sweep: the gate is reported
        from strand_reduce.errors import NearAnglePiError
        gr = small_grid(n_t=8, n_s=8)
        W = np.broadcast_to(200.0 * E1, (gr.n_t, gr.n_s, 3)).copy()
        w = np.broadcast_to(100.0 * E2, (gr.n_t, gr.n_s, 3)).copy()
        with pytest.raises(NearAnglePiError):
            red.rotation_levels(gr, W, w, np.eye(3))[0:gr.n_t]
        with pytest.raises(NotFlatError, match="exceeds tolerance"):
            red.reconstruct_rotation(gr, W, w, np.eye(3), tol=1e-3)

    def test_path_independence_defect(self):
        gr = small_grid(n_t=32, n_s=32)
        Lam0, Omega, omega, _ = flat_pair(gr)
        flat = g.norm_max(red.flatness_residual_rotation(gr, Omega, omega))
        area = gr.duration * gr.length_s
        h2 = gr.ds ** 2 + gr.dt ** 2
        defect = red.path_independence_defect(gr, Omega, omega, Lam0[0, 0],
                                              tol=1e-2)
        assert defect <= 10.0 * flat * area + 10.0 * h2


class TestReconstructTheta:
    def test_constant_zero(self):
        gr = small_grid(n_t=8, n_s=8)
        Z = np.zeros((gr.n_t, gr.n_s, 3))
        theta0 = np.array([0.3, -0.1, 2.0])
        theta = red.reconstruct_theta(gr, Z, Z, theta0, tol=1e-12)
        assert np.allclose(theta, theta0, atol=1e-15)

    def test_constant_gradients_exact(self):
        gr = small_grid(n_t=8, n_s=8)
        a = np.broadcast_to(E1, (gr.n_t, gr.n_s, 3)).copy()
        b = np.broadcast_to(E2, (gr.n_t, gr.n_s, 3)).copy()
        theta0 = np.zeros(3)
        theta = red.reconstruct_theta(gr, a, b, theta0, tol=1e-12)
        t = gr.t_coords()[:, None]
        s = gr.s_coords()[None, :]
        want = np.stack([s + 0.0 * t, t + 0.0 * s, 0.0 * s + 0.0 * t], axis=-1)
        assert np.allclose(theta, want, atol=1e-12)

    def test_round_trip_second_order(self):
        errs = []
        for n in (16, 32):
            gr = small_grid(n_t=n, n_s=n)
            t = gr.t_coords()[:, None]
            s = gr.s_coords()[None, :]
            k = 2 * np.pi / gr.length_s
            theta_true = np.stack([np.sin(k * s) * np.cos(t),
                                   np.cos(k * s) * np.sin(0.8 * t),
                                   0.2 * np.sin(k * s + t)], axis=-1)
            a = np.stack([k * np.cos(k * s) * np.cos(t),
                          -k * np.sin(k * s) * np.sin(0.8 * t),
                          0.2 * k * np.cos(k * s + t)], axis=-1)
            b = np.stack([-np.sin(k * s) * np.sin(t),
                          0.8 * np.cos(k * s) * np.cos(0.8 * t),
                          0.2 * np.cos(k * s + t)], axis=-1)
            # tolerance only gates the O(h^2) discrete defect of the exact pair
            theta = red.reconstruct_theta(gr, a, b, theta_true[0, 0], tol=1.0)
            errs.append(g.norm_max(theta - theta_true))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_not_flat_raises(self):
        gr = small_grid(n_t=8, n_s=8)
        t = gr.t_coords()[:, None]
        a = np.stack([t + 0.0 * gr.s_coords()[None, :]] * 3, axis=-1)
        with pytest.raises(NotFlatError):
            red.reconstruct_theta(gr, a, np.zeros_like(a), np.zeros(3), tol=1e-6)

    def test_nan_fails_the_gate(self):
        gr = small_grid(n_t=8, n_s=8)
        a = np.zeros((gr.n_t, gr.n_s, 3))
        a[4, 3, 0] = np.nan
        with pytest.raises(NotFlatError, match="nan"):
            red.reconstruct_theta(gr, a, np.zeros_like(a), np.zeros(3), tol=1e-6)

    def test_failed_gate_names_level_and_node(self):
        # d_t(a) of one bump at level 4 is +-1/(2 dt) on levels 3 and 5
        gr = small_grid(n_t=8, n_s=8)
        a = np.zeros((gr.n_t, gr.n_s, 3))
        a[4, 3, 1] = 1.0
        with pytest.raises(NotFlatError, match=" at level 3, node 3$"):
            red.reconstruct_theta(gr, a, np.zeros_like(a), np.zeros(3), tol=1e-6)


def svd_sweep_reconstruction(gr, Omega, omega, Lambda0, sweep):
    """reconstruct_rotation's two sweep orders with an SVD polar factor."""
    def step(L, rate, h):
        return svd_polar(L @ so3.exp_so3(h * rate))

    Lam = np.empty((gr.n_t, gr.n_s, 3, 3))
    Lam[0, 0] = Lambda0
    if sweep == "st":
        for j in range(gr.n_s - 1):
            Lam[0, j + 1] = step(Lam[0, j], 0.5 * (Omega[0, j] + Omega[0, j + 1]), gr.ds)
        for i in range(gr.n_t - 1):
            Lam[i + 1] = step(Lam[i], 0.5 * (omega[i] + omega[i + 1]), gr.dt)
    else:
        for i in range(gr.n_t - 1):
            Lam[i + 1, 0] = step(Lam[i, 0], 0.5 * (omega[i, 0] + omega[i + 1, 0]), gr.dt)
        for j in range(gr.n_s - 1):
            Lam[:, j + 1] = step(Lam[:, j], 0.5 * (Omega[:, j] + Omega[:, j + 1]), gr.ds)
    return Lam


@pytest.mark.parametrize("sweep", ["st", "ts"])
def test_reconstruction_matches_svd_sweep(rng, sweep):
    gr = small_grid(n_t=24, n_s=40, bc=g.CLAMPED)
    _, Omega, omega, _ = flat_pair(gr)
    Lambda0 = so3.random_rotation(rng)
    Lam = sweep_order(sweep, gr, Omega, omega, Lambda0, 1e-2)
    want = svd_sweep_reconstruction(gr, Omega, omega, Lambda0, sweep)
    assert np.allclose(Lam, want, rtol=0.0, atol=1e-13)
