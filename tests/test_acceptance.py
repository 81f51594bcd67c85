"""Acceptance suite: every criterion at its stated tolerance.

One ``ACCEPTANCE n <name>: PASS/FAIL`` line is emitted per criterion on the
raw stderr stream so the verdicts are visible regardless of capture.  The
total-battery time bound is enforced at the end of the session in
``test_zz_battery.py``.
"""

import dataclasses
import sys
import time

import numpy as np
import pytest

from strand_reduce import checks
from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import simulate as sim
from strand_reduce.cli import main


@pytest.fixture
def report(capfd):
    """Emit one ``ACCEPTANCE n <name>: PASS/FAIL`` line past the capture."""

    def emit(num, name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}\n"
        with capfd.disabled():
            sys.stderr.write(line)
            sys.stderr.flush()

    return emit


def test_criterion_1_fiber_derivatives(report):
    t0 = time.perf_counter()
    results = checks.check_derivatives()
    elapsed = time.perf_counter() - t0
    assert [r.tol for r in results] == [1e-7, 1e-7]
    ok = all(r.passed for r in results) and elapsed < 1.0
    worst = max(r.value for r in results)
    report(1, "fiber-derivative-agreement", ok,
            f"max_rel_err={worst:.2e} <= 1e-7, {elapsed:.2f}s < 1s")
    assert ok


def test_criterion_2_invariance(report):
    results = checks.check_invariance()
    assert [r.tol for r in results] == [1e-12, 1e-12]
    ok = all(r.passed for r in results)
    report(2, "lagrangian-invariance-and-projection", ok,
            ", ".join(f"{r.name}={r.value:.2e}" for r in results))
    assert ok


def test_criterion_3_stage_equivalence(report):
    results = checks.check_stages()
    assert [r.tol for r in results] == [1e-12]
    ok = all(r.passed for r in results)
    report(3, "stage-equivalence", ok,
            f"max_abs_diff={results[0].value:.2e} <= 1e-12 on 20 sections")
    assert ok


def test_criterion_4_variational_consistency(report):
    t0 = time.perf_counter()
    results = checks.check_variational()
    elapsed = time.perf_counter() - t0
    order = results[0].value
    gaps = {r.name: r.value for r in results[1:]}
    # pinned constant: gap <= C h^2 ||var|| with C = 1 (gaps are already
    # normalized by the variation norm; h^2 = ds^2 + dt^2 per level)
    bound_ok = True
    for n in (16, 32, 64):
        h2 = (1.0 / n) ** 2 + (0.3 / (n - 1)) ** 2
        bound_ok = bound_ok and gaps[f"variational_gap_n{n}"] <= 1.0 * h2
    ok = (1.7 <= order <= 2.3 and results[0].passed and bound_ok
          and elapsed < 10.0)
    report(4, "variational-consistency", ok,
            f"order={order:.2f} in [1.7,2.3], gaps<=h^2, {elapsed:.1f}s < 10s")
    assert ok


def test_criterion_5_reduction_equivalence(report):
    results = checks.check_reduction()
    byname = {r.name: r.value for r in results}
    ratios = [byname[f"{a}_over_{b}_n{n}"] for n in (64, 128)
              for a, b in (("res_r", "horizontal_rho"),
                           ("res_Lambda", "vertical"),
                           ("res_theta", "horizontal_theta"))]
    orders = [byname["order_unreduced"], byname["order_stage1"]]
    ok = (all(r.passed for r in results)
          and all(0.25 <= r <= 4.0 for r in ratios)
          and all(1.7 <= o <= 2.3 for o in orders))
    report(5, "reduction-equivalence", ok,
            f"norm ratios (lift vs its projection) in "
            f"[{min(ratios):.2f},{max(ratios):.2f}] within x4, "
            f"orders {orders[0]:.2f}/{orders[1]:.2f}; vs original section: "
            f"x{byname['unreduced_over_run_stage1_n64']:.0f} "
            f"(midpoint-reconstruction bound)")
    assert ok


def test_criterion_6_reconstruction(report):
    results = checks.check_roundtrip()
    ok = all(r.passed for r in results)
    byname = {r.name: r.value for r in results}
    ratios = [byname[f"{kind}_error_ratio_{n}_to_{2 * n}"]
              for kind in ("roundtrip", "theta_roundtrip") for n in (16, 32)]
    ok = ok and all(3.0 <= r <= 5.0 for r in ratios)
    report(6, "reconstruction", ok,
            f"roundtrip ratios Lambda {ratios[0]:.2f}/{ratios[1]:.2f}, "
            f"theta {ratios[2]:.2f}/{ratios[3]:.2f} in [3,5], "
            f"path defect {byname['path_independence_defect']:.2e} bounded, "
            f"non-flat rejected")
    assert ok


def test_criterion_7_noether_conservation(report):
    results = checks.check_noether()
    byname = {r.name: r.value for r in results}
    # the twist pulse at T = 0.125 on the unit periodic loop
    drift_ok = all(byname[f"{name}_total_drift_n{n_s}"]
                   <= ((0.125 / (n_t - 1)) ** 2 + (1.0 / n_s) ** 2) * 0.125
                   for name in ("rotor", "so3")
                   for n_s, n_t in ((64, 50), (128, 100)))
    identity = max(byname[f"current_vertical_identity_max_err_n{n}"]
                   for n in (64, 128))
    ratios = {name: byname[f"{name}_total_drift_ratio_64_to_128"]
              for name in ("rotor", "so3")}
    ok = (all(r.passed for r in results) and drift_ok and identity <= 1e-12
          and all(3.0 <= r <= 5.0 for r in ratios.values()))
    report(7, "noether-conservation", ok,
            f"drift decay rotor x{ratios['rotor']:.2f} so3 x{ratios['so3']:.2f}"
            f" in [3,5], drifts <= (dt^2+ds^2)T, "
            f"identity err {identity:.1e} <= 1e-12")
    assert ok


def _rigid_body_oracle(params, state0, h, steps):
    """RK4 on the rigid body with rotors, in plain Python floats.

    It shares no code with the march: 3-vectors are lists and every product
    is written out, which also keeps its 10^4 steps well under a second.
    With C = D = 0 only the stretch term of the potential acts on it.
    """
    IK = (params.inertia_body + params.inertia_rotor).tolist()
    K = params.inertia_rotor.tolist()
    I_inv = np.linalg.inv(params.inertia_body).tolist()
    kappa, c0 = params.pot_kappa, params.pot_c0

    def mat(M, x):
        return [r[0] * x[0] + r[1] * x[1] + r[2] * x[2] for r in M]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0]]

    def f(y):
        rho, u, _theta, v, om = y
        m = [p + q for p, q in zip(mat(IK, om), mat(K, v))]
        om_t = mat(I_inv, [-c for c in cross(om, m)])
        stretch = kappa * (sum(r * r for r in rho) - c0)
        F = [p - stretch * r for p, r in zip(
            cross(om, [p - 2.0 * q for p, q in zip(cross(rho, om), u)]), rho)]
        u_t = [p - q for p, q in zip(F, cross(om_t, rho))]
        return u, u_t, v, [-c for c in om_t], om_t

    def shift(y, c, k):
        return [[p + c * q for p, q in zip(a, b)] for a, b in zip(y, k)]

    y = [state0[model.COMPONENTS.index(name), 0].tolist()
         for name in ("rho", "u", "theta", "v", "omega")]
    for _ in range(steps):
        k1 = f(y)
        k2 = f(shift(y, 0.5 * h, k1))
        k3 = f(shift(y, 0.5 * h, k2))
        k4 = f(shift(y, h, k3))
        y = [[p + h / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
              for p, q1, q2, q3, q4 in zip(*parts)]
             for parts in zip(y, k1, k2, k3, k4)]
    return y


def test_criterion_8_rigid_body_limit(report):
    # the free rigid body to T = 10, then one stretched off |rho|^2 = c0 to
    # T = 2, so that the stretch force acts; the start is given as init, so
    # no preset moves
    zero = np.zeros((3, 3))
    errs = []
    for kappa, n_t, scale in ((0.0, 10001, 1.0), (1.0, 2001, 1.1)):
        params = dataclasses.replace(model.default_params(), pot_C=zero,
                                     pot_D=zero, pot_kappa=kappa)
        gr = g.Grid2(n_t=n_t, n_s=4, dt=1e-3, ds=0.25, bc_s=g.PERIODIC)
        state0 = sim.presets("rigidbody", gr, params)
        state0[model.COMPONENTS.index("rho")] *= scale
        out = sim.run(sim.SimConfig(grid=gr, params=params, init=state0))
        rho, _u, theta, _v, om = _rigid_body_oracle(params, state0, gr.dt,
                                                    gr.n_t - 1)
        sec = out.section
        err = 0.0
        for j in range(gr.n_s):
            err = max(err,
                      float(np.max(np.abs(sec.rho[-1, j] - rho))),
                      float(np.max(np.abs(sec.theta[-1, j] - theta))),
                      float(np.max(np.abs(sec.omega[-1, j] - om))))
        errs.append(err)
    ok = max(errs) <= 1e-10
    report(8, "rigid-body-limit", ok,
            f"nodewise err, dt=1e-3: kappa=0 to T=10 {errs[0]:.2e}, "
            f"kappa=1 |rho|^2=1.21 to T=2 {errs[1]:.2e}, <= 1e-10")
    assert ok


def _stencil(n, h, periodic):
    """d_s as an (n, n) matrix: centred, wrapped when periodic, else with the
    one-sided second-order rows written out here, not read from ``grid``."""
    D = np.zeros((n, n))
    for j in range(n):
        D[j, (j + 1) % n] += 1.0
        D[j, (j - 1) % n] -= 1.0
    if not periodic:
        D[[0, -1]] = 0.0
        D[0, :3] = -3.0, 4.0, -1.0
        D[-1, -3:] = 1.0, -4.0, 3.0
    return D / (2.0 * h)


def _linear_rates(params, D):
    """J, the rates of the ``model.rates`` docstring linearised at rest
    (rho = sqrt(c0) e1, all else 0), on states flattened from (7, n_s, 3):

        rho_t = u,  theta_t = v,  a_t = d_s v,  Omega_t = d_s omega,
        omega_t = I^-1 (C d_s Omega - D d_s a),
        v_t = K^-1 D d_s a - omega_t,
        u_t = -2 kappa rho0 <rho0, rho> + rho0 x omega_t.
    """
    n = len(D)
    I_inv = np.linalg.inv(params.inertia_body)
    K_inv = np.linalg.inv(params.inertia_rotor)
    r0 = np.array([np.sqrt(params.pot_c0), 0.0, 0.0])
    r0x = np.array([[0.0, -r0[2], r0[1]], [r0[2], 0.0, -r0[0]],
                    [-r0[1], r0[0], 0.0]])
    rho, u, theta, a, v, Om, om = range(7)
    pointwise, d_s = (lambda M: np.kron(np.eye(n), M),
                      lambda M: np.kron(D, M))
    B = {(rho, u): pointwise(np.eye(3)), (theta, v): pointwise(np.eye(3)),
         (a, v): d_s(np.eye(3)), (Om, om): d_s(np.eye(3)),
         (om, Om): d_s(I_inv @ params.pot_C),
         (om, a): -d_s(I_inv @ params.pot_D),
         (u, rho): pointwise(-2.0 * params.pot_kappa * np.outer(r0, r0))}
    B[v, a] = d_s(K_inv @ params.pot_D) - B[om, a]
    B[v, Om] = -B[om, Om]
    B[u, Om], B[u, a] = pointwise(r0x) @ B[om, Om], pointwise(r0x) @ B[om, a]
    m = 3 * n
    J = np.zeros((7 * m, 7 * m))
    for (i, k), block in B.items():
        J[i * m:(i + 1) * m, k * m:(k + 1) * m] = block
    return J


def test_criterion_10_linear_waves(report):
    # a perturbation eps z of the strand at rest follows the exact solution
    # z(T) = expm(T J) z(0) of the linearised balance laws, up to O(eps) and
    # RK4's error: an oracle for the terms that couple neighbouring nodes (d_s,
    # C, D, the boundary rows) that does not call model.rates
    from scipy.linalg import expm
    params, eps = model.default_params(), 1e-7
    errs = {}
    for bc in (g.PERIODIC, g.CLAMPED):
        gr = g.Grid2.uniform(201, 16, 1.0, 1.0, bc)
        phase = 2.0 * np.pi * gr.s_coords() / gr.length_s
        coef = np.random.default_rng(10).normal(size=(4, 4, 3))
        z0 = np.zeros((len(model.COMPONENTS), gr.n_s, 3))
        # smooth perturbations of rho, a, Omega and omega
        z0[[0, 3, 5, 6]] = (np.cos(phase)[:, None] * coef[:, None, 0]
                            + np.sin(phase)[:, None] * coef[:, None, 1]
                            + np.cos(2.0 * phase)[:, None] * coef[:, None, 2]
                            + np.sin(2.0 * phase)[:, None] * coef[:, None, 3])
        rest = sim.presets("static", gr, params)
        sec = sim.run(sim.SimConfig(grid=gr, params=params,
                                    init=rest + eps * z0)).section
        J = _linear_rates(params, _stencil(gr.n_s, gr.ds, gr.periodic_s))
        zT = (expm(gr.duration * J) @ z0.ravel()).reshape(z0.shape)
        errs[bc] = max(
            float(np.max(np.abs((getattr(sec, name)[-1] - rest[k]) / eps
                                - zT[k]))) for k, name in
            ((0, "rho"), (2, "theta"), (5, "Omega"), (6, "omega"))
        ) / float(np.max(np.abs(zT)))
    ok = max(errs.values()) <= 1e-5
    report(10, "linear-wave-oracle", ok,
           ", ".join(f"{bc} {err:.1e}" for bc, err in errs.items())
           + " max err relative to max|z(T)|, n_s=16 T=1 eps=1e-7, <= 1e-5")
    assert ok


def _energy(gr, y, params):
    """E_h, the H-weighted s-integral (``integrate_s``) of the energy density
    of a packed state, written here, not read from ``model``:

        1/2 |u + omega x rho|^2 + 1/2 <omega, I omega>
        + 1/2 <omega + v, K (omega + v)> + 1/2 <Omega, C Omega>
        + 1/2 <a, D a> + kappa/4 (|rho|^2 - c0)^2.
    """
    rho, u, _theta, a, v, Omega, omega = y

    def quad(x, M):
        return np.einsum("...i,ij,...j->...", x, M, x)

    e = (0.5 * (quad(u + np.cross(omega, rho), np.eye(3))
                + quad(omega, params.inertia_body)
                + quad(omega + v, params.inertia_rotor)
                + quad(Omega, params.pot_C) + quad(a, params.pot_D))
         + 0.25 * params.pot_kappa
         * (quad(rho, np.eye(3)) - params.pot_c0) ** 2)
    return float(g.integrate_s(gr, e[None])[0])


@pytest.mark.parametrize("bc", [g.PERIODIC, pytest.param(
    g.CLAMPED, marks=pytest.mark.xfail(
        strict=True, reason="the clamped s closure is not summation-by-parts"
                            " (ROADMAP item 6)"))])
def test_criterion_11_conservation_identities(report, bc):
    # the semi-discrete system conserves E_h and the rotor total R at every
    # state, with no time step taken: their rates along model.rates vanish.
    # E_h is quartic in y, so the five-point derivative of E_h(y + eps f(y))
    # is exact; the rotor rates are sum_j H_j K (omega_t + v_t)_j
    params, eps = model.default_params(), 1e-3
    K = params.inertia_rotor
    energy, rotor = [], []
    for n_s in (8, 16):
        gr = g.Grid2.uniform(3, n_s, 1.0, 1.0, bc)
        f = model.rates(params, gr.ds, gr.closure_s)
        rng = np.random.default_rng(11)
        for _ in range(3):
            y = 0.5 * rng.normal(size=(len(model.COMPONENTS), n_s, 3))
            y[0, :, 0] += 1.0
            dy = f(y)
            E = [_energy(gr, y + k * eps * dy, params) for k in (-2, -1, 1, 2)]
            rate = (E[0] - 8.0 * E[1] + 8.0 * E[2] - E[3]) / (12.0 * eps)
            energy.append(abs(rate) / (1.0 + _energy(gr, y, params)))
            R = g.integrate_s(gr, ((y[6] + y[4]) @ K.T)[None])
            R_t = g.integrate_s(gr, ((dy[6] + dy[4]) @ K.T)[None])
            rotor.append(float(np.max(np.abs(R_t)))
                         / (1.0 + float(np.linalg.norm(R))))
    # roundoff of O(1) sums over at most 16 nodes, amplified by 1/(12 eps) in
    # the energy's stencil: about 1e-13, so 1e-12 leaves a factor of ten
    ok = max(energy) <= 1e-12 and max(rotor) <= 1e-12
    report(11, f"conservation-identities-{bc}", ok,
           f"|dE_h/dt|/(1+E_h) <= {max(energy):.1e}, |dR/dt|/(1+|R|) <= "
           f"{max(rotor):.1e}, n_s=8,16, 3 states each, <= 1e-12")
    assert ok


CONFIG = """
[grid]
n_s = 32
n_t = 40
length = 1.0
duration = 0.1
bc = periodic

[inertia]
I = diag 1.8 1.4 1.1
K = diag 0.9 0.7 0.5

[potential]
C = diag 1 0.8 0.6
D = diag 0.7 0.5 0.4
kappa = 1.0
c0 = 1.0

[init]
preset = twistpulse
"""


def test_criterion_9_determinism(tmp_path, report):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("rho.csv", "theta.csv", "Omega.csv", "omega.csv",
                     "manifest.txt", "diagnostics.csv", "report.txt"))
    report(9, "determinism", same,
            "two runs byte-identical; battery time asserted at session end")
    assert same
