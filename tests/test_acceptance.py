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
from strand_reduce import noether
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
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


def _twist_run(n_s, n_t, duration, params):
    gr = g.Grid2(n_t=n_t, n_s=n_s, dt=duration / (n_t - 1), ds=1.0 / n_s,
                 bc_s=g.PERIODIC)
    return sim.run(sim.SimConfig(grid=gr, params=params, preset="twistpulse"))


@pytest.fixture(scope="module")
def params():
    return model.default_params()


@pytest.fixture(scope="module")
def twist_pair(params):
    """TwistPulse runs at 64x200 and one refinement (criterion 5)."""
    return {n_s: _twist_run(n_s, n_t, 0.5, params)
            for n_s, n_t in ((64, 200), (128, 400))}


def _interior_norms_w3(res):
    """Grid L2 norms of a residual record's fields, three-node rim excluded."""
    gr = res.grid
    return {name: g.norm_l2(gr, getattr(res, name), gr.interior_mask(3))
            for name in res._fields}


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


def test_criterion_5_reduction_equivalence(params, twist_pair, report):
    combined = {}
    ratios_all = []
    vs_original = {}
    for n_s, out in twist_pair.items():
        sec = out.section
        gr = sec.grid
        flat = g.norm_max(red.flatness_residual_rotation(sec))
        Lam = red.reconstruct_rotation(gr, sec.Omega, sec.omega, np.eye(3),
                                       tol=10.0 * flat + 1e-6)
        # The pulse carries a nonzero loop rotation, so the lift lives on
        # the cut domain: one-sided stencils at the seam.
        gcut = dataclasses.replace(gr, bc_s=g.CLAMPED)
        lift = red.UnreducedSection(
            grid=gcut, r=np.einsum("tsij,tsj->tsi", Lam, sec.rho),
            Lambda=Lam, theta=sec.theta)
        un = _interior_norms_w3(rs.el_unreduced_residual(lift, params))
        proj = red.project_stage1(lift)
        st = _interior_norms_w3(rs.stage1_residuals(proj, params))
        for a, b in (("res_r", "horizontal_rho"),
                     ("res_Lambda", "vertical"),
                     ("res_theta", "horizontal_theta")):
            ratios_all.append(un[a] / st[b])
        combined[n_s] = (np.sqrt(sum(v * v for v in un.values())),
                         np.sqrt(sum(v * v for v in st.values())))
        st_orig = _interior_norms_w3(rs.stage1_residuals(sec, params))
        vs_original[n_s] = (combined[n_s][0]
                            / np.sqrt(sum(v * v for v in st_orig.values())))
    order_un = float(np.log2(combined[64][0] / combined[128][0]))
    order_st = float(np.log2(combined[64][1] / combined[128][1]))
    ratio_ok = all(0.25 <= r <= 4.0 for r in ratios_all)
    order_ok = all(1.7 <= o <= 2.3 for o in (order_un, order_st))
    ok = ratio_ok and order_ok
    report(5, "reduction-equivalence", ok,
            f"norm ratios (lift vs its projection) in "
            f"[{min(ratios_all):.2f},{max(ratios_all):.2f}] within x4, "
            f"orders {order_un:.2f}/{order_st:.2f}; vs original section: "
            f"x{vs_original[64]:.0f} (midpoint-reconstruction bound)")
    assert ok


def test_criterion_6_reconstruction(report):
    results = checks.check_roundtrip()
    ok = all(r.passed for r in results)
    byname = {r.name: r.value for r in results}
    ratios = [byname[f"roundtrip_error_ratio_{n}_to_{2 * n}"] for n in (16, 32)]
    ok = ok and all(3.0 <= r <= 5.0 for r in ratios)
    report(6, "reconstruction", ok,
            f"roundtrip ratios {byname['roundtrip_error_ratio_16_to_32']:.2f}/"
            f"{byname['roundtrip_error_ratio_32_to_64']:.2f} in [3,5], "
            f"path defect {byname['path_independence_defect']:.2e} bounded, "
            f"non-flat rejected")
    assert ok


def test_criterion_7_noether_conservation(params, report):
    # duration keeps the pulse clear of the seam: the pinned profile has a
    # nonzero loop rotation, so for long runs the spatial total genuinely
    # leaks flux there and no refinement can shrink it
    duration = 0.125
    drifts = {"rotor": [], "so3": []}
    bounds = []
    identity_err = None
    for n_s, n_t in ((64, 50), (128, 100)):
        out = _twist_run(n_s, n_t, duration, params)
        sec = out.section
        gr = sec.grid
        flat = g.norm_max(red.flatness_residual_rotation(sec))
        Lam = red.reconstruct_rotation(gr, sec.Omega, sec.omega, np.eye(3),
                                       tol=10.0 * flat + 1e-6)
        fields = rs.stage1_derivative_fields(sec, params)
        d = model.fiber_derivatives_stage1(fields, params)
        for name, cur in (("rotor", noether.rotor_current(gr, d)),
                          ("so3", noether.so3_current(gr, Lam, d))):
            tot = noether.totals_over_time(cur)
            drifts[name].append(
                float(np.max(np.linalg.norm(tot - tot[0], axis=-1))))
        bounds.append(1.0 * (gr.dt ** 2 + gr.ds ** 2) * duration)
        if n_s == 64:
            drift = noether.drift_residual(Lam, fields, d, params)
            vert = rs.stage1_residuals(sec, params, fields=fields).vertical
            want = np.einsum("tsij,tsj->tsi", Lam, vert)
            identity_err = g.norm_max(drift - want) / (1.0 + g.norm_max(want))
    ratios = {k: v[0] / v[1] for k, v in drifts.items()}
    decay_ok = all(3.0 <= r <= 5.0 for r in ratios.values())
    bound_ok = all(v[i] <= bounds[i] for v in drifts.values() for i in (0, 1))
    ident_ok = identity_err <= 1e-12
    ok = decay_ok and bound_ok and ident_ok
    report(7, "noether-conservation", ok,
            f"drift decay rotor x{ratios['rotor']:.2f} so3 x{ratios['so3']:.2f}"
            f" in [3,5], drifts <= (dt^2+ds^2)T, "
            f"identity err {identity_err:.1e} <= 1e-12")
    assert ok


def test_criterion_8_rigid_body_limit(report):
    params = model.free_params()
    gr = g.Grid2(n_t=10001, n_s=4, dt=1e-3, ds=0.25, bc_s=g.PERIODIC)
    out = sim.run(sim.SimConfig(grid=gr, params=params, preset="rigidbody"))
    I = params.inertia_body
    K = params.inertia_rotor
    I_inv = np.linalg.inv(I)
    state0 = sim.presets("rigidbody", gr, params)
    y = np.concatenate([state0.rho[0], state0.u[0], state0.theta[0],
                        state0.v[0], state0.omega[0]])

    def f(vec):
        rho, u, _theta, v, om = vec.reshape(5, 3)
        om_t = I_inv @ (-np.cross(om, (I + K) @ om + K @ v))
        u_t = np.cross(om, np.cross(rho, om) - 2 * u) - np.cross(om_t, rho)
        return np.concatenate([u, u_t, v, -om_t, om_t])

    h = gr.dt
    for _ in range(gr.n_t - 1):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    rho, u, theta, v, om = y.reshape(5, 3)
    sec = out.section
    err = 0.0
    for j in range(gr.n_s):
        err = max(err,
                  float(np.max(np.abs(sec.rho[-1, j] - rho))),
                  float(np.max(np.abs(sec.theta[-1, j] - theta))),
                  float(np.max(np.abs(sec.omega[-1, j] - om))))
    ok = err <= 1e-10
    report(8, "rigid-body-limit", ok,
            f"nodewise err at T=10, dt=1e-3: {err:.2e} <= 1e-10")
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
