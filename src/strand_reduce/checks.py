"""Verification harnesses behind the ``check`` and ``convergence`` commands.

Each suite returns a list of :class:`CheckResult`; a suite passes when every
entry does.  These are the same computations the acceptance tests run, so
the CLI and the test suite cannot drift apart.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import grid as g
from . import model
from . import noether
from . import reduction as red
from . import residuals as rs
from . import so3
from .errors import NotFlatError
from .simulate import SimConfig, run


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float          # None for informational rows
    passed: bool


def _result(name, value, tol, ok=None):
    return CheckResult(name, float(value),
                       None if tol is None else float(tol),
                       bool(value <= tol if ok is None else ok))


def _default_rng(seed=20260810):
    return np.random.default_rng(seed)


def _random_point(rng):
    return model.Stage1Point(*(rng.normal(size=3) for _ in range(6)))


def check_derivatives(params=None, n=100, step=1e-6, tol=1e-7):
    """Analytic fiber derivatives against central finite differences."""
    params = params or model.default_params()
    rng = _default_rng()
    worst = 0.0
    names = ("dl_drho", "dl_drho_t", "dl_dtheta_s", "dl_dtheta_t",
             "dl_dOmega", "dl_domega")
    for _ in range(n):
        pt = _random_point(rng)
        want = model.fiber_derivatives_stage1(pt, params)
        for slot, name in zip(model.SLOTS, names):
            fd = model.fd_fiber_derivative(model.lagrangian_stage1, pt, slot,
                                           step, params)
            have = getattr(want, name)
            rel = np.linalg.norm(fd - have) / (1.0 + np.linalg.norm(have))
            worst = max(worst, rel)
    worst_dE = 0.0
    for _ in range(n):
        W, a = rng.normal(size=(2, 3))
        c = float(rng.uniform(0.2, 3.0))
        dW, da, dc = model.dE(W, a, c, params)
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            for hi, lo, have in (
                    (model.potential_E(W + e, a, c, params),
                     model.potential_E(W - e, a, c, params), dW[i]),
                    (model.potential_E(W, a + e, c, params),
                     model.potential_E(W, a - e, c, params), da[i])):
                rel = abs((hi - lo) / (2 * step) - have) / (1.0 + abs(have))
                worst_dE = max(worst_dE, rel)
        fd = (model.potential_E(W, a, c + step, params)
              - model.potential_E(W, a, c - step, params)) / (2 * step)
        worst_dE = max(worst_dE, abs(fd - dc) / (1.0 + abs(dc)))
    return [_result("fiber_derivative_max_rel_err", worst, tol),
            _result("potential_derivative_max_rel_err", worst_dE, tol)]


def check_invariance(params=None, n=1000, tol=1e-12):
    """Rotation/shift invariance and the reduction identity of the Lagrangian."""
    params = params or model.default_params()
    rng = _default_rng()
    worst_inv = 0.0
    worst_proj = 0.0
    for _ in range(n):
        pt = _random_point(rng)
        lifted = model.lift_stage1(pt, so3.random_rotation(rng),
                                   r_s=rng.normal(size=3))
        L = model.lagrangian_unreduced(lifted, params)
        G = so3.random_rotation(rng)
        moved = dataclasses.replace(
            lifted, r=G @ lifted.r, r_s=G @ lifted.r_s, r_t=G @ lifted.r_t,
            Lambda=G @ lifted.Lambda, Lambda_s=G @ lifted.Lambda_s,
            Lambda_t=G @ lifted.Lambda_t)
        worst_inv = max(worst_inv,
                        abs(model.lagrangian_unreduced(moved, params) - L)
                        / (1.0 + abs(L)))
        worst_proj = max(worst_proj,
                         abs(model.lagrangian_stage1(pt, params) - L)
                         / (1.0 + abs(L)))
    return [_result("lagrangian_invariance_max_rel_err", worst_inv, tol),
            _result("lagrangian_projection_max_rel_err", worst_proj, tol)]


def random_smooth_section(gr, rng, modes=3, amp=0.3, c0=1.0):
    """Random low-order Fourier fields over the grid (generic, not a solution)."""
    t = gr.t_coords()[:, None]
    s = gr.s_coords()[None, :]
    L, T = gr.length_s, max(gr.duration, 1e-12)

    def field():
        out = np.zeros((gr.n_t, gr.n_s, 3))
        for k in range(1, modes + 1):
            for comp in range(3):
                a1, a2, p1, p2 = rng.normal(size=4)
                out[..., comp] += (a1 * np.sin(2 * np.pi * k * s / L + p1)
                                   * np.cos(np.pi * k * t / T + p2)
                                   + 0.3 * a2 * np.cos(2 * np.pi * k * s / L
                                                       - 0.7 * p2))
        return amp * out / modes

    rho = field()
    rho[..., 0] += np.sqrt(c0)
    return red.Stage1Section(grid=gr, rho=rho, theta=field(), Omega=field(),
                             omega=field())


def check_stages(params=None, n=20, n_grid=32, tol=1e-12):
    """Once-reduced and twice-reduced residuals agree on matched sections."""
    params = params or model.default_params()
    rng = _default_rng()
    gr = g.Grid2.uniform(n_grid, n_grid, 0.4, 1.0, g.PERIODIC)
    mask = gr.interior_mask(2)
    worst = 0.0
    for _ in range(n):
        s1 = random_smooth_section(gr, rng)
        s2 = red.project_stage2(s1)
        r1 = rs.stage1_residuals(s1, params)
        r2 = rs.stage2_residuals(s2, params)
        worst = max(worst,
                    g.norm_max(r1.vertical - r2.vertical, mask),
                    g.norm_max(r1.horizontal_rho - r2.horizontal_rho, mask),
                    g.norm_max(r1.horizontal_theta - r2.horizontal_theta, mask))
    return [_result("stage_equivalence_max_abs_diff", worst, tol)]


def interior_variation(gr, scale=1.0):
    """Compactly supported smooth variation used by the variational check.

    The windows vanish quadratically at the boundary nodes (and are zeroed
    there outright); linear vanishing would degrade the observed order of
    the gap to one near non-periodic edges.
    """
    t = gr.t_coords()
    s = gr.s_coords()
    T, L = gr.duration, gr.length_s
    wt = np.sin(np.pi * t / T) ** 2
    wt[0] = wt[-1] = 0.0
    wt = wt[:, None]
    if gr.periodic_s:
        ws = (1.2 + np.sin(2 * np.pi * s / L))[None, :]
    else:
        ws = np.sin(np.pi * s / L) ** 2
        ws[0] = ws[-1] = 0.0
        ws = ws[None, :]
    w = (wt * ws)[..., None]
    phase = (2 * np.pi * s / L)[None, :]
    mk = lambda *fs: scale * w * np.stack(
        [f(phase) * np.ones_like(w[..., 0]) for f in fs], axis=-1)
    return rs.VariationSpec(
        delta_rho=mk(np.cos, lambda p: 0.4 * np.sin(p), lambda p: 0.7 + 0 * p),
        eta=mk(lambda p: 0.5 * np.sin(p), lambda p: 1.0 + 0 * p,
               lambda p: 0.3 * np.cos(p)),
        delta_theta=mk(lambda p: 0.8 + 0 * p, lambda p: 0.2 * np.cos(p), np.sin))


def _ls_order(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def check_variational(params=None, levels=(16, 32, 64), duration=0.3,
                      order_band=(1.7, 2.3)):
    """Discrete action derivative vs residual pairing on pulse-derived sections."""
    params = params or model.default_params()
    gaps, hs = [], []
    for n in levels:
        gr = g.Grid2.uniform(n, n, duration, 1.0, g.PERIODIC)
        out = run(SimConfig(grid=gr, params=params, preset="twistpulse"))
        var = interior_variation(gr)
        fd, pairing = rs.action_gradient_check(out.section, var, params)
        gaps.append(abs(fd - pairing) / var.norm(gr))
        hs.append(gr.ds)
    order = _ls_order(hs, gaps)
    results = [CheckResult("variational_gap_order", order, None,
                           order_band[0] <= order <= order_band[1])]
    for n, gap in zip(levels, gaps):
        results.append(CheckResult(f"variational_gap_n{n}", gap, None, True))
    return results


def flat_pair(gr, amp_s=0.8, rate_t=0.5, amp_t=0.3):
    """Closed-form flat rate pair from a separable rotation field A(s) B(t)."""
    c1 = np.array([1.0, 0.0, 0.0])
    c2 = np.array([0.0, 1.0, 0.0])
    t = gr.t_coords()
    s = gr.s_coords()
    L = gr.length_s
    f = amp_s * np.sin(2 * np.pi * s / L)
    fp = amp_s * (2 * np.pi / L) * np.cos(2 * np.pi * s / L)
    gv = rate_t * t + amp_t * np.sin(1.5 * t)
    gp = rate_t + 1.5 * amp_t * np.cos(1.5 * t)
    A = so3.exp_so3(f[:, None] * c1)
    B = so3.exp_so3(gv[:, None] * c2)
    Lam = np.einsum("sij,tjk->tsik", A, B)
    Omega = fp[None, :, None] * np.einsum("tji,j->ti", B, c1)[:, None, :]
    omega = np.broadcast_to((gp[:, None] * c2)[:, None, :],
                            (gr.n_t, gr.n_s, 3)).copy()
    return Lam, Omega, omega


def check_roundtrip(levels=(16, 32, 64), duration=0.4,
                    ratio_band=(3.0, 5.0), path_factor=10.0):
    """Reconstruction round trip, path independence, and the flatness gate."""
    errs, hs, defects, flats = [], [], [], []
    for n in levels:
        gr = g.Grid2.uniform(n, n, duration, 1.0, g.PERIODIC)
        Lam0, Omega, omega = flat_pair(gr)
        Lam = red.reconstruct_rotation(gr, Omega, omega, Lam0[0, 0], tol=1.0)
        u = red.UnreducedSection(grid=gr, r=np.zeros((gr.n_t, gr.n_s, 3)),
                                 Lambda=Lam, theta=np.zeros((gr.n_t, gr.n_s, 3)))
        s1 = red.project_stage1(u)
        errs.append(max(g.norm_max(s1.Omega - Omega),
                        g.norm_max(s1.omega - omega)))
        hs.append(gr.ds)
        sec = red.Stage2Section(grid=gr, rho=None, a=None, b=None,
                                Omega=Omega, omega=omega)
        flats.append(g.norm_max(red.flatness_residual_rotation(sec)))
        defects.append(red.path_independence_defect(gr, Omega, omega,
                                                    Lam0[0, 0], tol=1.0))
    results = []
    for k in range(len(levels) - 1):
        ratio = errs[k] / errs[k + 1]
        results.append(CheckResult(
            f"roundtrip_error_ratio_{levels[k]}_to_{levels[k + 1]}", ratio,
            None, ratio_band[0] <= ratio <= ratio_band[1]))
    gr_last_h2 = hs[-1] ** 2 + (duration / (levels[-1] - 1)) ** 2
    area = duration * 1.0
    bound = path_factor * flats[-1] * area + path_factor * gr_last_h2
    results.append(_result("path_independence_defect", defects[-1], bound))
    # non-flat input must be rejected
    gr = g.Grid2(n_t=8, n_s=8, dt=0.05, ds=0.125, bc_s=g.PERIODIC)
    W = np.broadcast_to([1.0, 0, 0], (8, 8, 3)).copy()
    w = np.broadcast_to([0, 1.0, 0], (8, 8, 3)).copy()
    try:
        red.reconstruct_rotation(gr, W, w, np.eye(3), tol=1e-3)
        rejected = False
    except NotFlatError:
        rejected = True
    results.append(CheckResult("nonflat_input_rejected", float(rejected),
                               None, rejected))
    return results


_RESIDUALS = ("vertical", "horizontal_rho", "horizontal_theta")


def convergence_table(preset="twistpulse", levels=3, base_n_s=32, base_n_t=100,
                      duration=0.5, length=1.0, bc=g.PERIODIC, params=None,
                      order_band=(1.7, 2.3)):
    """Residual norms of a preset run over a refinement ladder, with orders.

    Each level halves both spacings of the one before (:meth:`Grid2.refined`)
    and reads its norms from the run's own summary.
    """
    params = params or model.default_params()
    gr = g.Grid2.uniform(base_n_t, base_n_s, duration, length, bc)
    rows, hs = [], []
    for _ in range(levels):
        summary = run(SimConfig(grid=gr, params=params, preset=preset)).summary
        rows.append({"n_s": gr.n_s, "n_t": gr.n_t,
                     **{key: summary[f"residual_{key}_l2"] for key in _RESIDUALS},
                     "flatness": summary["flatness_rotation_max"]})
        hs.append(gr.ds)
        gr = gr.refined()
    results = []
    for key in _RESIDUALS + ("flatness",):
        order = _ls_order(hs, [row[key] for row in rows])
        results.append(CheckResult(f"order_{key}", order, None,
                                   order_band[0] <= order <= order_band[1]))
    return rows, results


def noether_report(s1, Lam, params):
    """Current totals drift, divergence norms, and the divergence identity.

    Returns the check rows and the ``(n_t, 6)`` rotor|so3 totals they measure,
    integrated over the run's own grid (the whole loop when periodic).
    """
    gr = s1.grid
    f = rs.stage1_derivative_fields(s1, params)
    d = model.fiber_derivatives_stage1(f, params)
    rot = noether.rotor_current(gr, d)
    so3c = noether.so3_current(gr, Lam, d)
    balance = noether.drift_residual(Lam, f, d, params)
    del d  # rot keeps two of its slots; the rest go before the loop below
    # the rotation field may carry loop holonomy, in which case the spatial
    # current jumps at the seam; differentiate it on the cut
    cut = dataclasses.replace(gr, bc_s=g.CLAMPED)
    out, totals = [], []
    for name, cur, div_grid in (("rotor", rot, gr), ("so3", so3c, cut)):
        tot = noether.totals_over_time(cur)
        totals.append(tot)
        drift = float(np.max(np.linalg.norm(tot - tot[0], axis=-1)))
        out.append(CheckResult(f"{name}_total_drift", drift, None, True))
        div = noether.divergence(dataclasses.replace(cur, grid=div_grid))
        out.append(CheckResult(
            f"{name}_divergence_interior_l2",
            g.norm_l2(div_grid, div, div_grid.interior_mask(2)), None, True))
    ident = g.norm_max(
        balance - np.einsum("tsij,tsj->tsi", Lam,
                            rs.stage1_residuals(s1, params, fields=f).vertical))
    out.append(_result("current_vertical_identity_max_err", ident, 1e-12))
    return out, np.hstack(totals)
