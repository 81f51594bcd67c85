"""Verification harnesses behind the ``check`` and ``convergence`` commands.

Each suite returns a list of :class:`CheckResult`; a suite passes when every
entry does.  The suites take no arguments: their sample counts, tolerances and
bands are constants, so the CLI and the acceptance tests run the same checks.
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


# Both observed-order fits pass within this band around the scheme's order 2.
ORDER_BAND = (1.7, 2.3)
_SEED = 20260810


def _result(name, value, tol):
    return CheckResult(name, float(value), float(tol), bool(value <= tol))


def info(name, value):
    """An informational row: it passes when its value is finite."""
    return CheckResult(name, float(value), None, bool(np.isfinite(value)))


def _order_result(name, order):
    return CheckResult(name, order, None,
                       ORDER_BAND[0] <= order <= ORDER_BAND[1])


def _random_point(rng):
    return model.Stage1Point(*(rng.normal(size=3) for _ in range(6)))


def check_derivatives():
    """Analytic fiber derivatives against central finite differences."""
    params = model.default_params()
    n, step, tol = 100, 1e-6, 1e-7
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(n):
        pt = _random_point(rng)
        want = model.fiber_derivatives_stage1(pt, params)
        for slot in model.SLOTS:
            fd = model.fd_fiber_derivative(model.lagrangian_stage1, pt, slot,
                                           step, params)
            have = getattr(want, f"dl_d{slot}")
            rel = np.linalg.norm(fd - have) / (1.0 + np.linalg.norm(have))
            worst = max(worst, rel)
    worst_dE = 0.0
    for _ in range(n):
        W, a = rng.normal(size=(2, 3))
        c = float(rng.uniform(0.2, 3.0))
        dW, da, dc = model.dE(W, a, c, params)
        for i in range(3):
            e = step * np.eye(3)[i]
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


def check_invariance():
    """Rotation/shift invariance and the reduction identity of the Lagrangian."""
    params = model.default_params()
    n, tol = 1000, 1e-12
    rng = np.random.default_rng(_SEED)
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


def random_smooth_section(gr, rng):
    """Random low-order Fourier fields over the grid (generic, not a solution)."""
    modes, amp, c0 = 3, 0.3, 1.0
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


def check_stages():
    """Once-reduced and twice-reduced residuals agree on matched sections."""
    params = model.default_params()
    n, n_grid, tol = 20, 32, 1e-12
    rng = np.random.default_rng(_SEED)
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


def interior_variation(gr):
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
    if gr.periodic_s:
        ws = 1.2 + np.sin(2 * np.pi * s / L)
    else:
        ws = np.sin(np.pi * s / L) ** 2
        ws[0] = ws[-1] = 0.0
    w = (wt[:, None] * ws[None, :])[..., None]
    phase = (2 * np.pi * s / L)[None, :]
    mk = lambda *fs: w * np.stack(
        [f(phase) * np.ones_like(w[..., 0]) for f in fs], axis=-1)
    return rs.VariationSpec(
        delta_rho=mk(np.cos, lambda p: 0.4 * np.sin(p), lambda p: 0.7 + 0 * p),
        eta=mk(lambda p: 0.5 * np.sin(p), lambda p: 1.0 + 0 * p,
               lambda p: 0.3 * np.cos(p)),
        delta_theta=mk(lambda p: 0.8 + 0 * p, lambda p: 0.2 * np.cos(p), np.sin))


def _ls_order(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def check_variational():
    """Discrete action derivative vs residual pairing on pulse-derived sections."""
    params = model.default_params()
    levels, duration = (16, 32, 64), 0.3
    gaps, hs = [], []
    for n in levels:
        gr = g.Grid2.uniform(n, n, duration, 1.0, g.PERIODIC)
        out = run(SimConfig(grid=gr, params=params, preset="twistpulse"))
        var = interior_variation(gr)
        fd, pairing = rs.action_gradient_check(out.section, var, params)
        gaps.append(abs(fd - pairing) / var.norm(gr))
        hs.append(gr.ds)
    order = _ls_order(hs, gaps)
    results = [_order_result("variational_gap_order", order)]
    for n, gap in zip(levels, gaps):
        results.append(info(f"variational_gap_n{n}", gap))
    return results


def flat_pair(gr):
    """Closed-form flat rate pair from a separable rotation field A(s) B(t)."""
    amp_s, rate_t, amp_t = 0.8, 0.5, 0.3
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


def check_roundtrip():
    """Reconstruction round trip, path independence, and the flatness gate."""
    levels, duration = (16, 32, 64), 0.4
    ratio_band, path_factor = (3.0, 5.0), 10.0
    errs, defects, flats = [], [], []
    for n in levels:
        gr = g.Grid2.uniform(n, n, duration, 1.0, g.PERIODIC)
        Lam0, Omega, omega = flat_pair(gr)
        Lam = red.reconstruct_rotation(gr, Omega, omega, Lam0[0, 0], tol=1.0)
        u = red.UnreducedSection(grid=gr, r=gr.zeros(), Lambda=Lam,
                                 theta=gr.zeros())
        s1 = red.project_stage1(u)
        errs.append(max(g.norm_max(s1.Omega - Omega),
                        g.norm_max(s1.omega - omega)))
        sec = red.Stage2Section(grid=gr, rho=None, a=None, b=None,
                                Omega=Omega, omega=omega)
        flats.append(red.flatness_max(sec))
        defects.append(red.path_independence_defect(gr, Omega, omega,
                                                    Lam0[0, 0], tol=1.0))
    results = []
    for k in range(len(levels) - 1):
        ratio = errs[k] / errs[k + 1]
        results.append(CheckResult(
            f"roundtrip_error_ratio_{levels[k]}_to_{levels[k + 1]}", ratio,
            None, ratio_band[0] <= ratio <= ratio_band[1]))
    # gr is the finest level here
    bound = (path_factor * flats[-1] * duration
             + path_factor * (gr.ds ** 2 + gr.dt ** 2))
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


_RESIDUALS = rs.Stage1Residuals._fields


def convergence_table(preset, levels, gr):
    """Residual norms of a preset run over a refinement ladder, with orders.

    The ladder starts on ``gr``; each later level halves both spacings of the
    one before (:meth:`Grid2.refined`) and reads its norms from the run's own
    summary.
    """
    params = model.default_params()
    rows, hs = [], []
    for _ in range(levels):
        summary = run(SimConfig(grid=gr, params=params, preset=preset)).summary
        rows.append({"n_s": gr.n_s, "n_t": gr.n_t,
                     **{key: summary[f"residual_{key}_l2"] for key in _RESIDUALS},
                     "flatness": summary["flatness_rotation_max"]})
        hs.append(gr.ds)
        gr = gr.refined()
    return rows, [_order_result(f"order_{key}",
                                _ls_order(hs, [row[key] for row in rows]))
                  for key in _RESIDUALS + ("flatness",)]


def noether_report(s1, Lam, params):
    """Current totals drift, divergence norms, and the divergence identity.

    Returns the check rows and the ``(n_t, 6)`` rotor|so3 totals they measure,
    integrated over the run's own grid (the whole loop when periodic).  The
    evaluators run window by window; ``Lam`` is read through views.
    """
    gr = s1.grid
    cut = dataclasses.replace(gr, bc_s=g.CLAMPED)

    def evaluate(w):
        s = red.window_view(s1, w)
        L = Lam[w.read]
        f = rs.stage1_derivative_fields(s, params)
        d = model.fiber_derivatives_stage1(f, params)
        rot = noether.rotor_current(w.grid, d)
        so3c = noether.so3_current(w.grid, L, d)
        identity = g.node_sq(noether.drift_residual(L, f, d, params) - np.einsum(
            "tsij,tsj->tsi", L, rs.stage1_residuals(s, params, fields=f).vertical))
        # the rotation field may carry loop holonomy, in which case the
        # spatial current jumps at the seam; differentiate it on the cut
        so3c_cut = dataclasses.replace(
            so3c, grid=dataclasses.replace(w.grid, bc_s=g.CLAMPED))
        return (noether.totals_over_time(rot), noether.totals_over_time(so3c),
                g.node_sq(noether.divergence(rot)),
                g.node_sq(noether.divergence(so3c_cut)), identity)

    rotor_tot, so3_tot, rotor_div, so3_div, identity = g.by_window(gr, evaluate)
    out = []
    for name, tot, div, div_grid in (("rotor", rotor_tot, rotor_div, gr),
                                     ("so3", so3_tot, so3_div, cut)):
        out.append(info(f"{name}_total_drift",
                        np.max(np.linalg.norm(tot - tot[0], axis=-1))))
        out.append(info(f"{name}_divergence_interior_l2",
                        g.l2_sq(div_grid, div, div_grid.interior_mask(2))))
    out.append(_result("current_vertical_identity_max_err",
                       g.max_sq(identity, None), 1e-12))
    return out, np.hstack([rotor_tot, so3_tot])
