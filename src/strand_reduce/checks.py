"""Verification harnesses behind the ``check`` and ``convergence`` commands.

Each suite returns a list of :class:`CheckResult`; a suite passes when every
entry does.  The suites take no arguments: their sample counts, tolerances and
bands are constants, so the CLI and the acceptance tests run the same checks.
"""

import dataclasses

import numpy as np

from . import grid as g
from . import model
from . import noether
from . import reduction as red
from . import residuals as rs
from . import so3
from .errors import NotFlatError
from .fields_io import CheckResult, bounded, info
from .simulate import SimConfig, run, stream

# Both observed-order fits pass within this band around the scheme's order 2.
ORDER_BAND = (1.7, 2.3)
# An O(h^2) error falls by a factor in this band when both spacings halve.
RATIO_BAND = (3.0, 5.0)
# A lift's unreduced residual norm over its projection's stage-1 norm.
REDUCTION_BAND = (0.25, 4.0)
_SEED = 20260810


def _band_result(name, value, band):
    return CheckResult(name, float(value), None,
                       bool(band[0] <= value <= band[1]))


def _order_result(name, order):
    return _band_result(name, order, ORDER_BAND)


def _twist_run(n_t, n_s, duration):
    """The twist-pulse run on a periodic unit loop, default model."""
    gr = g.Grid2.uniform(n_t, n_s, duration, 1.0, g.PERIODIC)
    return run(SimConfig(grid=gr, params=model.default_params(),
                         preset="twistpulse"))


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
    return [bounded("fiber_derivative_max_rel_err", worst, tol),
            bounded("potential_derivative_max_rel_err", worst_dE, tol)]


def check_invariance():
    """Rotation/shift invariance and the reduction identity of the Lagrangian."""
    params = model.default_params()
    n, tol = 1000, 1e-12
    rng = np.random.default_rng(_SEED)
    worst_inv = 0.0
    worst_proj = 0.0
    for _ in range(n):
        pt = _random_point(rng)
        lifted = model.lift_stage1(pt, so3.random_rotation(rng))
        L = model.lagrangian_unreduced(lifted, params)
        G = so3.random_rotation(rng)
        moved = dataclasses.replace(
            lifted, r=G @ lifted.r, r_t=G @ lifted.r_t,
            Lambda=G @ lifted.Lambda, Lambda_s=G @ lifted.Lambda_s,
            Lambda_t=G @ lifted.Lambda_t)
        worst_inv = max(worst_inv,
                        abs(model.lagrangian_unreduced(moved, params) - L)
                        / (1.0 + abs(L)))
        worst_proj = max(worst_proj,
                         abs(model.lagrangian_stage1(pt, params) - L)
                         / (1.0 + abs(L)))
    return [bounded("lagrangian_invariance_max_rel_err", worst_inv, tol),
            bounded("lagrangian_projection_max_rel_err", worst_proj, tol)]


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
    """The stage-1 rotor residual against the stage-2 vertical law
    d_s(dl/da) + d_t(dl/db) = 0, the divergence of the rotor current from the
    Lagrangian's fiber derivatives: it does not go through
    :func:`model.rates`, which the residual is measured against."""
    params = model.default_params()
    n, n_grid, tol = 20, 32, 1e-12
    rng = np.random.default_rng(_SEED)
    gr = g.Grid2.uniform(n_grid, n_grid, 0.4, 1.0, g.PERIODIC)
    mask = gr.interior_mask(2)
    worst = 0.0
    for _ in range(n):
        s1 = random_smooth_section(gr, rng)
        d = model.fiber_derivatives_stage1(red.project_stage2(s1), params)
        vertical = noether.divergence(gr, d.dl_dtheta_s, d.dl_dtheta_t)
        worst = max(worst, g.norm_max(
            rs.stage1_residuals(s1, params).horizontal_theta - vertical, mask))
    return [bounded("stage_equivalence_max_abs_diff", worst, tol)]


def interior_variation(gr):
    """Smooth variation used by the variational check, on a periodic loop.

    The time window vanishes quadratically at the end levels (and is zeroed
    there outright); linear vanishing would degrade the observed order of
    the gap to one near the time edges.
    """
    t = gr.t_coords()
    s = gr.s_coords()
    T, L = gr.duration, gr.length_s
    wt = np.sin(np.pi * t / T) ** 2
    wt[0] = wt[-1] = 0.0
    ws = 1.2 + np.sin(2 * np.pi * s / L)
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
        out = _twist_run(n, n, duration)
        gr = out.section.grid
        var = interior_variation(gr)
        fd, pairing = rs.action_gradient_check(out.section, var, params)
        gaps.append(abs(fd - pairing) / var.norm(gr))
        hs.append(gr.ds)
    order = _ls_order(hs, gaps)
    results = [_order_result("variational_gap_order", order)]
    for n, gap in zip(levels, gaps):
        results.append(info(f"variational_gap_n{n}", gap))
    return results


def check_reduction():
    """Reduction equivalence on the twist pulse at 64x200 and 128x400, T = 0.5.

    Each run is lifted with its rotation field on the cut domain (the loop
    rotation jumps at the seam).  Per balance law the lift's unreduced norm
    over its projection's stage-1 norm lies in ``REDUCTION_BAND``; both
    combined norms fall at order 2.  The ratio to the run's own stage-1 norm
    is informational: the midpoint reconstruction bounds it.
    """
    params = model.default_params()
    results, combined = [], []
    for n_s, n_t in ((64, 200), (128, 400)):
        sec = _twist_run(n_t, n_s, 0.5).section
        Lam = red.reconstruct_rotation(sec.grid, sec.Omega, sec.omega,
                                       np.eye(3), tol=None)
        lift = red.UnreducedSection(
            grid=dataclasses.replace(sec.grid, bc_s=g.CLAMPED),
            r=rs._rot(Lam, sec.rho), Lambda=Lam,
            theta=sec.theta)
        # interior L2 norms, three-node rim excluded: lift, projection, run
        norms = [{name: g.norm_l2(res.grid, getattr(res, name),
                                  res.grid.interior_mask(3))
                  for name in res._fields} for res in (
            rs.el_unreduced_residual(lift, params),
            rs.stage1_residuals(red.project_stage1(lift), params),
            rs.stage1_residuals(sec, params))]
        for a, b in (("res_r", "horizontal_rho"), ("res_Lambda", "vertical"),
                     ("res_theta", "horizontal_theta")):
            results.append(_band_result(f"{a}_over_{b}_n{n_s}",
                                        norms[0][a] / norms[1][b],
                                        REDUCTION_BAND))
        un, st, own = (np.linalg.norm(list(n.values())) for n in norms)
        combined.append((un, st))
        results.append(info(f"unreduced_over_run_stage1_n{n_s}", un / own))
    return results + [
        _order_result(f"order_{name}", np.log2(coarse / fine))
        for name, coarse, fine in zip(("unreduced", "stage1"), *combined)]


def flat_pair(gr):
    """Closed-form flat rate pair from a separable rotation field A(s) B(t).

    Also returns rotor angles (f, g, f g) from the angles f(s) of A, g(t) of B.
    """
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
    f, gv = np.broadcast_arrays(f[None, :], gv[:, None])
    return Lam, Omega, omega, np.stack([f, gv, f * gv], axis=-1)


def check_roundtrip():
    """Reconstruction round trips, path independence, and the flatness gate.

    Lambda to its rates and back, theta to its gradient pair and back.
    """
    levels, duration = (16, 32, 64), 0.4
    path_factor = 10.0
    errs, theta_errs, defects, flats = [], [], [], []
    for n in levels:
        gr = g.Grid2.uniform(n, n, duration, 1.0, g.PERIODIC)
        Lam0, Omega, omega, theta = flat_pair(gr)
        Lam = red.reconstruct_rotation(gr, Omega, omega, Lam0[0, 0], tol=1e-2)
        u = red.UnreducedSection(grid=gr, r=gr.zeros(), Lambda=Lam,
                                 theta=theta)
        s1 = red.project_stage1(u)
        errs.append(max(g.norm_max(s1.Omega - Omega),
                        g.norm_max(s1.omega - omega)))
        s2 = red.project_stage2(s1)
        theta_errs.append(g.norm_max(red.reconstruct_theta(
            gr, s2.theta_s, s2.theta_t, theta[0, 0], tol=1.0) - theta))
        flats.append(red.flatness_max(gr, Omega, omega).value)
        defects.append(red.path_independence_defect(gr, Omega, omega,
                                                    Lam0[0, 0], tol=1.0))
    results = []
    for prefix, e in (("roundtrip", errs), ("theta_roundtrip", theta_errs)):
        for k in range(len(levels) - 1):
            results.append(_band_result(
                f"{prefix}_error_ratio_{levels[k]}_to_{levels[k + 1]}",
                e[k] / e[k + 1], RATIO_BAND))
    # gr is the finest level here
    bound = (path_factor * flats[-1] * duration
             + path_factor * (gr.ds ** 2 + gr.dt ** 2))
    results.append(bounded("path_independence_defect", defects[-1], bound))
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


def ladder(gr, levels):
    """``gr`` and ``levels - 1`` refinements; ValueError past the guard."""
    grids = [gr]
    for _ in range(levels - 1):
        grids.append(grids[-1].refined())
    return grids


def convergence_table(preset, grids):
    """Residual norms of a preset run over a refinement :func:`ladder`.

    Each level reads its norms from the run's own summary; the orders are
    fitted against ds.
    """
    params = model.default_params()
    rows, hs = [], []
    for gr in grids:
        summary = stream(SimConfig(grid=gr, params=params, preset=preset),
                         None).summary
        rows.append({"n_s": gr.n_s, "n_t": gr.n_t,
                     **{key: summary[f"residual_{key}_l2"] for key in _RESIDUALS},
                     "flatness": summary["flatness_rotation_max"]})
        hs.append(gr.ds)
    return rows, [_order_result(f"order_{key}",
                                _ls_order(hs, [row[key] for row in rows]))
                  for key in _RESIDUALS + ("flatness",)]


def check_noether():
    """Noether conservation on the twist pulse at 64x50 and 128x100, T = 0.125.

    :func:`noether.noether_report` per level.  Each total drifts at most
    (dt^2 + ds^2) T, falling by a factor in ``RATIO_BAND``.  T keeps the
    pulse clear of the seam, where its loop rotation leaks the spatial total.
    """
    duration = 0.125
    results, drifts = [], []
    for n_s, n_t in ((64, 50), (128, 100)):
        sec = _twist_run(n_t, n_s, duration).section
        Lam = red.rotation_levels(sec.grid, sec.Omega, sec.omega, np.eye(3))
        rows, _ = noether.noether_report(sec, Lam, model.default_params())
        bound = (sec.grid.dt ** 2 + sec.grid.ds ** 2) * duration
        drifts.append({})
        for row in rows:
            if row.name.endswith("_total_drift"):
                drifts[-1][row.name] = row.value
                row = bounded(row.name, row.value, bound)
            results.append(dataclasses.replace(row, name=f"{row.name}_n{n_s}"))
    return results + [
        _band_result(f"{name}_ratio_64_to_128", coarse / drifts[1][name],
                     RATIO_BAND) for name, coarse in drifts[0].items()]
