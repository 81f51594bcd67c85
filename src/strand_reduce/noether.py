"""Symmetry currents of the strand and their conservation diagnostics.

The rotation symmetry produces a spatial angular-momentum current with
components ``J_s = Lambda dl_dOmega`` and ``J_t = Lambda dl_domega``; the
rotor-shift symmetry produces ``(dl_dtheta_s, dl_dtheta_t) = (-D a,
K (omega + b))``.  On solutions both currents are divergence free, so their
s-integrated t-components are constants of the motion (up to discretization
error) on periodic strands.

The currents are exactly the fiber derivatives of the stage-1 Lagrangian,
so every evaluator takes the record ``d`` of
:func:`model.fiber_derivatives_stage1` and none restates them: the rotor
current is ``(d.dl_dtheta_s, d.dl_dtheta_t)`` as it stands, and a current is
its pair of arrays, differentiated on the grid it is passed with.
"""

import dataclasses

import numpy as np

from . import grid as g
from . import model
from . import reduction as red
from . import residuals as rs
from .fields_io import bounded, info
from .so3 import cross


def so3_current(Lam, d):
    """Spatial angular-momentum current densities ``(J_s, J_t)`` from the
    fiber record ``d``.

    ``Lam`` must be a rotation field consistent with the section that ``d``
    was taken from (a projection pair); the body-frame fiber derivatives are
    pushed to the spatial frame by it.
    """
    return rs._rot(Lam, d.dl_dOmega), rs._rot(Lam, d.dl_domega)


def divergence(grid, J_s, J_t, keep=slice(None)):
    """Stencil divergence d_s(J_s) + d_t(J_t) of a current on ``grid``, on
    the levels ``keep`` of its own (d_t reads them all)."""
    return g.d_s(grid, J_s[keep]) + g.d_t(grid, J_t)[keep]


def drift_residual(Lam, f, d, p):
    """Divergence of the angular-momentum current; it has no drift source.

    In general the divergence of a symmetry current is driven by a pairing
    of the auxiliary-fiber derivative of the Lagrangian with curvature and
    vertical-action terms.  The strand uses the flat trivial connection, so
    the curvature form vanishes, and the stage-1 bundle has no auxiliary
    fiber for the rotation symmetry to act on, so that source is zero.

    The divergence is evaluated in covariant form,

        Lambda . [ d_s(N) + Omega x N + d_t(M) + omega x M ],

    on a twice-reduced section ``f`` (:func:`reduction.project_stage2`, which
    carries its jet; ``d`` its fiber record): ``d_s(N)`` is the stencil of
    N, ``d_t(M)`` the product rule over the jet's time derivatives.  This
    makes the identity

        drift_residual == Lambda . (stage-1 vertical residual)

    hold to roundoff on the same jet, although the residual is measured
    against the march's accelerations and this current form restates the
    forces: the discrete form of the statement that the angular-momentum
    balance *is* the vertical field equation.
    """
    N, M = d.dl_dOmega, d.dl_domega
    u = d.dl_drho_t                      # rho_t + omega x rho
    dM_t = (cross(f.rho_t, u)
            + cross(f.rho, f.rho_tt + cross(f.omega_t, f.rho)
                       + cross(f.omega, f.rho_t))
            + f.omega_t @ (p.inertia_body + p.inertia_rotor).T
            + f.theta_tt @ p.inertia_rotor.T)
    cov_div = g.d_s(f.grid, N) + cross(f.Omega, N) + dM_t + cross(f.omega, M)
    return rs._rot(Lam, cov_div)


def noether_report(s1, params, tol=None):
    """Current totals drift, divergence norms, and the divergence identity.

    Returns the check rows and the ``(n_t, 6)`` rotor|so3 totals they measure,
    integrated over the run's own grid (the whole loop when periodic).  One
    :func:`reduction.gated_pass` gates ``s1`` with ``tol`` and sweeps, from
    the identity, the rotation field that pushes the SO(3) current to the
    spatial frame.  Each window takes one :func:`reduction.project_stage2`
    of the section, which carries its jet, and returns per-level vectors
    only, so nothing the pass keeps is O(n_t n_s).  The residual, the drift
    and the identity are evaluated on the levels the window owns; the fiber
    derivatives and the currents also on the level beyond each inner side,
    which d_t of J_t reads.  The rotor divergence is summed over every node,
    the SO(3) one over the interior nodes of the cut (clamped) grid: at the
    cut's rim it is the one-sided s stencil's error, not the time error.
    """
    gr = s1.grid
    cut = dataclasses.replace(gr, bc_s=g.CLAMPED)
    levels = gr.interior(2)[0]  # time rim: the jet's d_t d_t is first order
    cut_nodes = cut.interior(2)[1]  # the cut's rim: the s stencil's error

    def evaluate(w, L):
        # the owned levels and one more on each side, within the window
        lo, hi = max(w.inner.start - 1, 0), min(w.inner.stop + 1, len(L))
        own, ext = slice(w.inner.start - lo, w.inner.stop - lo), slice(lo, hi)
        f = red.at_levels(red.project_stage2(red.at_levels(s1, w.read)), ext)
        d = model.fiber_derivatives_stage1(f, params)
        f_own, d_own = red.at_levels(f, own), red.at_levels(d, own)
        L_own = L[w.inner]
        vertical = rs._rot(L_own, rs.stage2_residuals(f_own, params).vertical)
        identity = g.node_sq(drift_residual(L_own, f_own, d_own, params)
                             - vertical)
        rot = d.dl_dtheta_s, d.dl_dtheta_t
        so3c = so3_current(L[ext], d)
        # the rotation field may carry loop holonomy, in which case the
        # spatial current jumps at the seam; differentiate it on the cut
        return (g.integrate_s(gr, rot[1][own]),
                g.integrate_s(gr, so3c[1][own]),
                g.level_sums(g.node_sq(divergence(gr, *rot, own))),
                g.level_sums(g.node_sq(divergence(cut, *so3c, own)), cut_nodes),
                *g.level_max(identity))

    rotor_tot, so3_tot, rotor_div, so3_div, identity, identity_node = \
        red.gated_pass(gr, s1.Omega, s1.omega, np.eye(3), tol, evaluate)
    out = []
    for name, tot, div, div_grid in (("rotor", rotor_tot, rotor_div, gr),
                                     ("so3", so3_tot, so3_div, cut)):
        out.append(info(f"{name}_total_drift",
                        np.max(np.linalg.norm(tot - tot[0], axis=-1))))
        out.append(info(f"{name}_divergence_interior_l2",
                        g.l2_sq(div_grid, div, levels)))
    out.append(bounded("current_vertical_identity_max_err",
                       g.max_sq(identity, identity_node).value, 1e-12))
    return out, np.hstack([rotor_tot, so3_tot])
