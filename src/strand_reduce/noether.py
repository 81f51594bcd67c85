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

from . import grid as g
from .so3 import cross
from .residuals import _rot


def so3_current(Lam, d):
    """Spatial angular-momentum current densities ``(J_s, J_t)`` from the
    fiber record ``d``.

    ``Lam`` must be a rotation field consistent with the section that ``d``
    was taken from (a projection pair); the body-frame fiber derivatives are
    pushed to the spatial frame by it.
    """
    return _rot(Lam, d.dl_dOmega), _rot(Lam, d.dl_domega)


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
    return _rot(Lam, cov_div)
