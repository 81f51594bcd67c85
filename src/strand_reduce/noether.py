"""Symmetry currents of the strand and their conservation diagnostics.

The rotation symmetry produces a spatial angular-momentum current with
components ``J_s = Lambda dl_dOmega`` and ``J_t = Lambda dl_domega``; the
rotor-shift symmetry produces ``(dl_dtheta_s, dl_dtheta_t) = (-D a,
K (omega + b))``.  On solutions both currents are divergence free, so their
s-integrated t-components are constants of the motion (up to discretization
error) on periodic strands.

The currents are exactly the fiber derivatives of the stage-1 Lagrangian,
so every evaluator takes the record ``d`` of
:func:`model.fiber_derivatives_stage1` and none restates them.
"""

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .so3 import cross
from .residuals import _rot


@dataclass
class CurrentPair:
    """The two components of a TX-valued current density over the grid."""

    grid: g.Grid2
    J_s: np.ndarray
    J_t: np.ndarray


def so3_current(grid, Lam, d):
    """Spatial angular-momentum current densities from the fiber record ``d``.

    ``Lam`` must be a rotation field consistent with the section that ``d``
    was taken from (a projection pair); the body-frame fiber derivatives are
    pushed to the spatial frame by it.
    """
    return CurrentPair(grid=grid, J_s=_rot(Lam, d.dl_dOmega),
                       J_t=_rot(Lam, d.dl_domega))


def rotor_current(grid, d):
    """Rotor-shift current (-D a, K (omega + b)) from the fiber record ``d``."""
    return CurrentPair(grid=grid, J_s=d.dl_dtheta_s, J_t=d.dl_dtheta_t)


def divergence(c):
    """Stencil divergence d_s(J_s) + d_t(J_t) of a current pair."""
    return g.d_s(c.grid, c.J_s) + g.d_t(c.grid, c.J_t)


def totals_over_time(c):
    """s-integral of J_t at every time level: the conserved totals."""
    return g.integrate_s(c.grid, c.J_t)


def drift_rhs(f, p):
    """Drift source of the angular-momentum balance; identically zero here.

    In general the divergence of a symmetry current is driven by a pairing
    of the auxiliary-fiber derivative of the Lagrangian with curvature and
    vertical-action terms.  The strand uses the flat trivial connection, so
    the curvature form vanishes, and the stage-1 bundle has no auxiliary
    fiber for the rotation symmetry to act on; every term of the source is
    therefore zero.  It is kept as an explicit named contribution so the
    conservation statement is asserted rather than assumed.
    """
    return np.zeros_like(f.rho)


def drift_residual(Lam, f, d, p):
    """Divergence of the angular-momentum current plus the (zero) drift source.

    The divergence is evaluated in covariant form,

        Lambda . [ d_s(N) + Omega x N + d_t(M) + omega x M ],

    with ``d_t(M)`` expanded by the product rule over the shared derivative
    bundle.  This makes the identity

        drift_residual == Lambda . (stage-1 vertical residual)

    hold to roundoff whenever both evaluators consume the same bundle ``f``
    (with ``d`` its fiber record), which is the discrete form of the
    statement that the angular-momentum balance *is* the vertical field
    equation.
    """
    N, M = d.dl_dOmega, d.dl_domega
    u = d.dl_drho_t                      # rho_t + omega x rho
    dN_s = -f.dE_dOmega_s
    dM_t = (cross(f.rho_t, u)
            + cross(f.rho, f.rho_tt + cross(f.omega_t, f.rho)
                       + cross(f.omega, f.rho_t))
            + f.omega_t @ (p.inertia_body + p.inertia_rotor).T
            + f.theta_tt @ p.inertia_rotor.T)
    cov_div = dN_s + cross(f.Omega, N) + dM_t + cross(f.omega, M)
    return _rot(Lam, cov_div) + drift_rhs(f, p)
