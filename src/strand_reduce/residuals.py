"""Residual evaluators for the reduced strand equations.

Three pointwise balance laws govern the once-reduced fields; writing
``u = rho_t + omega x rho``, ``m = (I+K) omega + K theta_t`` and
``E_W = C Omega``, ``E_a = D theta_s``, ``E_c = kappa/2 (<rho,rho> - c0)``:

  vertical          rho x (rho_tt + 2 omega x rho_t + omega_t x rho
                    + <omega, rho> omega) + (I+K) omega_t + K theta_tt
                    + omega x m - d_s(E_W) - Omega x E_W
  horizontal_rho    omega x (rho x omega - 2 rho_t) - rho_tt
                    - omega_t x rho - 2 E_c rho
  horizontal_theta  K (omega_t + theta_tt) - d_s(E_a)

A section solves the field equations iff all three vanish up to
discretization error.  The sign of the ``Omega x E_W`` term is fixed by
stationarity of the action (see :func:`action_gradient_check`, which verifies
the discrete gradient against these formulas) and by the requirement that
the vertical residual be the covariant divergence of the angular-momentum
current; both checks pin the minus sign used here.

The second reduction renames (theta_s, theta_t) -> (a, b) and reclassifies
the rotor balance as vertical, but the numerical expressions are identical;
both evaluators share one kernel.

The Lagrangian density, E and their derivatives are not restated here: the
evaluators take them from :mod:`strand_reduce.model`, which is their only
home.

``el_unreduced_residual`` is different in kind: it is the exact gradient of
the discrete action with respect to free compactly supported variations of
(r, Lambda, theta), computed through the transposed difference stencils, so
"discretely critical" is unambiguous.
"""

from dataclasses import dataclass

import numpy as np

from . import grid as g
from . import model
from .model import _dot
from .reduction import Stage1Section
from .so3 import cross, hat, vee_skew


def _rot(R, f):
    """Apply a (..., 3, 3) rotation field to a (..., 3) field."""
    return np.einsum("...ij,...j->...i", R, f)


@dataclass
class DerivativeFields:
    """Shared bundle of nodal derivative fields consumed by the evaluators.

    Feeding the same bundle to :func:`stage1_residuals` and to the Noether
    drift evaluator makes their algebraic identity hold to roundoff.
    """

    rho: np.ndarray
    Omega: np.ndarray
    omega: np.ndarray
    theta_s: np.ndarray
    theta_t: np.ndarray
    theta_tt: np.ndarray
    rho_t: np.ndarray
    rho_tt: np.ndarray
    omega_t: np.ndarray
    dE_dOmega: np.ndarray
    dE_dOmega_s: np.ndarray
    dE_da: np.ndarray
    dE_da_s: np.ndarray
    dE_dc: np.ndarray


def _finish_fields(gr, p, rho, Omega, omega, theta_s, theta_t, theta_tt):
    rho_t = g.d_t(gr, rho)
    E_Omega, E_a, E_c = model.dE(Omega, theta_s, _dot(rho, rho), p)
    return DerivativeFields(
        rho=rho, Omega=Omega, omega=omega,
        theta_s=theta_s, theta_t=theta_t, theta_tt=theta_tt,
        rho_t=rho_t,
        rho_tt=g.d_t(gr, rho_t),
        omega_t=g.d_t(gr, omega),
        dE_dOmega=E_Omega,
        dE_dOmega_s=g.d_s(gr, E_Omega),
        dE_da=E_a,
        dE_da_s=g.d_s(gr, E_a),
        dE_dc=E_c,
    )


def stage1_derivative_fields(s1, p):
    gr = s1.grid
    theta_t = g.d_t(gr, s1.theta)
    return _finish_fields(gr, p, np.asarray(s1.rho, float),
                          np.asarray(s1.Omega, float),
                          np.asarray(s1.omega, float),
                          g.d_s(gr, s1.theta), theta_t, g.d_t(gr, theta_t))


def stage2_derivative_fields(s2, p):
    gr = s2.grid
    b = np.asarray(s2.b, float)
    return _finish_fields(gr, p, np.asarray(s2.rho, float),
                          np.asarray(s2.Omega, float),
                          np.asarray(s2.omega, float),
                          np.asarray(s2.a, float), b, g.d_t(gr, b))


@dataclass
class Stage1Residuals:
    """The three residual fields, named in ``_fields``.

    Nodes within two layers of a non-periodic edge were produced by
    one-sided stencils; the reports mask them with ``interior_mask(2)``.
    """

    grid: g.Grid2
    vertical: np.ndarray
    horizontal_rho: np.ndarray
    horizontal_theta: np.ndarray
    _fields = ("vertical", "horizontal_rho", "horizontal_theta")


def _residual_kernel(f, p):
    I = p.inertia_body
    K = p.inertia_rotor
    IK = I + K
    m = f.omega @ IK.T + f.theta_t @ K.T
    vertical = (cross(f.rho,
                         f.rho_tt + 2.0 * cross(f.omega, f.rho_t)
                         + cross(f.omega_t, f.rho)
                         + _dot(f.omega, f.rho)[..., None] * f.omega)
                + f.omega_t @ IK.T + f.theta_tt @ K.T
                + cross(f.omega, m)
                - f.dE_dOmega_s - cross(f.Omega, f.dE_dOmega))
    horizontal_rho = (cross(f.omega, cross(f.rho, f.omega) - 2.0 * f.rho_t)
                      - f.rho_tt - cross(f.omega_t, f.rho)
                      - 2.0 * f.dE_dc[..., None] * f.rho)
    horizontal_theta = (f.omega_t + f.theta_tt) @ K.T - f.dE_da_s
    return vertical, horizontal_rho, horizontal_theta


def stage1_residuals(s1, p, fields=None):
    """Residuals of the once-reduced equations on a stage-1 section."""
    f = fields or stage1_derivative_fields(s1, p)
    return Stage1Residuals(s1.grid, *_residual_kernel(f, p))


def stage2_residuals(s2, p):
    """Residuals of the twice-reduced equations.

    The rotor balance is vertical at this stage, but the numerical values
    coincide with :func:`stage1_residuals` on matched fields (a = d_s theta,
    b = d_t theta), so the same record type is returned.
    """
    f = stage2_derivative_fields(s2, p)
    return Stage1Residuals(s2.grid, *_residual_kernel(f, p))


def discrete_action(section, p):
    """Discrete action: nodal Lagrangian density summed times ds dt.

    Derivative fields come from the grid stencils; rotation rates of a full
    section are read from the antisymmetric part of ``Lambda^T d Lambda``.
    """
    gr = section.grid
    if hasattr(section, "Lambda"):
        Lam = np.asarray(section.Lambda, float)
        LamT = np.swapaxes(Lam, -1, -2)
        r = np.asarray(section.r, float)
        dens = model.density(g.d_t(gr, r), _dot(r, r),
                             g.d_s(gr, section.theta), g.d_t(gr, section.theta),
                             vee_skew(LamT @ g.d_s(gr, Lam)),
                             vee_skew(LamT @ g.d_t(gr, Lam)), p)
    else:
        dens = model.lagrangian_stage1(stage1_derivative_fields(section, p), p)
    return float(np.sum(dens) * gr.ds * gr.dt)


@dataclass
class VariationSpec:
    """Compactly supported variation directions for the stage-1 fields.

    ``eta`` is the free Lie-algebra direction; it induces
    ``delta Omega = d_s(eta) + Omega x eta`` and
    ``delta omega = d_t(eta) + omega x eta``.  All three fields must vanish
    on boundary nodes (time edges, and s edges when clamped).
    """

    delta_rho: np.ndarray
    eta: np.ndarray
    delta_theta: np.ndarray

    def validate(self, gr):
        edge = ~gr.interior_mask(1)
        for name in ("delta_rho", "eta", "delta_theta"):
            f = getattr(self, name)
            if g.norm_max(f, edge) != 0.0:
                raise ValueError(f"variation field {name} not zero on the boundary")

    def norm(self, gr):
        total = (np.sum(self.delta_rho ** 2) + np.sum(self.eta ** 2)
                 + np.sum(self.delta_theta ** 2))
        return float(np.sqrt(total * gr.ds * gr.dt))


def _perturbed(s1, var, eps):
    gr = s1.grid
    dOmega = g.d_s(gr, var.eta) + cross(s1.Omega, var.eta)
    domega = g.d_t(gr, var.eta) + cross(s1.omega, var.eta)
    return Stage1Section(
        grid=gr,
        rho=s1.rho + eps * var.delta_rho,
        theta=s1.theta + eps * var.delta_theta,
        Omega=s1.Omega + eps * dOmega,
        omega=s1.omega + eps * domega,
    )


def action_gradient_check(s1, var, p, eps=1e-5):
    """Compare the finite-difference action derivative with the residual pairing.

    Returns ``(fd_derivative, residual_pairing)``.  The pairing signs are the
    ones under which stationarity of the discrete action is equivalent to
    vanishing residuals:

        dS . var = sum [ <horizontal_rho, delta_rho> - <vertical, eta>
                         - <horizontal_theta, delta_theta> ] ds dt + O(h^2).
    """
    var.validate(s1.grid)
    gr = s1.grid
    s_hi = discrete_action(_perturbed(s1, var, +eps), p)
    s_lo = discrete_action(_perturbed(s1, var, -eps), p)
    fd = (s_hi - s_lo) / (2.0 * eps)
    res = stage1_residuals(s1, p)
    pairing = float(np.sum(
        _dot(res.horizontal_rho, var.delta_rho)
        - _dot(res.vertical, var.eta)
        - _dot(res.horizontal_theta, var.delta_theta)
    ) * gr.ds * gr.dt)
    return fd, pairing


@dataclass
class UnreducedResiduals:
    """Exact discrete-action gradient of a full section (spatial frame)."""

    grid: g.Grid2
    res_r: np.ndarray
    res_Lambda: np.ndarray
    res_theta: np.ndarray
    _fields = ("res_r", "res_Lambda", "res_theta")


def el_unreduced_residual(u_sec, p):
    """Discrete Euler-Lagrange residual of a full section.

    Gradient of :func:`discrete_action` with respect to free compact
    variations ``delta r``, ``delta Lambda = Lambda hat(eta)`` (eta in the
    body frame) and ``delta theta``, assembled from the exact transposes of
    the difference stencils and negated so that the interior rows reproduce
    the continuum balance laws.  The rotation component is returned rotated
    to the spatial frame, which makes the whole record transform pointwise
    under constant rotations of the section.

    Transposed stencils are not consistent derivative operators near
    non-periodic edges, so three layers there are not interior
    (``interior_mask(3)``).
    """
    gr = u_sec.grid
    Lam = np.asarray(u_sec.Lambda, float)
    LamT = np.swapaxes(Lam, -1, -2)
    r = np.asarray(u_sec.r, float)
    M_t = LamT @ g.d_t(gr, Lam)
    M_s = LamT @ g.d_s(gr, Lam)
    # gradient of the density in its own slots (r_t, c, theta_s, theta_t,
    # Omega, omega)
    g_r_t, g_c, g_theta_s, g_theta_t, g_Omega, g_omega = \
        model.density_derivatives(g.d_t(gr, r), _dot(r, r),
                                  g.d_s(gr, u_sec.theta),
                                  g.d_t(gr, u_sec.theta),
                                  vee_skew(M_s), vee_skew(M_t), p)

    res_r = -2.0 * g_c[..., None] * r - g.d_t_adjoint(gr, g_r_t)
    res_theta = -(g.d_t_adjoint(gr, g_theta_t) + g.d_s_adjoint(gr, g_theta_s))

    # Body-frame gradient in eta; each rate term contributes a local piece
    # and a transposed-stencil piece acting on Lambda hat(g).
    def eta_gradient(gq, Mq, adjoint):
        local = -vee_skew(hat(gq) @ np.swapaxes(Mq, -1, -2))
        scatter = vee_skew(LamT @ adjoint(gr, Lam @ hat(gq)))
        return local + scatter

    grad_eta = (eta_gradient(g_omega, M_t, g.d_t_adjoint)
                + eta_gradient(g_Omega, M_s, g.d_s_adjoint))
    res_Lambda = _rot(Lam, -grad_eta)
    return UnreducedResiduals(grid=gr, res_r=res_r, res_Lambda=res_Lambda,
                              res_theta=res_theta)
