"""Residual evaluators for the reduced strand equations.

Three pointwise balance laws govern the once-reduced fields: the vertical
(angular momentum), rho and rotor laws.  They are written once, solved for
the accelerations A = (rho_tt, omega_t, theta_tt), in
:func:`model.rates`, the rates the march integrates.  Each law is
affine in A and vanishes at the march's A(y), y = (rho, rho_t, ., a, b,
Omega, omega) with a = d_s theta and b = d_t theta at stage 1, so with
Delta = A_fd - A(y) = (D_rho, D_omega, D_theta), A_fd the time stencil's
accelerations, the residuals are

  horizontal_rho    -D_rho - D_omega x rho
  horizontal_theta  K (D_omega + D_theta)
  vertical          I D_omega + horizontal_theta - rho x horizontal_rho

A section solves the field equations iff all three vanish up to
discretization error; the s-stencil is the march's, so a marched run's
residual is the time stencil's error alone.  The sign of the
``Omega x C Omega`` term of the laws is fixed by stationarity of the action
(:func:`action_gradient_check` verifies the discrete gradient against these
residuals) and by the requirement that the vertical residual be the
covariant divergence of the angular-momentum current
(:func:`noether.drift_residual`); both checks pin it.

The second reduction renames (theta_s, theta_t) -> (a, b) and reclassifies
the rotor balance as vertical; the values are those of the first.  So there
is one kernel, :func:`stage2_residuals`, on the twice-reduced section of
:func:`reduction.project_stage2`, which carries its own jet, and
:func:`stage1_residuals` is that kernel on a stage-1 section's projection.

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
from .reduction import (Stage1Section, at_levels, flatness_level_max,
                        project_stage2)
from .so3 import cross, hat, vee_skew


def _rot(R, f):
    """Apply a (..., 3, 3) rotation field to a (..., 3) field."""
    return np.einsum("...ij,...j->...i", R, f)


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


# Nodes per kernel call: its temporaries then stay under glibc's 128 KB mmap
# threshold (one call per window took 34k page faults in ``residuals --in``).
_BLOCK_NODES = 768


def stage2_residuals(s2, p):
    """L(rho) (A_fd - A(y)) on a twice-reduced section, whose jet the
    :class:`reduction.Stage2Section` carries; see the module docstring.
    ``rho`` stands in the theta row of y, which is not read.  The levels
    are those of the section's arrays."""
    gr = s2.grid
    I = p.inertia_body
    f = model.rates(p, gr.ds, gr.closure_s)
    y = np.broadcast_arrays(s2.rho, s2.rho_t, s2.rho, s2.theta_s, s2.theta_t,
                            s2.Omega, s2.omega)
    A_fd = np.broadcast_arrays(s2.rho_tt, s2.omega_t, s2.theta_tt)
    res = np.empty((3,) + y[0].shape)
    step = max(1, _BLOCK_NODES // gr.n_s)
    for lo in range(0, len(res[0]), step):
        c = slice(lo, lo + step)
        A = f(np.stack([q[c] for q in y]))
        d_rho, d_omega, d_theta = (q[c] - A[k] for q, k in zip(A_fd, (1, 6, 4)))
        h_rho = -d_rho - cross(d_omega, y[0][c])
        h_theta = model.rotor_momentum(d_omega, d_theta, p)
        res[:, c] = (d_omega @ I.T + h_theta - cross(y[0][c], h_rho), h_rho,
                     h_theta)
    return Stage1Residuals(gr, *res)


def stage1_residuals(s1, p):
    """Residuals of the once-reduced equations: :func:`stage2_residuals` of
    the section's :func:`reduction.project_stage2` (a = d_s theta,
    b = d_t theta)."""
    return stage2_residuals(project_stage2(s1), p)


def residual_norms(section, p):
    """Interior L2 norms of the stage-1 residuals and the masked flatness max.

    Keyed as in the run summary, evaluated window by window into per-level
    sums and maxima.  Each window takes the stage-1 residuals' kernel,
    :func:`stage2_residuals`, on the levels it owns of its twice-reduced
    projection.
    """
    gr = section.grid
    names = Stage1Residuals._fields
    levels, nodes = gr.interior(2)

    def evaluate(w):
        s = at_levels(section, w.read)
        res = stage2_residuals(at_levels(project_stage2(s), w.inner), p)
        return (*(g.level_sums(g.node_sq(getattr(res, name)), nodes)
                  for name in names),
                *flatness_level_max(gr, w, s.Omega, s.omega, nodes))

    *sums, flat, flat_node = g.by_window(gr, evaluate)
    return {**{f"residual_{name}_l2": g.l2_sq(gr, q, levels)
               for name, q in zip(names, sums)},
            "flatness_rotation_max": g.max_sq(flat, flat_node, levels).value}


def _unreduced_slots(u):
    """The density's slots (r_t, c, theta_s, theta_t, Omega, omega) of the
    full section ``u``, from the grid stencils, and ``Lambda^T d_s Lambda``,
    ``Lambda^T d_t Lambda``, whose antisymmetric parts are the rates."""
    gr = u.grid
    Lam = np.asarray(u.Lambda, float)
    LamT = np.swapaxes(Lam, -1, -2)
    r = np.asarray(u.r, float)
    M_s, M_t = LamT @ g.d_s(gr, Lam), LamT @ g.d_t(gr, Lam)
    return (g.d_t(gr, r), _dot(r, r), g.d_s(gr, u.theta), g.d_t(gr, u.theta),
            vee_skew(M_s), vee_skew(M_t)), M_s, M_t


def discrete_action(section, p):
    """Discrete action: nodal Lagrangian density summed times ds dt.

    Derivative fields come from the grid stencils; a full section's are
    :func:`_unreduced_slots`.
    """
    gr = section.grid
    if hasattr(section, "Lambda"):
        dens = model.density(*_unreduced_slots(section)[0], p)
    else:
        dens = model.lagrangian_stage1(project_stage2(section), p)
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


_ACTION_STEP = 1e-5   # the central difference of action_gradient_check


def action_gradient_check(s1, var, p):
    """Compare the finite-difference action derivative with the residual pairing.

    Returns ``(fd_derivative, residual_pairing)``.  The pairing signs are the
    ones under which stationarity of the discrete action is equivalent to
    vanishing residuals:

        dS . var = sum [ <horizontal_rho, delta_rho> - <vertical, eta>
                         - <horizontal_theta, delta_theta> ] ds dt + O(h^2).
    """
    var.validate(s1.grid)
    gr = s1.grid
    s_hi = discrete_action(_perturbed(s1, var, +_ACTION_STEP), p)
    s_lo = discrete_action(_perturbed(s1, var, -_ACTION_STEP), p)
    fd = (s_hi - s_lo) / (2.0 * _ACTION_STEP)
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
    slots, M_s, M_t = _unreduced_slots(u_sec)
    # gradient of the density in its own slots
    g_r_t, g_c, g_theta_s, g_theta_t, g_Omega, g_omega = \
        model.density_derivatives(*slots, p)

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
