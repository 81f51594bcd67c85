"""The strand-with-rotors Lagrangian, its reduced forms and fiber derivatives.

The configuration of the unreduced model at one grid point is a position
``r`` in R^3, a rotation ``Lambda`` and three rotor angles ``theta`` (kept as
unbounded reals).  The Lagrangian

    L = 1/2 <r_t, r_t> + 1/2 <w, I w> + 1/2 <w + theta_t, K (w + theta_t)>
        - E(W, theta_s, <r, r>)

with ``w = (Lambda^T Lambda_t)^vee`` and ``W = (Lambda^T Lambda_s)^vee`` is
invariant under rigid rotations of (r, Lambda) and shifts of theta.  Dividing
out the rotation gives the first reduced form (``lagrangian_stage1``); also
dividing out the rotor shifts renames (theta_s, theta_t) -> (a, b) and yields
the same formula, so the second reduced form is ``lagrangian_stage1`` of a
point whose ``theta_s``, ``theta_t`` hold a, b.

The potential energy is fixed to

    E(W, a, c) = 1/2 <W, C W> + 1/2 <a, D a> + kappa/4 (c - c0)^2,

the simplest smooth form that exercises every derivative slot appearing in
the reduced equations.

This module is the only place the density, E, its derivatives, the fiber
derivatives and the balance laws are written down (``density``,
``potential_E``, ``dE``, ``rotor_momentum``, ``density_derivatives``,
``fiber_derivatives_stage1``, ``rates``).  All of them act on single
points and on whole (..., 3) fields alike; the residuals, currents and the
time stepper call them rather than restating the formulas.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import grid as g
from .so3 import cross, hat, vee

_SYM_TOL = 1e-12

# The model's parameters, one row each: config section, config and manifest
# token, ModelParams field, shape.  The config reader, the manifest and the
# report read their names from here.
PARAMS = (("inertia", "I", "inertia_body", (3, 3)),
          ("inertia", "K", "inertia_rotor", (3, 3)),
          ("potential", "C", "pot_C", (3, 3)),
          ("potential", "D", "pot_D", (3, 3)),
          ("potential", "kappa", "pot_kappa", ()),
          ("potential", "c0", "pot_c0", ()))
_SHAPE = {field: shape for _, _, field, shape in PARAMS}


def check_param(name, value):
    """``value`` as the ModelParams field ``name`` holds it: a float array of
    its shape in ``PARAMS``, or a float.

    Every entry must be finite.  A matrix must be symmetric; I and K
    positive definite (Cholesky), C and D only positive semidefinite, so
    that the potential can be switched off (C = D = 0, kappa = 0).  kappa
    must be >= 0 and c0 > 0.  A ValueError says what is wrong, without the
    name.
    """
    shape = _SHAPE[name]
    x = np.asarray(value, dtype=float)
    if x.shape != shape:
        raise ValueError("must be a 3x3 matrix" if shape else "must be a number")
    if not np.isfinite(x).all():
        raise ValueError("must be finite")
    if not shape:
        if name == "pot_c0" and not x > 0.0:
            raise ValueError("must be > 0")
        if not x >= 0.0:
            raise ValueError("must be >= 0")
        return float(x)
    defect = float(np.max(np.abs(x - x.T)))
    if defect > _SYM_TOL:
        raise ValueError(f"symmetry defect {defect:.3e} exceeds {_SYM_TOL}")
    if name in ("inertia_body", "inertia_rotor"):
        try:
            np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            raise ValueError("must be positive definite") from None
    elif float(np.min(np.linalg.eigvalsh(x))) < -1e-12:
        raise ValueError("must be positive semidefinite")
    return x


@dataclass(frozen=True)
class ModelParams:
    """Inertia tensors and potential-energy parameters, in ``PARAMS`` order,
    each checked by :func:`check_param` (a ValueError names the field)."""

    inertia_body: np.ndarray
    inertia_rotor: np.ndarray
    pot_C: np.ndarray
    pot_D: np.ndarray
    pot_kappa: float
    pot_c0: float

    def __post_init__(self):
        for _, _, name, _ in PARAMS:
            try:
                value = check_param(name, getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
            object.__setattr__(self, name, value)


def default_params():
    """Mildly anisotropic, non-diagonal SPD defaults used by the CLI presets."""
    return ModelParams(
        inertia_body=np.array([[1.8, 0.2, 0.0],
                               [0.2, 1.4, 0.1],
                               [0.0, 0.1, 1.1]]),
        inertia_rotor=np.array([[0.9, 0.1, 0.0],
                                [0.1, 0.7, 0.05],
                                [0.0, 0.05, 0.5]]),
        pot_C=np.array([[1.0, 0.1, 0.0],
                        [0.1, 0.8, 0.05],
                        [0.0, 0.05, 0.6]]),
        pot_D=np.array([[0.7, 0.05, 0.0],
                        [0.05, 0.5, 0.02],
                        [0.0, 0.02, 0.4]]),
        pot_kappa=1.0,
        pot_c0=1.0,
    )


@dataclass
class Stage1Point:
    """Pointwise arguments of the first reduced Lagrangian."""

    rho: np.ndarray
    rho_t: np.ndarray
    theta_s: np.ndarray
    theta_t: np.ndarray
    Omega: np.ndarray
    omega: np.ndarray


@dataclass
class UnreducedPoint:
    """Pointwise arguments of the unreduced Lagrangian.

    ``Lambda_s`` and ``Lambda_t`` are tangent representatives: 3x3 matrices
    with ``Lambda^T Lambda_s`` and ``Lambda^T Lambda_t`` antisymmetric.
    """

    r: np.ndarray
    r_t: np.ndarray
    Lambda: np.ndarray
    Lambda_s: np.ndarray
    Lambda_t: np.ndarray
    theta_s: np.ndarray
    theta_t: np.ndarray


SLOTS = ("rho", "rho_t", "theta_s", "theta_t", "Omega", "omega")


def _dot(a, b):
    """Inner product over the last axis of (..., 3) arrays."""
    return np.sum(a * b, axis=-1)


def potential_E(Omega, a, c, p):
    """Potential energy E(Omega, a, c) with c = <rho, rho>."""
    return (0.5 * _dot(Omega, Omega @ p.pot_C.T)
            + 0.5 * _dot(a, a @ p.pot_D.T)
            + 0.25 * p.pot_kappa * (c - p.pot_c0) ** 2)


def dE(Omega, a, c, p):
    """Partial derivatives of :func:`potential_E` in its three slots."""
    return (Omega @ p.pot_C.T,
            a @ p.pot_D.T,
            0.5 * p.pot_kappa * (c - p.pot_c0))


def density(v, c, a, b, Omega, omega, p):
    """The Lagrangian density common to the unreduced and both reduced forms.

    ``v`` is the translational velocity (body-frame ``rho_t + omega x rho``
    or spatial ``r_t``; only its length enters), ``c = <rho, rho> = <r, r>``
    and ``(a, b)`` are the rotor rates (theta_s, theta_t).
    """
    return (0.5 * _dot(v, v)
            + 0.5 * _dot(omega, omega @ p.inertia_body.T)
            + 0.5 * _dot(omega + b, rotor_momentum(omega, b, p))
            - potential_E(Omega, a, c, p))


def rotor_momentum(omega, b, p):
    """The rotor momentum K (omega + b), b the rotor rate theta_t: the
    t-component of the rotor-shift current, whose s-integral the march
    records as the rotor total."""
    return (omega + b) @ p.inertia_rotor.T


def density_derivatives(v, c, a, b, Omega, omega, p):
    """Partial derivatives of :func:`density` in its six slots, in order."""
    E_Omega, E_a, E_c = dE(Omega, a, c, p)
    Kwk = rotor_momentum(omega, b, p)
    return v, -E_c, -E_a, Kwk, -E_Omega, omega @ p.inertia_body.T + Kwk


# The rows of the packed state, with u = rho_t, a = theta_s, v = theta_t.
COMPONENTS = ("rho", "u", "theta", "a", "v", "Omega", "omega")
# Rows (Omega, omega, rho, Omega) of the packed state: the left operands of
# the first stacked cross product of :func:`rates`.
_CROSS_LEFT = np.array([5, 6, 0, 5])


def rates(params, ds, closure):
    """The time derivative ``f(y)`` of a packed state ``y``, (7, ..., n_s, 3)
    in ``COMPONENTS`` order: the balance laws solved for the accelerations.

    The three balance laws (vertical, rho and rotor) are affine in the
    accelerations (u_t, omega_t, v_t).  Substituting the rho law into the
    vertical one annihilates the whole ``rho x (...)`` block (a
    cross-product identity), and the rotor law then isolates
    ``I omega_t``:

        omega_t = I^-1 [ d_s(C Omega) + Omega x (C Omega) - d_s(D a)
                         - omega x ((I+K) omega + K v) ]
        v_t     = K^-1 d_s(D a) - omega_t
        u_t     = F - omega_t x rho,
        F       = omega x (rho x omega - 2u) - 2 E_c rho

    with E_c = kappa/2 (<rho, rho> - c0).  Omega and a follow the
    zero-curvature relations ``Omega_t = d_s(omega) + Omega x omega`` and
    ``a_t = d_s(v)``, and theta has rate v.  ``y`` may be one time slice
    (the march) or a block of levels (the residual evaluators); ``ds`` and
    ``closure`` are the arclength spacing and :class:`grid.Closure`.

    At small n_s numpy's per-call cost outweighs the algebra.  So the
    constants (the inverses of I and K, I + K, and the transposes the
    matrix products read) are prepared here, once; stacked operands take
    one stencil call and two cross-product calls; and each rate is written
    straight into its row of the output.  Each entry is summed as written
    above, whatever the stacking or kernel taken.
    """
    I, K = params.inertia_body, params.inertia_rotor
    IK_T = np.ascontiguousarray((I + K).T)
    K_T = np.ascontiguousarray(K.T)
    I_inv_T = np.ascontiguousarray(np.linalg.inv(I).T)
    K_inv_T = np.ascontiguousarray(np.linalg.inv(K).T)

    def f(y):
        # On one slice each row of y is an (n_s, 3) matrix, which np.dot
        # multiplies with the same bits as np.matmul at about half the
        # per-call cost; on a block of levels np.dot would loop node by node.
        mul = np.dot if y.ndim == 3 else np.matmul
        rho, u, _theta, a, v, Omega, omega = y
        CW, Da, E_c = dE(Omega, a, np.add.reduce(rho * rho, -1), params)
        ds_CW, ds_Da, ds_omega, ds_v = g.d_s_slice(
            np.array([CW, Da, omega, v]), ds, closure)
        m = mul(omega, IK_T)
        m += mul(v, K_T)
        OxCW, wxm, rxw, Oxw = cross(y.take(_CROSS_LEFT, 0),
                                    np.array([CW, m, omega, omega]))

        out = np.empty_like(y)
        out[0], out[2], out[3] = u, v, ds_v
        ds_CW += OxCW
        ds_CW -= ds_Da
        ds_CW -= wxm
        omega_t, v_t, u_t = out[6], out[4], out[1]
        mul(ds_CW, I_inv_T, out=omega_t)
        mul(ds_Da, K_inv_T, out=v_t)
        v_t -= omega_t
        rxw -= 2.0 * u
        wxF, wtxr = cross(np.array([omega, omega_t]), np.array([rxw, rho]))
        E_c *= 2.0
        np.multiply(E_c[..., None], rho, out=u_t)
        np.subtract(wxF, u_t, out=u_t)
        u_t -= wtxr
        np.add(ds_omega, Oxw, out=out[5])
        return out

    return f


def lagrangian_stage1(pt, p):
    """First reduced Lagrangian density; ``pt`` is a point or a field bundle."""
    return density(pt.rho_t + cross(pt.omega, pt.rho), _dot(pt.rho, pt.rho),
                   pt.theta_s, pt.theta_t, pt.Omega, pt.omega, p)


def lagrangian_unreduced(pt, p):
    """Unreduced Lagrangian density at a point.

    Propagates :class:`NotAntisymmetricError` when the tangent
    representatives violate ``Lambda^T Lambda_{s,t}`` antisymmetry
    (``so3.ANTISYMMETRY_TOL``).
    """
    Lam = np.asarray(pt.Lambda, dtype=float)
    Omega = vee(Lam.T @ np.asarray(pt.Lambda_s, dtype=float))
    omega = vee(Lam.T @ np.asarray(pt.Lambda_t, dtype=float))
    r = np.asarray(pt.r, dtype=float)
    return density(np.asarray(pt.r_t, dtype=float), _dot(r, r),
                   pt.theta_s, pt.theta_t, Omega, omega, p)


def lift_stage1(pt, Lam):
    """Unreduced point over a given rotation reproducing a stage-1 point.

    Uses r = Lam rho, Lambda_s = Lam hat(Omega), Lambda_t = Lam hat(omega),
    r_t = Lam (rho_t + omega x rho).
    """
    Lam = np.asarray(Lam, dtype=float)
    return UnreducedPoint(
        r=Lam @ pt.rho,
        r_t=Lam @ (pt.rho_t + cross(pt.omega, pt.rho)),
        Lambda=Lam,
        Lambda_s=Lam @ hat(pt.Omega),
        Lambda_t=Lam @ hat(pt.omega),
        theta_s=pt.theta_s,
        theta_t=pt.theta_t,
    )


@dataclass
class FiberDerivatives:
    dl_drho: np.ndarray
    dl_drho_t: np.ndarray
    dl_dtheta_s: np.ndarray
    dl_dtheta_t: np.ndarray
    dl_dOmega: np.ndarray
    dl_domega: np.ndarray


def fiber_derivatives_stage1(pt, p):
    """Analytic partial derivatives of the stage-1 Lagrangian in all six slots.

    ``pt`` is a point or a field bundle with the same six slots, such as a
    twice-reduced section (:class:`reduction.Stage2Section`).  The density
    derivatives are chained through ``u = rho_t + omega x rho`` and
    ``c = <rho, rho>``.  With the flat (Maurer-Cartan-style) trivialization
    used throughout, the horizontal correction terms vanish and ``dl_drho``
    is the plain partial derivative.
    """
    u = pt.rho_t + cross(pt.omega, pt.rho)
    d_u, d_c, d_a, d_b, d_Omega, d_omega = density_derivatives(
        u, _dot(pt.rho, pt.rho), pt.theta_s, pt.theta_t, pt.Omega, pt.omega, p)
    return FiberDerivatives(
        dl_drho=cross(u, pt.omega) + 2.0 * np.expand_dims(d_c, -1) * pt.rho,
        dl_drho_t=d_u,
        dl_dtheta_s=d_a,
        dl_dtheta_t=d_b,
        dl_dOmega=d_Omega,
        dl_domega=cross(pt.rho, u) + d_omega,
    )


def fd_fiber_derivative(fn, pt, slot, step, p):
    """Central finite difference of ``fn(pt, p)`` in one named slot.

    Oracle for the analytic fiber derivatives; ``step`` must lie in
    [1e-9, 1e-3].
    """
    if not 1e-9 <= step <= 1e-3:
        raise ValueError("step outside [1e-9, 1e-3]")
    base = np.asarray(getattr(pt, slot), dtype=float)
    out = np.zeros_like(base)
    for i in range(base.size):
        bump = np.zeros_like(base)
        bump.flat[i] = step
        hi = dataclasses.replace(pt, **{slot: base + bump})
        lo = dataclasses.replace(pt, **{slot: base - bump})
        out.flat[i] = (fn(hi, p) - fn(lo, p)) / (2.0 * step)
    return out
