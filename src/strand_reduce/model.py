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
the same formula (``lagrangian_stage2`` shares the code path).

The potential energy is fixed to

    E(W, a, c) = 1/2 <W, C W> + 1/2 <a, D a> + kappa/4 (c - c0)^2,

the simplest smooth form that exercises every derivative slot appearing in
the reduced equations.

This module is the only place the density, E, its derivatives and the fiber
derivatives are written down (``density``, ``potential_E``, ``dE``,
``density_derivatives``, ``fiber_derivatives_stage1``).  All of them act on
single points and on whole (..., 3) fields alike; the residuals, currents
and the time stepper call them rather than restating the formulas.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .so3 import cross, hat, vee

_SYM_TOL = 1e-12


def _check_symmetric(M, name):
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must be finite")
    defect = float(np.max(np.abs(M - M.T)))
    if defect > _SYM_TOL:
        raise ValueError(f"{name} symmetry defect {defect:.3e} exceeds {_SYM_TOL}")
    return M


@dataclass(frozen=True)
class ModelParams:
    """Inertia tensors and potential-energy parameters.

    ``inertia_body`` and ``inertia_rotor`` must be symmetric positive
    definite (checked by Cholesky).  The potential matrices only need to be
    symmetric positive semidefinite so that the potential can be switched
    off entirely (C = D = 0, kappa = 0).
    """

    inertia_body: np.ndarray
    inertia_rotor: np.ndarray
    pot_C: np.ndarray
    pot_D: np.ndarray
    pot_kappa: float
    pot_c0: float

    def __post_init__(self):
        object.__setattr__(self, "inertia_body",
                           _check_symmetric(self.inertia_body, "inertia_body"))
        object.__setattr__(self, "inertia_rotor",
                           _check_symmetric(self.inertia_rotor, "inertia_rotor"))
        object.__setattr__(self, "pot_C", _check_symmetric(self.pot_C, "pot_C"))
        object.__setattr__(self, "pot_D", _check_symmetric(self.pot_D, "pot_D"))
        for name in ("inertia_body", "inertia_rotor"):
            try:
                np.linalg.cholesky(getattr(self, name))
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} must be positive definite") from None
        for name in ("pot_C", "pot_D"):
            if float(np.min(np.linalg.eigvalsh(getattr(self, name)))) < -1e-12:
                raise ValueError(f"{name} must be positive semidefinite")
        if not (np.isfinite(self.pot_kappa) and self.pot_kappa >= 0.0):
            raise ValueError("pot_kappa must be >= 0")
        if not (np.isfinite(self.pot_c0) and self.pot_c0 > 0.0):
            raise ValueError("pot_c0 must be > 0")


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


def free_params(base=None):
    """Copy of ``base`` with the potential switched off (E identically zero)."""
    base = base or default_params()
    return dataclasses.replace(base, pot_C=np.zeros((3, 3)),
                               pot_D=np.zeros((3, 3)), pot_kappa=0.0)


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
    r_s: np.ndarray
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
    wk = omega + b
    return (0.5 * _dot(v, v)
            + 0.5 * _dot(omega, omega @ p.inertia_body.T)
            + 0.5 * _dot(wk, wk @ p.inertia_rotor.T)
            - potential_E(Omega, a, c, p))


def density_derivatives(v, c, a, b, Omega, omega, p):
    """Partial derivatives of :func:`density` in its six slots, in order."""
    E_Omega, E_a, E_c = dE(Omega, a, c, p)
    Kwk = (omega + b) @ p.inertia_rotor.T
    return v, -E_c, -E_a, Kwk, -E_Omega, omega @ p.inertia_body.T + Kwk


def lagrangian_stage1(pt, p):
    """First reduced Lagrangian density; ``pt`` is a point or a field bundle."""
    return density(pt.rho_t + cross(pt.omega, pt.rho), _dot(pt.rho, pt.rho),
                   pt.theta_s, pt.theta_t, pt.Omega, pt.omega, p)


def lagrangian_stage2(rho, rho_t, a, b, Omega, omega, p):
    """Second reduced Lagrangian: same closed form with (theta_s, theta_t) -> (a, b)."""
    return lagrangian_stage1(
        Stage1Point(rho=rho, rho_t=rho_t, theta_s=a, theta_t=b,
                    Omega=Omega, omega=omega), p)


def lagrangian_unreduced(pt, p, tangency_tol=1e-6):
    """Unreduced Lagrangian density at a point.

    Propagates :class:`NotAntisymmetricError` when the tangent
    representatives violate ``Lambda^T Lambda_{s,t}`` antisymmetry.
    """
    Lam = np.asarray(pt.Lambda, dtype=float)
    Omega = vee(Lam.T @ np.asarray(pt.Lambda_s, dtype=float), tol=tangency_tol)
    omega = vee(Lam.T @ np.asarray(pt.Lambda_t, dtype=float), tol=tangency_tol)
    r = np.asarray(pt.r, dtype=float)
    return density(np.asarray(pt.r_t, dtype=float), _dot(r, r),
                   pt.theta_s, pt.theta_t, Omega, omega, p)


def lift_stage1(pt, Lam, r_s=None):
    """Unreduced point over a given rotation reproducing a stage-1 point.

    Uses r = Lam rho, Lambda_s = Lam hat(Omega), Lambda_t = Lam hat(omega),
    r_t = Lam (rho_t + omega x rho); ``r_s`` is free (unused by the
    Lagrangian) and defaults to zero.
    """
    Lam = np.asarray(Lam, dtype=float)
    if r_s is None:
        r_s = np.zeros(3)
    return UnreducedPoint(
        r=Lam @ pt.rho,
        r_s=r_s,
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

    ``pt`` is a point or a field bundle with the same six slots, such as
    :class:`residuals.DerivativeFields`.  The density derivatives are
    chained through ``u = rho_t + omega x rho`` and ``c = <rho, rho>``.
    With the flat (Maurer-Cartan-style) trivialization used throughout, the
    horizontal correction terms vanish and ``dl_drho`` is the plain partial
    derivative.
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


def fd_fiber_derivative(fn, pt, slot, step=1e-6, p=None):
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
