"""Projection of full configurations to reduced fields, and reconstruction back.

A full section stores (r, Lambda, theta) over the grid.  Projecting once
removes the rigid rotation: rho = Lambda^T r together with the body-frame
rotation rates Omega (along s) and omega (along t).  Projecting again removes
the rotor shifts: theta is replaced by its derivatives a = d_s theta,
b = d_t theta.

Reconstruction goes the other way and is gated by the zero-curvature
conditions ``d_s omega - d_t Omega + Omega x omega = 0`` and ``a_t = b_s``;
see :func:`reconstruct_rotation` and :func:`reconstruct_theta`.
"""

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .errors import NearAnglePiError, NotFlatError
from .so3 import cross, exp_so3, log_so3, reorthonormalize, rotation_angle


@dataclass
class UnreducedSection:
    """Fields (r, Lambda, theta) over a grid.

    Rotor angles are unbounded reals (never wrapped), so their grid
    derivatives are meaningful.  Adjacent rotations should stay within a
    rotation angle of pi/2 of each other for the discrete logarithms to be
    well posed.
    """

    grid: g.Grid2
    r: np.ndarray        # (n_t, n_s, 3)
    Lambda: np.ndarray   # (n_t, n_s, 3, 3)
    theta: np.ndarray    # (n_t, n_s, 3)


@dataclass
class Stage1Section:
    """Once-reduced fields; derivative fields are computed on demand."""

    grid: g.Grid2
    rho: np.ndarray
    theta: np.ndarray
    Omega: np.ndarray
    omega: np.ndarray


@dataclass
class Stage2Section:
    """Twice-reduced fields: rotor angles survive only through a, b."""

    grid: g.Grid2
    rho: np.ndarray
    a: np.ndarray
    b: np.ndarray
    Omega: np.ndarray
    omega: np.ndarray


def _transpose(M):
    return np.swapaxes(M, -1, -2)


def _log_rate(Lam, h, periodic, axis):
    """Body-frame rotation rate along ``axis`` from averaged discrete logs.

    Interior nodes use (log(L_i^T L_{i+1}) - log(L_i^T L_{i-1})) / (2h); this
    keeps the result exactly in the Lie algebra and is second order.
    Non-periodic edges use the one-sided second-order combination
    (4 log(L_0^T L_1) - log(L_0^T L_2)) / (2h) and its mirror.
    """
    Lam = np.moveaxis(np.asarray(Lam, dtype=float), axis, 0)
    LamT = _transpose(Lam)
    n = Lam.shape[0]
    if periodic:
        fwd = log_so3(LamT @ np.roll(Lam, -1, axis=0))
        bwd = log_so3(LamT @ np.roll(Lam, 1, axis=0))
        out = (fwd - bwd) / (2.0 * h)
    else:
        out = np.empty(Lam.shape[:-2] + (3,))
        fwd = log_so3(LamT[:-1] @ Lam[1:])    # log(L_i^T L_{i+1}), i = 0..n-2
        bwd = log_so3(LamT[1:] @ Lam[:-1])    # log(L_i^T L_{i-1}), i = 1..n-1
        out[1:-1] = (fwd[1:] - bwd[:-1]) / (2.0 * h)
        psi2_lo = log_so3(LamT[0] @ Lam[2])
        psi2_hi = log_so3(LamT[n - 1] @ Lam[n - 3])
        out[0] = (4.0 * fwd[0] - psi2_lo) / (2.0 * h)
        out[n - 1] = -(4.0 * bwd[n - 2] - psi2_hi) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def project_stage1(u):
    """First projection: rho = Lambda^T r, theta copied, Omega/omega from logs."""
    gr = u.grid
    rho = np.einsum("...ji,...j->...i", u.Lambda, u.r)
    Omega = _log_rate(u.Lambda, gr.ds, gr.periodic_s, axis=1)
    omega = _log_rate(u.Lambda, gr.dt, False, axis=0)
    return Stage1Section(grid=gr, rho=rho, theta=np.array(u.theta, dtype=float),
                         Omega=Omega, omega=omega)


def project_stage2(s1):
    """Second projection: the abelian quotient replaces theta by its gradient."""
    return Stage2Section(
        grid=s1.grid,
        rho=np.array(s1.rho, dtype=float),
        a=g.d_s(s1.grid, s1.theta),
        b=g.d_t(s1.grid, s1.theta),
        Omega=np.array(s1.Omega, dtype=float),
        omega=np.array(s1.omega, dtype=float),
    )


def flatness_residual_rotation(section):
    """Zero-curvature defect d_s(omega) - d_t(Omega) + Omega x omega.

    Vanishes (to discretization error) exactly when (Omega, omega) come from
    a genuine rotation field; accepts stage-1 or stage-2 sections.  The sign
    of the cross term is the one for body-frame rates Omega = Lambda^T
    Lambda_s, omega = Lambda^T Lambda_t (for spatial rates it would flip),
    and is pinned by the projected-field refinement test.
    """
    gr = section.grid
    return (g.d_s(gr, section.omega) - g.d_t(gr, section.Omega)
            + cross(section.Omega, section.omega))


def flatness_residual_rotor(s2):
    """Rotor compatibility defect d_t(a) - d_s(b)."""
    return g.d_t(s2.grid, s2.a) - g.d_s(s2.grid, s2.b)


def _sweep(Lam_prev, rate_mid, h):
    """One reconstruction step: midpoint exponential, then reorthonormalize."""
    step = h * rate_mid
    angle = np.max(np.linalg.norm(step, axis=-1))
    if angle >= np.pi / 2.0:
        raise NearAnglePiError(
            f"reconstruction step angle {angle:.3f} >= pi/2; grid too coarse")
    return reorthonormalize(Lam_prev @ exp_so3(step))


def reconstruct_rotation(grid, Omega, omega, Lambda0, tol, sweep="st"):
    """Integrate a flat (Omega, omega) pair back to a rotation field.

    The flatness residual must stay below ``tol`` in the max norm, else
    :class:`NotFlatError`.  ``sweep="st"`` fills the t = 0 row from Omega and
    then marches every s-column forward in time with omega; ``sweep="ts"`` is
    the transposed order (used to expose the path-independence defect).  The
    result is one representative of the reconstruction family, selected by
    ``Lambda0``; any other member differs by a constant left rotation.
    """
    sec = Stage2Section(grid=grid, rho=None, a=None, b=None,
                        Omega=np.asarray(Omega, float),
                        omega=np.asarray(omega, float))
    defect = g.norm_max(flatness_residual_rotation(sec))
    if defect > tol:
        raise NotFlatError(
            f"flatness residual {defect:.3e} exceeds tolerance {tol:.3e}")
    Omega = sec.Omega
    omega = sec.omega
    n_t, n_s = grid.n_t, grid.n_s
    Lam = np.empty((n_t, n_s, 3, 3))
    if sweep == "st":
        Lam[0, 0] = np.asarray(Lambda0, dtype=float)
        for j in range(n_s - 1):
            mid = 0.5 * (Omega[0, j] + Omega[0, j + 1])
            Lam[0, j + 1] = _sweep(Lam[0, j], mid, grid.ds)
        for i in range(n_t - 1):
            mid = 0.5 * (omega[i] + omega[i + 1])
            Lam[i + 1] = _sweep(Lam[i], mid, grid.dt)
    elif sweep == "ts":
        Lam[0, 0] = np.asarray(Lambda0, dtype=float)
        for i in range(n_t - 1):
            mid = 0.5 * (omega[i, 0] + omega[i + 1, 0])
            Lam[i + 1, 0] = _sweep(Lam[i, 0], mid, grid.dt)
        for j in range(n_s - 1):
            mid = 0.5 * (Omega[:, j] + Omega[:, j + 1])
            Lam[:, j + 1] = _sweep(Lam[:, j], mid, grid.ds)
    else:
        raise ValueError(f"unknown sweep order '{sweep}'")
    return Lam


def path_independence_defect(grid, Omega, omega, Lambda0, tol):
    """Max rotation angle between the two sweep orders of the reconstruction."""
    a_first = reconstruct_rotation(grid, Omega, omega, Lambda0, tol, sweep="st")
    b_first = reconstruct_rotation(grid, Omega, omega, Lambda0, tol, sweep="ts")
    rel = _transpose(a_first) @ b_first
    return float(np.max(rotation_angle(rel)))


def reconstruct_theta(grid, a, b, theta0, tol):
    """Path integral of the rotor gradient pair from the origin corner.

    Requires the rotor flatness residual d_t(a) - d_s(b) below ``tol``.
    Trapezoid rule along the t = 0 row, then along every column.
    """
    sec = Stage2Section(grid=grid, rho=None,
                        a=np.asarray(a, float), b=np.asarray(b, float),
                        Omega=None, omega=None)
    defect = g.norm_max(flatness_residual_rotor(sec))
    if defect > tol:
        raise NotFlatError(
            f"rotor flatness residual {defect:.3e} exceeds tolerance {tol:.3e}")
    a = sec.a
    b = sec.b
    theta = np.empty((grid.n_t, grid.n_s, 3))
    theta[0, 0] = np.asarray(theta0, dtype=float)
    row = grid.ds * 0.5 * (a[0, :-1] + a[0, 1:])
    theta[0, 1:] = theta[0, 0] + np.cumsum(row, axis=0)
    col = grid.dt * 0.5 * (b[:-1] + b[1:])
    theta[1:] = theta[0] + np.cumsum(col, axis=0)
    return theta
