"""Projection of full configurations to reduced fields, and reconstruction back.

A full section stores (r, Lambda, theta) over the grid.  Projecting once
removes the rigid rotation: rho = Lambda^T r together with the body-frame
rotation rates Omega (along s) and omega (along t).  Projecting again removes
the rotor shifts: theta is replaced by its derivatives a = d_s theta,
b = d_t theta, and the section carries the time derivatives the balance
laws ask for (its jet).

Reconstruction goes the other way and is gated by the zero-curvature
conditions ``d_s omega - d_t Omega + Omega x omega = 0`` and ``a_t = b_s``;
see :func:`reconstruct_rotation` and :func:`reconstruct_theta`.
"""

import dataclasses
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


FIELDS = ("rho", "theta", "Omega", "omega")     # as a stored run holds them


@dataclass
class Stage2Section:
    """Twice-reduced fields and their jet: rotor angles survive only through
    (a, b), held in the ``theta_s``, ``theta_t`` slots of
    :class:`model.Stage1Point`, so the model's functions read it as it is.

    ``grid`` gives the spacings and the boundary policy.  The fields may
    hold only some of its levels (:func:`at_levels`), so the kernels take
    their level count from the arrays."""

    grid: g.Grid2
    rho: np.ndarray
    Omega: np.ndarray
    omega: np.ndarray
    theta_s: np.ndarray
    theta_t: np.ndarray
    theta_tt: np.ndarray
    rho_t: np.ndarray
    rho_tt: np.ndarray
    omega_t: np.ndarray


def _transpose(M):
    return np.swapaxes(M, -1, -2)


def _log_rate(Lam, h, closure, axis):
    """Body-frame rotation rate along ``axis`` from averaged discrete logs.

    Interior nodes use (log(L_i^T L_{i+1}) - log(L_i^T L_{i-1})) / (2h); this
    keeps the result exactly in the Lie algebra and is second order.  One
    log is taken per neighbour pair: log(L_i^T L_{i-1}) is
    -log(L_{i-1}^T L_i) bit for bit, as ``log_so3`` of a transpose is the
    exact negative.  The edges of a ``closure`` (None when periodic) apply
    its rows to the logs relative to the edge node, log(L_0^T L_k) and
    log(L_{n-1}^T L_{n-1-k}), which are 0 at k = 0.
    """
    Lam = np.moveaxis(np.asarray(Lam, dtype=float), axis, 0)
    LamT = _transpose(Lam)
    if closure is None:
        fwd = log_so3(LamT @ np.roll(Lam, -1, axis=0))
        out = (fwd + np.roll(fwd, 1, axis=0)) / (2.0 * h)
    else:
        out = np.empty(Lam.shape[:-2] + (3,))
        fwd = log_so3(LamT[:-1] @ Lam[1:])    # log(L_i^T L_{i+1}), i = 0..n-2
        out[1:-1] = (fwd[1:] + fwd[:-1]) / (2.0 * h)
        # each edge's three logs on the nodes of the closure's rows, low edge
        # in column 0: rows 0 and 2 of their derivative are the edge rates
        rel = np.zeros((3, 2) + out.shape[1:])
        rel[1:, 0] = fwd[0], log_so3(LamT[0] @ Lam[2])
        rel[:2, 1] = log_so3(LamT[-1] @ Lam[-3]), -fwd[-1]
        edge = g._diff(rel, h, closure, 0)
        out[0], out[-1] = edge[0, 0], edge[2, 1]
    return np.moveaxis(out, 0, axis)


def project_stage1(u):
    """First projection: rho = Lambda^T r, theta copied, Omega/omega from logs."""
    gr = u.grid
    rho = np.einsum("...ji,...j->...i", u.Lambda, u.r)
    Omega = _log_rate(u.Lambda, gr.ds, gr.closure_s, axis=1)
    omega = _log_rate(u.Lambda, gr.dt, g.ONE_SIDED, axis=0)
    return Stage1Section(grid=gr, rho=rho, theta=np.array(u.theta, dtype=float),
                         Omega=Omega, omega=omega)


def project_stage2(s1):
    """Second projection, the only place a section is differentiated: theta
    goes to its gradient (a, b), with the jet; rho, Omega and omega are
    ``s1``'s own (as float arrays), not copies."""
    gr = s1.grid
    rho, omega = np.asarray(s1.rho, float), np.asarray(s1.omega, float)
    a, b, rho_t = g.d_s(gr, s1.theta), g.d_t(gr, s1.theta), g.d_t(gr, rho)
    return Stage2Section(
        grid=gr, rho=rho, Omega=np.asarray(s1.Omega, float), omega=omega,
        theta_s=a, theta_t=b, theta_tt=g.d_t(gr, b),
        rho_t=rho_t, rho_tt=g.d_t(gr, rho_t), omega_t=g.d_t(gr, omega))


def flatness_residual_rotation(grid, Omega, omega, keep=slice(None)):
    """Zero-curvature defect d_s(omega) - d_t(Omega) + Omega x omega on the
    levels ``keep`` of the fields' (d_t reads them all).

    Vanishes (to discretization error) exactly when (Omega, omega) come from
    a genuine rotation field.  The sign of the cross term is the one for
    body-frame rates Omega = Lambda^T Lambda_s, omega = Lambda^T Lambda_t
    (for spatial rates it would flip), and is pinned by the projected-field
    refinement test.
    """
    return (g.d_s(grid, omega[keep]) - g.d_t(grid, Omega)[keep]
            + cross(Omega[keep], omega[keep]))


def at_levels(record, rows):
    """``record``, a dataclass of level-major fields (and maybe a ``grid``,
    kept), on the levels ``rows``: views of arrays, or the levels of
    :class:`grid.Levels` sources."""
    return dataclasses.replace(record, **{
        f.name: getattr(record, f.name)[rows]
        for f in dataclasses.fields(record) if f.name != "grid"})


def flatness_level_max(grid, window, Omega, omega):
    """:func:`grid.level_max` of the squared :func:`flatness_residual_rotation`
    over every node of every level ``window`` of ``grid`` owns; ``Omega`` and
    ``omega`` hold the levels it reads."""
    flat = flatness_residual_rotation(grid, Omega, omega, window.inner)
    return g.level_max(g.node_sq(flat))


def flatness_gate(peak, tol):
    """The reconstruction gate on the flatness max norm, a :class:`grid.Peak`.

    It must be finite and, unless ``tol`` is None, at most ``tol``, else
    :class:`NotFlatError`, naming the level and node of the largest defect.
    """
    at = f"at level {peak.level}, node {peak.node}"
    if not np.isfinite(peak.value):
        raise NotFlatError(
            f"flatness residual is not finite ({peak.value}) {at}")
    if tol is not None and not peak.value <= tol:
        raise NotFlatError(f"flatness residual {peak.value:.3e} exceeds "
                           f"tolerance {tol:.3e} {at}")


def flatness_residual_rotor(grid, a, b):
    """Rotor compatibility defect d_t(a) - d_s(b)."""
    return g.d_t(grid, a) - g.d_s(grid, b)


def _steps(rate_mid, h, at):
    """The midpoint exponentials of a sweep, ``exp_so3(h * rate_mid)`` in one
    call: ``rate_mid`` is ``(steps, row, 3)``, axis 0 in sweep order.  An
    angle of pi/2 or more raises for the first step that has one, its level
    and node ``at(k, m)`` for step ``k`` and the index ``m`` of the largest
    angle in its row."""
    step = h * rate_mid
    peak, m = g.level_max(np.linalg.norm(step, axis=-1))
    bad = np.flatnonzero(peak >= np.pi / 2.0)
    if len(bad):
        k = bad[0]
        level, node = at(k, m[k])
        raise NearAnglePiError(
            f"reconstruction step angle {peak[k]:.3f} >= pi/2; grid too "
            f"coarse at level {level}, node {node}")
    return exp_so3(step)


def rotation_levels(grid, Omega, omega, Lambda0):
    """The s-then-t reconstruction sweep as :class:`grid.Levels`.

    Level 0 is swept along s from the polar factor of ``Lambda0`` with the
    midpoints of ``Omega``'s level 0; each later level follows from the one
    before with the midpoint of the two ``omega`` levels.  ``Omega`` and
    ``omega`` are whole fields or level sources over the same levels; each
    is read on the window being produced.  No flatness gate is applied.
    """
    def produce(read, held):
        lo = read.start + len(held)
        out = np.empty((read.stop - lo, grid.n_s, 3, 3))
        if lo == 0:
            W = Omega[read][0]
            E = _steps(0.5 * (W[:-1] + W[1:])[:, None], grid.ds,
                       lambda k, m: (0, k + 1))
            prev = out[0]
            prev[0] = reorthonormalize(Lambda0)
            for j in range(grid.n_s - 1):
                prev[j + 1] = prev[j] @ E[j, 0]
        else:
            prev = held[-1]
        first = max(lo, 1)      # the first level stepped onto
        om = omega[read][first - 1 - read.start:]
        E = _steps(0.5 * (om[:-1] + om[1:]), grid.dt,
                   lambda k, m: (first + k, m))
        for i in range(first, read.stop):
            prev = out[i - lo] = prev @ E[i - first]
        return out

    return g.Levels(grid.n_t, produce)


def gated_pass(grid, Omega, omega, Lambda0, tol, evaluate):
    """One window pass of the :func:`rotation_levels` sweep from
    ``Lambda0``: ``evaluate(w, L)`` with ``L`` its levels ``w.read``.

    Each window adds ``(Omega, omega)``, whole fields or level sources, to
    the :func:`flatness_gate` max, decided after the pass: a failed gate
    wins over a sweep error, which is raised next, and after which
    ``evaluate`` is not called again; the caller discards what it wrote.
    ``evaluate`` returns vectors over the levels ``w`` owns; the pass
    returns them stitched over the grid (:func:`grid.by_window`).
    """
    Lam = rotation_levels(grid, Omega, omega, Lambda0)
    errors = []

    def window(w):
        flat = flatness_level_max(grid, w, Omega[w.read], omega[w.read])
        if not errors:
            try:
                L = Lam[w.read]
            except NearAnglePiError as exc:
                errors.append(exc)
            else:
                return (*flat, *evaluate(w, L))
        return flat   # by_window fills the gate's vectors only

    flat, flat_node, *out = g.by_window(grid, window)
    flatness_gate(g.max_sq(flat, flat_node), tol)
    if errors:
        raise errors[0]
    return out


def reconstruct_rotation(grid, Omega, omega, Lambda0, tol):
    """Integrate a flat (Omega, omega) pair back to a rotation field: one
    :func:`gated_pass` (``tol`` as in :func:`flatness_gate`) whose windows
    are stitched into ``(n_t, n_s, 3, 3)``.

    The result is one representative of the reconstruction family, selected
    by ``Lambda0`` (seeded with its polar factor; every node is a rotation
    to roundoff); any other member differs by a constant left rotation.
    """
    Lam, = gated_pass(grid, Omega, omega, Lambda0, tol,
                      lambda w, L: (L[w.inner],))
    return Lam


def _reconstruct_ts(grid, Omega, omega, Lambda0):
    """The transposed sweep order, ungated: the s = 0 column from omega, then
    every level along s with Omega."""
    Lam = np.empty((grid.n_t, grid.n_s, 3, 3))
    Lam[0, 0] = reorthonormalize(Lambda0)
    E = _steps(0.5 * (omega[:-1, 0] + omega[1:, 0])[:, None], grid.dt,
               lambda k, m: (k + 1, 0))
    for i in range(grid.n_t - 1):
        Lam[i + 1, 0] = Lam[i, 0] @ E[i, 0]
    E = _steps(0.5 * np.swapaxes(Omega[:, :-1] + Omega[:, 1:], 0, 1), grid.ds,
               lambda k, m: (m, k + 1))
    for j in range(grid.n_s - 1):
        Lam[:, j + 1] = Lam[:, j] @ E[j]
    return Lam


def path_independence_defect(grid, Omega, omega, Lambda0, tol):
    """Max rotation angle between :func:`reconstruct_rotation` (gated with
    ``tol``) and the transposed sweep order."""
    rel = (_transpose(reconstruct_rotation(grid, Omega, omega, Lambda0, tol))
           @ _reconstruct_ts(grid, Omega, omega, Lambda0))
    return float(np.max(rotation_angle(rel)))


def reconstruct_theta(grid, a, b, theta0, tol):
    """Path integral of the rotor gradient pair from the origin corner.

    The rotor flatness residual d_t(a) - d_s(b) must pass
    :func:`flatness_gate` with ``tol``.
    Trapezoid rule along the t = 0 row, then along every column.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    defect = g.node_sq(flatness_residual_rotor(grid, a, b))
    flatness_gate(g.max_sq(*g.level_max(defect)), tol)
    theta = np.empty((grid.n_t, grid.n_s, 3))
    theta[0, 0] = np.asarray(theta0, dtype=float)
    row = grid.ds * 0.5 * (a[0, :-1] + a[0, 1:])
    theta[0, 1:] = theta[0, 0] + np.cumsum(row, axis=0)
    col = grid.dt * 0.5 * (b[:-1] + b[1:])
    theta[1:] = theta[0] + np.cumsum(col, axis=0)
    return theta
