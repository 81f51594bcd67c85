"""Uniform space-time grids and second-order finite differences.

Fields are plain numpy arrays laid out t-major: axis 0 runs over time levels,
axis 1 over arclength nodes, trailing axes over components (none for scalars,
``(3,)`` for vectors, ``(3, 3)`` for rotation matrices).  That ordering is
what the CSV writer serializes, so it is fixed.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
CLAMPED = "clamped"

# Memory guard for field allocation.
MAX_NODES = 10 ** 8
# The reports evaluate a run in time windows of about this many nodes each.
WINDOW_NODES = 8192
# Levels a window reads beyond the ones it owns: the reach of d_t o d_t.
WINDOW_HALO = 2


@dataclass(frozen=True)
class Window:
    """A run of time levels with a halo of ``WINDOW_HALO`` on each inner side.

    ``grid`` spans the levels ``read`` of the whole grid.  Fields built from
    them by the stencils equal the whole-grid ones, bit for bit, on the
    levels the window owns: ``own`` in whole-grid rows, ``inner`` in rows of
    the window.
    """

    grid: "Grid2"
    read: slice
    own: slice
    inner: slice


@dataclass(frozen=True)
class Grid2:
    """Uniform rectangular grid over (t, s).

    ``n_t`` time levels spaced ``dt`` apart (endpoints included, never
    periodic) and ``n_s`` arclength nodes spaced ``ds`` apart.  With
    ``bc_s == "periodic"`` the node at ``s = n_s * ds`` is identified with
    node 0; with ``"clamped"`` both endpoints are nodes.
    """

    n_t: int
    n_s: int
    dt: float
    ds: float
    bc_s: str = PERIODIC

    def __post_init__(self):
        if self.n_t < 3 or self.n_s < 3:
            raise ValueError("grids need at least 3 nodes per direction")
        if self.n_t * self.n_s > MAX_NODES:
            raise ValueError("grid exceeds the memory guard of 1e8 nodes")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")
        if not (np.isfinite(self.ds) and self.ds > 0.0):
            raise ValueError("ds must be finite and positive")
        if self.bc_s not in (PERIODIC, CLAMPED):
            raise ValueError(f"unknown boundary policy '{self.bc_s}'")

    @classmethod
    def uniform(cls, n_t, n_s, duration, length, bc_s):
        """``n_t`` levels over ``[0, duration]``, ``n_s`` nodes over ``length``."""
        # too few nodes must reach the check in __post_init__, not divide by 0
        cells = max(n_s if bc_s == PERIODIC else n_s - 1, 1)
        return cls(n_t=n_t, n_s=n_s, dt=duration / max(n_t - 1, 1),
                   ds=length / cells, bc_s=bc_s)

    @property
    def periodic_s(self):
        return self.bc_s == PERIODIC

    @property
    def length_s(self):
        """Physical length of the s interval."""
        n = self.n_s if self.periodic_s else self.n_s - 1
        return self.ds * n

    @property
    def duration(self):
        return self.dt * (self.n_t - 1)

    def t_coords(self):
        return self.dt * np.arange(self.n_t)

    def s_coords(self):
        return self.ds * np.arange(self.n_s)

    def zeros(self):
        """A vector field of zeros, ``(n_t, n_s, 3)``."""
        return np.zeros((self.n_t, self.n_s, 3))

    def interior_mask(self, width=2):
        """Boolean (n_t, n_s) mask of nodes untouched by one-sided stencils.

        ``width`` layers are stripped from the time edges (and from the s
        edges when clamped); periodic s needs no exclusion.
        """
        mask = np.zeros((self.n_t, self.n_s), dtype=bool)
        mask[width:self.n_t - width, :] = True
        if not self.periodic_s:
            mask[:, :width] = False
            mask[:, self.n_s - width:] = False
        return mask

    def windows(self):
        """The :class:`Window` partition of the levels, in time order.

        Each window owns ``WINDOW_NODES // n_s`` levels, but at least
        ``2 * WINDOW_HALO`` so that it never reads more than twice the levels
        it owns.  A tail shorter than two levels joins the window before: the
        one-sided stencils at the last level need as many levels as on the
        whole grid.
        """
        step = max(2 * WINDOW_HALO, WINDOW_NODES // self.n_s)
        lo = 0
        while lo < self.n_t:
            hi = lo + step if self.n_t - (lo + step) >= 2 else self.n_t
            a, b = max(0, lo - WINDOW_HALO), min(self.n_t, hi + WINDOW_HALO)
            yield Window(dataclasses.replace(self, n_t=b - a), slice(a, b),
                         slice(lo, hi), slice(lo - a, hi - a))
            lo = hi

    def refined(self):
        """Grid with both spacings halved (node counts per the boundary policy)."""
        n_t = 2 * (self.n_t - 1) + 1
        n_s = 2 * self.n_s if self.periodic_s else 2 * (self.n_s - 1) + 1
        return Grid2(n_t, n_s, self.dt / 2.0, self.ds / 2.0, self.bc_s)


def _diff(values, h, periodic, axis):
    """Second-order first derivative along ``axis``.

    Centered in the interior; periodic wrap when requested, otherwise
    one-sided three-point stencils at the two edges.  Both policies are
    assembled from slices of ``values`` with ``axis`` swapped to the front.
    """
    f = np.asarray(values, dtype=float).swapaxes(axis, 0)
    out = np.empty_like(f)
    n = f.shape[0]
    # In place: same rounding as (f[2:] - f[:-2]) / 2h, no full-size temporaries.
    mid = out[1:n - 1]
    np.subtract(f[2:], f[:n - 2], out=mid)
    mid /= 2.0 * h
    if periodic:
        # The modulo keeps size-1 and size-2 axes on the wrapped neighbours.
        out[0] = (f[1 % n] - f[n - 1]) / (2.0 * h)
        out[n - 1] = (f[0] - f[(n - 2) % n]) / (2.0 * h)
    else:
        out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        out[n - 1] = (3.0 * f[n - 1] - 4.0 * f[n - 2] + f[n - 3]) / (2.0 * h)
    return out.swapaxes(0, axis)


def _diff_adjoint(values, h, periodic, axis):
    """Exact transpose of :func:`_diff` (same h, policy and axis).

    For the periodic centered stencil this is just the negative of
    :func:`_diff`; with clamped edges the one-sided rows scatter back onto
    their three source nodes.
    """
    f = np.asarray(values, dtype=float)
    if periodic:
        return -_diff(f, h, True, axis)
    out = np.zeros_like(f)
    n = f.shape[axis]
    sl = lambda i: tuple(i if a == axis else slice(None) for a in range(f.ndim))
    rng = lambda a_, b_: tuple(slice(a_, b_) if a == axis else slice(None)
                               for a in range(f.ndim))
    # Interior rows j = 1..n-2 of the forward stencil: +1/(2h) at j+1, -1/(2h) at j-1.
    out[rng(2, n)] += f[rng(1, n - 1)] / (2.0 * h)
    out[rng(0, n - 2)] -= f[rng(1, n - 1)] / (2.0 * h)
    # One-sided row 0: coefficients (-3, 4, -1)/(2h) on columns 0, 1, 2.
    out[sl(0)] += -3.0 * f[sl(0)] / (2.0 * h)
    out[sl(1)] += 4.0 * f[sl(0)] / (2.0 * h)
    out[sl(2)] += -1.0 * f[sl(0)] / (2.0 * h)
    # One-sided row n-1: coefficients (3, -4, 1)/(2h) on columns n-1, n-2, n-3.
    out[sl(n - 1)] += 3.0 * f[sl(n - 1)] / (2.0 * h)
    out[sl(n - 2)] += -4.0 * f[sl(n - 1)] / (2.0 * h)
    out[sl(n - 3)] += 1.0 * f[sl(n - 1)] / (2.0 * h)
    return out


def d_s(grid, values):
    """Derivative along arclength (axis 1) with the grid's boundary policy."""
    return _diff(values, grid.ds, grid.periodic_s, axis=1)


def d_t(grid, values):
    """Derivative along time (axis 0); time edges always use one-sided stencils."""
    return _diff(values, grid.dt, False, axis=0)


def d_s_adjoint(grid, values):
    return _diff_adjoint(values, grid.ds, grid.periodic_s, axis=1)


def d_t_adjoint(grid, values):
    return _diff_adjoint(values, grid.dt, False, axis=0)


def d_s_slice(values, ds, periodic):
    """Arclength derivative of a time slice ``(n_s, 3)``, or of a stack of
    slices ``(..., n_s, 3)``: the s axis is the second to last.

    The periodic stencil is written along that axis directly: three
    subtractions into one output (the interior and the two wrapped rows),
    then one in-place division by 2 ds.  That is :func:`_diff`'s
    arithmetic in fewer numpy calls and without its axis swaps, so the two
    agree bit for bit at every n_s and need no size switch.  Clamped
    slices go through :func:`_diff`.
    """
    if not periodic:
        return _diff(values, ds, False, axis=-2)
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    n = f.shape[-2]
    np.subtract(f[..., 2:, :], f[..., :n - 2, :], out=out[..., 1:n - 1, :])
    # The modulo keeps size-1 and size-2 axes on the wrapped neighbours.
    np.subtract(f[..., 1 % n, :], f[..., n - 1, :], out=out[..., 0, :])
    np.subtract(f[..., 0, :], f[..., (n - 2) % n, :], out=out[..., n - 1, :])
    out /= 2.0 * ds
    return out


def integrate_s(grid, values, i_t=None):
    """Line integral over s at one time level (or all levels when i_t is None).

    Trapezoid rule on clamped grids, the (exact for periodic integrands)
    equal-weight rule on periodic ones.
    """
    f = np.asarray(values, dtype=float)
    if i_t is not None:
        f = f[i_t]
        axis = 0
    else:
        axis = 1
    # np.add.reduce is np.sum without its dispatch; the march calls this
    # once per step.
    if grid.periodic_s:
        return grid.ds * np.add.reduce(f, axis)
    w = np.ones(grid.n_s)
    w[0] = w[-1] = 0.5
    shape = (-1,) + (1,) * (f.ndim - axis - 1)
    return grid.ds * np.add.reduce(f * w.reshape(shape), axis)


def node_sq(f):
    """Squared magnitude of a float field at every (t, s) node."""
    return np.sum(f * f, axis=tuple(range(2, f.ndim))) if f.ndim > 2 else f * f


def l2_sq(grid, sq, mask):
    """:func:`norm_l2` of the field whose :func:`node_sq` is ``sq``."""
    if mask is not None:
        sq = np.where(mask, sq, 0.0)
    return float(np.sqrt(np.sum(sq) * grid.ds * grid.dt))


def _max(mag, mask):
    # np.max, unlike Python's max(), lets a NaN magnitude through
    if mask is not None:
        if not np.any(mask):
            return 0.0
        mag = np.where(mask, mag, 0.0)
    return float(np.max(mag))


def max_sq(sq, mask):
    """:func:`norm_max` of the vector field whose :func:`node_sq` is ``sq``."""
    return _max(np.sqrt(sq), mask)


def norm_l2(grid, values, mask=None):
    """Grid L2 norm ``sqrt(sum |f|^2 ds dt)``, optionally masked."""
    return l2_sq(grid, node_sq(np.asarray(values, dtype=float)), mask)


def norm_max(values, mask=None):
    """Pointwise-magnitude max norm, optionally masked."""
    f = np.asarray(values, dtype=float)
    return _max(np.sqrt(node_sq(f)) if f.ndim > 2 else np.abs(f), mask)


def by_window(grid, evaluate):
    """Evaluate per-level arrays window by window and stitch them together.

    ``evaluate(window)`` returns a tuple of arrays over ``window.grid``'s
    levels (axis 0); the levels each window owns are copied into whole-grid
    arrays, returned in the same order.  Only one window of the evaluated
    fields is alive at a time.  Non-finite input yields non-finite values,
    not numpy warnings: the callers report them.
    """
    out = None
    with np.errstate(invalid="ignore", over="ignore"):
        for w in grid.windows():
            parts = evaluate(w)
            if out is None:
                out = tuple(np.empty((grid.n_t,) + p.shape[1:]) for p in parts)
            for whole, part in zip(out, parts):
                whole[w.own] = part[w.inner]
    return out
