"""Uniform space-time grids and second-order finite differences.

Fields are plain numpy arrays laid out t-major: axis 0 runs over time levels,
axis 1 over arclength nodes, trailing axes over components (none for scalars,
``(3,)`` for vectors, ``(3, 3)`` for rotation matrices).  That ordering is
what the CSV writer serializes, so it is fixed.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PERIODIC = "periodic"
CLAMPED = "clamped"

# Memory guard for field allocation.
MAX_NODES = 10 ** 8
# The reports evaluate a run in time windows of about this many nodes each.
WINDOW_NODES = 2048
# Levels a window reads beyond the ones it owns: the reach of d_t o d_t.
# Only the time stencils read them; every pointwise term is evaluated on the
# owned levels (and the currents on one level more, for d_t of J_t).
WINDOW_HALO = 2
# Largest number of values for which :func:`_diff` gathers each node's two
# neighbours instead of slicing the field.  The gather copies the field
# twice but saves about five numpy calls, so it wins while the per-call cost
# outweighs the arithmetic.  On one core of a 2-vCPU Xeon VM, periodic along
# the node axis of (4, m, 3) stacks, it took 2.5 against 7.2 us at m = 8,
# 7.3 against 9.9 us at m = 128 (1536 values) and 24.4 against 19.8 us at
# m = 512; along the level axis the two were even at 2304 values.
GATHER_MAX_VALUES = 1536


class Closure(NamedTuple):
    """A non-periodic axis's difference stencil D and quadrature weights H,
    chosen as one pair: D's rows 0 and n-1 times 2h, on nodes (0, 1, 2) and
    (n-1, n-2, n-3), and H's end-node weight in units of h (None: periodic)."""

    rows: tuple
    weight: float


ONE_SIDED = Closure(((-3.0, 4.0, -1.0), (3.0, -4.0, 1.0)), 0.5)

# The s axis's boundary policies by name and their closures (None: periodic).
BOUNDARIES = {PERIODIC: None, CLAMPED: ONE_SIDED}


@dataclass(frozen=True)
class Window:
    """A run of time levels with a halo of ``WINDOW_HALO`` on each inner side.

    Fields built by the stencils from the levels ``read`` of the whole grid
    equal the whole-grid ones, bit for bit, on the levels the window owns:
    ``own`` in whole-grid rows, ``inner`` in rows of the window.  The
    stencils take the whole grid, whose ``n_t`` none of them reads.
    """

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
    bc_s: str

    def __post_init__(self):
        if self.n_t < 3 or self.n_s < 3:
            raise ValueError("grids need at least 3 nodes per direction")
        if self.n_t * self.n_s > MAX_NODES:
            raise ValueError("grid exceeds the memory guard of 1e8 nodes")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")
        if not (np.isfinite(self.ds) and self.ds > 0.0):
            raise ValueError("ds must be finite and positive")
        if self.bc_s not in BOUNDARIES:
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
        return self.closure_s is None

    @property
    def closure_s(self):
        return BOUNDARIES[self.bc_s]

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

    def interior(self, width):
        """Levels ``(n_t,)`` and nodes ``(n_s,)`` untouched by one-sided
        stencils, as two boolean masks.

        ``width`` levels are stripped from each time edge (and ``width``
        nodes from each s edge when clamped); periodic s needs no exclusion.
        """
        levels = np.zeros(self.n_t, dtype=bool)
        levels[width:self.n_t - width] = True
        nodes = np.ones(self.n_s, dtype=bool)
        if not self.periodic_s:
            nodes[:width] = False
            nodes[self.n_s - width:] = False
        return levels, nodes

    def interior_mask(self, width):
        """Boolean (n_t, n_s) mask of the nodes of :meth:`interior`."""
        levels, nodes = self.interior(width)
        return levels[:, None] & nodes

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
            yield Window(slice(a, b), slice(lo, hi), slice(lo - a, hi - a))
            lo = hi

    def refined(self):
        """Grid with both spacings halved (node counts per the boundary policy)."""
        n_t = 2 * (self.n_t - 1) + 1
        n_s = 2 * self.n_s if self.periodic_s else 2 * (self.n_s - 1) + 1
        return Grid2(n_t, n_s, self.dt / 2.0, self.ds / 2.0, self.bc_s)


def _diff(values, h, closure, axis):
    """Second-order first derivative along ``axis``.

    Centered in the interior, (f[j+1] - f[j-1]) / 2h; periodic wrap when
    ``closure`` is None, otherwise its rows (:class:`Closure`) at the two
    edges.  Fields of at most ``GATHER_MAX_VALUES`` values take the gather
    kernel, larger ones the slice kernel.  Both write every numerator as the
    same expression and divide it by 2h, so they agree bit for bit and the
    choice moves only the time; that is why the cutoff is a module constant,
    set from the measured crossover, and not an option.
    """
    f = np.asarray(values, dtype=float)
    if f.size <= GATHER_MAX_VALUES:
        return _diff_gather(f, h, closure, axis)
    return _diff_slices(f, h, closure, axis)


@functools.lru_cache(maxsize=None)
def _neighbours(n):
    """Indices of each node's next and previous node along an axis of ``n``
    nodes, wrapping at the ends; read-only, as every caller shares them."""
    j = np.arange(n)
    nxt, prv = (j + 1) % n, (j - 1) % n
    nxt.flags.writeable = prv.flags.writeable = False
    return nxt, prv


def _diff_gather(f, h, closure, axis):
    """Two ``take`` calls, one subtract and one divide, plus the two edge
    rows of a closure (they overwrite the wrapped ones); the field is
    copied twice."""
    nxt, prv = _neighbours(f.shape[axis])
    out = np.subtract(f.take(nxt, axis), f.take(prv, axis))
    if closure is not None:
        _edges(f.swapaxes(axis, 0), out.swapaxes(axis, 0), closure)
    out /= 2.0 * h
    return out


def _diff_slices(f, h, closure, axis):
    """Every row's numerator is written into one output with ``axis``
    swapped to the front, then the whole output is divided by 2h in place:
    no full-size temporaries, about seven strided calls."""
    f = f.swapaxes(axis, 0)
    out = np.empty_like(f)
    n = f.shape[0]
    np.subtract(f[2:], f[:n - 2], out=out[1:n - 1])
    if closure is None:
        # The modulo keeps size-1 and size-2 axes on the wrapped neighbours;
        # the ellipsis keeps a row of a 1-D field a view.
        np.subtract(f[1 % n], f[n - 1], out=out[0, ...])
        np.subtract(f[0], f[(n - 2) % n], out=out[n - 1, ...])
    else:
        _edges(f, out, closure)
    out /= 2.0 * h
    return out.swapaxes(0, axis)


def _edges(f, out, closure):
    """The numerators of the closure's rows 0 and n-1, ``f``'s axis 0 being
    the derivative's."""
    n = f.shape[0]
    (a, b, c), (x, y, z) = closure.rows
    out[0], out[n - 1] = (a * f[0] + b * f[1] + c * f[2],
                          x * f[n - 1] + y * f[n - 2] + z * f[n - 3])


def _diff_adjoint(values, h, closure, axis):
    """Exact transpose of :func:`_diff` (same h, closure and axis).

    For the periodic centered stencil this is just the negative of
    :func:`_diff`; a closure's rows scatter back onto their source nodes.
    """
    if closure is None:
        return -_diff(values, h, None, axis)
    f = np.asarray(values, dtype=float).swapaxes(axis, 0)
    out = np.zeros_like(f)
    n = f.shape[0]
    # Interior rows j = 1..n-2 of the forward stencil: +1/(2h) at j+1, -1/(2h) at j-1.
    out[2:] += f[1:n - 1] / (2.0 * h)
    out[:n - 2] -= f[1:n - 1] / (2.0 * h)
    # Rows 0 and n-1, in that order; row j's k-th entry is on node |j - k|.
    for row, j in zip(closure.rows, (0, n - 1)):
        for k, coef in enumerate(row):
            out[abs(j - k)] += coef * f[j] / (2.0 * h)
    return out.swapaxes(0, axis)


def d_s(grid, values):
    """Derivative along arclength (axis 1) with the grid's closure."""
    return _diff(values, grid.ds, grid.closure_s, axis=1)


def d_t(grid, values):
    """Derivative along time (axis 0); time edges are always one-sided."""
    return _diff(values, grid.dt, ONE_SIDED, axis=0)


def d_s_adjoint(grid, values):
    return _diff_adjoint(values, grid.ds, grid.closure_s, axis=1)


def d_t_adjoint(grid, values):
    return _diff_adjoint(values, grid.dt, ONE_SIDED, axis=0)


def d_s_slice(values, ds, closure):
    """Arclength derivative of a time slice ``(n_s, 3)``, or of a stack of
    slices ``(..., n_s, 3)``: the s axis is the second to last."""
    return _diff(values, ds, closure, -2)


def integrate_s(grid, values):
    """Line integral over s (axis 1) at every level, with H: weight 1 except
    at the closure's two end nodes; all 1 on periodic grids, which is exact
    for periodic integrands."""
    f = np.asarray(values, dtype=float)
    w = np.ones(grid.n_s)
    w[[0, -1]] = 1.0 if grid.closure_s is None else grid.closure_s.weight
    # np.add.reduce is np.sum without its dispatch; the march calls this
    # once per marched block.
    return grid.ds * np.add.reduce(f * w.reshape((-1,) + (1,) * (f.ndim - 2)), 1)


def node_sq(f):
    """Squared magnitude of a float field at every (t, s) node."""
    return np.sum(f * f, axis=tuple(range(2, f.ndim))) if f.ndim > 2 else f * f


def level_sums(sq, nodes=None):
    """Sums of the per-node squares ``sq``, one per level: ``(n_t,)``.

    ``nodes`` masks the nodes: one ``(n_s,)`` row for every level, or a
    whole ``(n_t, n_s)`` mask.
    """
    if nodes is not None:
        sq = np.where(nodes, sq, 0.0)
    return np.add.reduce(sq, axis=1)


def level_max(sq, nodes=None):
    """Max of ``sq`` over the (masked) nodes of each level, and the first node
    where it is reached: two ``(n_t,)`` arrays.  ``nodes`` is as in
    :func:`level_sums`; a NaN counts as the max, as in ``np.max``."""
    if nodes is not None:
        sq = np.where(nodes, sq, 0.0)
    node = np.argmax(sq, axis=1)
    return np.take_along_axis(sq, node[:, None], axis=1)[:, 0], node


class Peak(NamedTuple):
    """A max norm and the (level, node) where it is first reached."""

    value: float
    level: int
    node: int


def l2_sq(grid, sums, levels=None):
    """:func:`norm_l2` of the field whose :func:`level_sums` are ``sums``,
    over the levels of the ``(n_t,)`` mask ``levels``."""
    if levels is not None:
        sums = np.where(levels, sums, 0.0)
    return float(np.sqrt(np.sum(sums) * grid.ds * grid.dt))


def max_sq(peak, node, levels=None):
    """The :class:`Peak` of the vector field whose :func:`level_max` is
    ``(peak, node)``, over the levels of the ``(n_t,)`` mask ``levels``."""
    if levels is not None:
        peak = np.where(levels, peak, 0.0)
    level = int(np.argmax(peak))
    return Peak(float(np.sqrt(peak[level])), level, int(node[level]))


def norm_l2(grid, values, mask):
    """Grid L2 norm ``sqrt(sum |f|^2 ds dt)``, masked as in :func:`level_sums`.

    Reduced level by level (:func:`level_sums`, :func:`l2_sq`), as the
    window reports are, so the two agree bit for bit.
    """
    return l2_sq(grid, level_sums(node_sq(np.asarray(values, dtype=float)),
                                  mask))


def norm_max(values, mask=None):
    """Pointwise-magnitude max norm, optionally masked, reduced level by level
    (:func:`level_max`, :func:`max_sq`)."""
    return max_sq(*level_max(node_sq(np.asarray(values, dtype=float)),
                             mask)).value


def by_window(grid, evaluate):
    """Evaluate per-level vectors window by window and stitch them together.

    ``evaluate(window)`` returns a tuple of arrays over the levels the
    window owns (axis 0): per-level reductions (:func:`level_sums`,
    :func:`level_max`) or totals, or the levels of a whole field
    (:func:`reduction.reconstruct_rotation`).  The evaluators take their
    time stencils on the levels the window reads and evaluate everything
    else on the owned levels only, so each level is evaluated once.  The
    parts are copied into ``(n_t, ...)`` arrays, returned in the same order,
    for :func:`l2_sq` and :func:`max_sq` to reduce (a later window may
    return a leading part, leaving the rest unset).  Only one window of the
    evaluated fields is alive at a time.  Non-finite input yields non-finite
    values, not numpy warnings: the callers report them.
    """
    out = None
    with np.errstate(invalid="ignore", over="ignore"):
        for w in grid.windows():
            parts = evaluate(w)
            if out is None:
                out = tuple(np.empty((grid.n_t,) + p.shape[1:], p.dtype)
                            for p in parts)
            for whole, part in zip(out, parts):
                whole[w.own] = part
    return out


class Levels:
    """The time levels of a field, produced in time order, a window at a time.

    ``levels[a:b]`` is levels a..b-1 as one array, as ``field[a:b]`` of a
    whole field would be, so the window evaluators take either.  Each slice
    must start within the levels held from the one before (windows overlap
    by their halo); the levels below its start are dropped.
    ``produce(read, held)`` returns the levels of ``read`` after ``held``,
    those of its levels already produced.
    """

    def __init__(self, n_t, produce):
        self.n_t = n_t
        self._produce = produce
        self._start = 0
        self._held = np.empty(0)

    def __getitem__(self, read):
        a, b, _ = read.indices(self.n_t)
        end = self._start + len(self._held)
        if not self._start <= a <= max(end - 1, 0):
            raise ValueError(f"levels {a}:{b} requested with {self._start}:"
                             f"{end} held")
        held = self._held[a - self._start:]
        if b > end:
            new = self._produce(slice(a, b), held)
            held = np.concatenate([held, new]) if len(held) else new
        self._start, self._held = a, held
        return held[:b - a]
