"""Deterministic CSV serialization of grid fields, run diagnostics and reports.

One CSV per field, rows in t-major then s order, reals printed with 17
significant digits (lossless for doubles), LF line endings.  A manifest file
records the grid metadata, a sha256 checksum per field file, hashed from the
bytes as they are written (so any change in any value changes the manifest)
and, for simulated runs, the model the fields were computed with.  The
manifest is read once, into a :class:`Run` (:func:`read_run`), which the
readers and the writer share.  The writer (:class:`FieldWriter`) hands
each field a block of levels at a time to a second process, which writes
it under a temporary name that replaces the file only when every field is
complete; the manifest is written last, from the run's record.  A reader
checks every file it uses against the record first, before any value is
parsed, then parses its levels as they are asked for (:func:`open_fields`).

Every CSV cell is the exact text of ``'%.17g' % x``, produced in blocks by
one array kernel (:func:`_slots`).  It computes N = |x| 10^(16-k),
k = floor(log10 |x|), with a double-double power of ten and Dekker's exact
product; the high part is an integer (>= 2^53) and the remainder is known to
about 2^-47, so rounding it is exact unless it lies within a guard band of
one half.  Such values, a k that does not settle after one correction,
nan, inf and magnitudes outside the power table are formatted one by one
with ``%``.  Digits and trailing zeros come from four-digit tables.
"""

import contextlib
import functools
import hashlib
import itertools
import math
import os
import pickle
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import grid as g
from .errors import ConfigError
from .model import COMPONENTS, PARAMS, ModelParams
from .reduction import FIELDS

FMT = "%.17g"

_SHAPES = {"vec3": (3,), "rot3": (3, 3)}
_KINDS = {shape: kind for kind, shape in _SHAPES.items()}
_HEADER = {kind: "t_index,s_index,t,s," + ",".join(
    f"c{k + 1}" for k in range(math.prod(shape))) + "\n"
    for kind, shape in _SHAPES.items()}

_CHUNK = 4096                 # values per kernel call
# values per byte gather within a call: a 4096-value call traced 1.07 MB of
# scratch against 1.96 MB gathering all at once, and calls of 3072 and 4080
# values ran 5-16% faster (median of 15, one thread, 2-vCPU VM)
_GATHER = 1024
_SLOT = 25                    # bytes per value slot: longest %.17g + separator
_P_MIN, _P_MAX = -240, 270    # powers of ten in the double-double table
_K_LO, _K_HI = 16 - _P_MAX + 1, 16 - _P_MIN - 1   # exponents scaled directly
_X_LO, _X_HI = _K_LO - 1, _K_HI + 2               # exponents after correction
_BAND = 2.0 ** -30            # guard band around a half in the remainder
_SPLIT = 134217729.0          # 2^27 + 1, Dekker's splitter
_E16, _E17 = 10 ** 16, 10 ** 17
_COMMA = ord(",")
_NEWLINE = ord("\n")


def _columns(X, neg, nsig):
    """Source bytes of one value's text (see :func:`_slots`): the column map.

    ``X`` is the decimal exponent (None for zero) and ``nsig`` the count of
    significant digits left once trailing zeros go, as ``%g`` strips them.
    """
    out = [0] if neg else []
    if X is None:
        out.append(2)
    elif -4 <= X < 17:
        if X >= 0:
            out += range(3, 4 + X)
            if nsig > X + 1:
                out += [1, *range(4 + X, 3 + nsig)]
        else:
            out += [2, 1] + [2] * (-X - 1) + list(range(3, 3 + nsig))
    else:
        out.append(3)
        if nsig > 1:
            out += [1, *range(4, 3 + nsig)]
        out += range(24, 28 if abs(X) < 100 else 29)
    return out + [20]


@functools.cache
def _tables():
    """Lookup tables of :func:`_slots`, built at first use (about 0.26 MB)."""
    pows = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den                                 # correctly rounded
        m, d = hi.as_integer_ratio()
        pows.append((hi, (num * d - m * den) / (den * d)))
    hi, lo = np.array(pows).T
    c = hi * _SPLIT
    hh = c - (c - hi)
    pow10 = (hi, hh, hi - hh, lo)                      # 10^p, hi pre-split
    g = np.arange(10000)
    quad = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
            + 48).astype(np.uint8).view("<u4")[:, 0]
    tzeros = ((g % 10 == 0) + (g % 100 == 0).astype(np.int8) + (g % 1000 == 0)
              + (g == 0))                              # trailing zeros of g
    xs = range(_X_LO, _X_HI + 1)
    exps = np.frombuffer(b"".join(("e%+03d" % x).encode().ljust(8, b"\0")
                                  for x in xs), "<u8")
    # layouts: 0 zero, 1-21 fixed point for X = -4..16, 22 and 23 exponent
    # form with two and three exponent digits
    layout = np.array([x + 5 if -4 <= x < 17 else 22 if abs(x) < 100 else 23
                       for x in xs])
    cmap = np.full((24, 2, 17, _SLOT), 21, np.int32)   # byte 21 is NUL
    for L, X in enumerate([None, *range(-4, 17), 99, 100]):
        for neg in (0, 1):
            for nsig in range(1, 18):
                cols = _columns(X, neg, nsig)
                cmap[L, neg, nsig - 1, :len(cols)] = cols
    rows = (32 * np.arange(_GATHER, dtype=np.int32))[:, None].repeat(_SLOT, axis=1)
    return pow10, quad, tzeros, exps, layout, cmap.reshape(-1, _SLOT), rows


def _scaled(a, k, pow10):
    """Integer part and remainder in [0, 1) of a 10^(16-k), double-double."""
    hi, hh, hl, lo = (t.take(16 - _P_MIN - k) for t in pow10)
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    fl = np.floor(e)
    return p.astype(np.int64) + fl.astype(np.int64), e - fl


def _slots(x, sep):
    """Bytes of ``'%.17g' % v`` plus ``sep`` for every v in ``x`` (<= 4096).

    Returns uint8 slots of shape ``x.shape + (25,)``: each value's text,
    then NUL bytes.  ``sep`` (byte values) broadcasts against ``x``.  Each
    value is first laid out in a 32-byte source row, ``-.0`` then its 17
    digits at 3-19, ``sep`` at 20, NUL at 21 and its exponent text at 24-31;
    one column map per (exponent, sign, significant digits) class picks the
    row's bytes.
    """
    pow10, quad, tzeros, exps, layout, cmap, rows = _tables()
    shape, x = x.shape, x.ravel()
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    finite = np.isfinite(a) & ~zero
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(np.where(finite, a, 1.0)))
    ok = finite & (k >= _K_LO) & (k <= _K_HI)
    a = np.where(ok, a, 1.0)
    k = np.where(ok, k, 0.0).astype(np.int64)
    N, f = _scaled(a, k, pow10)
    slow = ~(ok | zero) | (np.abs(f - 0.5) < _BAND)
    shift = (N >= _E17).astype(np.int64) - (N < _E16)
    redo = np.flatnonzero(shift)
    if redo.size:      # floor(log10) was one off: correct k once
        k[redo] += shift[redo]
        N[redo], f[redo] = _scaled(a[redo], k[redo], pow10)
        slow[redo] |= ((N[redo] < _E16) | (N[redo] >= _E17)
                       | (np.abs(f[redo] - 0.5) < _BAND))
    N += f > 0.5
    carry = N == _E17                       # rounded up into the next decade
    N -= carry * (_E17 - _E16)
    k += carry
    # the lead digit and four groups of four
    halves = np.empty((n, 2), np.int64)
    np.divmod(N, 10 ** 8, out=(halves[:, 0], halves[:, 1]))
    lead, halves[:, 0] = np.divmod(halves[:, 0], 10 ** 8)
    groups = np.empty((n, 4), np.int64)
    np.divmod(halves, 10 ** 4, out=(groups[:, 0::2], groups[:, 1::2]))
    src = np.empty((n, 8), np.uint32)
    src[:, 0] = (lead + 48 << 24) | 0x302E2D           # b"-.0" + lead digit
    src[:, 1:5] = quad.take(groups)
    src.reshape(shape + (8,))[..., 5] = sep
    src.view("<u8")[:, 3] = exps.take(k - _X_LO)
    # trailing zeros of the 16 digits after the lead one
    tz = tzeros.take(groups)
    nz = tz[:, 3].astype(np.int64)
    more = np.flatnonzero(nz == 4)
    if more.size:
        t = tz[more]
        nz[more] += t[:, 2] + (t[:, 2] == 4) * (t[:, 1] + (t[:, 1] == 4) * t[:, 0])
    cls = (np.where(zero, 0, layout.take(k - _X_LO)) * 2 + np.signbit(x)) * 17 + 16 - nz
    slots = np.empty((n, _SLOT), np.uint8)
    for lo in range(0, n, _GATHER):     # offsets restart in every slice
        hi = min(lo + _GATHER, n)
        idx = cmap.take(cls[lo:hi], axis=0)
        idx += rows[:hi - lo]
        slots[lo:hi] = src[lo:hi].view(np.uint8).ravel().take(idx)
    slow = np.flatnonzero(slow)
    if slow.size:
        text = b"".join([(FMT % v + chr(c)).encode().ljust(_SLOT, b"\0")
                         for v, c in zip(x[slow].tolist(), src[slow, 5].tolist())])
        slots[slow] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT)
    return slots.reshape(shape + (_SLOT,))


def _column(values):
    """Slots of a 1-D column, comma-separated, cut to its longest entry."""
    slots = np.concatenate([_slots(values[i:i + _CHUNK], _COMMA)
                            for i in range(0, len(values), _CHUNK)])
    return slots[:, :int(np.count_nonzero(slots, axis=1).max())]


def _seps(width):
    """Separator bytes of a row of ``width`` values."""
    return np.array([_COMMA] * (width - 1) + [_NEWLINE], np.uint8)


def _join(parts):
    """Text of slot arrays laid side by side along their last axis, NULs out."""
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    row = np.empty(shape + (sum(p.shape[-1] for p in parts),), np.uint8)
    col = 0
    for p in parts:
        row[..., col:col + p.shape[-1]] = p
        col += p.shape[-1]
    return row.tobytes().translate(None, b"\0")


class _Part:
    """A field CSV written under a temporary name and hashed as written."""

    def __init__(self, path, kind):
        self.path, self.kind = path, kind
        self.fh = open(path + ".part", "wb")
        self.sha256 = hashlib.sha256()
        self.write(_HEADER[kind].encode())

    def write(self, data):
        self.sha256.update(data)
        self.fh.write(data)


def _write_parts(run, src):
    """The writer process's body: the block stream ``src`` (a binary file of
    pickled ``(levels, {name: block})``, as :meth:`FieldWriter.write` sends,
    then None) as ``<name>.csv.part`` files in the directory of ``run``, or
    removes them and raises.  Returns ``{name: sha256}``."""
    grid, parts = run.grid, {}
    # Row prefixes "<i>,j,<t>,s_j," as slots: per level and per node.
    i_col, t_col, j_col, s_col = map(_column, (
        np.arange(grid.n_t, dtype=float), grid.t_coords(),
        np.arange(grid.n_s, dtype=float), grid.s_coords()))
    try:
        while (message := pickle.load(src)) is not None:
            levels, blocks = message
            i_lv, t_lv = i_col[levels], t_col[levels]
            for name, values in blocks.items():
                if name not in parts:
                    parts[name] = _Part(os.path.join(run.indir, f"{name}.csv"),
                                        _KINDS[values.shape[2:]])
                part = parts[name]
                width = math.prod(_SHAPES[part.kind])
                values = values.reshape(values.shape[:2] + (width,))
                sep = _seps(width)
                nodes = min(grid.n_s, _CHUNK // width)
                per = _CHUNK // (nodes * width)
                for i, j in itertools.product(range(0, len(values), per),
                                              range(0, grid.n_s, nodes)):
                    lv, nd = slice(i, i + per), slice(j, j + nodes)
                    v = _slots(values[lv, nd], sep)
                    part.write(_join([i_lv[lv, None], j_col[nd], t_lv[lv, None],
                                      s_col[nd], v.reshape(v.shape[:2] + (-1,))]))
    except BaseException:
        for part in parts.values():
            os.remove(part.path + ".part")
        raise
    finally:
        for part in parts.values():
            part.fh.close()
    return {name: part.sha256.hexdigest() for name, part in parts.items()}


class FieldWriter:
    """Field CSVs written a block of levels at a time, then ``manifest.txt``.

    ``write(levels, {name: block})`` appends the levels ``levels`` (a slice
    of the grid's levels) of each named field; a field's blocks follow one
    another in time order up to its last level, or ValueError.  A process
    forked on entry formats them beside the caller (:func:`_write_parts`)
    in the directory of ``run`` (a :class:`Run`).  When the ``with`` block
    and the writer end cleanly, every file replaces its ``<name>.csv``, its
    entry is added to ``run``, and the manifest is written last from
    ``run``: its other field lines and its model line are kept.  When
    either raises, the directory keeps what it held.
    """

    def __init__(self, run):
        self.run, self._next = run, {}      # {name: (kind, next level)}

    def __enter__(self):
        self._made = not os.path.isdir(self.run.indir)
        os.makedirs(self.run.indir, exist_ok=True)
        (src, pipe), (results, reply) = os.pipe(), os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns of a fork beside threads (numpy's BLAS
                # pool); safe: the child runs no BLAS, only elementwise numpy
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) "
                                        "is multi-threaded", DeprecationWarning)
                self._pid = os.fork()
        except BaseException:
            for fd in (src, pipe, results, reply):
                os.close(fd)
            if self._made:
                with contextlib.suppress(OSError):
                    os.rmdir(self.run.indir)
            raise
        if self._pid == 0:
            # never back to the caller's code, nor a flush of a file it
            # inherited; a caller that dies closes the pipe: the stream ends
            try:
                os.close(pipe)
                os.close(results)
                src = os.fdopen(src, "rb")
                try:
                    out = _write_parts(self.run, src)
                except BaseException as exc:
                    out = exc
                    while src.read(1 << 20):    # the caller's blocks to come
                        pass
                os.write(reply, pickle.dumps(out))
            finally:
                os._exit(0)
        os.close(src)
        os.close(reply)
        # unbuffered: each block goes down the pipe as it is handed over
        self._pipe, self._results = os.fdopen(pipe, "wb", buffering=0), results
        return self

    def write(self, levels, blocks):
        shape = (len(range(self.run.grid.n_t)[levels]), self.run.grid.n_s)
        blocks = {k: np.asarray(v, dtype=float) for k, v in blocks.items()}
        for name, values in blocks.items():
            kind = _KINDS.get(values.shape[2:])
            if (kind is None or values.shape[:2] != shape
                    or self._next.get(name, (kind, 0)) != (kind, levels.start)):
                raise ValueError(f"field '{name}' does not match the grid")
            self._next[name] = (kind, levels.stop)
        pickle.dump((levels, blocks), self._pipe, pickle.HIGHEST_PROTOCOL)

    def __exit__(self, exc_type, *exc):
        run = self.run
        short = sorted(name for name, (_, stop) in self._next.items()
                       if stop != run.grid.n_t)
        try:    # a writer gone without a reply breaks the pipe: raised below
            with contextlib.suppress(BrokenPipeError), self._pipe:
                if exc_type is None and not short:  # else: no end marker
                    pickle.dump(None, self._pipe)
        finally:
            with os.fdopen(self._results, "rb") as fh:
                reply = fh.read()
            os.waitpid(self._pid, 0)
        out = (ChildProcessError(f"field writer process {self._pid} ended "
                                 "without a reply") if not reply
               else ValueError(f"fields {short} end before level {run.grid.n_t}")
               if short else pickle.loads(reply))
        if exc_type is None and not isinstance(out, BaseException):
            for name, digest in sorted(out.items()):
                path = os.path.join(run.indir, f"{name}.csv")
                os.replace(path + ".part", path)
                run.entries[name] = (f"{name}.csv", self._next[name][0], digest)
            _write_manifest(run)
            return
        # the writer removes its own files, unless it was killed
        for name in self._next:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(run.indir, f"{name}.csv.part"))
        if self._made:
            with contextlib.suppress(OSError):
                os.rmdir(run.indir)
        if exc_type is None or not reply:
            raise out


def _write_stream(path, head, chunks=()):
    """Write text ``head`` then byte ``chunks``."""
    with open(path, "wb") as fh:
        fh.write(head.encode())
        fh.writelines(chunks)


def write_csv(path, head, table):
    """CSV of a 2-D table under the text ``head``, every cell ``'%.17g' % cell``.

    Integer-valued cells below 10^17 print as ``%d`` would.
    """
    table = np.asarray(table, dtype=float)
    sep = _seps(table.shape[1])
    rows = _CHUNK // table.shape[1]
    _write_stream(path, head, (
        _join([_slots(table[i:i + rows], sep)]) for i in range(0, len(table), rows)))


# The manifest's grammar, which its writer follows and its reader checks:
# each line kind's keys, each once and in this order.  A run has one grid
# line, a field line per field and at most one model line.
_MANIFEST = {"grid": ("n_t", "n_s", "dt", "ds", "bc"),
             "field": ("name", "file", "kind", "sha256"),
             "model": tuple(token for _, token, _, _ in PARAMS)}


def _line(kind, values):
    """The manifest line of ``kind`` with ``values`` in its keys' order."""
    return " ".join([kind, *map("{}={}".format, _MANIFEST[kind], values)])


def grid_line(grid):
    """The ``grid n_t=… n_s=… dt=… ds=… bc=…`` line of manifest and report."""
    return _line("grid", (grid.n_t, grid.n_s, FMT % grid.dt, FMT % grid.ds,
                          grid.bc_s))


@dataclass
class Run:
    """A run directory as its manifest lists it: the directory ``indir``,
    its grid, ``{name: (file, kind, sha256)}`` and the :class:`ModelParams`
    of its ``model`` line (None without one)."""
    indir: str
    grid: g.Grid2
    entries: dict
    model: ModelParams


def _write_manifest(run):
    lines = [grid_line(run.grid)] + [_line("field", (name, *entry))
                                     for name, entry in sorted(run.entries.items())]
    if run.model is not None:
        lines.append(_line("model", (",".join(FMT % x for x in np.ravel(
            getattr(run.model, field)).tolist()) for _, _, field, _ in PARAMS)))
    _write_stream(os.path.join(run.indir, "manifest.txt"), "\n".join(lines) + "\n")


def read_run(indir):
    """The :class:`Run` in ``indir``, its manifest parsed once, each line
    by the grammar ``_MANIFEST``; ConfigError when it is missing or
    malformed."""
    manifest = os.path.join(indir, "manifest.txt")
    if not os.path.exists(manifest):
        raise ConfigError(f"no manifest.txt in {indir}")
    grid, entries, model = None, {}, None
    with open(manifest, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                kind, *tokens = _ascii(line).split() or [""]
                values = [token.partition("=")[2] for token in tokens]
                if kind not in _MANIFEST:
                    raise ValueError(f"unknown line kind '{kind}'")
                if (len(values) != len(_MANIFEST[kind])
                        or _line(kind, values) != " ".join([kind, *tokens])):
                    raise ValueError(
                        f"expected '{_line(kind, itertools.repeat('...'))}'")
                if kind == "grid" and grid is None:
                    n_t, n_s, dt, ds, bc = values
                    grid = g.Grid2(int(n_t), int(n_s), float(dt), float(ds), bc)
                elif kind == "model" and model is None:
                    model = ModelParams(**{field: np.array(
                        value.split(","), dtype=float).reshape(shape) for
                        (_, _, field, shape), value in zip(PARAMS, values)})
                elif kind != "field":
                    raise ValueError(f"a second {kind} line")
                else:
                    name, fname, fkind, _ = values
                    if fkind not in _SHAPES:
                        raise ValueError(f"unknown kind '{fkind}'")
                    if name in entries:
                        raise ValueError(f"field '{name}' listed twice")
                    if fname in ("", ".", "..") or os.path.basename(fname) != fname:
                        raise ValueError(f"file '{fname}' is not a file "
                                         "name in the run directory")
                    entries[name] = tuple(values[1:])
            except ValueError as exc:
                raise ConfigError(f"malformed manifest in {indir}: {exc}",
                                  line=lineno) from None
    if grid is None:
        raise ConfigError(f"manifest in {indir} has no grid line")
    return Run(indir, grid, entries, model)


def verify_fields(run, names):
    """``{name: (path, kind)}`` of the stored fields of ``run`` in ``names``,
    checked before use.

    One streamed pass per file checks its manifest sha256, its header, its
    row count, and that it is ASCII with the header's cell count in every
    row, which :func:`_bad_line` names the line of when not.  A mismatch, a
    missing file or a section field (``reduction.FIELDS``) not of kind vec3
    raises ConfigError.  Only the fields in ``names`` are checked.
    """
    grid = run.grid
    rows = grid.n_t * grid.n_s
    out = {}
    for name, (fname, kind, digest) in run.entries.items():
        if name not in names:
            continue
        path = os.path.join(run.indir, fname)
        if name in FIELDS and kind != "vec3":
            raise ConfigError(f"{path}: kind={kind} in manifest.txt, but "
                              f"field '{name}' is vec3")
        header = _HEADER[kind].encode()
        try:
            with open(path, "rb") as fh:
                head = fh.readline(len(header))
                h, lines, commas, last = hashlib.sha256(head), 0, 0, b"\n"
                is_ascii = True
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
                    is_ascii = is_ascii and block.isascii()
                    # numpy counts a byte 4-5 times faster than bytes.count
                    a = np.frombuffer(block, np.uint8)
                    lines += np.count_nonzero(a == _NEWLINE)
                    commas += np.count_nonzero(a == _COMMA)
                    last = block[-1:]
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc} (listed in "
                              "manifest.txt)") from None
        if h.hexdigest() != digest:
            raise ConfigError(f"{path}: sha256 differs from manifest.txt")
        if head != header:
            raise ConfigError(f"{path}: header does not match "
                              f"kind={kind} in manifest.txt")
        lines += last != b"\n"      # a last line without its newline
        if lines != rows:
            raise ConfigError(f"{path} has {lines} rows, expected "
                              f"{rows} (n_t={grid.n_t} x n_s={grid.n_s})")
        cells = header.count(b",") + 1
        if not is_ascii or commas != rows * (cells - 1):
            bad = _bad_line(path, cells, 0, rows)
            if bad:     # None for blank or comment lines: the parse names them
                raise ConfigError(bad)
        out[name] = (path, kind)
    missing = set(names) - set(out)
    if missing:
        raise ConfigError(f"fields {sorted(missing)} not found in {run.indir}")
    return out


def read_levels(fh, path, grid, kind, read, held):
    """The levels of ``read`` after ``held`` (:class:`grid.Levels`): their
    value columns, parsed from ``fh``, the open field file at the first of
    them.  A malformed row raises ConfigError naming its file line."""
    lo = read.start + len(held)
    first, count = lo * grid.n_s, (read.stop - lo) * grid.n_s
    width = math.prod(_SHAPES[kind])
    try:
        data = _loadtxt(fh, usecols=range(4, 4 + width), max_rows=count)
    except ValueError as exc:
        raise ConfigError(_bad_line(path, 4 + width, first, count)
                          or f"{path}: {exc}") from None
    if data.shape[0] != count:
        raise ConfigError(f"{path} has blank or comment lines among its "
                          f"{grid.n_t * grid.n_s} rows")
    return data.reshape((read.stop - lo, grid.n_s) + _SHAPES[kind])


def _ascii(text):
    """Bytes ``text`` as str; ValueError naming its first byte not ASCII."""
    try:
        return text.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"byte {text[exc.start]:#04x} is not ASCII") from None


def _bad_line(path, cells, first, count):
    """The message naming the file line of the first fault among data rows
    ``first`` .. ``first + count`` (0-based; all, of an init file, when
    ``count`` is None): a byte not ASCII (a comment's too, but one in an
    init file, which numpy parses, need only be UTF-8), a cell count other
    than ``cells``, a line that does not parse alone.  None when none is."""
    stop, row = math.inf if count is None else first + count, 0
    with open(path, "rb") as fh:
        fh.readline()
        for line, raw in enumerate(fh, 2):
            try:
                text, _, note = raw.partition(b"#")
                text = _ascii(text).strip()
                note.decode("ascii" if count is not None else "utf-8")
                row += bool(text)
                if row > stop:
                    return None
                if not text or row <= first:
                    continue
                if text.count(",") + 1 != cells:
                    raise ValueError(f"{text.count(',') + 1} cells, where "
                                     f"the header has {cells}")
                _loadtxt([text])
            except UnicodeDecodeError as exc:   # a comment's byte
                return (f"{path} line {line}: byte {note[exc.start]:#04x} "
                        "is not ASCII")
            except ValueError as exc:
                return (f"{path} line {line}: "
                        + re.sub(r" at row \d+", "", str(exc)))
    return None


@contextlib.contextmanager
def open_fields(run, names):
    """The stored fields of ``run`` in ``names`` as :class:`grid.Levels`,
    parsed as they are read.

    Yields ``{name: levels}``; :func:`verify_fields` checks each file
    before any value is parsed.  The files stay open until the context
    exits.
    """
    grid = run.grid
    with contextlib.ExitStack() as stack:
        streams = {}
        for name, (path, kind) in verify_fields(run, names).items():
            fh = stack.enter_context(open(path))
            fh.readline()
            streams[name] = g.Levels(grid.n_t, functools.partial(
                read_levels, fh, path, grid, kind))
        yield streams


def write_steps(outdir, rows):
    """Per-step diagnostics CSV."""
    path = os.path.join(outdir, "diagnostics.csv")
    write_csv(path, "step,t,max_state,rotor_total_1,rotor_total_2,"
              "rotor_total_3\n", rows)
    return path


def write_totals(outdir, grid, totals):
    """Per-time-level conserved totals, ``(n_t, 6)`` rotor|so3, as CSV."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "totals.csv")
    write_csv(path, "t_index,t,rotor_1,rotor_2,rotor_3,so3_1,so3_2,so3_3\n",
              np.column_stack([np.arange(grid.n_t), grid.t_coords(), totals]))
    return path


def _loadtxt(source, **kwargs):
    """``np.loadtxt`` of a CSV body; an empty one is left to the shape checks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", ndmin=2, **kwargs)


def read_initial_slice(path, n_s):
    cells = 1 + 3 * len(COMPONENTS)
    try:
        data = _loadtxt(path, skiprows=1)
    except OSError as exc:
        raise ConfigError(f"initial state file {path}: {exc}",
                          key="init.file") from None
    except ValueError as exc:
        raise ConfigError("initial state file " + (
            _bad_line(path, cells, 0, None) or f"{path}: {exc}"),
            key="init.file") from None
    if data.shape != (n_s, cells):
        raise ConfigError(f"initial state file {path} has shape {data.shape}"
                          f", expected ({n_s}, {cells})", key="init.file")
    if not np.isfinite(data[:, 1:]).all():
        row, col = np.argwhere(~np.isfinite(data[:, 1:]))[0]
        with open(path, errors="replace") as fh:    # the rows' file lines
            lines = [n for n, text in enumerate(fh, 1)
                     if n > 1 and text.split("#")[0].strip()]
        raise ConfigError(
            f"initial state file {path} line {lines[row]}: "
            f"{COMPONENTS[col // 3]}{col % 3 + 1} is {data[row, 1 + col]}",
            key="init.file")
    # rows are nodes, the value columns COMPONENTS' rows in order; C order,
    # which the rates' in-place products need
    return np.ascontiguousarray(
        data[:, 1:].reshape(n_s, len(COMPONENTS), 3).transpose(1, 0, 2))


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float          # None for informational rows
    passed: bool


def bounded(name, value, tol):
    """A row that passes when its value is at most ``tol``."""
    return CheckResult(name, float(value), float(tol), bool(value <= tol))


def info(name, value):
    """An informational row: it passes when its value is finite."""
    return CheckResult(name, float(value), None, bool(np.isfinite(value)))


def format_report(title, checks, preamble):
    """Plain-text report: one ``name value tolerance verdict`` line per check."""
    lines = [title]
    lines.extend(preamble)
    for c in checks:
        tol = "-" if c.tol is None else FMT % c.tol
        lines.append(f"{c.name} {FMT % c.value} {tol} "
                     f"{'PASS' if c.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_report(path, title, checks, preamble):
    text = format_report(title, checks, preamble)
    _write_stream(path, text)
    return text
