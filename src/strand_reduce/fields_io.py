"""Deterministic CSV serialization of grid fields, run diagnostics and reports.

One CSV per field, rows in t-major then s order, reals printed with 17
significant digits (lossless for doubles), LF line endings.  A manifest file
records the grid metadata, a sha256 checksum per field file, hashed from the
bytes as they are written (so any change in any value changes the manifest)
and, for simulated runs, the model the fields were computed with.

Every CSV cell is the exact text of ``'%.17g' % x``, produced in blocks by
one array kernel (:func:`_slots`).  It computes N = |x| 10^(16-k),
k = floor(log10 |x|), with a double-double power of ten and Dekker's exact
product; the high part is an integer (>= 2^53) and the remainder is known to
about 2^-47, so rounding it is exact unless it lies within a guard band of
one half.  Such values, a k that does not settle after one correction,
nan, inf and magnitudes outside the power table are formatted one by one
with ``%``.  Digits and trailing zeros come from four-digit tables.
"""

import functools
import hashlib
import itertools
import os
import warnings

import numpy as np

from .errors import ConfigError
from .grid import Grid2
from .model import ModelParams
from .simulate import COMPONENTS, StateSlice

FMT = "%.17g"

_KINDS = {(): "scalar", (3,): "vec3", (3, 3): "rot3"}
_SHAPES = {kind: shape for shape, kind in _KINDS.items()}
_WIDTH = {"scalar": 1, "vec3": 3, "rot3": 9}
_HEADER = {kind: "t_index,s_index,t,s," + ",".join(f"c{k + 1}" for k in range(w))
           + "\n" for kind, w in _WIDTH.items()}

# Tokens of the manifest's ``model`` line and the ModelParams fields they hold.
_MODEL_TOKENS = (("I", "inertia_body"), ("K", "inertia_rotor"),
                 ("C", "pot_C"), ("D", "pot_D"),
                 ("kappa", "pot_kappa"), ("c0", "pot_c0"))

_CHUNK = 4096                 # values per kernel call
_SLOT = 25                    # bytes per value slot: longest %.17g + separator
_P_MIN, _P_MAX = -240, 270    # powers of ten in the double-double table
_K_LO, _K_HI = 16 - _P_MAX + 1, 16 - _P_MIN - 1   # exponents scaled directly
_X_LO, _X_HI = _K_LO - 1, _K_HI + 2               # exponents after correction
_BAND = 2.0 ** -30            # guard band around a half in the remainder
_SPLIT = 134217729.0          # 2^27 + 1, Dekker's splitter
_E16, _E17 = 10 ** 16, 10 ** 17
_COMMA = ord(",")


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
    """Lookup tables of :func:`_slots`, built at first use (about 0.6 MB)."""
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
    rows = (32 * np.arange(_CHUNK, dtype=np.int32))[:, None].repeat(_SLOT, axis=1)
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
    idx = cmap.take(cls, axis=0)
    idx += rows[:n]
    slots = src.view(np.uint8).ravel().take(idx)
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
    return np.array([_COMMA] * (width - 1) + [ord("\n")], np.uint8)


def _join(parts):
    """Text of slot arrays laid side by side along their last axis, NULs out."""
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    row = np.empty(shape + (sum(p.shape[-1] for p in parts),), np.uint8)
    col = 0
    for p in parts:
        row[..., col:col + p.shape[-1]] = p
        col += p.shape[-1]
    return row.tobytes().translate(None, b"\0")


def write_fields(outdir, grid, fields, model=None, merge=False):
    """Write ``{name: array}`` plus ``manifest.txt``; returns the file map.

    ``model`` (a :class:`ModelParams`) is recorded on the manifest's
    ``model`` line.  With ``merge``, an existing manifest in ``outdir``
    keeps its other field lines and its model line; it must describe the
    same grid, else ConfigError.
    """
    entries, model_kv = {}, None
    if merge and os.path.exists(os.path.join(outdir, "manifest.txt")):
        old_grid, entries, model_kv = _read_manifest(outdir)
        if old_grid != grid:
            raise ConfigError(f"manifest.txt in {outdir} is for another grid "
                              f"({old_grid}); not merging")
    if model is not None:
        model_kv = {token: ",".join(FMT % x for x in
                                    np.ravel(getattr(model, attr)).tolist())
                    for token, attr in _MODEL_TOKENS}
    os.makedirs(outdir, exist_ok=True)
    # Row prefixes "<i>,j,<t>,s_j," as slots: per level and per node.
    i_col, t_col = _column(np.arange(grid.n_t, dtype=float)), _column(grid.t_coords())
    j_col, s_col = _column(np.arange(grid.n_s, dtype=float)), _column(grid.s_coords())
    written = {}
    for name in sorted(fields):
        values = np.asarray(fields[name], dtype=float)
        kind = _KINDS.get(values.shape[2:])
        if kind is None or values.shape[:2] != (grid.n_t, grid.n_s):
            raise ValueError(f"field '{name}' does not match the grid")
        width = _WIDTH[kind]
        values = values.reshape(grid.n_t, grid.n_s, width)
        sep = _seps(width)
        nodes = min(grid.n_s, _CHUNK // width)
        levels = _CHUNK // (nodes * width)

        def chunks():
            for i, j in itertools.product(range(0, grid.n_t, levels),
                                          range(0, grid.n_s, nodes)):
                lv, nd = slice(i, i + levels), slice(j, j + nodes)
                v = _slots(values[lv, nd], sep)
                yield _join([i_col[lv, None], j_col[nd], t_col[lv, None],
                             s_col[nd], v.reshape(v.shape[:2] + (-1,))])

        path = os.path.join(outdir, f"{name}.csv")
        digest = _write_stream(path, _HEADER[kind], chunks())
        written[name] = (path, kind)
        entries[name] = (os.path.basename(path), kind, digest)
    _write_manifest(outdir, grid, entries, model_kv)
    return written


def _sha256(path):
    """Hex digest of a file, streamed in 1 MiB blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_stream(path, head, chunks=()):
    """Write text ``head`` then byte ``chunks``; sha256 hex of all written."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in itertools.chain((head.encode(),), chunks):
            h.update(data)
            fh.write(data)
    return h.hexdigest()


def write_csv(path, head, table):
    """CSV of a 2-D table under the text ``head``, every cell ``'%.17g' % cell``.

    Integer-valued cells below 10^17 print as ``%d`` would.  Returns the
    sha256 hex of the bytes written.
    """
    table = np.asarray(table, dtype=float)
    sep = _seps(table.shape[1])
    rows = _CHUNK // table.shape[1]
    return _write_stream(path, head, (
        _join([_slots(table[i:i + rows], sep)]) for i in range(0, len(table), rows)))


def _write_manifest(outdir, grid, entries, model_kv):
    lines = [f"grid n_t={grid.n_t} n_s={grid.n_s} dt={FMT % grid.dt} "
             f"ds={FMT % grid.ds} bc={grid.bc_s}"]
    lines += [f"field name={name} file={fname} kind={kind} sha256={digest}"
              for name, (fname, kind, digest) in sorted(entries.items())]
    if model_kv is not None:
        lines.append("model " + " ".join(f"{k}={v}" for k, v in model_kv.items()))
    _write_stream(os.path.join(outdir, "manifest.txt"), "\n".join(lines) + "\n")


def _read_manifest(indir):
    """Grid, ``{name: (file, kind, sha256)}`` and model tokens (or None)."""
    manifest = os.path.join(indir, "manifest.txt")
    if not os.path.exists(manifest):
        raise ConfigError(f"no manifest.txt in {indir}")
    grid, entries, model_kv = None, {}, None
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                kv = dict(p.split("=", 1) for p in parts[1:])
                if parts[0] == "grid":
                    grid = Grid2(n_t=int(kv["n_t"]), n_s=int(kv["n_s"]),
                                 dt=float(kv["dt"]), ds=float(kv["ds"]),
                                 bc_s=kv["bc"])
                elif parts[0] == "field":
                    if kv["kind"] not in _SHAPES:
                        raise ValueError(f"unknown kind '{kv['kind']}'")
                    entries[kv["name"]] = (kv["file"], kv["kind"], kv["sha256"])
                elif parts[0] == "model":
                    model_kv = kv
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"malformed manifest in {indir}: {exc}",
                                  line=lineno) from None
    if grid is None:
        raise ConfigError(f"manifest in {indir} has no grid line")
    return grid, entries, model_kv


def read_model(indir):
    """The :class:`ModelParams` recorded on the manifest's ``model`` line."""
    _, _, kv = _read_manifest(indir)
    if kv is None:
        raise ConfigError(f"manifest in {indir} has no model line; the run's "
                          "model is unknown (rerun simulate)")
    try:
        mats = {attr: np.array([float(x) for x in kv[token].split(",")])
                .reshape(3, 3) for token, attr in _MODEL_TOKENS[:4]}
        return ModelParams(**mats, pot_kappa=float(kv["kappa"]),
                           pot_c0=float(kv["c0"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed model line in {indir}: {exc}") from None


def read_fields(indir, names=None):
    """Read fields written by :func:`write_fields`; bit-exact round trip.

    Each field file is checked against its manifest sha256, its header
    against its kind and its row count against the grid before use; a
    mismatch, a missing file or a malformed manifest raises ConfigError.
    Only the value columns are parsed.
    """
    grid, entries, _ = _read_manifest(indir)
    fields = {}
    rows = grid.n_t * grid.n_s
    for name, (fname, kind, digest) in entries.items():
        if names is not None and name not in names:
            continue
        path = os.path.join(indir, fname)
        try:
            if _sha256(path) != digest:
                raise ConfigError(f"{path}: sha256 differs from manifest.txt")
            with open(path) as fh:
                if fh.readline() != _HEADER[kind]:
                    raise ConfigError(f"{path}: header does not match "
                                      f"kind={kind} in manifest.txt")
                data = _loadtxt(fh, usecols=range(4, 4 + _WIDTH[kind]))
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc} (listed in "
                              "manifest.txt)") from None
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if data.shape[0] != rows:
            raise ConfigError(f"{path} has {data.shape[0]} rows, expected "
                              f"{rows} (n_t={grid.n_t} x n_s={grid.n_s})")
        fields[name] = data.reshape((grid.n_t, grid.n_s) + _SHAPES[kind])
    missing = set(names or ()) - set(fields)
    if missing:
        raise ConfigError(f"fields {sorted(missing)} not found in {indir}")
    return grid, fields


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


def write_initial_slice(path, state):
    """One-row-per-node CSV holding a full initial state slice."""
    values = np.concatenate([getattr(state, name) for name in COMPONENTS], axis=1)
    head = ",".join(f"{name}{k + 1}" for name in COMPONENTS for k in range(3))
    write_csv(path, f"s_index,{head}\n",
              np.column_stack([np.arange(len(values)), values]))
    return path


def _loadtxt(source, **kwargs):
    """``np.loadtxt`` of a CSV body; an empty one is left to the shape checks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", ndmin=2, **kwargs)


def read_initial_slice(path, n_s):
    try:
        data = _loadtxt(path, skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"initial state file {path}: {exc}",
                          key="init.file") from None
    if data.shape != (n_s, 1 + 3 * len(COMPONENTS)):
        raise ConfigError(
            f"initial state file {path} has shape {data.shape}, "
            f"expected ({n_s}, {1 + 3 * len(COMPONENTS)})", key="init.file")
    return StateSlice(**{name: data[:, 1 + 3 * i:4 + 3 * i]
                         for i, name in enumerate(COMPONENTS)})


def format_report(title, checks, preamble=()):
    """Plain-text report: one ``name value tolerance verdict`` line per check."""
    lines = [title]
    lines.extend(preamble)
    for c in checks:
        tol = "-" if c.tol is None else FMT % c.tol
        lines.append(f"{c.name} {FMT % c.value} {tol} "
                     f"{'PASS' if c.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_report(path, title, checks, preamble=()):
    text = format_report(title, checks, preamble)
    _write_stream(path, text)
    return text
