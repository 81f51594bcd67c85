"""Deterministic CSV serialization of grid fields, run diagnostics and reports.

One CSV per field, rows in t-major then s order, reals printed with 17
significant digits (lossless for doubles), LF line endings.  A manifest file
records the grid metadata, a sha256 checksum per field file (so any change
in any value changes the manifest) and, for simulated runs, the model the
fields were computed with.
"""

import hashlib
import os

import numpy as np

from .errors import ConfigError
from .grid import Grid2
from .model import ModelParams
from .simulate import COMPONENTS, StateSlice

FMT = "%.17g"

_KINDS = {(): "scalar", (3,): "vec3", (3, 3): "rot3"}
_SHAPES = {kind: shape for shape, kind in _KINDS.items()}
_WIDTH = {"scalar": 1, "vec3": 3, "rot3": 9}

# Tokens of the manifest's ``model`` line and the ModelParams fields they hold.
_MODEL_TOKENS = (("I", "inertia_body"), ("K", "inertia_rotor"),
                 ("C", "pot_C"), ("D", "pot_D"),
                 ("kappa", "pot_kappa"), ("c0", "pot_c0"))


def _fmt(x):
    return FMT % x


def _header(width):
    return ("t_index,s_index,t,s," +
            ",".join(f"c{k + 1}" for k in range(width)) + "\n")


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
        model_kv = {token: ",".join(_fmt(x) for x in
                                    np.ravel(getattr(model, attr)).tolist())
                    for token, attr in _MODEL_TOKENS}
    os.makedirs(outdir, exist_ok=True)
    t = [_fmt(x) for x in grid.t_coords().tolist()]
    s = [_fmt(x) for x in grid.s_coords().tolist()]
    written = {}
    for name in sorted(fields):
        values = np.asarray(fields[name], dtype=float)
        kind = _KINDS.get(values.shape[2:])
        if kind is None or values.shape[:2] != (grid.n_t, grid.n_s):
            raise ValueError(f"field '{name}' does not match the grid")
        width = _WIDTH[kind]
        flat = values.reshape(grid.n_t, grid.n_s, width)
        # One format per row and one write per time level; tolist() per
        # level keeps the Python floats to a single slice.
        row_fmt = "%s," + ",".join([FMT] * width) + "\n"
        path = os.path.join(outdir, f"{name}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(_header(width))
            for i, ti in enumerate(t):
                level = zip(s, flat[i].tolist())
                fh.write("".join([row_fmt % (f"{i},{j},{ti},{sj}", *row)
                                  for j, (sj, row) in enumerate(level)]))
        written[name] = (path, kind)
        entries[name] = (os.path.basename(path), kind, _sha256(path))
    _write_manifest(outdir, grid, entries, model_kv)
    return written


def _sha256(path):
    """Hex digest of a file, streamed in 1 MiB blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(outdir, grid, entries, model_kv):
    path = os.path.join(outdir, "manifest.txt")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"grid n_t={grid.n_t} n_s={grid.n_s} dt={_fmt(grid.dt)} "
                 f"ds={_fmt(grid.ds)} bc={grid.bc_s}\n")
        for name in sorted(entries):
            fname, kind, digest = entries[name]
            fh.write(f"field name={name} file={fname} kind={kind} "
                     f"sha256={digest}\n")
        if model_kv is not None:
            fh.write("model " + " ".join(f"{k}={v}" for k, v in model_kv.items())
                     + "\n")


def _read_manifest(indir):
    """Grid, ``{name: (file, kind, sha256)}`` and model tokens (or None)."""
    manifest = os.path.join(indir, "manifest.txt")
    if not os.path.exists(manifest):
        raise ConfigError(f"no manifest.txt in {indir}")
    grid = None
    entries = {}
    model_kv = None
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
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc} (listed in "
                              "manifest.txt)") from None
        width = _WIDTH[kind]
        try:
            with open(path) as fh:
                if fh.readline() != _header(width):
                    raise ConfigError(f"{path}: header does not match "
                                      f"kind={kind} in manifest.txt")
                data = np.loadtxt(fh, delimiter=",", ndmin=2,
                                  usecols=range(4, 4 + width))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if data.shape[0] != rows:
            raise ConfigError(f"{path} has {data.shape[0]} rows, expected "
                              f"{rows} (n_t={grid.n_t} x n_s={grid.n_s})")
        fields[name] = data.reshape((grid.n_t, grid.n_s) + _SHAPES[kind])
    if names is not None:
        missing = set(names) - set(fields)
        if missing:
            raise ConfigError(f"fields {sorted(missing)} not found in {indir}")
    return grid, fields


def write_steps(outdir, rows):
    """Per-step diagnostics CSV."""
    path = os.path.join(outdir, "diagnostics.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("step,t,max_state,rotor_total_1,rotor_total_2,rotor_total_3\n")
        for row in np.asarray(rows):
            fh.write(f"{int(row[0])}," + ",".join(_fmt(v) for v in row[1:]) + "\n")
    return path


def write_initial_slice(path, state):
    """One-row-per-node CSV holding a full initial state slice."""
    arrays = [getattr(state, name) for name in COMPONENTS]
    n_s = arrays[0].shape[0]
    with open(path, "w", newline="\n") as fh:
        fh.write("s_index," + ",".join(f"{name}{k + 1}" for name in COMPONENTS
                                       for k in range(3)) + "\n")
        for j in range(n_s):
            vals = [a[j, k] for a in arrays for k in range(3)]
            fh.write(f"{j}," + ",".join(_fmt(v) for v in vals) + "\n")
    return path


def read_initial_slice(path, n_s):
    if not os.path.exists(path):
        raise ConfigError(f"initial state file not found: {path}", key="init.file")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n_s, 1 + 3 * len(COMPONENTS)):
        raise ConfigError(
            f"initial state file {path} has shape {data.shape}, "
            f"expected ({n_s}, {1 + 3 * len(COMPONENTS)})", key="init.file")
    parts = {name: data[:, 1 + 3 * i:4 + 3 * i]
             for i, name in enumerate(COMPONENTS)}
    return StateSlice(**parts)


def format_report(title, checks, preamble=()):
    """Plain-text report: one ``name value tolerance verdict`` line per check."""
    lines = [title]
    lines.extend(preamble)
    for c in checks:
        tol = "-" if c.tol is None else _fmt(c.tol)
        lines.append(f"{c.name} {_fmt(c.value)} {tol} "
                     f"{'PASS' if c.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_report(path, title, checks, preamble=()):
    text = format_report(title, checks, preamble)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return text
