"""Deterministic CSV serialization of grid fields, run diagnostics and reports.

One CSV per field, rows in t-major then s order, reals printed with 17
significant digits (lossless for doubles), LF line endings.  A manifest file
records the grid metadata, a sha256 checksum per field file, hashed from the
bytes as they are written (so any change in any value changes the manifest)
and, for simulated runs, the model the fields were computed with.
"""

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
    t = [FMT % x for x in grid.t_coords().tolist()]
    s = [FMT % x for x in grid.s_coords().tolist()]
    written = {}
    for name in sorted(fields):
        values = np.asarray(fields[name], dtype=float)
        kind = _KINDS.get(values.shape[2:])
        if kind is None or values.shape[:2] != (grid.n_t, grid.n_s):
            raise ValueError(f"field '{name}' does not match the grid")
        width = _WIDTH[kind]
        flat = values.reshape(grid.n_t, grid.n_s * width)
        # One template per field and one % per time level: only the tokens
        # <i> and <t> change from level to level.
        vals = ",".join([FMT] * width) + "\n"
        level = "".join([f"<i>,{j},<t>,{sj}," + vals for j, sj in enumerate(s)])
        path = os.path.join(outdir, f"{name}.csv")
        digest = _write_stream(path, _HEADER[kind], (
            level.replace("<i>", str(i)).replace("<t>", ti) % tuple(flat[i].tolist())
            for i, ti in enumerate(t)))
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
    """Write text ``head`` then ``chunks``; sha256 hex of the bytes written."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in itertools.chain((head,), chunks):
            data = text.encode()
            h.update(data)
            fh.write(data)
    return h.hexdigest()


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
    rows = np.asarray(rows, dtype=float)
    path = os.path.join(outdir, "diagnostics.csv")
    row = "%d," + ",".join([FMT] * (rows.shape[1] - 1)) + "\n"
    _write_stream(path, "step,t,max_state,rotor_total_1,rotor_total_2,rotor_total_3\n",
                  [row * len(rows) % tuple(rows.ravel().tolist())])
    return path


def write_initial_slice(path, state):
    """One-row-per-node CSV holding a full initial state slice."""
    values = np.concatenate([getattr(state, name) for name in COMPONENTS], axis=1)
    row = "," + ",".join([FMT] * values.shape[1]) + "\n"
    head = ",".join(f"{name}{k + 1}" for name in COMPONENTS for k in range(3))
    _write_stream(path, f"s_index,{head}\n",
                  ["".join([f"{j}{row}" for j in range(len(values))])
                   % tuple(values.ravel().tolist())])
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
