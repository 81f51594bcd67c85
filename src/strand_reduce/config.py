"""Run-configuration file parsing.

The file format is INI-like sections of ``key = value`` pairs:

    [grid]
    n_s = 64
    n_t = 200
    length = 1.0
    duration = 0.5
    bc = periodic

    [inertia]
    I = diag 1.8 1.4 1.1        # or nine reals, row-major
    K = 0.9 0.1 0 0.1 0.7 0.05 0 0.05 0.5

    [potential]
    C = diag 1 0.8 0.6
    D = diag 0.7 0.5 0.4
    kappa = 1.0
    c0 = 1.0

    [init]
    preset = twistpulse          # or: file = initial.csv

    [scheme]                     # optional; rk4, the only scheme
    name = rk4

Every key outside [scheme] is mandatory; unknown sections or keys are
errors, reported with their line number, and so are a model parameter that
``model.check_param`` rejects, a preset outside ``simulate.PRESETS`` and a
scheme other than rk4 (the march's only scheme; names match in any case).
"""

import os

import numpy as np

from .errors import ConfigError
from .fields_io import read_initial_slice
from .grid import CLAMPED, PERIODIC, Grid2
from .model import PARAMS, ModelParams, check_param
from .simulate import PRESETS, SimConfig

_SCHEMA = {
    "grid": {"n_s", "n_t", "length", "duration", "bc"},
    **{section: {t for s, t, _, _ in PARAMS if s == section}
       for section, _, _, _ in PARAMS},
    "init": {"preset", "file"},
    "scheme": {"name"},
}


def _parse_sections(text, source):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"unknown section '{current}' in {source}",
                                  key=current, line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"expected 'key = value' in {source}",
                              key=current, line=lineno)
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key in {source}",
                              key=f"{current}.{key}", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key in {source}",
                              key=f"{current}.{key}", line=lineno)
        sections[current][key] = (value, lineno)
    return sections


def _need(sections, section, key, source):
    try:
        return sections[section][key]
    except KeyError:
        raise ConfigError(f"missing mandatory key in {source}",
                          key=f"{section}.{key}") from None


def _as_value(item, key, shape):
    """The value written for ``key``, of ``shape``: one real, or a 3x3
    matrix as 'diag a b c' or nine reals row-major.  Only the syntax is
    checked here."""
    value, lineno = item
    parts = value.split()
    try:
        if not shape:
            return float(value)
        if parts and parts[0] == "diag" and len(parts) == 4:
            return np.diag([float(p) for p in parts[1:]])
        return np.array([float(p) for p in parts]).reshape(shape)
    except ValueError:
        raise ConfigError("expected 'diag a b c' or nine reals row-major"
                          if shape else "not a number",
                          key=key, line=lineno) from None


def _as_positive(item, key):
    x = _as_value(item, key, ())
    if not np.isfinite(x):
        raise ConfigError("must be finite", key=key, line=item[1])
    if not x > 0.0:
        raise ConfigError("must be > 0", key=key, line=item[1])
    return x


def _as_int(item, key, minimum):
    value, lineno = item
    try:
        n = int(value)
    except ValueError:
        raise ConfigError("not an integer", key=key, line=lineno) from None
    if n < minimum:
        raise ConfigError(f"must be >= {minimum}", key=key, line=lineno)
    return n


def parse_config(text, source="<config>", base_dir="."):
    """Parse configuration text into a validated :class:`SimConfig`."""
    sections = _parse_sections(text, source)
    for name in _SCHEMA:
        if name != "scheme" and name not in sections:
            raise ConfigError(f"missing section [{name}] in {source}", key=name)

    n_s = _as_int(_need(sections, "grid", "n_s", source), "grid.n_s", minimum=3)
    n_t = _as_int(_need(sections, "grid", "n_t", source), "grid.n_t", minimum=3)
    length = _as_positive(_need(sections, "grid", "length", source),
                          "grid.length")
    duration = _as_positive(_need(sections, "grid", "duration", source),
                            "grid.duration")
    bc_raw, bc_line = _need(sections, "grid", "bc", source)
    bc = bc_raw.lower()
    if bc not in (PERIODIC, CLAMPED):
        raise ConfigError("bc must be 'periodic' or 'clamped'",
                          key="grid.bc", line=bc_line)
    try:
        grid = Grid2.uniform(n_t, n_s, duration, length, bc)
    except ValueError as exc:
        raise ConfigError(str(exc), key="grid") from None

    values = {}
    for section, token, field, shape in PARAMS:
        key = f"{section}.{token}"
        item = _need(sections, section, token, source)
        try:
            values[field] = check_param(field, _as_value(item, key, shape))
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=item[1]) from None
    params = ModelParams(**values)

    init = sections["init"]
    preset = None
    if "preset" in init:
        preset = init["preset"][0].lower()
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset '{preset}'", key="init.preset",
                              line=init["preset"][1])
    state = None
    if "file" in init:
        path = init["file"][0]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        state = read_initial_slice(path, n_s)

    scheme, line = sections.get("scheme", {}).get("name", ("rk4", None))
    if scheme.lower() != "rk4":
        raise ConfigError(f"scheme must be 'rk4', not '{scheme}'",
                          key="scheme.name", line=line)

    cfg = SimConfig(grid=grid, params=params, preset=preset, init=state)
    cfg.validate()
    return cfg


def load_config(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: byte "
                          f"{data[exc.start]:#04x} is not UTF-8",
                          line=data.count(b"\n", 0, exc.start) + 1) from None
    return parse_config(text, source=path, base_dir=os.path.dirname(path) or ".")
