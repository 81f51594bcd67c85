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

    [scheme]                     # optional; default rk4
    name = rk4

Every key outside [scheme] is mandatory; unknown sections or keys are
errors, reported with their line number.
"""

import os

import numpy as np

from .errors import ConfigError
from .fields_io import read_initial_slice
from .grid import CLAMPED, PERIODIC, Grid2
from .model import ModelParams
from .simulate import SimConfig

_SCHEMA = {
    "grid": {"n_s", "n_t", "length", "duration", "bc"},
    "inertia": {"I", "K"},
    "potential": {"C", "D", "kappa", "c0"},
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


def _as_float(item, key, positive=False, nonnegative=False):
    value, lineno = item
    try:
        x = float(value)
    except ValueError:
        raise ConfigError("not a number", key=key, line=lineno) from None
    if positive and not x > 0.0:
        raise ConfigError("must be > 0", key=key, line=lineno)
    if nonnegative and not x >= 0.0:
        raise ConfigError("must be >= 0", key=key, line=lineno)
    return x


def _as_int(item, key, minimum=None):
    value, lineno = item
    try:
        n = int(value)
    except ValueError:
        raise ConfigError("not an integer", key=key, line=lineno) from None
    if minimum is not None and n < minimum:
        raise ConfigError(f"must be >= {minimum}", key=key, line=lineno)
    return n


def _as_matrix(item, key):
    value, lineno = item
    parts = value.split()
    try:
        if parts and parts[0] == "diag":
            if len(parts) != 4:
                raise ValueError
            return np.diag([float(p) for p in parts[1:]])
        if len(parts) != 9:
            raise ValueError
        return np.array([float(p) for p in parts]).reshape(3, 3)
    except ValueError:
        raise ConfigError("expected 'diag a b c' or nine reals row-major",
                          key=key, line=lineno) from None


def parse_config(text, source="<config>", base_dir="."):
    """Parse configuration text into a validated :class:`SimConfig`."""
    sections = _parse_sections(text, source)
    for name in ("grid", "inertia", "potential", "init"):
        if name not in sections:
            raise ConfigError(f"missing section [{name}] in {source}", key=name)

    n_s = _as_int(_need(sections, "grid", "n_s", source), "grid.n_s", minimum=3)
    n_t = _as_int(_need(sections, "grid", "n_t", source), "grid.n_t", minimum=3)
    length = _as_float(_need(sections, "grid", "length", source),
                       "grid.length", positive=True)
    duration = _as_float(_need(sections, "grid", "duration", source),
                         "grid.duration", positive=True)
    bc_raw, bc_line = _need(sections, "grid", "bc", source)
    bc = bc_raw.lower()
    if bc not in (PERIODIC, CLAMPED):
        raise ConfigError("bc must be 'periodic' or 'clamped'",
                          key="grid.bc", line=bc_line)
    try:
        grid = Grid2.uniform(n_t, n_s, duration, length, bc)
    except ValueError as exc:
        raise ConfigError(str(exc), key="grid") from None

    try:
        params = ModelParams(
            inertia_body=_as_matrix(_need(sections, "inertia", "I", source),
                                    "inertia.I"),
            inertia_rotor=_as_matrix(_need(sections, "inertia", "K", source),
                                     "inertia.K"),
            pot_C=_as_matrix(_need(sections, "potential", "C", source),
                             "potential.C"),
            pot_D=_as_matrix(_need(sections, "potential", "D", source),
                             "potential.D"),
            pot_kappa=_as_float(_need(sections, "potential", "kappa", source),
                                "potential.kappa", nonnegative=True),
            pot_c0=_as_float(_need(sections, "potential", "c0", source),
                             "potential.c0", positive=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="inertia/potential") from None

    init = sections["init"]
    preset = init["preset"][0].lower() if "preset" in init else None
    state = None
    if "file" in init:
        path = init["file"][0]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        state = read_initial_slice(path, n_s)

    scheme = sections.get("scheme", {})
    name = scheme.get("name", ("rk4", None))[0].lower()

    cfg = SimConfig(grid=grid, params=params, scheme=name, preset=preset,
                    init=state)
    cfg.validate()
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text, source=path, base_dir=os.path.dirname(path) or ".")
