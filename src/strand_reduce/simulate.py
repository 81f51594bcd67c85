"""Method-of-lines time integrator for the once-reduced strand system.

The dynamical unknowns per arclength node are the rows of
``model.COMPONENTS``: (rho, u = rho_t, theta, a = theta_s, v = theta_t,
Omega, omega).  Their rates are :func:`model.rates`, the balance laws
solved for the accelerations by exact linear elimination, with Omega and a
advanced by the zero-curvature relations, so no rotation matrices are
carried during the march; ``Lambda`` is reconstructed post hoc when a full
section is wanted.  The march, classical RK4, prepares those rates once
and evaluates them as one stacked kernel per call on an (n_s, 3) slice per
component.

theta itself is carried alongside (rate v) purely so the output is a
complete stage-1 section (``FIELDS``: rho, theta, Omega, omega); it does not
feed back into the dynamics.

The march runs a window at a time.  It is the source of the output fields'
levels (one :class:`grid.Levels` each) and marches only as far as the
window that reads them: :func:`stream` runs the summary's one window pass
(:func:`residuals.residual_norms`, through :func:`grid.by_window`) on those sources and
hands each newly marched block of levels once to a sink, which for
``simulate`` is the CSV writer, so no whole field is held.  The march steps
a block into one history of packed states, then checks the blow-up guard
and records the diagnostics rows for the whole block at once.
:func:`run` is :func:`stream` with a sink that collects the whole fields,
for the check suites and other library callers.
"""

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from . import grid as g
from .errors import BlowupError, ConfigError
from .model import COMPONENTS, ModelParams, rates, rotor_momentum
from .reduction import FIELDS, Stage1Section
from .residuals import residual_norms

BLOWUP_GUARD = 1e8

# The rows of the output fields (a stage-1 section) in the packed state.
_FIELD_ROWS = np.array([COMPONENTS.index(name) for name in FIELDS])


def check_step(grid, params, key):
    """RK4's step guard: refuse a dt above the conservative bound 0.5 min(1,
    1/sqrt(max stiffness)) ds, naming ``key``, the config section or the
    command-line options that set dt.

    The stiffness scale is the largest eigenvalue among C, D and kappa*c0.
    This is an engineering guard, validated empirically by the blow-up
    check, with no sharpness claim.
    """
    stiff = max(float(np.max(np.linalg.eigvalsh(params.pot_C))),
                float(np.max(np.linalg.eigvalsh(params.pot_D))),
                params.pot_kappa * params.pot_c0)
    limit = 0.5 * (1.0 if stiff <= 1.0 else 1.0 / np.sqrt(stiff)) * grid.ds
    if grid.dt > limit:
        raise ConfigError(
            f"dt = {grid.dt:.3e} exceeds the step guard {limit:.3e}", key=key)


@dataclass
class SimConfig:
    grid: g.Grid2
    params: ModelParams
    preset: str = None
    init: np.ndarray = None   # packed state, (7, n_s, 3) in COMPONENTS order

    def validate(self):
        if (self.preset is None) == (self.init is None):
            raise ConfigError("give exactly one of init.preset or init.file",
                              key="init")
        check_step(self.grid, self.params, "grid")


# The names of the built-in initial states, matched in any case.
PRESETS = ("static", "rigidbody", "twistpulse", "helix")


def presets(name, grid, params):
    """Built-in initial states on a grid, packed ``(7, n_s, 3)`` in
    ``COMPONENTS`` order."""
    name = name.lower()
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'", key="init.preset")
    n_s = grid.n_s
    s = grid.s_coords()
    L = grid.length_s
    root_c0 = np.sqrt(params.pot_c0)
    # every component not set below starts at zero
    y = np.zeros((len(COMPONENTS), n_s, 3))
    rho, u, _, _, v, Omega, omega = y
    if name in ("static", "twistpulse"):
        rho[:, 0] = root_c0
    if name == "static":
        return y
    if name == "rigidbody":
        # s-independent data: the strand moves as one rigid body with rotors.
        rho[:] = root_c0 * np.array([0.48, 0.60, 0.64])
        u[:] = [0.05, -0.02, 0.10]
        v[:] = [-0.10, 0.25, 0.15]
        omega[:] = [0.40, -0.30, 0.20]
        return y
    if name == "twistpulse":
        sigma = L / 10.0
        center = L / 2.0
        bump = Omega[:, 2]
        if grid.periodic_s:
            # Summing periodic images keeps the profile smooth across the seam.
            for k in (-2, -1, 0, 1, 2):
                bump += np.exp(-0.5 * ((s - center + k * L) / sigma) ** 2)
        else:
            bump[:] = np.exp(-0.5 * ((s - center) / sigma) ** 2)
        return y
    # helix: a circular centerline, the frame turning once about e3 over [0, L]
    rho[:] = root_c0 * np.stack([np.cos(2 * np.pi * s / L),
                                 np.sin(2 * np.pi * s / L),
                                 np.zeros(n_s)], axis=-1)
    Omega[:, 2] = 2 * np.pi / L
    return y


def _step_rk4(y, h, f):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class RunResult:
    section: Stage1Section   # whole fields (:func:`run`), or None (:func:`stream`)
    steps: np.ndarray        # per-step rows: step, t, max|state|, rotor total (3)
    summary: dict
    final_state: np.ndarray  # packed state at the last level
    seconds: dict            # wall s: march, summary, sink


class _March:
    """The march as the source of the output fields' levels.

    ``section`` holds one :class:`grid.Levels` per field of ``FIELDS``.  A
    read past the levels marched so far marches on to its end as one block,
    a ``(levels, 7, n_s, 3)`` history of packed states.  The block is
    guarded and its diagnostics rows recorded at once; its fields, views of
    the history, go to ``sink(levels, {name: block})`` once, and the history
    is kept until the next block, so that the other fields read their levels
    from it.  A blow-up raises :class:`BlowupError` for the first level past
    the guard, before the sink sees the block.
    """

    def __init__(self, cfg, sink):
        cfg.validate()
        gr, p = cfg.grid, cfg.params
        self.y = (cfg.init.copy() if cfg.init is not None
                  else presets(cfg.preset, gr, p))
        if self.y.shape != (len(COMPONENTS), gr.n_s, 3):
            raise ConfigError("initial state does not match the grid", key="init")
        self.f = rates(p, gr.ds, gr.closure_s)
        self.grid, self.params, self.sink = gr, p, sink
        self.rows = np.empty((gr.n_t, 6))
        self.lo = self.done = 0         # the levels of the kept history
        self.hist = None
        self.seconds = {"march": 0.0, "sink": 0.0}
        self.section = Stage1Section(grid=gr, **{
            name: g.Levels(gr.n_t, functools.partial(self._levels, k))
            for k, name in enumerate(FIELDS)})

    def _levels(self, k, read, held):
        lo = read.start + len(held)
        if read.stop > self.done:
            self._advance(read.stop)
        if lo < self.lo:
            raise ValueError(f"levels from {lo} of {FIELDS[k]} requested, "
                             f"but the march kept levels from {self.lo}")
        return self.hist[lo - self.lo:read.stop - self.lo, _FIELD_ROWS[k]]

    def _advance(self, stop):
        t0 = time.perf_counter()
        gr, y, lo = self.grid, self.y, self.done
        hist = np.empty((stop - lo,) + y.shape)
        # A stage may overflow; the guard reports it as a blow-up.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(lo, stop):
                if i:
                    y = _step_rk4(y, gr.dt, self.f)
                hist[i - lo] = y
            # max |y| of each level without a block-sized temporary; abs
            # makes a level of zeros +0.0, as np.abs(y).max() does
            axes = (1, 2, 3)
            worst = np.abs(np.maximum(hist.max(axes), -hist.min(axes)))
        bad = np.flatnonzero(~(worst <= BLOWUP_GUARD))
        if len(bad):
            i = int(bad[0])
            k, j, _ = np.unravel_index(np.argmax(np.abs(hist[i])), y.shape)
            raise BlowupError(lo + i, float(worst[i]), COMPONENTS[k], int(j))
        rows = self.rows[lo:stop]
        rows[:, 0] = np.arange(lo, stop)
        rows[:, 1] = rows[:, 0] * gr.dt
        rows[:, 2] = worst
        rows[:, 3:] = g.integrate_s(gr, rotor_momentum(hist[:, 6], hist[:, 4],
                                                      self.params))
        self.y, self.lo, self.done, self.hist = y, lo, stop, hist
        t1 = time.perf_counter()
        self.seconds["march"] += t1 - t0
        if self.sink is not None:
            self.sink(slice(lo, stop), {name: hist[:, k]
                                        for name, k in zip(FIELDS, _FIELD_ROWS)})
            self.seconds["sink"] += time.perf_counter() - t1


def stream(cfg, sink):
    """March the reduced system and summarise it, a window at a time.

    The summary's window pass reads the fields from the march, which goes
    only as far as the window being evaluated.  Each block of newly marched
    levels is handed once to ``sink(levels, {name: block})`` (``levels`` a
    slice of the grid's levels; no sink when None), so no whole field is
    held.  Returns a :class:`RunResult` without a section: per-step
    diagnostics, the post-hoc summary (residual norms over the interior
    levels, flatness defect, drift of the conserved rotor total), the final
    state and the wall seconds spent marching, summarising and in the sink.
    Raises :class:`BlowupError` when any state norm exceeds the guard.
    """
    t0 = time.perf_counter()
    march = _March(cfg, sink)
    t1 = time.perf_counter()
    summary = run_summary(march.section, cfg.params, march.rows)
    spent = march.seconds
    seconds = {"march": t1 - t0 + spent["march"],
               "summary": time.perf_counter() - t1 - spent["march"]
               - spent["sink"],
               "sink": spent["sink"]}
    return RunResult(section=None, steps=march.rows, summary=summary,
                     final_state=march.y, seconds=seconds)


def run(cfg):
    """:func:`stream` with a sink that collects the whole fields.

    The returned section holds ``(n_t, n_s, 3)`` arrays of ``FIELDS``.
    """
    whole = {name: cfg.grid.zeros() for name in FIELDS}

    def collect(levels, blocks):
        for name, block in blocks.items():
            whole[name][levels] = block

    out = stream(cfg, collect)
    return replace(out, section=Stage1Section(grid=cfg.grid, **whole))


def run_summary(section, p, rows):
    """Post-hoc diagnostics: :func:`residuals.residual_norms` and the rotor
    total drift.

    ``rows`` is read after the window pass, so a march that the pass reads
    (:func:`stream`) has filled it by then.
    """
    rotor_tot = rows[:, 3:6]
    return {**residual_norms(section, p),
            "rotor_total_drift": float(np.max(np.linalg.norm(
                rotor_tot - rotor_tot[0], axis=-1)))}
