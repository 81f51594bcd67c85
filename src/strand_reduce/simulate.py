"""Method-of-lines time integrator for the once-reduced strand system.

The dynamical unknowns per arclength node are (rho, u = rho_t, theta,
a = theta_s, v = theta_t, Omega, omega).  The accelerations follow from the
three balance laws by exact linear elimination: substituting the rho
equation into the vertical one annihilates the whole ``rho x (...)`` block
(a cross-product identity), and the rotor equation then isolates
``I omega_t``:

    omega_t = I^-1 [ d_s(C Omega) + Omega x (C Omega) - d_s(D a)
                     - omega x ((I+K) omega + K v) ]
    v_t     = K^-1 d_s(D a) - omega_t
    u_t     = F - omega_t x rho,   F = omega x (rho x omega - 2u) - 2 E_c rho

The rotation rate Omega and the rotor gradient a are advanced with the
zero-curvature relations ``Omega_t = d_s(omega) + Omega x omega`` and
``a_t = d_s(v)``, so no rotation matrices are carried during the march;
``Lambda`` is reconstructed post hoc when a full section is wanted.

The march (RK4 or explicit midpoint) evaluates these rates as one stacked
kernel per call, because at small n_s numpy's per-call cost outweighs the
algebra: the four s-derivatives (of C Omega, D a, omega and v) come from a
single stencil call on a (4, n_s, 3) block, the six cross products from two
calls on stacked operands, and each rate is written straight into the
packed output.  The arithmetic per entry is exactly that of the formulas
above, summed in the order written, so results do not depend on the
stacking.

theta itself is carried alongside (rate v) purely so the assembled output is
a complete stage-1 section; it does not feed back into the dynamics.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .so3 import cross
from .errors import BlowupError, ConfigError, SingularInertiaError, UnknownPresetError
from .model import ModelParams, dE, default_params
from .reduction import Stage1Section, flatness_residual_rotation
from .residuals import stage1_residuals

BLOWUP_GUARD = 1e8

COMPONENTS = ("rho", "u", "theta", "a", "v", "Omega", "omega")


@dataclass
class StateSlice:
    """State of all arclength nodes at one time level; arrays are (n_s, 3)."""

    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    a: np.ndarray
    v: np.ndarray
    Omega: np.ndarray
    omega: np.ndarray

    def pack(self):
        return np.stack([getattr(self, name) for name in COMPONENTS])

    @classmethod
    def unpack(cls, y):
        return cls(**{name: y[i] for i, name in enumerate(COMPONENTS)})


def cfl_limit(params, ds):
    """Conservative step bound 0.5 min(1, 1/sqrt(max stiffness)) ds.

    The stiffness scale is the largest eigenvalue among C, D and kappa*c0.
    This is an engineering guard, validated empirically by the blow-up
    check, with no sharpness claim.
    """
    stiff = max(float(np.max(np.linalg.eigvalsh(params.pot_C))),
                float(np.max(np.linalg.eigvalsh(params.pot_D))),
                params.pot_kappa * params.pot_c0)
    factor = 1.0 if stiff <= 1.0 else 1.0 / np.sqrt(stiff)
    return 0.5 * factor * ds


@dataclass
class SimConfig:
    grid: g.Grid2
    params: ModelParams = field(default_factory=default_params)
    scheme: str = "rk4"
    preset: str = "static"
    init: StateSlice = None   # overrides preset when given

    def validate(self):
        if self.scheme not in ("rk4", "midpoint"):
            raise ConfigError(f"unknown scheme '{self.scheme}'", key="scheme.name")
        limit = cfl_limit(self.params, self.grid.ds)
        if self.grid.dt > limit:
            raise ConfigError(
                f"dt = {self.grid.dt:.3e} exceeds the step guard {limit:.3e}",
                key="grid")


def presets(name, grid, params):
    """Built-in initial states on a grid."""
    n_s = grid.n_s
    s = grid.s_coords()
    L = grid.length_s
    root_c0 = np.sqrt(params.pot_c0)
    zeros = lambda: np.zeros((n_s, 3))
    name = name.lower()
    if name == "static":
        rho = np.zeros((n_s, 3))
        rho[:, 0] = root_c0
        return StateSlice(rho=rho, u=zeros(), theta=zeros(), a=zeros(),
                          v=zeros(), Omega=zeros(), omega=zeros())
    if name == "rigidbody":
        # s-independent data: the strand moves as one rigid body with rotors.
        rho = np.tile(root_c0 * np.array([0.48, 0.60, 0.64]), (n_s, 1))
        u = np.tile([0.05, -0.02, 0.10], (n_s, 1))
        v = np.tile([-0.10, 0.25, 0.15], (n_s, 1))
        omega = np.tile([0.40, -0.30, 0.20], (n_s, 1))
        return StateSlice(rho=rho, u=u, theta=zeros(), a=zeros(), v=v,
                          Omega=zeros(), omega=omega)
    if name == "twistpulse":
        rho = np.zeros((n_s, 3))
        rho[:, 0] = root_c0
        Omega = np.zeros((n_s, 3))
        sigma = L / 10.0
        center = L / 2.0
        bump = np.zeros(n_s)
        if grid.periodic_s:
            # Summing periodic images keeps the profile smooth across the seam.
            for k in (-2, -1, 0, 1, 2):
                bump += np.exp(-0.5 * ((s - center + k * L) / sigma) ** 2)
        else:
            bump = np.exp(-0.5 * ((s - center) / sigma) ** 2)
        Omega[:, 2] = bump
        return StateSlice(rho=rho, u=zeros(), theta=zeros(), a=zeros(),
                          v=zeros(), Omega=Omega, omega=zeros())
    if name == "helix":
        # Circular centerline with the frame rotating once about e3 over [0, L].
        rho = root_c0 * np.stack([np.cos(2 * np.pi * s / L),
                                  np.sin(2 * np.pi * s / L),
                                  np.zeros(n_s)], axis=-1)
        Omega = np.zeros((n_s, 3))
        Omega[:, 2] = 2 * np.pi / L
        return StateSlice(rho=rho, u=zeros(), theta=zeros(), a=zeros(),
                          v=zeros(), Omega=Omega, omega=zeros())
    raise UnknownPresetError(name)


def _rhs_packed(y, params, ds, periodic, I_inv, K_inv):
    """Time derivative of a packed state array (see the module docstring)."""
    rho, u, _theta, a, v, Omega, omega = y
    I, K = params.inertia_body, params.inertia_rotor
    CW, Da, E_c = dE(Omega, a, np.sum(rho * rho, axis=-1), params)
    ds_CW, ds_Da, ds_omega, ds_v = g.d_s_slice(np.array([CW, Da, omega, v]),
                                               ds, periodic)
    m = omega @ (I + K).T + v @ K.T
    OxCW, wxm, rxw, Oxw = cross(np.array([Omega, omega, rho, Omega]),
                                np.array([CW, m, omega, omega]))

    out = np.empty_like(y)
    out[0], out[2], out[3] = u, v, ds_v
    out[6] = omega_t = (ds_CW + OxCW - ds_Da - wxm) @ I_inv.T
    out[4] = ds_Da @ K_inv.T - omega_t
    wxF, wtxr = cross(np.array([omega, omega_t]), np.array([rxw - 2.0 * u, rho]))
    out[1] = wxF - 2.0 * E_c[:, None] * rho - wtxr
    out[5] = ds_omega + Oxw
    return out


def _step_rk4(y, h, f):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_midpoint(y, h, f):
    k1 = f(y)
    return y + h * f(y + 0.5 * h * k1)


@dataclass
class RunResult:
    section: Stage1Section
    steps: np.ndarray        # per-step rows: step, t, max|state|, rotor total (3)
    summary: dict
    final_state: StateSlice = None
    seconds: dict = field(default_factory=dict)  # wall s: march, summary


def run(cfg):
    """March the reduced system over the configured grid.

    Returns the assembled stage-1 section, per-step diagnostics, a
    post-hoc summary (interior residual norms, flatness defects, drift of
    the conserved rotor total) and the wall seconds of the march and of the
    summary.  Raises :class:`BlowupError` when any state norm exceeds the
    guard.
    """
    t_march = time.perf_counter()
    cfg.validate()
    gr = cfg.grid
    p = cfg.params
    try:
        np.linalg.cholesky(p.inertia_body)
        np.linalg.cholesky(p.inertia_rotor)
    except np.linalg.LinAlgError as exc:
        raise SingularInertiaError(str(exc)) from None
    I_inv = np.linalg.inv(p.inertia_body)
    K_inv = np.linalg.inv(p.inertia_rotor)

    state = cfg.init if cfg.init is not None else presets(cfg.preset, gr, p)
    y = state.pack()
    if y.shape != (len(COMPONENTS), gr.n_s, 3):
        raise ConfigError("initial state does not match the grid", key="init")

    def f(arr):
        return _rhs_packed(arr, p, gr.ds, gr.periodic_s, I_inv, K_inv)

    step = _step_rk4 if cfg.scheme == "rk4" else _step_midpoint
    rho = gr.zeros((3,))
    theta = gr.zeros((3,))
    Omega = gr.zeros((3,))
    omega = gr.zeros((3,))
    rows = np.empty((gr.n_t, 6))
    K = p.inertia_rotor

    # A stage may overflow; the next level's guard reports it as a blow-up.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(gr.n_t):
            rho[i], theta[i], Omega[i], omega[i] = y[0], y[2], y[5], y[6]
            worst = float(np.max(np.abs(y)))
            if not np.isfinite(worst) or worst > BLOWUP_GUARD:
                k, j, _ = np.unravel_index(np.argmax(np.abs(y)), y.shape)
                raise BlowupError(i, worst, COMPONENTS[k], int(j))
            rotor_total = g.integrate_s(gr, (y[6] + y[4])[None] @ K.T, 0)
            rows[i] = (i, i * gr.dt, worst, *rotor_total)
            if i < gr.n_t - 1:
                y = step(y, gr.dt, f)

    section = Stage1Section(grid=gr, rho=rho, theta=theta, Omega=Omega,
                            omega=omega)
    t_summary = time.perf_counter()
    summary = run_summary(section, p, rows)
    seconds = {"march": t_summary - t_march,
               "summary": time.perf_counter() - t_summary}
    return RunResult(section=section, steps=rows, summary=summary,
                     final_state=StateSlice.unpack(y), seconds=seconds)


def run_summary(section, p, rows):
    """Post-hoc diagnostics on the assembled section."""
    res = stage1_residuals(section, p)
    norms = res.interior_norms()
    flat = flatness_residual_rotation(section)
    mask = section.grid.interior_mask(2)
    rotor_tot = rows[:, 3:6]
    return {
        "residual_vertical_l2": norms["vertical"],
        "residual_horizontal_rho_l2": norms["horizontal_rho"],
        "residual_horizontal_theta_l2": norms["horizontal_theta"],
        "flatness_rotation_max": g.norm_max(flat, mask),
        "rotor_total_drift": float(np.max(np.linalg.norm(
            rotor_tot - rotor_tot[0], axis=-1))),
    }
