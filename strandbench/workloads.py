"""Seeded workloads of the strand-reduce benchmark and the checks on their outputs.

Each workload writes its own config and ``init.file`` CSV from the seed, so
the CLI sees only generated files.  ``commands`` gives the CLI argument lists
of one timed sequence; ``check`` returns the failures of one command's output
(an empty list when it is correct), and ``digest`` the bytes that must repeat
exactly from run to run.
"""

import hashlib
import math
import os

import numpy as np

COMPONENTS = ("rho", "u", "theta", "a", "v", "Omega", "omega")
FIELD_FILES = ("Omega.csv", "omega.csv", "rho.csv", "theta.csv")

# The values of strand_reduce.model.default_params(); residuals --in and
# noether --in evaluate stored runs with them, so the stored run uses them too.
DEFAULT_MODEL = {
    "I": (1.8, 0.2, 0.0, 0.2, 1.4, 0.1, 0.0, 0.1, 1.1),
    "K": (0.9, 0.1, 0.0, 0.1, 0.7, 0.05, 0.0, 0.05, 0.5),
    "C": (1.0, 0.1, 0.0, 0.1, 0.8, 0.05, 0.0, 0.05, 0.6),
    "D": (0.7, 0.05, 0.0, 0.05, 0.5, 0.02, 0.0, 0.02, 0.4),
    "kappa": 1.0,
    "c0": 1.0,
}
FREE_MODEL = dict(DEFAULT_MODEL, C=(0.0,) * 9, D=(0.0,) * 9, kappa=0.0)

RIGID_BODY_TOL = 1e-10      # acceptance criterion 8
ROTOR_DRIFT_BOUND = 1e-10   # the periodic stencils conserve the rotor total
RESIDUAL_REL_TOL = 1e-12


def _fmt(x):
    return repr(float(x))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_config(path, grid, model):
    mat = lambda m: " ".join(_fmt(x) for x in m)
    text = (
        "[grid]\n"
        f"n_s = {grid['n_s']}\nn_t = {grid['n_t']}\n"
        f"length = {_fmt(grid['length'])}\nduration = {_fmt(grid['duration'])}\n"
        f"bc = {grid['bc']}\n\n"
        f"[inertia]\nI = {mat(model['I'])}\nK = {mat(model['K'])}\n\n"
        f"[potential]\nC = {mat(model['C'])}\nD = {mat(model['D'])}\n"
        f"kappa = {_fmt(model['kappa'])}\nc0 = {_fmt(model['c0'])}\n\n"
        "[init]\nfile = init.csv\n\n"
        "[scheme]\nname = rk4\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_init(path, state):
    """The one-row-per-node CSV that ``init.file`` reads."""
    n_s = state["rho"].shape[0]
    with open(path, "w", newline="\n") as fh:
        fh.write("s_index," + ",".join(f"{c}{k + 1}" for c in COMPONENTS
                                       for k in range(3)) + "\n")
        for j in range(n_s):
            fh.write(f"{j}," + ",".join("%.17g" % state[c][j, k]
                                        for c in COMPONENTS for k in range(3))
                     + "\n")


def s_coords(grid):
    n = grid["n_s"] if grid["bc"] == "periodic" else grid["n_s"] - 1
    return grid["length"] / n * np.arange(grid["n_s"])


def smooth_noise(rng, s, length, amp):
    """(n_s, 3) sum of three low Fourier modes with random phases."""
    out = np.zeros((s.size, 3))
    for k in (1, 2, 3):
        coef = rng.uniform(-amp, amp, size=3) / k
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        out += coef * np.sin(2.0 * np.pi * k * s[:, None] / length + phase)
    return out


def report_values(text):
    """``name value`` pairs of a report printed by the CLI."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3] in ("PASS", "FAIL"):
            out[parts[0]] = (float(parts[1]), parts[3])
    return out


def last_level(path, n_s):
    """Component columns of the last time level of a field CSV."""
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(max(0, size - 400 * (n_s + 1)))
        lines = fh.read().decode().splitlines()[-n_s:]
    return np.array([[float(x) for x in line.split(",")[4:]] for line in lines])


def check_manifest(outdir):
    """Re-hash every file the manifest lists; ``read_fields`` does not."""
    errors = []
    listed = 0
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] != "field":
                continue
            kv = dict(p.split("=", 1) for p in parts[1:])
            listed += 1
            if sha256_file(os.path.join(outdir, kv["file"])) != kv["sha256"]:
                errors.append(f"{kv['file']}: sha256 differs from manifest.txt")
    if listed != len(FIELD_FILES):
        errors.append(f"manifest lists {listed} fields, expected {len(FIELD_FILES)}")
    return errors


class Simulate:
    """One ``simulate`` command per sequence; outputs are field CSVs."""

    def __init__(self, grid, model):
        self.grid, self.model = grid, model
        self.nodes = grid["n_s"] * grid["n_t"]
        self.steps = grid["n_t"] - 1

    def prepare(self, workdir, rng, run_cli):
        write_init(os.path.join(workdir, "init.csv"), self.initial_state(rng))
        self.config = os.path.join(workdir, "run.cfg")
        write_config(self.config, self.grid, self.model)

    def commands(self, outdir):
        return [["simulate", "--config", self.config, "--out", outdir]]

    def digest(self, outdir, stdout):
        """manifest.txt holds the CSV hashes that ``check`` verifies."""
        return [sha256_file(os.path.join(outdir, name))
                for name in ("manifest.txt", "diagnostics.csv")]

    def check(self, index, outdir, code, stdout):
        if code != 0:
            return [f"simulate exited {code}"]
        errors = check_manifest(outdir)
        return errors + self.check_values(outdir, stdout)


class MarchNarrow(Simulate):
    def initial_state(self, rng):
        n_s = self.grid["n_s"]
        z = np.zeros((n_s, 3))
        point = {"rho": rng.uniform(-0.8, 0.8, 3), "u": rng.uniform(-0.1, 0.1, 3),
                 "theta": rng.uniform(-1.0, 1.0, 3), "v": rng.uniform(-0.3, 0.3, 3),
                 "omega": rng.uniform(-0.5, 0.5, 3)}
        state = {c: np.tile(point[c], (n_s, 1)) if c in point else z
                 for c in COMPONENTS}
        self.reference = rigid_body_reference(point, self.model, self.grid)
        return state

    def check_values(self, outdir, stdout):
        n_s = self.grid["n_s"]
        err = max(float(np.max(np.abs(
            last_level(os.path.join(outdir, f"{c}.csv"), n_s) - self.reference[c])))
            for c in ("rho", "theta", "omega"))
        if not err <= RIGID_BODY_TOL:
            return [f"final state differs from the RK4 reference by {err:.3e}"]
        return []


def rigid_body_reference(point, model, grid):
    """Single-node RK4 march of the rigid body with rotors, potential off."""
    I = np.reshape(model["I"], (3, 3))
    K = np.reshape(model["K"], (3, 3))
    I_inv = np.linalg.inv(I)
    y = np.concatenate([point["rho"], point["u"], point["theta"], point["v"],
                        point["omega"]])

    def f(vec):
        rho, u, _theta, v, om = vec.reshape(5, 3)
        om_t = I_inv @ (-np.cross(om, (I + K) @ om + K @ v))
        u_t = np.cross(om, np.cross(rho, om) - 2 * u) - np.cross(om_t, rho)
        return np.concatenate([u, u_t, v, -om_t, om_t])

    h = grid["duration"] / (grid["n_t"] - 1)
    for _ in range(grid["n_t"] - 1):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    rho, _u, theta, _v, omega = y.reshape(5, 3)
    return {"rho": rho, "theta": theta, "omega": omega}


class WriteWide(Simulate):
    def initial_state(self, rng):
        s = s_coords(self.grid)
        L = self.grid["length"]
        state = {c: np.zeros((s.size, 3)) for c in COMPONENTS}
        state["rho"][:, 0] = math.sqrt(self.model["c0"])
        for k, amp in ((0, 0.2), (1, 0.2), (2, 1.0)):
            center = rng.uniform(0.3, 0.7) * L
            sigma = rng.uniform(0.08, 0.12) * L
            bump = sum(np.exp(-0.5 * ((s - center + m * L) / sigma) ** 2)
                       for m in (-2, -1, 0, 1, 2))
            state["Omega"][:, k] = rng.uniform(0.8, 1.2) * amp * bump
        return state

    def check_values(self, outdir, stdout):
        drift = report_values(stdout).get("rotor_total_drift")
        if drift is None:
            return ["report has no rotor_total_drift"]
        if not drift[0] <= ROTOR_DRIFT_BOUND:
            return [f"rotor_total_drift {drift[0]:.3e} > {ROTOR_DRIFT_BOUND:.0e}"]
        return []


class AnalyseStored:
    """``residuals --in`` then ``noether --in`` on a stored clamped run."""

    def __init__(self, grid):
        self.grid = grid
        self.model = DEFAULT_MODEL
        self.nodes = 2 * grid["n_s"] * grid["n_t"]
        self.steps = 0

    def prepare(self, workdir, rng, run_cli):
        s = s_coords(self.grid)
        L = self.grid["length"]
        root_c0 = math.sqrt(self.model["c0"])
        state = {c: smooth_noise(rng, s, L, 0.05) for c in COMPONENTS}
        state["theta"][:] = 0.0
        state["a"][:] = 0.0
        state["rho"] += root_c0 * np.stack(
            [np.cos(2 * np.pi * s / L), np.sin(2 * np.pi * s / L),
             np.zeros(s.size)], axis=-1)
        state["Omega"][:, 2] += 2 * np.pi / L
        write_init(os.path.join(workdir, "init.csv"), state)
        config = os.path.join(workdir, "run.cfg")
        write_config(config, self.grid, self.model)
        self.stored = os.path.join(workdir, "stored")
        code, stdout = run_cli(["simulate", "--config", config,
                                "--out", self.stored])
        if code != 0:
            raise RuntimeError(f"preparing the stored run: simulate exited {code}")
        errors = check_manifest(self.stored)
        if errors:
            raise RuntimeError("preparing the stored run: " + "; ".join(errors))
        self.stored_report = report_values(stdout)

    def commands(self, outdir):
        return [["residuals", "--in", self.stored],
                ["noether", "--in", self.stored]]

    def digest(self, outdir, stdout):
        return [hashlib.sha256(stdout.encode()).hexdigest()]

    def check(self, index, outdir, code, stdout):
        command = ("residuals", "noether")[index]
        if code != 0:
            return [f"{command} --in exited {code}"]
        values = report_values(stdout)
        if command == "noether":
            gate = values.get("current_vertical_identity_max_err")
            return [] if gate and gate[1] == "PASS" else ["noether identity gate"]
        errors = []
        for name in ("vertical", "horizontal_rho", "horizontal_theta"):
            got = values.get(f"stage1_{name}_l2")
            want = self.stored_report.get(f"residual_{name}_l2")
            if got is None or want is None:
                errors.append(f"stage1_{name}_l2 missing")
            elif not abs(got[0] - want[0]) <= RESIDUAL_REL_TOL * abs(want[0]):
                errors.append(f"stage1_{name}_l2 {got[0]!r} != simulate's {want[0]!r}")
        return errors


def make_workloads(smoke=False):
    """The three workloads; ``smoke`` shrinks every grid to a few hundred nodes."""
    narrow = dict(n_s=8, n_t=201 if smoke else 4001, length=1.0,
                  duration=0.2 if smoke else 4.0, bc="periodic")
    wide = dict(n_s=32 if smoke else 512, n_t=20 if smoke else 200, length=1.0,
                duration=0.15, bc="periodic")
    stored = dict(n_s=16 if smoke else 256, n_t=40 if smoke else 400, length=1.0,
                  duration=0.5, bc="clamped")
    return {
        # Small n_s: the RHS cost is per-call numpy overhead, and the march
        # outweighs the CSV write.
        "march_narrow": MarchNarrow(narrow, FREE_MODEL),
        # A few steps of a wide vectorised RHS; the %.17g CSV write dominates.
        "write_wide": WriteWide(wide, DEFAULT_MODEL),
        # No march and no field write: the CSV read, the SVD sweep of
        # reconstruct_rotation, and the residual and Noether evaluators.
        "analyse_stored": AnalyseStored(stored),
    }
