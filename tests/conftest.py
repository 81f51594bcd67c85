import dataclasses
import time

import numpy as np
import pytest

from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce.fields_io import FieldWriter, open_fields, write_csv
from strand_reduce.reduction import Stage1Section

SESSION_T0 = time.monotonic()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def params():
    return model.default_params()


@pytest.fixture
def params_free():
    """Inertia only; potential switched off."""
    return potential_off(model.default_params())


def potential_off(base):
    """Copy of ``base`` with the potential switched off (E identically zero)."""
    return dataclasses.replace(base, pot_C=np.zeros((3, 3)),
                               pot_D=np.zeros((3, 3)), pot_kappa=0.0)


def store_fields(outdir, gr, fields, **writer):
    """Write whole fields as one block of levels, then ``manifest.txt``.

    ``writer`` passes :class:`FieldWriter`'s ``model`` and ``merge``.
    """
    with FieldWriter(outdir, gr, **writer) as out:
        out.write(slice(0, gr.n_t), fields)


def load_fields(indir, names):
    """Grid and the whole levels of the stored fields ``names``."""
    with open_fields(indir, names) as (gr, streams):
        return gr, {name: levels[0:gr.n_t] for name, levels in streams.items()}


def write_init_file(path, state):
    """A state slice as an ``init.file`` CSV: header, then one row per node,
    its index and the 21 values in ``model.COMPONENTS`` order."""
    values = np.concatenate([getattr(state, name) for name in model.COMPONENTS],
                            axis=1)
    head = ",".join(f"{name}{k + 1}" for name in model.COMPONENTS
                    for k in range(3))
    write_csv(path, f"s_index,{head}\n",
              np.column_stack([np.arange(len(values)), values]))
    return path


def svd_polar(M):
    """Polar factor from an independent SVD computation (batched)."""
    u, _, vt = np.linalg.svd(M)
    flip = np.ones(M.shape[:-2] + (3,))
    flip[..., 2] = np.linalg.det(u @ vt)
    return (u * flip[..., None, :]) @ vt


def random_stage1_point(rng, scale=1.0):
    return model.Stage1Point(*(scale * rng.normal(size=3) for _ in range(6)))


def mollifier(x, lo, hi):
    """Smooth bump supported strictly inside (lo, hi), zero outside.

    All derivatives vanish at the support edge, so difference stencils see
    an honestly compact variation.
    """
    x = np.asarray(x, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xi = (x - mid) / half
    out = np.zeros_like(x)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    return out


def smooth_stage1_section(gr, amp=0.3, c0=1.0):
    """Deterministic smooth trig fields on a grid; not a solution."""
    t = gr.t_coords()[:, None]
    s = gr.s_coords()[None, :]
    L = gr.length_s
    T = max(gr.duration, 1e-12)
    ks = 2 * np.pi / L
    # s-dependence periodic so the same formulas serve both boundary policies
    f1 = np.sin(ks * s) * np.cos(np.pi * t / T)
    f2 = np.cos(2 * ks * s) * np.sin(0.8 * np.pi * t / T + 0.3)
    f3 = np.sin(ks * s + 0.5) * np.cos(0.6 * np.pi * t / T + 1.1)
    rho = np.stack([np.sqrt(c0) + amp * f1, amp * f2, amp * 0.5 * f3], axis=-1)
    theta = amp * np.stack([f2, 0.5 * f1, f3], axis=-1)
    Omega = amp * np.stack([0.7 * f3, f1, 0.4 * f2], axis=-1)
    omega = amp * np.stack([0.5 * f2, 0.8 * f3, f1], axis=-1)
    return Stage1Section(grid=gr, rho=rho, theta=theta, Omega=Omega, omega=omega)


def small_grid(n_t=24, n_s=32, bc=g.PERIODIC, duration=0.4, length=1.0):
    return g.Grid2.uniform(n_t, n_s, duration, length, bc)


@pytest.fixture(scope="class")
def stored_run(tmp_path_factory):
    """Stored runs of :func:`smooth_stage1_section`, written once per class.

    ``stored_run(grid)`` returns the run directory, written with the default
    model as ``simulate`` writes a run, and the section it holds.  Tests that
    edit a run copy it first.
    """
    runs = {}

    def get(gr):
        if gr not in runs:
            s1 = smooth_stage1_section(gr)
            path = tmp_path_factory.mktemp("stored_run")
            store_fields(path, gr, {name: getattr(s1, name) for name in
                                    ("rho", "theta", "Omega", "omega")},
                         model=model.default_params())
            runs[gr] = path, s1
        return runs[gr]

    return get
