"""The reports evaluate a run in time windows and match the whole grid bit for bit.

The whole-grid oracles below restate what the reports computed before they
ran window by window: the per-field evaluators on the whole section, reduced
by ``norm_l2`` and ``norm_max``.  ``WINDOW_NODES`` is patched so that the
windows split the grid in several places, with tails of every length the
partition allows.
"""

import dataclasses
import hashlib
import io
import pickle
import tracemalloc

import numpy as np
import pytest

from strand_reduce import checks
from strand_reduce import fields_io
from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import noether
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
from strand_reduce import simulate as sim
from strand_reduce import so3
from strand_reduce.cli import main
from strand_reduce.config import load_config
from strand_reduce.errors import NotFlatError
from strand_reduce.fields_io import (Run, format_report, info, write_steps,
                                     write_totals)
from strand_reduce.residuals import residual_norms
from strand_reduce.simulate import run_summary
from tests.conftest import small_grid, smooth_stage1_section, store_fields

N_T = 23
# owned levels per window on N_T levels: every 4 (tail 3), every 5 (tail 3),
# every 7 (tail 2), every 11 (a tail of 1 joins the window before)
STEPS = (4, 5, 7, 11)


def section(bc):
    # non-solution fields, so every residual and divergence is far from 0;
    # an odd n_s on clamped grids puts the window rows off any alignment
    gr = small_grid(n_t=N_T, n_s=12 if bc == g.PERIODIC else 13, bc=bc)
    return smooth_stage1_section(gr)


def simulate_config(directory, gr, preset):
    """A ``simulate`` config of ``gr``'s grid, the default model and
    ``preset``, written to ``directory``; its path."""
    path = directory / f"{preset}-{gr.n_t}x{gr.n_s}.cfg"
    path.write_text(
        f"[grid]\nn_s = {gr.n_s}\nn_t = {gr.n_t}\nlength = {gr.length_s!r}\n"
        f"duration = {gr.duration!r}\nbc = {gr.bc_s}\n\n"
        "[inertia]\nI = diag 1.8 1.4 1.1\nK = 0.9 0.1 0 0.1 0.7 0.05 0 0.05 0.5\n\n"
        "[potential]\nC = diag 1 0.8 0.6\nD = diag 0.7 0.5 0.4\nkappa = 1.0\n"
        f"c0 = 1.0\n\n[init]\npreset = {preset}\n")
    return path


def whole_march(cfg):
    """The fields, per-step rows and final state of the march as one loop
    over whole fields, the way ``simulate`` ran before it streamed."""
    gr, p = cfg.grid, cfg.params
    rates = model.rates(p, gr.ds, gr.closure_s)
    y = sim.presets(cfg.preset, gr, p)
    fields = {name: gr.zeros() for name in sim.FIELDS}
    rows = np.empty((gr.n_t, 6))
    for i in range(gr.n_t):
        for name in sim.FIELDS:
            fields[name][i] = y[sim.COMPONENTS.index(name)]
        rotor_total, = g.integrate_s(gr, (y[6] + y[4])[None]
                                     @ p.inertia_rotor.T)
        rows[i] = (i, i * gr.dt, float(np.abs(y).max()), *rotor_total)
        if i < gr.n_t - 1:
            y = sim._step_rk4(y, gr.dt, rates)
    return fields, rows, y


def rotation_field(s1):
    """The rotation field the Noether report sweeps, from the identity."""
    return red.reconstruct_rotation(s1.grid, s1.Omega, s1.omega, np.eye(3),
                                    tol=None)


@pytest.fixture(params=STEPS)
def split(request):
    """Owned levels per window."""
    return request.param


def patch_windows(monkeypatch, gr, step):
    monkeypatch.setattr(g, "WINDOW_NODES", step * gr.n_s)
    windows = list(gr.windows())
    assert len(windows) > 1
    return windows


def whole_grid_residual_report(s1, params):
    mask = s1.grid.interior(2)[0][:, None]    # every node of interior levels
    r = rs.stage1_residuals(s1, params)
    values = {f"residual_{name}_l2": g.norm_l2(s1.grid, getattr(r, name), mask)
              for name in r._fields}
    values["flatness_rotation_max"] = g.norm_max(
        red.flatness_residual_rotation(s1.grid, s1.Omega, s1.omega), mask)
    return values


def whole_grid_noether_report(s1, Lam, params):
    gr = s1.grid
    f = red.project_stage2(s1)
    d = model.fiber_derivatives_stage1(f, params)
    balance = noether.drift_residual(Lam, f, d, params)
    cut = dataclasses.replace(gr, bc_s=g.CLAMPED)
    values, totals = {}, []
    # the rotor row reads every node of the interior levels, the so3 row only
    # the cut's interior nodes
    for name, (J_s, J_t), div_grid, mask in (
            ("rotor", (d.dl_dtheta_s, d.dl_dtheta_t), gr,
             gr.interior(2)[0][:, None]),
            ("so3", noether.so3_current(Lam, d), cut, cut.interior_mask(2))):
        tot = g.integrate_s(gr, J_t)
        totals.append(tot)
        values[f"{name}_total_drift"] = float(
            np.max(np.linalg.norm(tot - tot[0], axis=-1)))
        div = noether.divergence(div_grid, J_s, J_t)
        values[f"{name}_divergence_interior_l2"] = g.norm_l2(
            div_grid, div, mask)
    values["current_vertical_identity_max_err"] = g.norm_max(
        balance - np.einsum("tsij,tsj->tsi", Lam,
                            rs.stage1_residuals(s1, params).vertical))
    return values, np.hstack(totals)


class TestPartition:
    @pytest.mark.parametrize("n_t", [3, 4, 5, 6, 7, 23, 64])
    @pytest.mark.parametrize("window_nodes", [1, 16, 24, 40, 80, 10 ** 6])
    def test_windows_partition_the_levels(self, monkeypatch, n_t, window_nodes):
        monkeypatch.setattr(g, "WINDOW_NODES", window_nodes)
        gr = small_grid(n_t=n_t, n_s=8)
        step = max(2 * g.WINDOW_HALO, window_nodes // gr.n_s)
        owned = []
        for w in gr.windows():
            own = range(gr.n_t)[w.own]
            owned += own
            assert 2 <= len(own) <= step + 1
            assert w.read == slice(max(0, own[0] - g.WINDOW_HALO),
                                   min(gr.n_t, own[-1] + 1 + g.WINDOW_HALO))
            assert w.read.stop - w.read.start <= 2 * len(own)
            assert range(w.read.start, w.read.stop)[w.inner] == own
        assert owned == list(range(n_t))

    def test_default_window_reads_about_2048_nodes(self):
        gr = g.Grid2.uniform(400, 256, 0.5, 1.0, g.CLAMPED)
        owned = [w.own.stop - w.own.start for w in gr.windows()]
        assert owned == [8] * 50


@pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
class TestBitwiseEqualToWholeGrid:
    def test_owned_levels_see_the_whole_grid_stencils(self, monkeypatch, split,
                                                      bc, params):
        # the reports mask the two levels at each time edge; this pins every
        # owned level, edges included
        s1 = section(bc)
        whole = red.project_stage2(s1)
        for w in patch_windows(monkeypatch, s1.grid, split):
            part = red.project_stage2(red.at_levels(s1, w.read))
            for field in dataclasses.fields(part):
                if field.name == "grid":
                    continue
                have = getattr(part, field.name)[w.inner]
                assert have.tobytes() == getattr(whole, field.name)[w.own].tobytes()

    def test_run_summary(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        rows = np.zeros((N_T, 6))
        want = run_summary(s1, params, rows)
        patch_windows(monkeypatch, s1.grid, split)
        got = run_summary(s1, params, rows)
        assert want == got == {**whole_grid_residual_report(s1, params),
                               "rotor_total_drift": 0.0}

    def test_residual_report(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        patch_windows(monkeypatch, s1.grid, split)
        got = residual_norms(s1, params)
        assert got == whole_grid_residual_report(s1, params)
        assert list(got) == list(whole_grid_residual_report(s1, params))

    def test_noether_report(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        want, want_totals = whole_grid_noether_report(s1, rotation_field(s1),
                                                      params)
        patch_windows(monkeypatch, s1.grid, split)
        rows, totals = noether.noether_report(s1, params)
        assert {c.name: c.value for c in rows} == want
        assert [c.name for c in rows] == list(want)
        assert totals.shape == want_totals.shape
        assert totals.tobytes() == want_totals.tobytes()

    def test_flatness_gate_value(self, monkeypatch, split, bc):
        # the gate passes at the whole-grid max and fails just below it, so
        # the windowed max is that value bit for bit
        s1 = section(bc)
        flat = red.flatness_residual_rotation(s1.grid, s1.Omega, s1.omega)
        level, node = np.unravel_index(np.argmax(g.node_sq(flat)),
                                       flat.shape[:2])
        value = g.norm_max(flat)
        below = np.nextafter(value, 0.0)
        patch_windows(monkeypatch, s1.grid, split)
        red.reconstruct_rotation(s1.grid, s1.Omega, s1.omega, np.eye(3), value)
        with pytest.raises(NotFlatError) as exc:
            red.reconstruct_rotation(s1.grid, s1.Omega, s1.omega, np.eye(3),
                                     below)
        assert str(exc.value) == (
            f"flatness residual {value:.3e} exceeds tolerance {below:.3e} "
            f"at level {level}, node {node}")


def count_stencils(monkeypatch):
    """Calls of ``grid.d_t`` and ``grid.d_s`` from here on."""
    calls = dict.fromkeys(("d_t", "d_s"), 0)
    for name in calls:
        def counted(*args, name=name, stencil=getattr(g, name)):
            calls[name] += 1
            return stencil(*args)
        monkeypatch.setattr(g, name, counted)
    return calls


@pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
class TestStencilsPerWindow:
    def test_noether_report(self, monkeypatch, bc, params):
        # one jet (d_t 5, d_s 1), the flatness gate (1, 1), the drift's
        # d_s(N) and the two current divergences (2, 2)
        s1 = section(bc)
        n = len(patch_windows(monkeypatch, s1.grid, 5))
        calls = count_stencils(monkeypatch)
        noether.noether_report(s1, params)
        assert calls == {"d_t": 8 * n, "d_s": 5 * n}

    def test_residual_norms(self, monkeypatch, bc, params):
        # one jet and the flatness gate
        s1 = section(bc)
        n = len(patch_windows(monkeypatch, s1.grid, 5))
        calls = count_stencils(monkeypatch)
        residual_norms(s1, params)
        assert calls == {"d_t": 6 * n, "d_s": 2 * n}


def count_rows(monkeypatch, module, name):
    """Level rows of the section each call of ``module.name`` receives from
    here on."""
    rows, fn = [], getattr(module, name)

    def counted(f, *args):
        rows.append(len(f.rho))
        return fn(f, *args)

    monkeypatch.setattr(module, name, counted)
    return rows


@pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
class TestLevelsPerWindow:
    """Only the time stencils read a window's halo: the pointwise kernels
    receive the levels the window owns, the fiber derivatives also the one
    level beyond each inner side that d_t of the currents reads."""

    def test_noether_report(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        n = len(patch_windows(monkeypatch, s1.grid, split))
        residual = count_rows(monkeypatch, rs, "stage2_residuals")
        fiber = count_rows(monkeypatch, model, "fiber_derivatives_stage1")
        noether.noether_report(s1, params)
        assert len(residual) == len(fiber) == n
        assert sum(residual) == N_T
        assert sum(fiber) <= N_T + 2 * (n - 1)

    def test_residual_norms(self, monkeypatch, split, bc, params):
        s1 = section(bc)
        n = len(patch_windows(monkeypatch, s1.grid, split))
        residual = count_rows(monkeypatch, rs, "stage2_residuals")
        residual_norms(s1, params)
        assert len(residual) == n
        assert sum(residual) == N_T


class TestLevels:
    def test_windows_produce_each_level_once(self, monkeypatch):
        gr = small_grid(n_t=N_T, n_s=4)
        field = np.arange(N_T * 4.0).reshape(N_T, 4)
        produced = []

        def produce(read, held):
            lo = read.start + len(held)
            produced.extend(range(lo, read.stop))
            return field[lo:read.stop].copy()

        levels = g.Levels(N_T, produce)
        for w in patch_windows(monkeypatch, gr, 5):
            assert levels[w.read].tobytes() == field[w.read].tobytes()
        assert produced == list(range(N_T))

    def test_slices_may_not_move_back_or_skip(self):
        levels = g.Levels(10, lambda read, held: np.zeros(
            (read.stop - read.start - len(held), 2)))
        levels[0:6]
        levels[3:9]
        for read in (slice(2, 9), slice(9, 10)):
            with pytest.raises(ValueError, match="held"):
                levels[read]


@pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
class TestStreamedStoredRun:
    """``residuals --in`` and ``noether --in`` read a stored run a window at
    a time and print the whole-grid reports."""

    def test_residuals(self, monkeypatch, capsys, stored_run, split, bc,
                       params):
        run, s1 = stored_run(section(bc).grid)
        patch_windows(monkeypatch, s1.grid, split)
        assert main(["residuals", "--in", str(run)]) == 0
        want = whole_grid_residual_report(s1, params)
        assert capsys.readouterr().out == "residuals\n" + "".join(
            f"{name.replace('residual_', 'stage1_')} {'%.17g' % value} - PASS\n"
            for name, value in want.items())

    def test_noether(self, monkeypatch, capsys, tmp_path, stored_run, split,
                     bc, params):
        run, s1 = stored_run(section(bc).grid)
        want, want_totals = whole_grid_noether_report(s1, rotation_field(s1),
                                                      params)
        patch_windows(monkeypatch, s1.grid, split)
        assert main(["noether", "--in", str(run), "--out",
                     str(tmp_path / "got")]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["totals", "written", "to",
                           str(tmp_path / "got" / "totals.csv")]
        assert rows[1] == ["noether"]
        assert {r[0]: float(r[1]) for r in rows[2:]} == want
        assert [r[0] for r in rows[2:]] == list(want)
        write_totals(tmp_path / "want", s1.grid, want_totals)
        assert ((tmp_path / "got" / "totals.csv").read_bytes()
                == (tmp_path / "want" / "totals.csv").read_bytes())

    def test_reconstruct(self, monkeypatch, tmp_path, stored_run, split, bc):
        # the gate, the sweep and the writer share one window pass
        run, s1 = stored_run(section(bc).grid)
        Lambda0 = so3.exp_so3(np.array([0.1, -0.2, 0.3]))
        Lam = red.reconstruct_rotation(s1.grid, s1.Omega, s1.omega, Lambda0,
                                       tol=10.0)
        store_fields(tmp_path / "want", s1.grid, {"Lambda": Lam})
        patch_windows(monkeypatch, s1.grid, split)
        assert main(["reconstruct", "--in", str(run), "--tol", "10",
                     "--lambda0", " ".join(map("{:.17g}".format,
                                               Lambda0.ravel())),
                     "--out", str(tmp_path / "got")]) == 0
        for name in ("Lambda.csv", "manifest.txt"):
            assert ((tmp_path / "got" / name).read_bytes()
                    == (tmp_path / "want" / name).read_bytes())


@pytest.mark.parametrize("bc, preset", [(g.PERIODIC, "twistpulse"),
                                        (g.CLAMPED, "helix")])
class TestStreamedSimulate:
    """``simulate`` marches, summarises and writes a window at a time, and
    its outputs are those of the whole run."""

    def test_outputs_are_the_whole_run(self, monkeypatch, tmp_path, capsys,
                                       split, bc, preset):
        config = simulate_config(tmp_path, section(bc).grid, preset)
        cfg = load_config(str(config))
        # one window holds the whole grid at the default window size
        assert len(list(cfg.grid.windows())) == 1
        whole = sim.run(cfg)
        want, got = tmp_path / "want", tmp_path / "got"
        store_fields(want, cfg.grid, {name: getattr(whole.section, name)
                                      for name in sim.FIELDS}, model=cfg.params)
        write_steps(want, whole.steps)
        patch_windows(monkeypatch, cfg.grid, split)
        assert main(["simulate", "--config", str(config), "--out",
                     str(got)]) == 0
        for name in ("manifest.txt", "diagnostics.csv"):
            assert (got / name).read_bytes() == (want / name).read_bytes()
        report = (got / "report.txt").read_text()
        assert report == format_report(
            "simulate", [info(k, v) for k, v in whole.summary.items()],
            report.splitlines()[1:6])
        assert capsys.readouterr().out == report

    def test_run_is_the_whole_march(self, monkeypatch, tmp_path, split, bc,
                                    preset):
        cfg = load_config(str(simulate_config(tmp_path, section(bc).grid,
                                              preset)))
        fields, rows, final = whole_march(cfg)
        windows = patch_windows(monkeypatch, cfg.grid, split)
        out = sim.run(cfg)
        for name in sim.FIELDS:
            assert getattr(out.section, name).tobytes() == fields[name].tobytes()
        assert out.steps.tobytes() == rows.tobytes()
        assert out.final_state.tobytes() == final.tobytes()
        # the sink sees each level once, in blocks no longer than a window
        blocks = []
        sim.stream(cfg, lambda levels, _: blocks.append(levels))
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(
            range(N_T))
        longest = max(w.read.stop - w.read.start for w in windows)
        assert max(b.stop - b.start for b in blocks) <= longest


class TestNoInterior:
    """At n_t = 3 and 4 no level is interior, so the masked norms are 0."""

    @pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
    @pytest.mark.parametrize("n_t", [3, 4])
    def test_residuals_preset_prints_zeros(self, capsys, n_t, bc):
        assert main(["residuals", "--preset", "twistpulse", "--n-t", str(n_t),
                     "--n-s", "8", "--bc", bc, "--duration", "0.01"]) == 0
        assert capsys.readouterr() == (
            "residuals\n"
            "stage1_vertical_l2 0 - PASS\n"
            "stage1_horizontal_rho_l2 0 - PASS\n"
            "stage1_horizontal_theta_l2 0 - PASS\n"
            "flatness_rotation_max 0 - PASS\n", "")


class TestWindowedMaxPropagatesNan:
    def test_nan_in_one_window(self, monkeypatch):
        s1 = section(g.CLAMPED)
        patch_windows(monkeypatch, s1.grid, 5)
        s1.Omega[12, 6, 1] = np.nan
        gr, Omega, omega = s1.grid, s1.Omega, s1.omega
        # d_t reaches the cell from level 11 first
        with pytest.raises(NotFlatError) as exc:
            red.reconstruct_rotation(gr, Omega, omega, np.eye(3), tol=None)
        assert str(exc.value) == ("flatness residual is not finite (nan) at "
                                  "level 11, node 6")
        # masked out, the NaN levels do not count, as with norm_max
        levels = gr.interior(2)[0]
        levels[10:15] = False
        peak = g.max_sq(*g.by_window(gr, lambda w: red.flatness_level_max(
            gr, w, Omega[w.read], omega[w.read])), levels)
        assert np.isfinite(peak.value)
        assert peak.value == g.norm_max(
            red.flatness_residual_rotation(gr, Omega, omega), levels[:, None])


class TestPeakMemory:
    """On 256 x 400 the whole-grid reports allocated 3-4 times their inputs;
    the window reports keep one window and per-level vectors."""

    @pytest.fixture(scope="class")
    def big(self):
        gr = g.Grid2.uniform(400, 256, 0.5, 1.0, g.CLAMPED)
        s1 = checks.random_smooth_section(gr, np.random.default_rng(7))
        # the four fields and one rotation field, which the Noether report
        # was once passed and now sweeps itself
        inputs = sum(a.nbytes for a in (s1.rho, s1.theta, s1.Omega, s1.omega))
        return s1, inputs + gr.n_t * gr.n_s * 9 * 8

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_noether_report(self, big, params):
        # 0.26 times the inputs while by_window stitched per-node squares
        s1, inputs = big
        peak = self.traced_peak(lambda: noether.noether_report(s1, params))
        assert peak < 0.2 * inputs

    def test_residual_report(self, big, params):
        # 0.29 times the inputs while by_window stitched per-node squares
        s1, inputs = big
        peak = self.traced_peak(lambda: residual_norms(s1, params))
        assert peak < 0.2 * inputs

    @pytest.mark.parametrize("command", ["residuals", "noether"])
    def test_stored_run_command(self, stored_run, capsys, command):
        # the whole-array reads held 1.7 (residuals) and 2.6 (noether) times
        # the stored fields, the stitched per-node squares about 0.5
        run, s1 = stored_run(g.Grid2.uniform(400, 256, 0.5, 1.0, g.CLAMPED))
        fields = sum(getattr(s1, name).nbytes
                     for name in ("rho", "theta", "Omega", "omega"))
        peak = self.traced_peak(lambda: main([command, "--in", str(run)]))
        assert capsys.readouterr().err == ""
        assert peak < 0.4 * fields

    @pytest.mark.parametrize("command", ["simulate", "residuals"])
    def test_march_command(self, tmp_path, capsys, command):
        # the whole-field march held 1.73 times the four fields it marched,
        # here 9.8 MB, and the stitched per-node squares of the summary 0.6;
        # one window and per-level vectors remain
        gr = g.Grid2.uniform(400, 256, 0.2, 1.0, g.PERIODIC)
        argv = {"simulate": ["simulate", "--config", str(simulate_config(
                    tmp_path, gr, "twistpulse")), "--out", str(tmp_path / "out")],
                "residuals": ["residuals", "--preset", "twistpulse", "--n-s",
                              "256", "--n-t", "400", "--duration", "0.2"]}
        fields = len(sim.FIELDS) * gr.n_t * gr.n_s * 3 * 8
        peak = self.traced_peak(lambda: main(argv[command]))
        assert capsys.readouterr().err == ""
        assert peak < 0.4 * fields

    def test_writer_process(self, tmp_path):
        # simulate's fields are formatted in the writer process, which
        # test_march_command does not trace; its body, run here on the
        # stream that FieldWriter.write sends for simulate's windows (8
        # levels at n_s = 256), holds one block's text, not the fields
        gr = g.Grid2.uniform(400, 256, 0.2, 1.0, g.PERIODIC)
        rng = np.random.default_rng(11)
        fields = {name: rng.normal(size=(gr.n_t, gr.n_s, 3)) for name in sim.FIELDS}
        stream = io.BytesIO()
        for lo in range(0, gr.n_t, 8):
            levels = slice(lo, lo + 8)
            pickle.dump((levels, {k: v[levels] for k, v in fields.items()}),
                        stream, pickle.HIGHEST_PROTOCOL)
        pickle.dump(None, stream)
        stream.seek(0)
        out = {}
        peak = self.traced_peak(lambda: out.update(fields_io._write_parts(
            Run(str(tmp_path), gr, {}, None), stream)))
        assert peak < 0.4 * sum(a.nbytes for a in fields.values())
        assert out == {name: hashlib.sha256((tmp_path / f"{name}.csv.part")
                                            .read_bytes()).hexdigest()
                       for name in sim.FIELDS}

    @pytest.mark.parametrize("command", ["residuals", "noether", "reconstruct"])
    def test_peak_does_not_grow_with_n_t(self, stored_run, tmp_path, capsys,
                                         command):
        # 4x the levels add less than one (n_t, n_s) array of doubles to the
        # peak: nothing a command keeps is O(n_t n_s).  At n_s = 32 and 320
        # levels each stored field file is over the 1 MB block that
        # verify_fields reads, from the run's record, before any value is
        # parsed; the preset march needs no file.
        peaks = []
        for n_t in (160, 640) if command == "residuals" else (320, 1280):
            gr = g.Grid2.uniform(n_t, 32, 0.5, 1.0, g.CLAMPED)
            if command == "residuals":
                argv = ["residuals", "--preset", "twistpulse", "--n-s", "32",
                        "--n-t", str(n_t), "--bc", g.CLAMPED]
            else:
                run, _ = stored_run(gr)
                argv = {"noether": ["noether", "--in", str(run)],
                        "reconstruct": ["reconstruct", "--in", str(run),
                                        "--tol", "10", "--out",
                                        str(tmp_path / str(n_t))]}[command]
            peaks.append(self.traced_peak(lambda: main(argv)))
        assert capsys.readouterr().err == ""
        assert abs(peaks[1] - peaks[0]) < gr.n_t * gr.n_s * 8
