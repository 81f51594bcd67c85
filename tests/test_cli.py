import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strand_reduce import checks
from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
from strand_reduce.cli import main
from strand_reduce.config import parse_config
from strand_reduce.fields_io import write_initial_slice
from strand_reduce.simulate import presets

CONFIG = """
[grid]
n_s = 32
n_t = 40
length = 1.0
duration = 0.1
bc = periodic

[inertia]
I = diag 1.8 1.4 1.1
K = diag 0.9 0.7 0.5

[potential]
C = diag 1 0.8 0.6
D = diag 0.7 0.5 0.4
kappa = 1.0
c0 = 1.0

[init]
preset = twistpulse
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return path


def read(path):
    return Path(path).read_bytes()


class TestSimulate:
    def test_writes_fields_and_report(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_file),
                     "--out", str(out)]) == 0
        for name in ("rho", "theta", "Omega", "omega"):
            assert (out / f"{name}.csv").exists()
        assert (out / "manifest.txt").exists()
        assert (out / "diagnostics.csv").exists()
        report = (out / "report.txt").read_text()
        assert "residual_vertical_l2" in report
        assert "timing" not in report
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == ["march_s", "parse_s", "summary_s", "total_s",
                                   "write_s"]
        assert all(v >= 0.0 for v in timings.values())

    def test_determinism_byte_identical(self, tmp_path, config_file):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", str(config_file), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(b)]) == 0
        for name in ("rho.csv", "theta.csv", "Omega.csv", "omega.csv",
                     "manifest.txt", "diagnostics.csv"):
            assert read(a / name) == read(b / name), name

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("kappa = 1.0", "kappa = -1"))
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_blowup_exit_code(self, tmp_path):
        # tiny inertia amplifies the stiffness beyond what the heuristic
        # step guard accounts for, so the guard passes and the march blows up
        cfg = tmp_path / "wild.cfg"
        cfg.write_text(CONFIG
                       .replace("I = diag 1.8 1.4 1.1", "I = diag 5e-4 5e-4 5e-4")
                       .replace("K = diag 0.9 0.7 0.5", "K = diag 5e-4 5e-4 5e-4")
                       .replace("kappa = 1.0", "kappa = 0")
                       .replace("n_t = 40", "n_t = 101")
                       .replace("duration = 0.1", "duration = 0.25"))
        code = main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == 5

    def test_overflow_within_one_step_exits_5(self, tmp_path):
        # level 0 is finite and far below the guard, but with I = 1e-300 the
        # first RK4 step overflows in its stages; the next level's guard must
        # report a blow-up, in one stderr line (a fresh process, so that
        # numpy's RuntimeWarnings would show on stderr)
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(CONFIG.replace("I = diag 1.8 1.4 1.1",
                                      "I = diag 1e-300 1e-300 1e-300"))
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "simulate",
                               "--config", str(cfg), "--out", str(tmp_path / "o")],
                              capture_output=True, text=True)
        assert proc.returncode == 5
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("blow-up: solution norm nan exceeded guard "
                                   "at step 1 (field ")


class TestMalformedInputs:
    """Bad configs and tampered stored runs: exit 2 and one stderr line."""

    def assert_config_exit(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        return err

    def test_infinite_length(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(CONFIG.replace("length = 1.0", "length = inf"))
        err = self.assert_config_exit(["simulate", "--config", str(cfg),
                                       "--out", str(tmp_path / "o")], capsys)
        assert "[grid]" in err

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(CONFIG.encode() + b"# \xe9\n")
        err = self.assert_config_exit(["simulate", "--config", str(cfg),
                                       "--out", str(tmp_path / "o")], capsys)
        assert "cannot read config file" in err

    def test_grid_over_memory_guard(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(CONFIG.replace("n_s = 32", "n_s = 100000")
                       .replace("n_t = 40", "n_t = 10000"))
        err = self.assert_config_exit(["simulate", "--config", str(cfg),
                                       "--out", str(tmp_path / "o")], capsys)
        assert "memory guard" in err

    def test_tampered_field_fails_checksum(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        lines = (out / "Omega.csv").read_text().splitlines(keepends=True)
        row = lines[5].rstrip("\n")
        lines[5] = row[:-1] + ("1" if row[-1] != "1" else "2") + "\n"
        (out / "Omega.csv").write_text("".join(lines))
        capsys.readouterr()
        err = self.assert_config_exit(["residuals", "--in", str(out)], capsys)
        assert "Omega.csv" in err and "sha256" in err

    def test_truncated_field_names_row_counts(self, tmp_path, config_file,
                                              capsys):
        # the manifest is rewritten to match, so the row count is what fails
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        rewrite_rehashed(out, "Omega.csv", lambda lines: lines[:-7])
        capsys.readouterr()
        err = self.assert_config_exit(["residuals", "--in", str(out)], capsys)
        assert "Omega.csv" in err
        assert f"has {32 * 40 - 7} rows, expected {32 * 40}" in err

    def test_header_only_field_csv(self, tmp_path, config_file):
        # a fresh process, so that numpy's "input contained no data" warning
        # would reach stderr instead of pytest's warning capture
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["simulate", "--config", str(config_file), "--out", str(out)])
        rewrite_rehashed(out, "rho.csv", lambda lines: lines[:1])
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "residuals",
                               "--in", str(out)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "rho.csv has 0 rows" in proc.stderr

    @pytest.mark.parametrize("body", ["0,x\n", "", None])
    def test_unreadable_init_csv(self, tmp_path, capsys, body):
        init = tmp_path / "init_bad.csv"
        if body is None:
            init.mkdir()
        else:
            init.write_text("s_index,rho1\n" + body)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace("preset = twistpulse", "file = init_bad.csv"))
        err = self.assert_config_exit(["simulate", "--config", str(cfg),
                                       "--out", str(tmp_path / "o")], capsys)
        assert "init_bad.csv" in err and "[init.file]" in err


    def test_missing_field_file(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        (out / "theta.csv").unlink()
        capsys.readouterr()
        err = self.assert_config_exit(["residuals", "--in", str(out)], capsys)
        assert "theta.csv" in err

    def test_manifest_without_model_line(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        manifest = out / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        assert lines[-1].startswith("model ")
        manifest.write_text("".join(lines[:-1]))
        capsys.readouterr()
        for command in ("residuals", "noether"):
            err = self.assert_config_exit([command, "--in", str(out)], capsys)
            assert "model line" in err
        # reconstruct does not need the model
        assert main(["reconstruct", "--in", str(out), "--tol", "0.1",
                     "--out", str(tmp_path / "rec")]) == 0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_run")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG.replace("n_s = 32", "n_s = 8").replace("n_t = 40", "n_t = 10"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(cfg), "--out", str(root / "out")]) == 0
    return root / "out"


def rewrite_rehashed(run, fname, edit):
    """Replace a field file's lines by ``edit(lines)`` and re-hash the manifest."""
    path = run / fname
    old = hashlib.sha256(path.read_bytes()).hexdigest()
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    manifest = run / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(
        old, hashlib.sha256(path.read_bytes()).hexdigest()))


def mutate_run(run, action, line_i, token_i, text, keep_key):
    """Apply one edit to a stored run: a manifest token, a kind or a file."""
    manifest = run / "manifest.txt"
    lines = [line.split() for line in manifest.read_text().splitlines()]
    if action == "delete_file":
        (run / ("Omega.csv", "omega.csv", "rho.csv", "theta.csv")[line_i % 4]).unlink()
        return
    if action == "kind":
        fields = [parts for parts in lines if parts[0] == "field"]
        parts = fields[line_i % len(fields)]
        parts[3] = "kind=" + ("scalar", "vec3", "rot3", "tensor")[token_i % 4]
    else:
        parts = lines[line_i % len(lines)]
        j = token_i % len(parts)
        if action == "drop":
            del parts[j]
        elif action == "duplicate":
            parts.insert(j, parts[j])
        else:
            key = parts[j].split("=", 1)[0] + "=" if keep_key and "=" in parts[j] else ""
            parts[j] = key + text
    manifest.write_text("".join(" ".join(parts) + "\n" for parts in lines))


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A tiny config whose initial state comes from ``init.csv``."""
    root = tmp_path_factory.mktemp("small_inputs")
    text = (CONFIG.replace("n_s = 32", "n_s = 8").replace("n_t = 40", "n_t = 10")
            .replace("preset = twistpulse", "file = init.csv"))
    (root / "run.cfg").write_text(text)
    cfg = parse_config(text.replace("file = init.csv", "preset = twistpulse"))
    write_initial_slice(root / "init.csv", presets("twistpulse", cfg.grid, cfg.params))
    return root


def mutate_tokens(path, sep, action, line_i, token_i, text):
    """Drop, duplicate or garble one ``sep``-separated token of a text file."""
    lines = [line.split(sep) for line in path.read_text().splitlines()
             if line.strip()]
    parts = lines[line_i % len(lines)]
    j = token_i % len(parts)
    if action == "drop":
        del parts[j]
    elif action == "duplicate":
        parts.insert(j, parts[j])
    else:
        parts[j] = text
    path.write_text("".join((sep or " ").join(parts) + "\n" for parts in lines))


class TestExitCodeContract:
    """Whatever one edit does to a stored run, the CLI keeps its exit codes."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(action=st.sampled_from(["drop", "duplicate", "garble", "delete_file",
                                   "kind"]),
           line_i=st.integers(0, 1000), token_i=st.integers(0, 1000),
           text=st.text(alphabet="0123456789.-+=,eainfx/", max_size=8),
           keep_key=st.booleans())
    def test_mutated_stored_run(self, small_run, action, line_i, token_i, text,
                                keep_key):
        with tempfile.TemporaryDirectory() as tmp:
            run = Path(tmp) / "run"
            shutil.copytree(small_run, run)
            mutate_run(run, action, line_i, token_i, text, keep_key)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["residuals", "--in", str(run)])
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()

    # Garbles are at most 3 characters, so a mutated grid stays small: n_t
    # tops out at 999 and a larger n_s fails the step guard or the init shape.
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(target=st.sampled_from(["config", "init"]),
           action=st.sampled_from(["drop", "duplicate", "garble"]),
           line_i=st.integers(0, 1000), token_i=st.integers(0, 1000),
           text=st.text(alphabet="0123456789.-+=,eainfx/", max_size=3))
    def test_mutated_config_and_init_csv(self, small_inputs, target, action,
                                         line_i, token_i, text):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name in ("run.cfg", "init.csv"):
                shutil.copy(small_inputs / name, root / name)
            mutate_tokens(root / ("run.cfg" if target == "config" else "init.csv"),
                          None if target == "config" else ",",
                          action, line_i, token_i, text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["simulate", "--config", str(root / "run.cfg"),
                             "--out", str(root / "out")])
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()


def report_values(text):
    return {parts[0]: float(parts[1]) for parts in map(str.split, text.splitlines())
            if len(parts) == 4 and parts[3] in ("PASS", "FAIL")}


class TestStoredModel:
    def test_stored_run_evaluated_with_its_own_model(self, tmp_path, capsys):
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(CONFIG.replace("kappa = 1.0", "kappa = 2.0")
                       .replace("C = diag 1 0.8 0.6", "C = diag 2.5 2 1.5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        want = report_values(capsys.readouterr().out)["residual_vertical_l2"]
        assert main(["residuals", "--in", str(out)]) == 0
        got = report_values(capsys.readouterr().out)["stage1_vertical_l2"]
        assert abs(got - want) <= 1e-12 * want


class TestResiduals:
    def test_static_preset_norms_tiny(self, capsys):
        assert main(["residuals", "--preset", "static", "--n-s", "16",
                     "--n-t", "12", "--duration", "0.05"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            assert float(line.split()[1]) <= 1e-12, line

    def test_reads_stored_run(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["residuals", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "stage1_vertical_l2" in text and "stage2_vertical_l2" in text


class TestReconstruct:
    def test_reconstructs_lambda(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        code = main(["reconstruct", "--in", str(out), "--tol", "0.1",
                     "--out", str(tmp_path / "rec")])
        assert code == 0
        assert (tmp_path / "rec" / "Lambda.csv").exists()

    def test_in_place_keeps_manifest(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["residuals", "--in", str(out)]) == 0
        before = capsys.readouterr().out
        assert main(["reconstruct", "--in", str(out), "--tol", "1e-2"]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert [ln.split()[1] for ln in lines if ln.startswith("field ")] == [
            "name=Lambda", "name=Omega", "name=omega", "name=rho", "name=theta"]
        assert lines[-1].startswith("model ")
        capsys.readouterr()
        assert main(["residuals", "--in", str(out)]) == 0
        assert capsys.readouterr().out == before

    def test_not_flat_exit_code(self, tmp_path, capsys):
        from strand_reduce.fields_io import write_fields
        from tests.conftest import small_grid
        gr = small_grid(n_t=8, n_s=8)
        W = np.broadcast_to([1.0, 0, 0], (8, 8, 3)).copy()
        w = np.broadcast_to([0, 1.0, 0], (8, 8, 3)).copy()
        write_fields(tmp_path, gr, {"Omega": W, "omega": w})
        assert main(["reconstruct", "--in", str(tmp_path), "--tol", "1e-3"]) == 3

    def test_bad_lambda0(self, tmp_path, config_file):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["reconstruct", "--in", str(out), "--tol", "0.1",
                     "--lambda0", "1 0 0"]) == 2


class TestNoether:
    def test_report(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["noether", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rotor_total_drift" in text
        assert "rotor_divergence_interior_l2" in text
        assert "current_vertical_identity_max_err" in text

    def test_totals_csv(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["noether", "--in", str(out), "--out",
                     str(tmp_path / "tot")]) == 0
        lines = (tmp_path / "tot" / "totals.csv").read_text().splitlines()
        assert lines[0].startswith("t_index,t,rotor_1")
        assert len(lines) == 1 + 40  # one row per time level

    def test_printed_so3_drift_is_that_of_totals_csv(self, tmp_path,
                                                      config_file, capsys):
        # periodic twist pulse: the report and the file both integrate over
        # the whole loop
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["noether", "--in", str(out), "--out",
                     str(tmp_path / "tot")]) == 0
        printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("so3_total_drift ")]
        rows = (tmp_path / "tot" / "totals.csv").read_text().splitlines()[1:]
        so3 = np.array([[float(x) for x in row.split(",")[5:8]] for row in rows])
        drift = np.max(np.linalg.norm(so3 - so3[0], axis=-1))
        assert printed == ["%.17g" % drift]

    def test_out_builds_the_derivative_bundle_once(self, tmp_path, config_file,
                                                   monkeypatch):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        calls = []
        build = rs.stage1_derivative_fields
        monkeypatch.setattr(rs, "stage1_derivative_fields",
                            lambda *args: calls.append(args) or build(*args))
        assert main(["noether", "--in", str(out), "--out",
                     str(tmp_path / "tot")]) == 0
        assert len(calls) == 1


class TestCheckAndConvergence:
    def test_check_exit_codes(self, capsys):
        assert main(["check", "stages"]) == 0

    def test_failed_check_exits_4(self, capsys):
        # deliberately preasymptotic ladder: observed orders fall out of band
        assert main(["convergence", "--levels", "2", "--base-n-s", "8",
                     "--base-n-t", "11", "--duration", "0.05"]) == 4

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["residuals", "--preset", "vortex", "--n-s", "8",
                     "--n-t", "8", "--duration", "0.01"]) == 2

    def test_convergence_small(self, capsys):
        assert main(["convergence", "--levels", "2", "--base-n-s", "32",
                     "--base-n-t", "41", "--duration", "0.2"]) == 0
        text = capsys.readouterr().out
        assert "order_vertical" in text

    @staticmethod
    def _ladder(monkeypatch, **kwargs):
        """``convergence_table`` output and the run of each level."""
        outs = []
        real_run = checks.run
        monkeypatch.setattr(checks, "run",
                            lambda cfg: outs.append(real_run(cfg)) or outs[-1])
        rows, results = checks.convergence_table(**kwargs)
        return rows, results, outs

    def test_clamped_ladder_nests(self, monkeypatch):
        rows, _, outs = self._ladder(monkeypatch, levels=3, base_n_s=9,
                                     base_n_t=11, duration=0.05, bc=g.CLAMPED)
        grids = [out.section.grid for out in outs]
        for coarse, fine in zip(grids, grids[1:]):
            assert fine.ds == coarse.ds / 2 and fine.dt == coarse.dt / 2
            assert fine.n_s == 2 * (coarse.n_s - 1) + 1
            assert fine.n_t == 2 * (coarse.n_t - 1) + 1
        assert [row["n_s"] for row in rows] == [9, 17, 33]

    @pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
    def test_ladder_norms_are_the_run_summary(self, monkeypatch, bc):
        rows, results, outs = self._ladder(monkeypatch, levels=2, base_n_s=16,
                                           base_n_t=21, duration=0.05, bc=bc)
        params = model.default_params()
        for row, out in zip(rows, outs):
            sec = out.section
            want = rs.stage1_residuals(sec, params).interior_norms()
            want["flatness"] = g.norm_max(red.flatness_residual_rotation(sec),
                                          sec.grid.interior_mask(2))
            assert row == {"n_s": sec.grid.n_s, "n_t": sec.grid.n_t, **want}
        if bc == g.PERIODIC:
            # periodic levels keep n_s = base 2^k and the fit h = length / n_s,
            # bit for bit
            assert [out.section.grid for out in outs] == [
                g.Grid2(n_t=20 * 2 ** k + 1, n_s=16 * 2 ** k,
                        dt=0.05 / (20 * 2 ** k), ds=1.0 / (16 * 2 ** k))
                for k in range(2)]
            hs = [1.0 / row["n_s"] for row in rows]
            assert [r.value for r in results] == [
                checks._ls_order(hs, [row[key] for row in rows]) for key in
                ("vertical", "horizontal_rho", "horizontal_theta", "flatness")]


class TestModuleEntry:
    def test_python_m_help(self):
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_console_usage_error_is_2(self):
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "frob"],
                              capture_output=True, text=True)
        assert proc.returncode == 2

    def test_thread_cap_env(self, tmp_path):
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")}
        env["STRAND_THREADS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import strand_reduce, os; print(os.environ['OMP_NUM_THREADS'])"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"
