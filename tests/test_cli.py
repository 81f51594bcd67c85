import ast
import contextlib
import errno
import inspect
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strand_reduce import checks
from strand_reduce import cli
from strand_reduce import fields_io
from strand_reduce import grid as g
from strand_reduce import model
from strand_reduce import reduction as red
from strand_reduce import residuals as rs
from strand_reduce import simulate as sim
from strand_reduce.cli import main
from strand_reduce.config import parse_config
from strand_reduce.fields_io import read_run
from strand_reduce.simulate import presets
from tests.conftest import (load_fields, rewrite_field, small_grid,
                            store_fields, write_init_file)
from tests.test_golden import README_CONFIG
from tests.test_windows import patch_windows

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

    def test_report_is_the_same_from_any_directory(self, tmp_path, capsys,
                                                   monkeypatch):
        # the report names the config by its file name, not the path typed
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "run.cfg").write_text(CONFIG)
        assert main(["simulate", "--config", str(tmp_path / "a" / "run.cfg"),
                     "--out", str(tmp_path / "out_a")]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", os.path.join("b", "run.cfg"),
                     "--out", "out_b"]) == 0
        assert read(tmp_path / "out_a" / "report.txt") == \
            read(tmp_path / "out_b" / "report.txt")

    @pytest.mark.parametrize("init, start", [
        ("file = init.csv", "init=file"),
        ("preset = twistpulse", "preset=twistpulse")], ids=["file", "preset"])
    def test_report_names_the_initial_state(self, small_inputs, tmp_path,
                                            capsys, init, start):
        shutil.copy(small_inputs / "init.csv", tmp_path / "init.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text((small_inputs / "run.cfg").read_text()
                       .replace("file = init.csv", init))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"\nscheme rk4 {start}\n" in (out / "report.txt").read_text()

    def test_init_file_run_equals_its_preset_run(self, small_inputs,
                                                 tmp_path, capsys):
        # small_inputs' init.csv is the twist pulse written out, and %.17g
        # reads back exactly: the march from the file is the preset's, to
        # the bytes of every field CSV, which the manifest hashes
        shutil.copy(small_inputs / "init.csv", tmp_path / "init.csv")
        text = (small_inputs / "run.cfg").read_text()
        manifests = []
        for name, init in (("file", "file = init.csv"),
                           ("preset", "preset = twistpulse")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text.replace("file = init.csv", init))
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
            manifests.append((out / "manifest.txt").read_bytes())
        assert manifests[0] == manifests[1]

    def test_timings_are_sums_over_the_windows(self, monkeypatch, tmp_path,
                                               config_file, capsys):
        # march and summary take turns window by window, and write_s is the
        # hand-over to the writer process and the wait for it; each phase's
        # sum is positive and together they fit in the total
        patch_windows(monkeypatch, small_grid(n_t=40, n_s=32), 5)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_file),
                     "--out", str(out)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        phases = [timings[k] for k in ("march_s", "summary_s", "write_s")]
        assert all(v > 0.0 for v in phases)
        assert sum(phases) <= timings["total_s"]

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

    def test_blowup_leaves_out_as_it_found_it(self, monkeypatch, tmp_path,
                                              config_file, capsys):
        # the fields are written as the march goes; a blow-up in a later
        # window removes them and keeps every file of the run already there
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_file),
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = tmp_path / "wild.cfg"
        cfg.write_text(CONFIG
                       .replace("I = diag 1.8 1.4 1.1", "I = diag 5e-4 5e-4 5e-4")
                       .replace("K = diag 0.9 0.7 0.5", "K = diag 5e-4 5e-4 5e-4")
                       .replace("kappa = 1.0", "kappa = 0"))
        patch_windows(monkeypatch, small_grid(n_t=40, n_s=32), 4)
        blocks = []
        write = cli.FieldWriter.write
        monkeypatch.setattr(cli.FieldWriter, "write", lambda self, levels, b:
                            blocks.append(levels) or write(self, levels, b))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 5
        assert blocks, "the blow-up came before any level was written"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("blow-up: ")
        assert_no_child_left()
        # a new --out is not left behind either
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "new")]) == 5
        assert not (tmp_path / "new").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("old, new, message", [
        ("name = rk4", "name = midpoint",
         "scheme must be 'rk4', not 'midpoint' [scheme.name] (line 22)"),
        ("preset = twistpulse", "preset = vortex",
         "unknown preset 'vortex' [init.preset] (line 19)"),
        ("bc = periodic", "bc = free",
         "bc must be 'periodic' or 'clamped' [grid.bc] (line 6)")],
        ids=["midpoint", "preset", "bc"])
    def test_config_fault_exits_2_before_any_output(self, tmp_path, capsys,
                                                     old, new, message):
        # the README config; RK4 is the march's only scheme
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(README_CONFIG.format(bc="periodic", preset="twistpulse",
                                            scheme="rk4").replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        "residuals --preset twistpulse --n-t 2 --n-s 8",
        "residuals --preset twistpulse --n-t 1 --n-s 8",
        "residuals --preset twistpulse --length 0",
        "convergence --base-n-s 2",
        "convergence --levels 0",
        "convergence --levels 1",
        "reconstruct --in RUN --tol 0.1 --lambda0 abc --out OUT",
        "reconstruct --in RUN --tol nan --out OUT",
        "reconstruct --in RUN --tol inf --out OUT",
        "noether --in RUN --tol nan",
        "noether --in RUN --tol -1",
    ])
    def test_bad_numeric_option(self, argv, small_run, tmp_path, capsys):
        words = {"RUN": str(small_run), "OUT": str(tmp_path)}
        self.assert_config_exit([words.get(w, w) for w in argv.split()], capsys)

    def test_one_message_for_too_few_levels(self, capsys):
        errs = []
        for n_t in ("1", "2"):
            assert main(["residuals", "--preset", "twistpulse", "--n-t", n_t,
                         "--n-s", "8"]) == 2
            errs.append(capsys.readouterr().err)
        assert errs == ["config error: grids need at least 3 nodes per "
                        "direction [--n-t]\n"] * 2

    def test_infinite_length(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(CONFIG.replace("length = 1.0", "length = inf"))
        err = self.assert_config_exit(["simulate", "--config", str(cfg),
                                       "--out", str(tmp_path / "o")], capsys)
        line = CONFIG.splitlines().index("length = 1.0") + 1
        assert err == (f"config error: must be finite [grid.length] "
                       f"(line {line})\n")

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(CONFIG.encode() + b"# \xe9\n")
        err = self.assert_config_exit(["simulate", "--config", str(cfg),
                                       "--out", str(tmp_path / "o")], capsys)
        assert "cannot read config file" in err

    def test_config_byte_not_utf8_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(CONFIG.replace("[inertia]", "[inertia]  # caf\xff")
                        .encode("latin-1"))
        err = self.assert_config_exit(["simulate", "--config", str(cfg),
                                       "--out", str(tmp_path / "o")], capsys)
        line = CONFIG.splitlines().index("[inertia]") + 1
        assert err == (f"config error: cannot read config file {cfg}: byte "
                       f"0xff is not UTF-8 (line {line})\n")

    def test_config_utf8_comment_accepted(self, tmp_path):
        cfg = tmp_path / "utf8.cfg"
        cfg.write_text(CONFIG.replace("[inertia]", "[inertia]  # café"),
                       encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / "o")]) == 0

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
        rewrite_field(out, "Omega.csv", lambda lines: lines[:-7])
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
        rewrite_field(out, "rho.csv", lambda lines: lines[:1])
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

    def init_cell_error(self, small_inputs, tmp_path, capsys, value, gap):
        """The init file of ``small_inputs`` with cell u2 of node 3 (file
        line 5) set to ``value``, after the lines ``gap``: its path and the
        error ``simulate`` prints for it."""
        for name in ("run.cfg", "init.csv"):
            shutil.copy(small_inputs / name, tmp_path / name)
        init = tmp_path / "init.csv"
        lines = init.read_text().splitlines(keepends=True)
        row = lines[4].split(",")
        assert lines[0].split(",")[5] == "u2" and row[0] == "3"
        row[5] = value
        lines[4] = gap + ",".join(row)
        init.write_text("".join(lines))
        return init, self.assert_config_exit(
            ["simulate", "--config", str(tmp_path / "run.cfg"), "--out",
             str(tmp_path / "o")], capsys)

    @pytest.mark.parametrize("value, gap", [("nan", ""), ("inf", ""),
                                            ("nan", "# note\n\n")])
    def test_nonfinite_init_cell(self, small_inputs, tmp_path, capsys, value,
                                 gap):
        # before the march, so that it is not reported as a blow-up at step 0;
        # blank and comment lines among the rows do not shift the line named
        init, err = self.init_cell_error(small_inputs, tmp_path, capsys, value,
                                         gap)
        assert err == (f"config error: initial state file {init} line "
                       f"{5 + gap.count(chr(10))}: u2 is {value} [init.file]\n")

    @pytest.mark.parametrize("gap", ["", "# note\n\n"])
    def test_malformed_init_cell_names_its_line(self, small_inputs, tmp_path,
                                                capsys, gap):
        # the file line, not numpy's row among the data rows, also for a
        # row that parses alone but has one cell too many
        for value, says in (("abc", "'abc'"),
                            ("0,0", "23 cells, where the header has 22")):
            init, err = self.init_cell_error(small_inputs, tmp_path, capsys,
                                             value, gap)
            head = (f"config error: initial state file {init} line "
                    f"{5 + gap.count(chr(10))}: ")
            assert err.startswith(head) and err.endswith(" [init.file]\n")
            assert says in err and " row " not in err

    def init_with_line(self, small_inputs, tmp_path, text):
        """Copies of ``small_inputs``' files with the bytes ``text`` as file
        line 3 of init.csv, and the ``simulate`` command line for them."""
        for name in ("run.cfg", "init.csv"):
            shutil.copy(small_inputs / name, tmp_path / name)
        init = tmp_path / "init.csv"
        lines = init.read_bytes().splitlines(keepends=True)
        init.write_bytes(b"".join(lines[:2] + [text] + lines[2:]))
        return init, ["simulate", "--config", str(tmp_path / "run.cfg"),
                      "--out", str(tmp_path / "o")]

    def test_init_comment_not_utf8_names_its_line(self, small_inputs,
                                                  tmp_path, capsys):
        # numpy's codec error names a position in a block, not a line
        init, argv = self.init_with_line(small_inputs, tmp_path,
                                         b"# caf\xff note\n")
        assert self.assert_config_exit(argv, capsys) == (
            f"config error: initial state file {init} line 3: byte 0xff is "
            "not ASCII [init.file]\n")

    def test_init_utf8_comment_before_a_bad_cell(self, small_inputs, tmp_path,
                                                 capsys):
        # numpy's parse reads the comment: the line it cannot use is named
        init, argv = self.init_with_line(small_inputs, tmp_path,
                                         "# café\n".encode())
        lines = init.read_bytes().splitlines(keepends=True)
        lines[5] = b"x," + lines[5].split(b",", 1)[1]      # file line 6
        init.write_bytes(b"".join(lines))
        err = self.assert_config_exit(argv, capsys)
        assert err.startswith(f"config error: initial state file {init} "
                              "line 6: ") and "'x'" in err, err

    def test_init_comment_names_the_byte_not_utf8(self, small_inputs,
                                                  tmp_path, capsys):
        # not the UTF-8 bytes before it, which the parse would read
        init, argv = self.init_with_line(small_inputs, tmp_path,
                                         "# café ".encode() + b"\xff\n")
        assert self.assert_config_exit(argv, capsys) == (
            f"config error: initial state file {init} line 3: byte 0xff is "
            "not ASCII [init.file]\n")

    def test_init_utf8_comment_accepted(self, small_inputs, tmp_path):
        _, argv = self.init_with_line(small_inputs, tmp_path,
                                      "# café\n".encode())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    @pytest.mark.parametrize("command, name, shape", [
        ("residuals", "rho", (3, 3)), ("noether", "rho", (3, 3)),
        ("reconstruct", "Omega", (3, 3))])
    def test_section_field_of_another_kind(self, small_run, tmp_path, capsys,
                                           command, name, shape):
        # the hashes are valid, so only the manifest's kind can tell
        gr, fields = load_fields(small_run, sim.FIELDS)
        fields[name] = np.ones((gr.n_t, gr.n_s) + shape)
        run = tmp_path / "run"
        store_fields(run, gr, fields, model=read_run(small_run).model)
        argv = [command, "--in", str(run)]
        if command == "reconstruct":
            argv += ["--tol", "0.1", "--out", str(tmp_path / "rec")]
        err = self.assert_config_exit(argv, capsys)
        assert err == (f"config error: {run / (name + '.csv')}: kind=rot3 "
                       f"in manifest.txt, but field '{name}' is vec3\n")

    def test_missing_field_file(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        (out / "theta.csv").unlink()
        capsys.readouterr()
        err = self.assert_config_exit(["residuals", "--in", str(out)], capsys)
        assert "theta.csv" in err

    @pytest.mark.parametrize("deleted", [(), ("theta.csv",)],
                             ids=["fields_intact", "theta_deleted"])
    def test_manifest_without_model_line(self, tmp_path, config_file, capsys,
                                         deleted):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        manifest = out / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        assert lines[-1].startswith("model ")
        manifest.write_text("".join(lines[:-1]))
        for name in deleted:
            (out / name).unlink()
        capsys.readouterr()
        # the model is checked before any field is verified, so the model
        # line is named even when a field file is gone too
        for command in ("residuals", "noether"):
            err = self.assert_config_exit([command, "--in", str(out)], capsys)
            assert err == (f"config error: manifest in {out} has no model "
                           "line; the run's model is unknown (rerun simulate)\n")
        # reconstruct does not need the model, nor theta
        assert main(["reconstruct", "--in", str(out), "--tol", "0.1",
                     "--out", str(tmp_path / "rec")]) == 0
        # another run as --out is refused before the input is read: this
        # input has no manifest at all
        err = self.assert_config_exit(
            ["reconstruct", "--in", str(tmp_path / "none"), "--tol", "0.1",
             "--out", str(out)], capsys)
        assert err == (f"config error: {out / 'manifest.txt'} lists the fields "
                       "['Omega', 'omega', 'rho', 'theta'] of another run; not "
                       "overwriting it\n")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_run")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG.replace("n_s = 32", "n_s = 8").replace("n_t = 40", "n_t = 10"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(cfg), "--out", str(root / "out")]) == 0
    return root / "out"


def nonfinite_run(tmp_path, config_file, value):
    """A stored run of ``config_file`` with ``value`` in one Omega.csv cell."""
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["simulate", "--config", str(config_file), "--out", str(out)])
    set_cell(out, "Omega.csv", 20, 9, 1, value)
    return out


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
    write_init_file(root / "init.csv", presets("twistpulse", cfg.grid, cfg.params))
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


class TestOutIsAFile:
    """An ``--out`` that names an existing file is an io error, exit 1, and
    the file is left as it was."""

    @pytest.mark.parametrize("command", ["simulate", "noether", "reconstruct"])
    def test_exit_1(self, tmp_path, small_run, config_file, capsys, command):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        argv = {"simulate": ["simulate", "--config", str(config_file)],
                "noether": ["noether", "--in", str(small_run)],
                "reconstruct": ["reconstruct", "--in", str(small_run),
                                "--tol", "1"]}[command]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"io error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "kept\n"


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def snapshot(directory):
    """``{path: bytes}`` of a directory's files, None for its directories."""
    return {p.relative_to(directory): None if p.is_dir() else p.read_bytes()
            for p in directory.rglob("*")}


class TestWriterProcess:
    """The field CSVs are formatted by a forked writer process: no command
    leaves it behind, and its failures keep the exit-code contract."""

    def test_no_child_after_simulate(self, tmp_path, config_file, capsys):
        assert main(["simulate", "--config", str(config_file),
                     "--out", str(tmp_path / "out")]) == 0
        assert_no_child_left()

    @pytest.mark.parametrize("command, part", [("simulate", "theta.csv.part"),
                                               ("reconstruct", "Lambda.csv.part")])
    def test_failed_write_exits_1(self, tmp_path, small_run, config_file,
                                  capsys, command, part):
        # a directory where the writer process opens a field's temporary
        # file: its OSError reaches main as one io error line, after the
        # march, and --out, another run, keeps what it held
        out = tmp_path / "out"
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG.replace("duration = 0.1", "duration = 0.05"))
        argv = {"simulate": ["simulate", "--config", str(config_file)],
                "reconstruct": ["reconstruct", "--in", str(small_run),
                                "--tol", "1"]}[command] + ["--out", str(out)]
        assert main(["simulate", "--config", str(other), "--out", str(out)]
                    if command == "simulate" else argv) == 0
        (out / part).mkdir()
        before = snapshot(out)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"io error: [Errno 21] Is a directory: '{out / part}'\n")
        assert snapshot(out) == before
        assert_no_child_left()

    def test_writer_ends_when_its_caller_dies(self, tmp_path):
        # a caller killed while the writer holds a temporary file: the pipe
        # closes, and the writer reads the end of its stream, removes the
        # file and exits
        script = (
            "import os, time\n"
            "import numpy as np\n"
            "from strand_reduce import grid as g\n"
            "from strand_reduce.fields_io import FieldWriter, Run\n"
            "gr = g.Grid2.uniform(5, 7, 0.5, 1.0, g.PERIODIC)\n"
            f"with FieldWriter(Run({str(tmp_path)!r}, gr, {{}}, None)) as out:\n"
            "    out.write(slice(0, 2), {'rho': np.zeros((2, 7, 3))})\n"
            f"    while not os.path.exists({str(tmp_path / 'rho.csv.part')!r}):\n"
            "        time.sleep(0.01)\n"
            "    os.kill(os.getpid(), 9)\n")
        proc = subprocess.run([sys.executable, "-c", script], timeout=60)
        assert proc.returncode == -9
        for _ in range(1000):
            if not (tmp_path / "rho.csv.part").exists():
                break
            time.sleep(0.01)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("held", [True, False])
    @pytest.mark.parametrize("stop", [2, 40])
    def test_killed_writer_leaves_out_as_found(self, tmp_path, config_file,
                                               capsys, held, stop):
        # a writer process killed once it has made a temporary file, so it
        # cannot remove it, with levels still to send (stop 2: the caller's
        # next block breaks the pipe) or only the end of its stream (stop
        # 40: the end does): the caller removes the file and raises an
        # OSError (exit 1 in main); --out keeps what it held, a new one goes
        out = tmp_path / "out"
        if held:
            assert main(["simulate", "--config", str(config_file),
                         "--out", str(out)]) == 0
        before = snapshot(out) if held else None
        gr = small_grid(n_t=40, n_s=32)
        with pytest.raises(ChildProcessError, match="without a reply"):
            with fields_io.FieldWriter(fields_io.Run(str(out), gr, {},
                                                     None)) as fields:
                fields.write(slice(0, stop), {"rho": np.zeros((stop, gr.n_s, 3))})
                for _ in range(1000):
                    if (out / "rho.csv.part").exists():
                        break
                    time.sleep(0.01)
                os.kill(fields._pid, signal.SIGKILL)
                os.waitid(os.P_PID, fields._pid, os.WEXITED | os.WNOWAIT)
                if stop < gr.n_t:
                    fields.write(slice(stop, gr.n_t),
                                 {"rho": np.zeros((gr.n_t - stop, gr.n_s, 3))})
        assert (snapshot(out) == before) if held else not out.exists()
        assert_no_child_left()

    def test_fork_warning_of_a_threaded_caller(self, monkeypatch, tmp_path):
        # Python 3.12+ warns in the caller, after the fork, when it has
        # threads; the writer must not turn that warning into an error
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is "
                              "multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        gr = small_grid(n_t=4, n_s=5)
        store_fields(str(tmp_path / "run"), gr, {"rho": np.ones((4, 5, 3))})
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "manifest.txt", "rho.csv"]
        assert_no_child_left()

    def test_failed_fork(self, monkeypatch, tmp_path):
        # no writer process: the error reaches the caller, the pipes are
        # closed and a new directory is removed
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        fds = len(os.listdir("/dev/fd"))
        with pytest.raises(BlockingIOError):
            store_fields(str(tmp_path / "run"), small_grid(n_t=4, n_s=5),
                         {"rho": np.ones((4, 5, 3))})
        assert len(os.listdir("/dev/fd")) == fds
        assert list(tmp_path.iterdir()) == []


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


class TestManifestParses:
    """Each stored-run command parses each run directory's manifest once."""

    def parses(self, monkeypatch, argv):
        """``{directory: count}`` of the manifests ``fields_io`` opened to
        read while ``main(argv)`` ran: a count of parses whichever function
        makes them."""
        seen = []

        def counting_open(path, mode="r", *args, **kwargs):
            if os.path.basename(path) == "manifest.txt" and "r" in mode:
                seen.append(os.path.dirname(path))
            return open(path, mode, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(fields_io, "open", counting_open, raising=False)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        return {path: seen.count(path) for path in seen}

    @pytest.mark.parametrize("command, parsed", [
        ("residuals --in RUN", "RUN"), ("noether --in RUN", "RUN"),
        ("reconstruct --in RUN --tol 1", "RUN"),
        ("reconstruct --in RUN --tol 1 --out NEW", "RUN"),
        ("reconstruct --in RUN --tol 1 --out OLD", "OLD RUN")],
        ids=["residuals", "noether", "in_place", "new_out", "earlier_out"])
    def test_one_parse_per_directory(self, small_run, tmp_path, monkeypatch,
                                     command, parsed):
        shutil.copytree(small_run, tmp_path / "RUN")
        argv = [str(tmp_path / w) if w.isupper() else w for w in command.split()]
        if "OLD" in command:    # an earlier reconstruct --out made OLD
            self.parses(monkeypatch, argv)
        assert self.parses(monkeypatch, argv) == {
            str(tmp_path / name): 1 for name in parsed.split()}


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
        capsys.readouterr()
        assert main(["residuals", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "stage2_" not in text
        stored = report_values((out / "report.txt").read_text())
        got = report_values(text)
        assert list(got) == [f"stage1_{name}_l2" for name in (
            "vertical", "horizontal_rho", "horizontal_theta")] + [
            "flatness_rotation_max"]
        for name, value in got.items():
            assert value == stored[name.replace("stage1_", "residual_")]

    def test_preset_evaluates_residuals_once(self, monkeypatch, capsys):
        # the summary run() computed is what residuals --preset prints; each
        # window evaluates the residuals on the levels it owns
        monkeypatch.setattr(g, "WINDOW_NODES", 8 * 16)
        calls = []
        evaluate = rs.stage2_residuals

        def counted(s, p):
            res = evaluate(s, p)
            calls.append(len(res.vertical))
            return res

        monkeypatch.setattr(rs, "stage2_residuals", counted)
        assert main(["residuals", "--preset", "twistpulse", "--n-s", "16",
                     "--n-t", "40", "--duration", "0.1"]) == 0
        windows = list(g.Grid2.uniform(40, 16, 0.1, 1.0, g.PERIODIC).windows())
        assert calls == [w.own.stop - w.own.start for w in windows]
        assert len(calls) == 5

    def test_damaged_end_node_shows(self, tmp_path, capsys):
        # a clamped strand's end nodes are read like any other node
        cfg = tmp_path / "clamped.cfg"
        cfg.write_text(CONFIG.replace("n_s = 32", "n_s = 16")
                       .replace("bc = periodic", "bc = clamped"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["residuals", "--in", str(out)]) == 0
        clean = capsys.readouterr().out
        set_cell(out, "Omega.csv", 20, 0, 1, "1000")
        # no verdict yet: every row still passes when finite
        assert main(["residuals", "--in", str(out)]) == 0
        damaged = capsys.readouterr().out
        assert damaged != clean
        got, was = report_values(damaged), report_values(clean)
        for name in ("stage1_vertical_l2", "flatness_rotation_max"):
            assert got[name] > 1e3 * was[name]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_cell_exits_4(self, tmp_path, config_file, value):
        # a fresh process, so that a numpy RuntimeWarning would reach stderr
        out = nonfinite_run(tmp_path, config_file, value)
        proc = subprocess.run([sys.executable, "-m", "strand_reduce",
                               "residuals", "--in", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stderr == ""
        rows = proc.stdout.splitlines()[1:]
        assert "stage1_vertical_l2 nan - FAIL" in rows
        assert "flatness_rotation_max nan - FAIL" in rows


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
        model_line = (out / "manifest.txt").read_text().splitlines()[-1]
        assert main(["reconstruct", "--in", str(out), "--tol", "1e-2"]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert [ln.split()[1] for ln in lines if ln.startswith("field ")] == [
            "name=Lambda", "name=Omega", "name=omega", "name=rho", "name=theta"]
        assert lines[-1] == model_line
        capsys.readouterr()
        assert main(["residuals", "--in", str(out)]) == 0
        assert capsys.readouterr().out == before
        assert main(["noether", "--in", str(out)]) == 0

    def test_out_into_another_run_exits_2(self, tmp_path, config_file,
                                          capsys):
        # its manifest would lose the run's fields and model line
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--config", str(config_file), "--out", str(out)])
        before = {p.name: p.read_bytes() for p in b.iterdir()}
        capsys.readouterr()
        assert main(["reconstruct", "--in", str(a), "--tol", "1",
                     "--out", str(b)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(b / "manifest.txt") in err
        assert {p.name: p.read_bytes() for p in b.iterdir()} == before

    def test_rerun_into_an_earlier_out(self, tmp_path, config_file):
        out, rec = tmp_path / "out", tmp_path / "rec"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        for _ in range(2):
            assert main(["reconstruct", "--in", str(out), "--tol", "1",
                         "--out", str(rec)]) == 0
        lines = (rec / "manifest.txt").read_text().splitlines()
        assert [ln.split()[1] for ln in lines[1:]] == ["name=Lambda"]

    def test_not_flat_exit_code(self, tmp_path, capsys):
        gr = small_grid(n_t=8, n_s=8)
        W = np.broadcast_to([1.0, 0, 0], (8, 8, 3)).copy()
        w = np.broadcast_to([0, 1.0, 0], (8, 8, 3)).copy()
        store_fields(tmp_path, gr, {"Omega": W, "omega": w})
        assert main(["reconstruct", "--in", str(tmp_path), "--tol", "1e-3"]) == 3

    def test_lambda0_is_projected_onto_rotations(self, tmp_path, config_file):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["reconstruct", "--in", str(out), "--tol", "0.1",
                     "--lambda0", "1 0 0 0 1 0 0 0 1.05"]) == 0
        _, fields = load_fields(out, ("Lambda",))
        Lam = fields["Lambda"]
        gram = np.swapaxes(Lam, -1, -2) @ Lam
        assert np.abs(gram - np.eye(3)).max() <= 1e-14
        assert np.abs(np.linalg.det(Lam) - 1.0).max() <= 1e-14

    def test_bad_lambda0(self, tmp_path, config_file):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert main(["reconstruct", "--in", str(out), "--tol", "0.1",
                     "--lambda0", "1 0 0"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lambda0, says", [
        ("2 0 0 0 2 0 0 0 2", "distance to SO(3) exceeds trust radius"),
        ("-1 0 0 0 1 0 0 0 1", "reflection"),
        ("nan 0 0 0 1 0 0 0 1", "not finite"),
        ("1 0 0 0 1 0 0 0 inf", "not finite")],
        ids=["scaled", "reflection", "nan", "inf"])
    def test_lambda0_checked_before_the_run_is_read(self, tmp_path, capsys,
                                                    lambda0, says):
        # --in holds no run, so only the option itself can be refused
        assert main(["reconstruct", "--in", str(tmp_path), "--tol", "0.1",
                     "--lambda0", lambda0]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --lambda0 '{lambda0}': ")
        assert err.count("\n") == 1 and says in err

    def test_scaled_lambda0_is_not_called_a_reflection(self, tmp_path,
                                                        config_file, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        capsys.readouterr()
        assert main(["reconstruct", "--in", str(out), "--tol", "1",
                     "--lambda0", "2 0 0 0 2 0 0 0 2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "trust radius" in err and "reflection" not in err


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
        # one jet per window feeds the residual, the currents and the drift
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        monkeypatch.setattr(g, "WINDOW_NODES", 8 * 32)
        calls = []
        build = red.project_stage2
        monkeypatch.setattr(red, "project_stage2",
                            lambda s: calls.append(len(s.rho)) or build(s))
        assert main(["noether", "--in", str(out), "--out",
                     str(tmp_path / "tot")]) == 0
        windows = list(g.Grid2.uniform(40, 32, 0.1, 1.0, g.PERIODIC).windows())
        assert calls == [w.read.stop - w.read.start for w in windows]
        assert len(calls) == 5

    def test_one_flatness_pass(self, tmp_path, config_file, monkeypatch):
        # the default --tol and the reconstruction gate share one windowed
        # flatness max: one flatness_residual_rotation call per window
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        monkeypatch.setattr(g, "WINDOW_NODES", 8 * 32)
        calls = []
        flat = red.flatness_residual_rotation
        monkeypatch.setattr(red, "flatness_residual_rotation",
                            lambda gr, Omega, *rest: calls.append(len(Omega))
                            or flat(gr, Omega, *rest))
        assert main(["noether", "--in", str(out)]) == 0
        windows = list(g.Grid2.uniform(40, 32, 0.1, 1.0, g.PERIODIC).windows())
        assert calls == [w.read.stop - w.read.start for w in windows]
        assert len(calls) == 5

    def test_nan_cell_exits_3(self, tmp_path, config_file):
        # a fresh process, so that a numpy RuntimeWarning would reach stderr
        out = nonfinite_run(tmp_path, config_file, "nan")
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "noether",
                               "--in", str(out)], capture_output=True, text=True)
        assert proc.returncode == 3
        # the cell is Omega at level 20, node 9: d_t reaches it from level 19
        assert proc.stderr.splitlines() == [
            "not flat: flatness residual is not finite (nan) at level 19, "
            "node 9"]

    def test_inf_cell_exits_3_with_one_line(self, tmp_path, config_file):
        out = nonfinite_run(tmp_path, config_file, "inf")
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "noether",
                               "--in", str(out)], capture_output=True, text=True)
        assert proc.returncode == 3
        # d_t makes level 19 infinite, but Omega x omega at the cell itself
        # is NaN, and a NaN wins the max
        assert proc.stderr.splitlines() == [
            "not flat: flatness residual is not finite (nan) at level 20, "
            "node 9"]


def set_cell(run, fname, level, node, component, text):
    """Replace one value of a stored run's field CSV and re-hash it."""
    n_s = int(re.search(r"n_s=(\d+)", (run / "manifest.txt").read_text())[1])

    def edit(lines):
        row = lines[1 + level * n_s + node].rstrip(b"\n").split(b",")
        row[4 + component] = text.encode()
        lines[1 + level * n_s + node] = b",".join(row) + b"\n"
        return lines
    rewrite_field(run, fname, edit)


class TestNotFlatSaysWhere:
    """A stored run with one damaged Omega cell fails the flatness gate of
    ``noether`` and ``reconstruct``, which name the level and node of the
    largest defect; ``reconstruct`` leaves its output as it was."""

    @pytest.fixture
    def run(self, monkeypatch, tmp_path, config_file):
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(config_file), "--out",
                         str(out)]) == 0
        set_cell(out, "Omega.csv", 20, 9, 1, "1000")
        # windows of 8 levels: the cell is in the third
        patch_windows(monkeypatch, small_grid(n_t=40, n_s=32), 8)
        return out

    @staticmethod
    def message(run):
        gr, fields = load_fields(run, ("Omega", "omega"))
        sq = g.node_sq(red.flatness_residual_rotation(gr, fields["Omega"],
                                                      fields["omega"]))
        level, node = np.unravel_index(np.argmax(sq), sq.shape)
        # d_t reaches the cell from the levels next to it
        assert level in (19, 21) and node == 9
        return (f"not flat: flatness residual {np.sqrt(sq.max()):.3e} exceeds "
                f"tolerance 1.000e+00 at level {level}, node {node}\n")

    def test_noether(self, run, capsys):
        assert main(["noether", "--in", str(run), "--tol", "1"]) == 3
        assert capsys.readouterr() == ("", self.message(run))

    def test_reconstruct(self, run, tmp_path, capsys):
        before = sorted(os.listdir(run))
        manifest = (run / "manifest.txt").read_bytes()
        for out in ([], ["--out", str(tmp_path / "rec")]):
            assert main(["reconstruct", "--in", str(run), "--tol", "1"]
                        + out) == 3
            assert capsys.readouterr() == ("", self.message(run))
        assert not (tmp_path / "rec").exists()
        assert sorted(os.listdir(run)) == before
        assert (run / "manifest.txt").read_bytes() == manifest


class TestLastWindow:
    """A bad cell that only the last window parses.

    With 11 levels a window, the last of the 23 reads levels 9-22, and
    levels 13-22 are parsed for it.
    """

    GRID = small_grid(n_t=23, n_s=12)

    @pytest.fixture
    def run(self, monkeypatch, tmp_path, stored_run):
        stored, _ = stored_run(self.GRID)
        patch_windows(monkeypatch, self.GRID, 11)
        shutil.copytree(stored, tmp_path / "run")
        return tmp_path / "run"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_residuals_nonfinite_cell_exits_4(self, run, capsys, value):
        set_cell(run, "Omega.csv", 18, 5, 1, value)
        assert main(["residuals", "--in", str(run)]) == 4
        out, err = capsys.readouterr()
        assert err == ""
        assert "stage1_vertical_l2 nan - FAIL" in out.splitlines()
        assert f"flatness_rotation_max {value} - FAIL" in out.splitlines()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_noether_nonfinite_cell_exits_3(self, run, capsys, value):
        set_cell(run, "omega.csv", 18, 5, 1, value)
        assert main(["noether", "--in", str(run)]) == 3
        # d_s reaches the cell from node 4 first
        assert capsys.readouterr() == (
            "", f"not flat: flatness residual is not finite ({value}) at "
            "level 18, node 4\n")

    def test_failed_gate_wins_over_an_earlier_sweep_error(self, run, capsys):
        # a step angle far above pi/2 at level 3 stops the sweep in the
        # first window; the flatness residual stays finite there
        set_cell(run, "omega.csv", 3, 2, 0, "1e6")
        assert main(["noether", "--in", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: reconstruction step angle")
        assert err.endswith(" at level 3, node 2\n")
        assert len(err.splitlines()) == 1
        set_cell(run, "Omega.csv", 18, 5, 1, "nan")
        assert main(["noether", "--in", str(run)]) == 3
        assert capsys.readouterr() == (
            "", "not flat: flatness residual is not finite (nan) at level 17, "
            "node 5\n")

    def test_reconstruct_gate_wins_over_an_earlier_sweep_error(
            self, run, tmp_path, capsys):
        # reconstruct sweeps, gates and writes in one pass, as noether does:
        # the sweep error waits for the gate, and neither leaves an output
        out = tmp_path / "rec"
        set_cell(run, "omega.csv", 3, 2, 0, "1e6")
        assert main(["reconstruct", "--in", str(run), "--tol", "1e300",
                     "--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith(
            "error: reconstruction step angle")
        assert err.endswith(" at level 3, node 2\n")
        assert len(err.splitlines()) == 1
        set_cell(run, "Omega.csv", 18, 5, 1, "nan")
        assert main(["reconstruct", "--in", str(run), "--tol", "1e300",
                     "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "not flat: flatness residual is not finite (nan) at level 17, "
            "node 5\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["residuals", "noether"])
    def test_malformed_cell_names_its_line(self, run, capsys, command):
        set_cell(run, "Omega.csv", 20, 7, 1, "x")
        assert main([command, "--in", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: {run / 'Omega.csv'} line "
                       f"{2 + 20 * 12 + 7}: could not convert string 'x' to "
                       "float64, column 6.\n")


def rewrite_line(run, fname, line, edit):
    """Replace file line ``line`` of a field CSV by ``edit(bytes)`` and
    re-hash it."""
    rewrite_field(run, fname, lambda lines: lines[:line - 1]
                  + [edit(lines[line - 1])] + lines[line:])


@pytest.fixture(scope="module")
def helix_run(tmp_path_factory):
    """``helix_run(n_t, n_s)``: a clamped helix run stored by ``simulate``,
    written once per module; its theta.csv and omega.csv hold the same
    bytes.  Tests that edit a run copy it first."""
    runs = {}

    def get(n_t, n_s):
        if (n_t, n_s) not in runs:
            root = tmp_path_factory.mktemp("helix_run")
            cfg = root / "run.cfg"
            cfg.write_text(CONFIG.replace("n_s = 32", f"n_s = {n_s}")
                           .replace("n_t = 40", f"n_t = {n_t}")
                           .replace("periodic", "clamped")
                           .replace("twistpulse", "helix"))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--config", str(cfg), "--out",
                             str(root / "out")]) == 0
            runs[n_t, n_s] = root / "out"
        return runs[n_t, n_s]

    return get


class TestStoredFieldText:
    """A stored field is ASCII, each row with the header's cell count, and
    so is its manifest; a byte or a row that is not makes every stored-run
    command exit 2 with one line naming the file line."""

    COMMANDS = (["residuals"], ["noether"], ["reconstruct", "--tol", "1"])

    @pytest.fixture
    def run(self, tmp_path, stored_run):
        def copy(n_t, n_s):
            stored, _ = stored_run(small_grid(n_t=n_t, n_s=n_s, bc=g.CLAMPED))
            return Path(shutil.copytree(stored, tmp_path / "run"))
        return copy

    def assert_exit_2(self, run, capsys, message):
        for command, *options in self.COMMANDS:
            assert main([command, "--in", str(run), *options]) == 2
            assert capsys.readouterr() == ("", f"config error: {message}\n")

    # line 3 lies in the first 8 KiB a text-mode read decodes at once, line
    # 600 of 641 far past it, where numpy's parse meets the byte
    @pytest.mark.parametrize("n_t, n_s, line", [(12, 8, 3), (40, 16, 600)])
    def test_byte_not_ascii(self, run, capsys, n_t, n_s, line):
        run = run(n_t, n_s)
        rewrite_line(run, "Omega.csv", line,
                     lambda text: text[:1] + b"\xff" + text[2:])
        self.assert_exit_2(run, capsys, f"{run / 'Omega.csv'} line {line}: "
                           "byte 0xff is not ASCII")

    def test_comment_byte_named_before_a_later_fault(self, run, capsys):
        # a field file is ASCII throughout: unlike in an init file, a UTF-8
        # comment is itself the first fault
        run = run(12, 8)
        rewrite_field(run, "Omega.csv", lambda lines: lines[:2] + [
            lines[2][:-1] + "# café\n".encode()] + lines[3:5]
            + [b"x" + lines[5][1:]] + lines[6:])
        self.assert_exit_2(run, capsys, f"{run / 'Omega.csv'} line 3: "
                           "byte 0xc3 is not ASCII")

    # the parse reads only the value columns, so it cannot see an extra cell
    @pytest.mark.parametrize("edit, cells", [
        (lambda text: text[:-1] + b",1.0\n", 8),
        (lambda text: text.rsplit(b",", 1)[0] + b"\n", 6),
    ], ids=["extra", "missing"])
    def test_cell_count(self, run, capsys, edit, cells):
        run = run(40, 16)
        rewrite_line(run, "omega.csv", 301, edit)
        self.assert_exit_2(run, capsys, f"{run / 'omega.csv'} line 301: "
                           f"{cells} cells, where the header has 7")

    def test_clean_run_never_scans(self, helix_run, monkeypatch, capsys):
        def scan(*args):
            raise AssertionError(f"scanned a sound file: {args}")
        monkeypatch.setattr(fields_io, "_bad_line", scan)
        for command, *options in self.COMMANDS:
            assert main([command, "--in", str(helix_run(40, 16)),
                         *options]) == 0
        assert capsys.readouterr().err == ""

    def test_edit_of_a_field_sharing_its_digest(self, helix_run, tmp_path,
                                                capsys):
        # omega.csv holds theta.csv's bytes, so re-hashing the edit must
        # change omega's manifest line alone
        run = Path(shutil.copytree(helix_run(40, 16), tmp_path / "run"))
        assert ((run / "theta.csv").read_bytes()
                == (run / "omega.csv").read_bytes())
        set_cell(run, "omega.csv", 18, 5, 1, "x")
        self.assert_exit_2(run, capsys, f"{run / 'omega.csv'} line "
                           f"{2 + 18 * 16 + 5}: could not convert string 'x' "
                           "to float64, column 6.")

    # the manifest is read in binary: a byte that is not UTF-8 raised
    # UnicodeDecodeError from the line iterator, a traceback
    @pytest.mark.parametrize("edit, line", [
        (lambda data: data + b"# caf\xff\n", 7),
        (lambda data: data.replace(b" bc=", b" bc=\xff"), 1),
    ], ids=["comment", "grid"])
    def test_manifest_byte_not_ascii(self, helix_run, tmp_path, capsys, edit,
                                     line):
        run = Path(shutil.copytree(helix_run(12, 8), tmp_path / "run"))
        manifest = run / "manifest.txt"
        manifest.write_bytes(edit(manifest.read_bytes()))
        self.assert_exit_2(run, capsys, f"malformed manifest in {run}: byte "
                           f"0xff is not ASCII (line {line})")


class TestManifestPaths:
    """A manifest names files in its own run directory, each field once."""

    @pytest.fixture
    def run(self, tmp_path, stored_run):
        stored, _ = stored_run(small_grid(n_t=8, n_s=8))
        shutil.copytree(stored, tmp_path / "run")
        return tmp_path / "run"

    @staticmethod
    def assert_manifest_error(run, capsys, message, line):
        for command in ("residuals", "noether"):
            assert main([command, "--in", str(run)]) == 2
            assert capsys.readouterr() == ("", f"config error: malformed "
                                           f"manifest in {run}: {message} "
                                           f"(line {line})\n")

    @pytest.mark.parametrize("where", ["absolute", "parent", "subdir"])
    def test_file_outside_the_run(self, run, capsys, where):
        # a valid copy of rho.csv at the place named, so that only the
        # check on the name stops the read
        target = {"absolute": run.parent / "elsewhere" / "rho.csv",
                  "parent": run.parent / "rho.csv",
                  "subdir": run / "sub" / "rho.csv"}[where]
        target.parent.mkdir(exist_ok=True)
        shutil.copy(run / "rho.csv", target)
        name = {"absolute": str(target), "parent": "../rho.csv",
                "subdir": "sub/rho.csv"}[where]
        manifest = run / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("file=rho.csv",
                                                         f"file={name}"))
        self.assert_manifest_error(run, capsys, f"file '{name}' is not a file "
                                   "name in the run directory", 4)

    def test_field_listed_twice(self, run, capsys):
        # a second rho line pointing at theta.csv, hash included
        manifest = run / "manifest.txt"
        lines = manifest.read_text().splitlines(keepends=True)
        lines.insert(5, lines[4].replace("name=theta", "name=rho"))
        manifest.write_text("".join(lines))
        self.assert_manifest_error(run, capsys, "field 'rho' listed twice", 6)


class TestManifestGrammar:
    """A manifest holds what its writer writes: one grid line, a field line
    per field and at most one model line, each with its keys once and in
    order.  Any other line makes every stored-run command exit 2 naming it,
    before any report row, so no line can replace the one before it."""

    # lines of the 8x8 run: 1 grid, 2-5 the fields Omega, omega, rho,
    # theta, 6 the model
    EDITS = {
        "second_grid": (lambda ls: ls[:1] + [re.sub(r"dt=\S+", "dt=0.5", ls[0])]
                        + ls[1:], 2, "a second grid line"),
        "repeated_key": (lambda ls: [ls[0] + " dt=0.5"] + ls[1:], 1,
                         "expected 'grid n_t=... n_s=... dt=... ds=... "
                         "bc=...'"),
        "second_model": (lambda ls: ls + ls[5:], 7, "a second model line"),
        "no_sha256": (lambda ls: ls[:1] + [ls[1].rsplit(" ", 1)[0]] + ls[2:],
                      2, "expected 'field name=... file=... kind=... "
                      "sha256=...'"),
        "extra_key": (lambda ls: ls[:2] + [ls[2] + " step=1"] + ls[3:], 3,
                      "expected 'field name=... file=... kind=... "
                      "sha256=...'"),
        "unknown_kind": (lambda ls: ls + ["format version=2"], 7,
                         "unknown line kind 'format'"),
        "blank_line": (lambda ls: ls[:1] + [""] + ls[1:], 2,
                       "unknown line kind ''"),
        "unknown_bc": (lambda ls: [ls[0].replace("bc=periodic", "bc=free")]
                       + ls[1:], 1, "unknown boundary policy 'free'"),
    }

    COMMANDS = pytest.mark.parametrize("command", [
        ["residuals"], ["noether"], ["reconstruct", "--tol", "1"]],
        ids=["residuals", "noether", "reconstruct"])

    @COMMANDS
    @pytest.mark.parametrize("edit", EDITS)
    def test_other_lines_exit_2(self, tmp_path, stored_run, capsys, command,
                                edit):
        stored, _ = stored_run(small_grid(n_t=8, n_s=8))
        run = Path(shutil.copytree(stored, tmp_path / "run"))
        manifest = run / "manifest.txt"
        change, line, message = self.EDITS[edit]
        manifest.write_text("\n".join(change(
            manifest.read_text().splitlines())) + "\n")
        assert main([command[0], "--in", str(run), *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"config error: malformed manifest"
                                       f" in {run}: {message} (line {line})\n")
        assert not (run / "Lambda.csv").exists()

    @COMMANDS
    def test_no_grid_line_or_no_manifest(self, tmp_path, stored_run, capsys,
                                         command):
        stored, _ = stored_run(small_grid(n_t=8, n_s=8))
        run = Path(shutil.copytree(stored, tmp_path / "run"))
        manifest = run / "manifest.txt"
        manifest.write_text("".join(
            manifest.read_text().splitlines(keepends=True)[1:]))
        argv = [command[0], "--in", str(run), *command[1:]]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"config error: manifest in {run} has no grid line\n")
        manifest.unlink()
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"config error: no manifest.txt in {run}\n")
        assert not (run / "Lambda.csv").exists()


class TestCheckAndConvergence:
    def test_check_exit_codes(self, capsys):
        assert main(["check", "stages"]) == 0

    @pytest.mark.parametrize("suite, names", [
        # acceptance criteria 2, 5 and 7
        ("invariance", ["lagrangian_invariance_max_rel_err",
                        "lagrangian_projection_max_rel_err"]),
        ("reduction", [f"{name}_n{n}" for n in (64, 128) for name in (
            "res_r_over_horizontal_rho", "res_Lambda_over_vertical",
            "res_theta_over_horizontal_theta", "unreduced_over_run_stage1")]
         + ["order_unreduced", "order_stage1"]),
        ("noether", [f"{name}_n{n}" for n in (64, 128) for name in (
            "rotor_total_drift", "rotor_divergence_interior_l2",
            "so3_total_drift", "so3_divergence_interior_l2",
            "current_vertical_identity_max_err")]
         + [f"{c}_total_drift_ratio_64_to_128" for c in ("rotor", "so3")]),
    ], ids=["invariance", "reduction", "noether"])
    def test_check_invariance(self, capsys, suite, names):
        assert main(["check", suite]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == names

    def test_suites_take_no_options(self):
        # one setting per suite: `check` and the acceptance tests run it alike
        for name in cli.CHECK_SUITES:
            suite = getattr(checks, f"check_{name}")
            assert not inspect.signature(suite).parameters, suite.__name__

    def test_failed_check_exits_4(self, capsys):
        # deliberately preasymptotic ladder: observed orders fall out of band
        assert main(["convergence", "--levels", "2", "--base-n-s", "8",
                     "--base-n-t", "11", "--duration", "0.05"]) == 4

    @pytest.mark.parametrize("args", [
        ["--preset", "static", "--base-n-t", "11", "--duration", "0.05"],
        ["--base-n-t", "3", "--duration", "0.01"]], ids=["exact", "n_t3"])
    def test_zero_norm_fails_without_a_warning(self, capsys, args):
        # an exact run's norms are 0, as are those of a level with no
        # interior levels: no order is fitted, so no log of 0 is taken
        assert main(["convergence", "--levels", "2", "--base-n-s", "8",
                     *args]) == 4
        out, err = capsys.readouterr()
        assert err == ""
        assert out.count(" nan - FAIL\n") == 4

    # neither command reads a config file, so the error names the flag, as a
    # config file's names [init.preset] and its line
    def test_unknown_preset_exits_2(self, capsys):
        assert main(["residuals", "--preset", "vortex", "--n-s", "8",
                     "--n-t", "8", "--duration", "0.01"]) == 2
        assert capsys.readouterr() == (
            "", "config error: unknown preset 'vortex' [--preset]\n")

    def test_convergence_unknown_preset_exits_2(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(checks, "stream", lambda cfg, sink: calls.append(cfg))
        assert main(["convergence", "--preset", "vortex", "--levels", "2",
                     "--base-n-s", "8", "--base-n-t", "11",
                     "--duration", "0.05"]) == 2
        assert calls == []
        assert capsys.readouterr() == (
            "", "config error: unknown preset 'vortex' [--preset]\n")

    # the step guard, too, names the options that set dt, not [grid]
    def test_step_guard_names_its_options(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(sim, "stream",
                            lambda cfg, sink: calls.append(cfg))
        assert main(["residuals", "--preset", "helix", "--n-s", "8",
                     "--n-t", "5", "--duration", "1e308"]) == 2
        assert calls == []
        assert capsys.readouterr() == (
            "", "config error: dt = 2.500e+307 exceeds the step guard "
                "6.122e-02 [--n-t, --duration]\n")

    def test_convergence_step_guard_names_its_options(self, monkeypatch,
                                                      capsys):
        calls = []
        monkeypatch.setattr(checks, "stream", lambda cfg, sink: calls.append(cfg))
        assert main(["convergence", "--levels", "2", "--base-n-s", "8",
                     "--base-n-t", "3"]) == 2
        assert calls == []
        assert capsys.readouterr() == (
            "", "config error: dt = 2.500e-01 exceeds the step guard "
                "6.122e-02 [--base-n-t, --duration]\n")

    # Grid2's refusals, too, name the options that set the values refused
    @pytest.mark.parametrize("argv, err", [
        ("residuals --preset static --n-s 8 --n-t 8 --length -1",
         "ds must be finite and positive [--length]"),
        ("residuals --preset static --n-s 8 --n-t 8 --duration 0",
         "dt must be finite and positive [--duration]"),
        ("residuals --preset static --n-s 2 --n-t 8",
         "grids need at least 3 nodes per direction [--n-s]"),
        ("residuals --preset static --n-s 10000 --n-t 100000",
         "grid exceeds the memory guard of 1e8 nodes [--n-t, --n-s]"),
        ("convergence --base-n-s 2",
         "grids need at least 3 nodes per direction [--base-n-s]"),
        ("convergence --base-n-s 2 --base-n-t 2", "grids need at least 3 "
         "nodes per direction [--base-n-t, --base-n-s]"),
        ("convergence --length nan",
         "ds must be finite and positive [--length]"),
        ("convergence --base-n-s 10000 --base-n-t 100000",
         "grid exceeds the memory guard of 1e8 nodes [--base-n-t, "
         "--base-n-s]"),
    ])
    def test_grid_refusal_names_its_options(self, monkeypatch, capsys, argv,
                                            err):
        calls = []
        for module in (sim, checks):
            monkeypatch.setattr(module, "stream",
                                lambda cfg, sink: calls.append(cfg))
        assert main(argv.split()) == 2
        assert calls == []
        assert capsys.readouterr() == ("", f"config error: {err}\n")

    def test_convergence_small(self, capsys):
        assert main(["convergence", "--levels", "2", "--base-n-s", "32",
                     "--base-n-t", "41", "--duration", "0.2"]) == 0
        text = capsys.readouterr().out
        assert "order_vertical" in text

    @staticmethod
    def _ladder(monkeypatch, levels, base_n_t, base_n_s, bc):
        """Twist-pulse ``convergence_table`` output and the run of each level."""
        # each level's summary is that of run(cfg), which also keeps its fields
        outs = []
        monkeypatch.setattr(checks, "stream", lambda cfg, sink: outs.append(
            checks.run(cfg)) or outs[-1])
        gr = g.Grid2.uniform(base_n_t, base_n_s, 0.05, 1.0, bc)
        rows, results = checks.convergence_table("twistpulse",
                                                  checks.ladder(gr, levels))
        return rows, results, outs

    def test_ladder_past_the_memory_guard_exits_2(self, monkeypatch, capsys):
        # 3 x 3e6 nodes, then 5 x 6e6: two levels fit and nothing refines past
        # the last; a third, 9 x 1.2e7 > 1e8, exits 2 before any level runs
        gr = g.Grid2.uniform(3, 3000000, 1e-9, 1.0, g.PERIODIC)
        assert [level.n_s for level in checks.ladder(gr, 2)] == [3e6, 6e6]
        calls = []
        monkeypatch.setattr(checks, "stream", lambda cfg, sink: calls.append(cfg))
        assert main(["convergence", "--levels", "3", "--base-n-s", "3000000",
                     "--base-n-t", "3", "--duration", "1e-9"]) == 2
        assert calls == []
        assert capsys.readouterr().err.splitlines() == [
            "config error: convergence ladder: grid exceeds the memory guard "
            "of 1e8 nodes [--levels, --base-n-t, --base-n-s]"]

    def test_clamped_ladder_nests(self, monkeypatch):
        rows, _, outs = self._ladder(monkeypatch, 3, 11, 9, g.CLAMPED)
        grids = [out.section.grid for out in outs]
        for coarse, fine in zip(grids, grids[1:]):
            assert fine.ds == coarse.ds / 2 and fine.dt == coarse.dt / 2
            assert fine.n_s == 2 * (coarse.n_s - 1) + 1
            assert fine.n_t == 2 * (coarse.n_t - 1) + 1
        assert [row["n_s"] for row in rows] == [9, 17, 33]

    @pytest.mark.parametrize("bc", [g.PERIODIC, g.CLAMPED])
    def test_ladder_norms_are_the_run_summary(self, monkeypatch, bc):
        rows, results, outs = self._ladder(monkeypatch, 2, 21, 16, bc)
        params = model.default_params()
        for row, out in zip(rows, outs):
            sec = out.section
            res = rs.stage1_residuals(sec, params)
            # every node of the interior levels
            mask = sec.grid.interior(2)[0][:, None]
            want = {name: g.norm_l2(sec.grid, getattr(res, name), mask)
                    for name in res._fields}
            want["flatness"] = g.norm_max(
                red.flatness_residual_rotation(sec.grid, sec.Omega, sec.omega),
                mask)
            assert row == {"n_s": sec.grid.n_s, "n_t": sec.grid.n_t, **want}
        if bc == g.PERIODIC:
            # periodic levels keep n_s = base 2^k and the fit h = length / n_s,
            # bit for bit
            assert [out.section.grid for out in outs] == [
                g.Grid2(n_t=20 * 2 ** k + 1, n_s=16 * 2 ** k,
                        dt=0.05 / (20 * 2 ** k), ds=1.0 / (16 * 2 ** k),
                        bc_s=g.PERIODIC)
                for k in range(2)]
            hs = [1.0 / row["n_s"] for row in rows]
            assert [r.value for r in results] == [
                checks._ls_order(hs, [row[key] for row in rows]) for key in
                ("vertical", "horizontal_rho", "horizontal_theta", "flatness")]


class TestModuleEntry:
    def test_every_public_name_has_a_caller_in_src(self):
        # the library is what its programs call: a public module-level
        # function or class named only by tests (or by docstrings, which are
        # not names) belongs in tests/conftest.py
        trees = [ast.parse(path.read_text())
                 for path in sorted(Path(cli.__file__).parent.glob("*.py"))]
        defs = (ast.FunctionDef, ast.ClassDef)
        unused = {stmt.name for tree in trees for stmt in tree.body
                  if isinstance(stmt, defs) and not stmt.name.startswith("_")}
        ref = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
        for stmt in (stmt for tree in trees for stmt in tree.body):
            names = {getattr(node, ref[type(node)]) for node in ast.walk(stmt)
                     if type(node) in ref}
            if isinstance(stmt, defs):
                names.discard(stmt.name)
            unused -= names
        # `check` calls each suite by its name in CHECK_SUITES
        unused -= {f"check_{name}" for name in cli.CHECK_SUITES}
        assert sorted(unused) == []

    def test_option_count_is_pinned(self):
        # defaulted parameters plus dataclass field defaults in src/: an
        # option comes back only with an edit of this number, and a failure
        # lists every option counted, so the one added or removed shows
        options = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    args = node.args.posonlyargs + node.args.args
                    named = args[len(args) - len(node.args.defaults):] + [
                        arg for arg, d in zip(node.args.kwonlyargs,
                                              node.args.kw_defaults)
                        if d is not None]
                    options += [(path.name, arg.lineno,
                                 f"{getattr(node, 'name', 'lambda')}({arg.arg})")
                                for arg in named]
                elif isinstance(node, ast.ClassDef) and any(
                        "dataclass" in ast.unparse(d)
                        for d in node.decorator_list):
                    options += [(path.name, stmt.lineno,
                                 f"{node.name}.{stmt.target.id}")
                                for stmt in node.body
                                if isinstance(stmt, ast.AnnAssign)
                                and stmt.value is not None]
        assert len(options) == 17, "\n".join(
            f"{name}:{line} {option}" for name, line, option in options)

    OFF_PATH = ("strand_reduce.checks", "strand_reduce.config",
                "strand_reduce.noether", "strand_reduce.simulate")

    def loaded_after(self, *commands):
        """The modules of ``OFF_PATH`` that a fresh process has loaded after
        importing the cli and running ``commands`` through main."""
        script = ("import contextlib, io, sys\n"
                  "import strand_reduce.cli as cli\n"
                  f"for argv in {commands!r}:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        assert cli.main(argv) == 0, argv\n"
                  f"print(sorted(set({self.OFF_PATH!r}) & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout)

    def test_cli_import_loads_no_partial_run_path(self):
        assert self.loaded_after() == []

    def test_benchmark_commands_never_load_the_checks(self, small_run,
                                                      tmp_path):
        # the stored-run commands load the Noether report only; simulate
        # loads the config reader and the march
        stored = [["residuals", "--in", str(small_run)],
                  ["noether", "--in", str(small_run)]]
        assert self.loaded_after(*stored) == ["strand_reduce.noether"]
        assert self.loaded_after(*stored, [
            "simulate", "--config", str(small_run.parent / "run.cfg"),
            "--out", str(tmp_path / "out")]) == list(self.OFF_PATH[1:])

    def test_python_m_help(self):
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_console_usage_error_is_2(self):
        proc = subprocess.run([sys.executable, "-m", "strand_reduce", "frob"],
                              capture_output=True, text=True)
        assert proc.returncode == 2

    def test_import_leaves_environ_unchanged(self):
        # the thread caps are the standard variables, set by whoever runs
        # the package; importing it reads and sets none
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os; before = dict(os.environ); import strand_reduce, "
             "strand_reduce.cli; print(dict(os.environ) == before)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"
