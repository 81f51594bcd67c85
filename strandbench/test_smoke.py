"""Tests of the benchmark itself; run from the checkout root with

    python3 -m pytest strandbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import check_manifest, sha256_file  # noqa: E402


def run_bench(args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "strandbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_smoke_runs_every_workload_check_and_trace():
    out = run_bench(["--smoke", "--seed", "3"], ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "correct": True, "attempted": 16, "failed": 0, "metrics": {}}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            path = os.path.join(ROOT, ".bench_work", "results",
                                f"{wl['name']}-seed3-trace{trace}-smoke.json")
            with open(path) as fh:
                result = json.load(fh)
            assert set(result["metrics"]) == names[trace]
            assert result["failed"] == 0
            assert result["metrics"]["trace.coverage" if trace else "wall_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "strandbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = run_bench(["--workload", "march_narrow", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_manifest_check_catches_an_edited_field(tmp_path):
    for name in ("Omega", "omega", "rho", "theta"):
        (tmp_path / f"{name}.csv").write_text("t_index,s_index,t,s,c1\n0,0,0,0,1\n")
    (tmp_path / "manifest.txt").write_text("grid n_t=3 n_s=3\n" + "".join(
        f"field name={n} file={n}.csv kind=vec3 "
        f"sha256={sha256_file(tmp_path / f'{n}.csv')}\n"
        for n in ("Omega", "omega", "rho", "theta")))
    assert check_manifest(tmp_path) == []
    (tmp_path / "rho.csv").write_text("t_index,s_index,t,s,c1\n0,0,0,0,2\n")
    assert check_manifest(tmp_path) == ["rho.csv: sha256 differs from manifest.txt"]
