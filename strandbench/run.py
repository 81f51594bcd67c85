"""Benchmark of the strand-reduce CLI on three seeded workloads.

    python3 strandbench/run.py --workload march_narrow --seed 1 --seconds 36 --trace 0
    python3 strandbench/run.py --smoke

Run it from the root of a source checkout; it imports nothing installed.

``--trace 0`` runs the workload's command sequence again and again for
``--seconds``, every command in a fresh ``python -m strand_reduce`` process
with ``STRAND_THREADS=1``, one at a time, and reports the end-to-end metrics.
``wall_s`` and ``setup_s`` are medians scaled to a nominal machine speed
(see ``NOMINAL_REF_S``); the raw medians are printed beside them.
``--trace 1`` runs the same commands in this process through ``cli.main``,
alternately untraced and with every public function of the package wrapped
by :class:`tracer.Tracer`, and reports per-layer counts and times.  Both
modes check every output, including that repeated and traced runs write the
same bytes.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs every workload in both modes on tiny grids, in seconds.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time

os.environ["STRAND_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread caps)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import make_workloads  # noqa: E402

SETUP_SAMPLES = 7
SETUP_PER_SAMPLE = 2
REF_PER_SAMPLE = 3
# On a shared 2-vCPU Xeon VM the CPU speed was seen to swing by up to 1.5x
# for minutes at a time, on both vCPUs at once, and fresh-process wall times
# follow it.  Each sequence is therefore paired with probes of a fresh process
# that does not involve the program (``REF_PROBE``), and the end-to-end times
# are reported at the speed at which that probe takes NOMINAL_REF_S:
# raw median * NOMINAL_REF_S / median probe time.
REF_PROBE = "import numpy"
NOMINAL_REF_S = 0.15
COMMAND_TIMEOUT_S = 120
IMPORT_PROBE = ("import time, sys; t = time.perf_counter(); "
                "import strand_reduce.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t))")
LAYERS = ("cli", "config", "simulate", "so3", "grid", "model", "reduction",
          "residuals", "noether", "checks", "fields_io")
HOT = ("so3.cross", "so3.hat", "so3.exp_so3", "so3.reorthonormalize",
       "grid.d_s_slice", "grid.integrate_s")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, stdout_path, stderr_path):
    """Run one process to its end; returns (exit code, wall s, maxrss bytes)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, child_env(),
                         file_actions=actions)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, 9))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024


def read_text(path):
    with open(path) as fh:
        return fh.read()


def dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


class Run:
    """Attempts, failures and the first digest of every command of a sequence."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []
        self.reference = {}

    def record(self, index, label, outdir, code, stdout):
        self.attempted += 1
        errors = self.wl.check(index, outdir, code, stdout)
        if not errors:
            digest = self.wl.digest(outdir, stdout)
            first = self.reference.setdefault(index, digest)
            if digest != first:
                errors = [f"output bytes differ from the first run ({label})"]
        for e in errors:
            self.failures.append(f"{label} command {index}: {e}")


def run_cli_subprocess(args, scratch):
    out = os.path.join(scratch, "stdout.txt")
    code, wall, rss = spawn(["-m", "strand_reduce"] + args, out,
                            os.path.join(scratch, "stderr.txt"))
    return code, read_text(out), wall, rss


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def probe(scratch, program, samples):
    """Wall times and stdout of fresh ``python -c program`` processes."""
    walls, outs = [], []
    out = os.path.join(scratch, "probe.txt")
    err = os.path.join(scratch, "probe_err.txt")
    for _ in range(samples):
        code, wall, _ = spawn(["-c", program], out, err)
        if code != 0:
            raise RuntimeError(f"probe {program!r} failed: " + read_text(err))
        walls.append(wall)
        outs.append(read_text(out))
    return walls, outs


def keep_going(count, min_samples, t_start, t_end):
    """True while the next iteration, as long as the mean so far, ends mostly in time."""
    now = time.perf_counter()
    return count < min_samples or now + 0.5 * (now - t_start) / count < t_end


def untraced(wl, run, scratch, seconds, min_samples):
    """Closed loop of fresh-process command sequences; raw samples.

    Set-up and reference probes precede every sequence, so that they sample
    the same stretch of time as the sequences.
    """
    outdir = os.path.join(scratch, "out")
    walls, rss, out_bytes, setup_walls, ref_walls = [], [], [], [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while keep_going(len(walls), min_samples, t_start, t_end):
        setup_walls += probe(scratch, IMPORT_PROBE, SETUP_PER_SAMPLE)[0]
        ref_walls += probe(scratch, REF_PROBE, REF_PER_SAMPLE)[0]
        fresh(outdir)
        wall = peak = written = 0
        for i, args in enumerate(wl.commands(outdir)):
            code, stdout, w, r = run_cli_subprocess(args, scratch)
            wall += w
            peak = max(peak, r)
            written += len(stdout.encode())
            run.record(i, f"sample {len(walls)}", outdir, code, stdout)
        walls.append(wall)
        rss.append(peak)
        out_bytes.append(written + dir_bytes(outdir))
    return walls, rss, out_bytes, setup_walls, ref_walls


def run_inprocess(cli, args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(args)
        except Exception as exc:  # counted as a failed command
            sys.stderr.write(f"{args[0]} raised {exc!r}\n")
            code = -1
    return code, buf.getvalue()


def inprocess_sequence(cli, wl, run, outdir, label):
    fresh(outdir)
    wall = 0.0
    for i, args in enumerate(wl.commands(outdir)):
        t0 = time.perf_counter()
        code, stdout = run_inprocess(cli, args)
        wall += time.perf_counter() - t0
        run.record(i, label, outdir, code, stdout)
    return wall


def traced(wl, run, scratch, seconds, min_samples, import_s):
    """Untraced and traced in-process sequences in turn; per-layer metrics."""
    ref = os.path.join(scratch, "ref")
    fresh(ref)
    for i, args in enumerate(wl.commands(ref)):
        code, stdout, _, _ = run_cli_subprocess(args, scratch)
        run.record(i, "fresh-process reference", ref, code, stdout)

    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"strand_reduce.{name}")
               for name in LAYERS}
    tracer = Tracer(modules, hot=HOT, byte_counters={
        "fields_io.write_fields": _written_bytes,
        "fields_io.read_fields": _read_bytes})
    cli = modules["cli"]
    plain, walls, reps = [], [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while keep_going(len(walls), min_samples, t_start, t_end):
        plain.append(inprocess_sequence(cli, wl, run, os.path.join(scratch, "plain"),
                                        "in-process untraced"))
        tracer.reset()
        tracer.install()
        try:
            walls.append(inprocess_sequence(cli, wl, run,
                                            os.path.join(scratch, "traced"),
                                            "in-process traced"))
        finally:
            tracer.uninstall()
        reps.append(layer_metrics(tracer, wl, walls[-1]))
    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["trace.overhead"] = statistics.median(walls) / statistics.median(plain) - 1.0
    metrics["trace.inprocess_wall_s"] = statistics.median(walls)
    return metrics, tracer, len(walls)


def _written_bytes(args, kwargs, written):
    paths = [p for p, _ in written.values()]
    paths.append(os.path.join(os.path.dirname(paths[0]), "manifest.txt"))
    return sum(os.path.getsize(p) for p in paths)


def _read_bytes(args, kwargs, result):
    indir = args[0] if args else kwargs["indir"]
    return (os.path.getsize(os.path.join(indir, "manifest.txt"))
            + sum(os.path.getsize(os.path.join(indir, f"{n}.csv")) for n in result[1]))


PER_LAYER_STATS = (
    "simulate.run.self_s", "simulate.run_summary.total_s",
    "so3.cross.calls", "so3.cross.self_s",
    "so3.reorthonormalize.calls", "so3.reorthonormalize.self_s",
    "so3.exp_so3.calls", "so3.exp_so3.self_s",
    "grid.d_s_slice.calls", "grid.d_s_slice.self_s",
    "grid.d_s.self_s", "grid.d_t.self_s", "grid.integrate_s.calls",
    "fields_io.write_fields.self_s", "fields_io.write_steps.self_s",
    "fields_io.read_fields.calls", "fields_io.read_fields.self_s",
    "reduction.reconstruct_rotation.self_s", "reduction.reconstruct_rotation.total_s",
    "reduction.flatness_residual_rotation.calls",
    "residuals.stage1_derivative_fields.calls", "residuals.stage1_derivative_fields.self_s",
    "residuals.stage1_residuals.total_s", "residuals.stage2_residuals.total_s",
    "noether.so3_current.self_s", "noether.rotor_current.self_s",
    "noether.drift_residual.self_s", "noether.totals_over_time.self_s",
    "noether.divergence.self_s", "checks.noether_report.total_s",
    "model.potential_E.calls", "model.dE.calls", "model.lagrangian_stage1.calls",
    "model.lagrangian_stage2.calls", "model.fiber_derivatives_stage1.calls",
    "config.load_config.total_s",
)


def layer_unit(key):
    stat = key.rsplit(".", 1)[1]
    return {"calls": "count", "step_us": "us", "mb": "MB", "mb_per_s": "MB/s",
            "overhead": "1", "coverage": "1"}.get(stat, "s")


def layer_metrics(tracer, wl, wall):
    out = {}
    for key in PER_LAYER_STATS:
        name, stat = key.rsplit(".", 1)
        out[key] = tracer.get(name, stat)
    march = (tracer.get("simulate.run", "total_s")
             - tracer.get("simulate.run_summary", "total_s"))
    out["simulate.step_us"] = 1e6 * march / wl.steps if wl.steps else 0.0
    for name in ("fields_io.write_fields", "fields_io.read_fields"):
        busy = tracer.get(name, "self_s")
        out[f"{name}.mb_per_s"] = tracer.get(name, "bytes") / 1e6 / busy if busy else 0.0
    out["fields_io.write_fields.mb"] = tracer.get("fields_io.write_fields", "bytes") / 1e6
    out["trace.coverage"] = tracer.self_time_below("cli") / wall
    return out


def environment(seed):
    def cache(index):
        try:
            return read_text(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").strip()
        except OSError:
            return "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in read_text("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "l2": cache(2), "l3": cache(3),
            "STRAND_THREADS": os.environ["STRAND_THREADS"], "seed": seed,
            "commit": commit()}


def commit():
    """HEAD of the checkout when it is a git work tree, else a hash of src/."""
    git = os.path.join(ROOT, ".git")
    with contextlib.suppress(OSError):
        head = read_text(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return read_text(os.path.join(git, ref)).strip()
        for line in read_text(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def bench(name, seed, seconds, trace, smoke=False):
    wl = make_workloads(smoke)[name]
    scratch = fresh(os.path.join(WORK, f"{name}-seed{seed}-trace{trace}"
                                 + ("-smoke" if smoke else "")))
    os.makedirs(scratch)
    run = Run(wl)
    min_samples = 1 if smoke else 3
    try:
        def prep_cli(args):
            code, stdout, _, _ = run_cli_subprocess(args, scratch)
            return code, stdout
        wl.prepare(scratch, np.random.default_rng(seed), prep_cli)
        if trace:
            import_s = [float(out) for out in
                        probe(scratch, IMPORT_PROBE, 1 if smoke else SETUP_SAMPLES)[1]]
            metrics, tracer, n = traced(wl, run, scratch, seconds, min_samples,
                                        import_s)
            units = {k: layer_unit(k) for k in metrics}
            samples = {"cli.import_s": import_s}
            counts = {"cli.import_s": len(import_s)}
            raw = {}
        else:
            walls, rss, out_bytes, setup_walls, ref_walls = untraced(
                wl, run, scratch, seconds, min_samples)
            n = len(walls)
            raw = {"raw_wall_s": statistics.median(walls),
                   "raw_setup_s": statistics.median(setup_walls),
                   "ref_probe_s": statistics.median(ref_walls)}
            scale = NOMINAL_REF_S / raw["ref_probe_s"]
            wall = raw["raw_wall_s"] * scale
            samples = {"wall_s": walls, "setup_s": setup_walls, "ref_probe_s": ref_walls}
            metrics = {"wall_s": wall, "nodes_per_s": wl.nodes / wall,
                       "setup_s": raw["raw_setup_s"] * scale,
                       "peak_rss_mb": max(rss) / 1e6,
                       "output_mb": statistics.median(out_bytes) / 1e6}
            units = {"wall_s": "s", "nodes_per_s": "nodes/s", "setup_s": "s",
                     "peak_rss_mb": "MB", "output_mb": "MB",
                     "raw_wall_s": "s", "raw_setup_s": "s", "ref_probe_s": "s"}
            counts = {"setup_s": len(setup_walls), "raw_setup_s": len(setup_walls),
                      "ref_probe_s": len(ref_walls)}
        env = environment(seed)
        result = {"workload": name, "trace": trace, "smoke": smoke,
                  "grid": wl.grid, "sample_count": n, "env": env,
                  "attempted": run.attempted, "failed": len(run.failures),
                  "failures": run.failures, "metrics": metrics,
                  "raw": raw, "samples": samples}
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        stem = os.path.join(WORK, "results", f"{name}-seed{seed}-trace{trace}"
                            + ("-smoke" if smoke else ""))
        with open(stem + ".json", "w") as fh:
            json.dump(result, fh, indent=1)
        if trace:
            tracer.dump(stem + "-trace.json", {"workload": name, "env": env})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {name} seed {seed} trace {trace} samples {n} "
          f"grid {json.dumps(wl.grid)}")
    print("env " + json.dumps(env))
    for failure in run.failures:
        print("FAILED " + failure)
    ratio = len(run.failures) / run.attempted
    print(f"{'fail_ratio':40s} {ratio:<14.6g} {'1':8s} n={run.attempted}")
    for key, value in {**metrics, **raw}.items():
        print(f"{key:40s} {value:<14.6g} {units[key]:8s} n={counts.get(key, n)}")
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=tuple(make_workloads()))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, both modes, on tiny grids")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "strand_reduce", "cli.py")):
        sys.stderr.write(f"no strand_reduce sources under {SRC}; run from the "
                         "root of a source checkout\n")
        return 2
    if args.smoke:
        results = [bench(name, args.seed, 0, trace, smoke=True)
                   for name in make_workloads() for trace in (0, 1)]
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {}}))
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    print(json.dumps(bench(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
