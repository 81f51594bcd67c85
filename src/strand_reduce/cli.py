"""Command-line interface.

Exit codes: 0 success, 1 input or output error (a file that cannot be
read or written, such as an ``--out`` path that already exists as a file),
2 configuration error, 3 reconstruction gate failed (not flat), 4
verification check failed, 5 solution blow-up.
"""

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from . import grid as g
from . import reduction as red
from .errors import (BlowupError, ConfigError, NotFlatError, StrandError,
                     TooFarFromGroupError)
from .fields_io import (FieldWriter, Run, format_report, grid_line, info,
                        open_fields, read_run, write_report, write_steps,
                        write_totals)
from .model import PARAMS, default_params
from .reduction import FIELDS, Stage1Section
from .residuals import Stage1Residuals, residual_norms
from .so3 import reorthonormalize

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NOT_FLAT = 3
EXIT_CHECK_FAILED = 4
EXIT_BLOWUP = 5


def _add_grid_options(sp):
    """The extent and boundary options; each command adds its node counts."""
    sp.add_argument("--length", type=float, default=1.0)
    sp.add_argument("--duration", type=float, default=0.5)
    sp.add_argument("--bc", choices=g.BOUNDARIES, default=g.PERIODIC)


def _refused(exc, n_t, n_s, *more):
    """The options ``more``, then those that set the Grid2 fields that
    GridError ``exc`` refuses: the node counts' ``n_t``, ``n_s``, or extents'."""
    names = {"n_t": n_t, "dt": "duration", "n_s": n_s, "ds": "length"}
    return ", ".join("--" + name.replace("_", "-")
                     for name in [*more, *map(names.get, exc.fields)])


def _grid(args, n_t, n_s):
    """A known ``--preset``'s uniform grid, its node counts in the options
    ``n_t`` and ``n_s``; Grid2 checks the numbers, and its refusals and the
    step guard name the options that set the values refused."""
    from .simulate import PRESETS, check_step
    if args.preset.lower() not in PRESETS:
        raise ConfigError(f"unknown preset '{args.preset}'", key="--preset")
    try:
        gr = g.Grid2.uniform(getattr(args, n_t), getattr(args, n_s),
                             args.duration, args.length, args.bc)
    except g.GridError as exc:
        raise ConfigError(str(exc), key=_refused(exc, n_t, n_s)) from None
    check_step(gr, default_params(), f"--{n_t.replace('_', '-')}, --duration")
    return gr


def _check_tol(tol):
    if tol is not None and not (np.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {tol}")


@contextlib.contextmanager
def _stored_section(indir):
    """The stored stage-1 section, as level sources, and its model; the
    manifest is read once, and a run without a model line refused first."""
    run = read_run(indir)
    if run.model is None:
        raise ConfigError(f"manifest in {indir} has no model line; the run's "
                          "model is unknown (rerun simulate)")
    with open_fields(run, FIELDS) as fields:
        yield Stage1Section(grid=run.grid, **fields), run.model


def _print_checks(title, results, preamble=()):
    sys.stdout.write(format_report(title, results, preamble))
    return EXIT_OK if all(c.passed for c in results) else EXIT_CHECK_FAILED


def cmd_simulate(args):
    import json
    from .config import load_config
    from .simulate import stream
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    t_parse = time.perf_counter() - t0
    # the march hands the fields to the writer process as it goes; they replace
    # those in --out only once the run is through, then the manifest; the
    # diagnostics and report follow, so a failed writer leaves --out as it was
    with FieldWriter(Run(args.out, cfg.grid, {}, cfg.params)) as fields:
        out = stream(cfg, fields.write)
        t_write = time.perf_counter()
    write_steps(args.out, out.steps)
    results = [info(k, v) for k, v in out.summary.items()]
    lines = {section: section for section, _, _, _ in PARAMS}
    for section, token, field, _ in PARAMS:    # "inertia I=... K=..."
        lines[section] += f" {token}=" + " ".join(
            "%.17g" % x for x in np.ravel(getattr(cfg.params, field)))
    start = "init=file" if cfg.preset is None else f"preset={cfg.preset}"
    preamble = [f"config {os.path.basename(args.config)}",
                grid_line(cfg.grid), *lines.values(), f"scheme rk4 {start}"]
    text = write_report(f"{args.out}/report.txt", "simulate", results, preamble)
    # wall times by phase, kept apart from the deterministic outputs; write_s
    # is the hand-over to the writer process, the wait for it and the files
    end = time.perf_counter()
    timings = {"parse_s": t_parse, "march_s": out.seconds["march"],
               "summary_s": out.seconds["summary"],
               "write_s": out.seconds["sink"] + end - t_write,
               "total_s": end - t0}
    with open(os.path.join(args.out, "timings.json"), "w") as fh:
        json.dump(timings, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_residuals(args):
    if args.indir:
        with _stored_section(args.indir) as (sec, params):
            summary = residual_norms(sec, params)
    else:
        from .simulate import SimConfig, stream
        cfg = SimConfig(grid=_grid(args, "n_t", "n_s"),
                        params=default_params(), preset=args.preset)
        summary = stream(cfg, None).summary
    return _print_checks("residuals", [
        *(info(f"stage1_{key}_l2", summary[f"residual_{key}_l2"])
          for key in Stage1Residuals._fields),
        info("flatness_rotation_max", summary["flatness_rotation_max"])])


def cmd_reconstruct(args):
    try:
        Lambda0 = np.array([float(x) for x in args.lambda0.split()]).reshape(3, 3)
    except ValueError:
        raise ConfigError("--lambda0 needs 9 reals (row-major)") from None
    try:    # before the run is read; the sweep projects Lambda0 itself
        reorthonormalize(Lambda0)
    except TooFarFromGroupError as exc:
        raise ConfigError(f"--lambda0 {args.lambda0!r}: {exc}") from None
    _check_tol(args.tol)
    outdir = args.out or args.indir
    # writing into the input run adds Lambda to its manifest; writing over
    # another run's manifest would drop its fields, so that is refused first
    same = os.path.realpath(outdir) == os.path.realpath(args.indir)
    listed = not same and os.path.exists(os.path.join(outdir, "manifest.txt"))
    others = sorted(set(read_run(outdir).entries) - {"Lambda"}) if listed else []
    if others:
        raise ConfigError(f"{os.path.join(outdir, 'manifest.txt')} lists the "
                          f"fields {others} of another run; not overwriting it")
    run = read_run(args.indir)
    # one window pass gates, sweeps and writes Lambda; a failed gate or
    # sweep leaves outdir as it was
    with open_fields(run, ("Omega", "omega")) as fields, \
            FieldWriter(run if same else Run(outdir, run.grid, {}, None)) as out:
        red.gated_pass(run.grid, fields["Omega"], fields["omega"], Lambda0,
                       args.tol, lambda w, L: out.write(
                           w.own, {"Lambda": L[w.inner]}) or ())
    sys.stdout.write(f"reconstructed Lambda written to {outdir}/Lambda.csv\n")
    return EXIT_OK


def cmd_noether(args):
    from .noether import noether_report
    _check_tol(args.tol)
    with _stored_section(args.indir) as (sec, params):
        results, totals = noether_report(sec, params, tol=args.tol)
    if args.out:
        path = write_totals(args.out, sec.grid, totals)
        sys.stdout.write(f"totals written to {path}\n")
    return _print_checks("noether", results)


# Each names its suite, ``checks.check_<name>``.
CHECK_SUITES = ("derivatives", "invariance", "stages", "variational",
                "reduction", "roundtrip", "noether")


def cmd_check(args):
    from . import checks    # imported here, as only `check` needs it
    return _print_checks(f"check {args.suite}",
                         getattr(checks, f"check_{args.suite}")())


def cmd_convergence(args):
    if args.levels < 2:
        raise ConfigError(f"--levels must be at least 2, got {args.levels}")
    base = _grid(args, "base_n_t", "base_n_s")
    from . import checks
    try:
        grids = checks.ladder(base, args.levels)
    except g.GridError as exc:
        raise ConfigError(f"convergence ladder: {exc}", key=_refused(
            exc, "base_n_t", "base_n_s", "levels")) from None
    rows, results = checks.convergence_table(args.preset, grids)
    preamble = ["level " + " ".join(
        f"{key}={x:d}" if isinstance(x, int) else f"{key}={x:.6e}"
        for key, x in row.items()) for row in rows]
    return _print_checks("convergence", results, preamble)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="strand-reduce",
        description="Reduced-field simulation and verification for an elastic "
                    "strand with internal rotors.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run the reduced system from a config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("residuals", help="residual norms of stored or preset runs")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="indir")
    src.add_argument("--preset")
    sp.add_argument("--n-s", dest="n_s", type=int, default=64)
    sp.add_argument("--n-t", dest="n_t", type=int, default=200)
    _add_grid_options(sp)
    sp.set_defaults(fn=cmd_residuals)

    sp = sub.add_parser("reconstruct", help="rebuild the rotation field")
    sp.add_argument("--in", dest="indir", required=True)
    sp.add_argument("--lambda0", default="1 0 0 0 1 0 0 0 1",
                    help="nine reals, row-major")
    sp.add_argument("--tol", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("noether", help="current totals and conservation identity")
    sp.add_argument("--in", dest="indir", required=True)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out", help="also write totals-over-time CSV here")
    sp.set_defaults(fn=cmd_noether)

    sp = sub.add_parser("check", help="property-verification suites")
    sp.add_argument("suite", choices=CHECK_SUITES)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("convergence", help="refinement table of residual norms")
    sp.add_argument("--preset", default="twistpulse")
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--base-n-s", dest="base_n_s", type=int, default=32)
    sp.add_argument("--base-n-t", dest="base_n_t", type=int, default=100)
    _add_grid_options(sp)
    sp.set_defaults(fn=cmd_convergence)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except NotFlatError as exc:
        sys.stderr.write(f"not flat: {exc}\n")
        return EXIT_NOT_FLAT
    except BlowupError as exc:
        sys.stderr.write(f"blow-up: {exc}\n")
        return EXIT_BLOWUP
    except StrandError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


def entry():
    sys.exit(main())
