"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 reconstruction gate failed
(not flat), 4 verification check failed, 5 solution blow-up.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import checks
from . import grid as g
from . import reduction as red
from . import residuals as rs
from .config import load_config
from .errors import BlowupError, ConfigError, NotFlatError, StrandError
from .fields_io import (format_report, read_fields, read_model, write_fields,
                        write_report, write_steps, write_totals)
from .model import default_params
from .reduction import Stage1Section
from .simulate import SimConfig, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_FLAT = 3
EXIT_CHECK_FAILED = 4
EXIT_BLOWUP = 5


def _add_grid_options(sp):
    sp.add_argument("--n-s", dest="n_s", type=int, default=64)
    sp.add_argument("--n-t", dest="n_t", type=int, default=200)
    sp.add_argument("--length", type=float, default=1.0)
    sp.add_argument("--duration", type=float, default=0.5)
    sp.add_argument("--bc", choices=(g.PERIODIC, g.CLAMPED), default=g.PERIODIC)


def _section_from_dir(indir):
    """The stored stage-1 section and the model it was simulated with."""
    params = read_model(indir)
    gr, fields = read_fields(indir, names=("rho", "theta", "Omega", "omega"))
    return Stage1Section(grid=gr, rho=fields["rho"], theta=fields["theta"],
                         Omega=fields["Omega"], omega=fields["omega"]), params


def _print_checks(title, results, preamble=()):
    sys.stdout.write(format_report(title, results, preamble))
    return EXIT_OK if all(c.passed for c in results) else EXIT_CHECK_FAILED


def cmd_simulate(args):
    t0 = time.perf_counter()
    cfg = load_config(args.config)
    t_parse = time.perf_counter() - t0
    out = run(cfg)
    t_write = time.perf_counter()
    sec = out.section
    write_fields(args.out, sec.grid, {"rho": sec.rho, "theta": sec.theta,
                                      "Omega": sec.Omega, "omega": sec.omega},
                 model=cfg.params)
    write_steps(args.out, out.steps)
    results = [checks.CheckResult(k, v, None, True)
               for k, v in out.summary.items()]
    p = cfg.params
    mat = lambda M: " ".join("%.17g" % x for x in np.asarray(M).ravel())
    preamble = [f"config {args.config}",
                f"grid n_t={sec.grid.n_t} n_s={sec.grid.n_s} "
                f"dt={sec.grid.dt:.17g} ds={sec.grid.ds:.17g} bc={sec.grid.bc_s}",
                f"inertia I={mat(p.inertia_body)} K={mat(p.inertia_rotor)}",
                f"potential C={mat(p.pot_C)} D={mat(p.pot_D)} "
                f"kappa={p.pot_kappa:.17g} c0={p.pot_c0:.17g}",
                f"scheme {cfg.scheme} preset={cfg.preset}"]
    text = write_report(f"{args.out}/report.txt", "simulate", results, preamble)
    # wall times by phase, kept apart from the deterministic outputs
    end = time.perf_counter()
    timings = {"parse_s": t_parse, "march_s": out.seconds["march"],
               "summary_s": out.seconds["summary"], "write_s": end - t_write,
               "total_s": end - t0}
    with open(os.path.join(args.out, "timings.json"), "w") as fh:
        json.dump(timings, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_residuals(args):
    if args.indir:
        sec, params = _section_from_dir(args.indir)
    else:
        params = default_params()
        gr = g.Grid2.uniform(args.n_t, args.n_s, args.duration, args.length,
                             args.bc)
        cfg = SimConfig(grid=gr, params=params, preset=args.preset)
        sec = run(cfg).section
    res = rs.stage1_residuals(sec, params)
    s2 = red.project_stage2(sec)
    res2 = rs.stage2_residuals(s2, params)
    results = []
    for stage, r in (("stage1", res), ("stage2", res2)):
        for name, value in r.interior_norms().items():
            results.append(checks.CheckResult(f"{stage}_{name}_l2", value,
                                              None, True))
    flat = g.norm_max(red.flatness_residual_rotation(sec),
                      sec.grid.interior_mask(2))
    results.append(checks.CheckResult("flatness_rotation_max", flat, None, True))
    sys.stdout.write(format_report("residuals", results))
    return EXIT_OK


def cmd_reconstruct(args):
    gr, fields = read_fields(args.indir, names=("Omega", "omega"))
    Lambda0 = np.array([float(x) for x in args.lambda0.split()])
    if Lambda0.size != 9:
        raise ConfigError("--lambda0 needs 9 reals (row-major)")
    Lam = red.reconstruct_rotation(gr, fields["Omega"], fields["omega"],
                                   Lambda0.reshape(3, 3), tol=args.tol)
    outdir = args.out or args.indir
    # writing into the input run adds Lambda to its manifest
    same = os.path.realpath(outdir) == os.path.realpath(args.indir)
    write_fields(outdir, gr, {"Lambda": Lam}, merge=same)
    sys.stdout.write(f"reconstructed Lambda written to {outdir}/Lambda.csv\n")
    return EXIT_OK


def cmd_noether(args):
    sec, params = _section_from_dir(args.indir)
    flat = g.norm_max(red.flatness_residual_rotation(sec))
    tol = args.tol if args.tol is not None else 10.0 * flat + 1e-6
    Lam = red.reconstruct_rotation(sec.grid, sec.Omega, sec.omega, np.eye(3),
                                   tol=tol)
    results, totals = checks.noether_report(sec, Lam, params)
    if args.out:
        path = write_totals(args.out, sec.grid, totals)
        sys.stdout.write(f"totals written to {path}\n")
    return _print_checks("noether", results)


def cmd_check(args):
    suite = {
        "derivatives": checks.check_derivatives,
        "stages": checks.check_stages,
        "variational": checks.check_variational,
        "roundtrip": checks.check_roundtrip,
    }[args.suite]
    return _print_checks(f"check {args.suite}", suite())


def cmd_convergence(args):
    rows, results = checks.convergence_table(
        preset=args.preset, levels=args.levels, base_n_s=args.base_n_s,
        base_n_t=args.base_n_t, duration=args.duration, length=args.length,
        bc=args.bc)
    preamble = []
    for row in rows:
        preamble.append(
            "level n_s=%d n_t=%d vertical=%.6e horizontal_rho=%.6e "
            "horizontal_theta=%.6e flatness=%.6e"
            % (row["n_s"], row["n_t"], row["vertical"], row["horizontal_rho"],
               row["horizontal_theta"], row["flatness"]))
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
    sp.add_argument("suite", choices=("derivatives", "stages", "variational",
                                      "roundtrip"))
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("convergence", help="refinement table of residual norms")
    sp.add_argument("--preset", default="twistpulse")
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--base-n-s", dest="base_n_s", type=int, default=32)
    sp.add_argument("--base-n-t", dest="base_n_t", type=int, default=100)
    sp.add_argument("--length", type=float, default=1.0)
    sp.add_argument("--duration", type=float, default=0.5)
    sp.add_argument("--bc", choices=(g.PERIODIC, g.CLAMPED), default=g.PERIODIC)
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
        return 1


def entry():
    sys.exit(main())
