"""Command-line front end.

Subcommands::

    feederflow validate --grid FILE
    feederflow run      --grid FILE [--pref X] [--mode M] [--sigma S] [--out DIR]
    feederflow compare  --grid FILE [--pref X] [--mode M] [--sigma S] [--out DIR]
    feederflow xcheck   --grid FILE [--pref X] [--mode M] [--sigma S] [--out DIR]

Exit codes: 0 success, 1 domain error (invalid grid, bad request), 2 file
error (unreadable or malformed input, unwritable output), 3 solver failure.
Result files are byte-deterministic, and no command writes one unless every
solve has succeeded; FEEDERFLOW_OUT sets the default output directory
(falling back to ./feederflow-out).
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .analytic import ClosedFormProfile, injections_from_grid
# perfbench/layers.py traces the CLI by wrapping the pipeline's functions by
# name in this namespace, so they stay module globals that the commands look
# up when called; synthesize is not called here but is wrapped all the same
from .dispatch import DispatchPlan, synthesize, synthesize_tree, uniform_baseline  # noqa: F401
from .grid import GridTree, power_density, validate_grid
from .gridio import (GridFileError, fmt_float, load_grid, write_dispatch_csv,
                     write_metrics_json, write_profile_csv)
from .metrics import compute_metrics
from .solver import SolverError, solve_linearized, solve_nonlinear

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_SOLVER = 3

# cross-check gates: closed form vs linearized sweep away from the smoothing
# kernels, and linearized vs full nonlinear on the bundled operating range
ANALYTIC_TOL = 5e-4
NONLINEAR_TOL = 1e-3
MASK_SIGMAS = 3.0


def _add_common(sp: argparse.ArgumentParser, modes: tuple[str, ...]) -> None:
    sp.add_argument("--grid", required=True, help="grid YAML file")
    sp.add_argument("--pref", type=float, default=0.1,
                    help="requested total station power, pu (default 0.1)")
    sp.add_argument("--mode", choices=modes, default="literal",
                    help="dispatch strategy (default literal)")
    sp.add_argument("--sigma", type=float, default=0.05,
                    help="coarse-graining kernel width, km (default 0.05)")
    sp.add_argument("--out", default=None,
                    help="output directory (default $FEEDERFLOW_OUT or ./feederflow-out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feederflow",
        description="Feeder voltage profiles and spatial charging dispatch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a grid file and report violations")
    sp.add_argument("--grid", required=True, help="grid YAML file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("run", help="dispatch stations and solve the voltage profile")
    _add_common(sp, ("literal", "principle", "uniform"))
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("compare", help="synthesized dispatch vs uniform split")
    _add_common(sp, ("literal", "principle"))
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("xcheck", help="closed form vs linearized vs nonlinear sweep")
    _add_common(sp, ("literal", "principle", "uniform"))
    sp.set_defaults(func=cmd_xcheck)
    return parser


def _request(args) -> tuple[GridTree, DispatchPlan]:
    """The validated --grid and its plan for --pref in --mode."""
    grid = load_grid(args.grid).validated()
    if args.mode == "uniform":
        return grid, uniform_baseline(grid, args.pref)
    return grid, synthesize_tree(grid, args.pref, mode=args.mode)


def _evaluate(grid: GridTree, plan: DispatchPlan, sigma_km: float):
    """The plan's density, its nonlinear profile and the profile's metrics."""
    density = power_density(grid, plan, sigma_km=sigma_km)
    profile = solve_nonlinear(grid, density)
    return density, profile, compute_metrics(profile, plan)


def _write(args, files: list) -> list[Path]:
    """Create the output directory, write each (name, writer, value) in it
    and return the paths written."""
    out = Path(args.out or os.environ.get("FEEDERFLOW_OUT") or "feederflow-out")
    out.mkdir(parents=True, exist_ok=True)
    for name, writer, value in files:
        writer(out / name, value)
    return [out / name for name, _, _ in files]


def cmd_validate(args) -> int:
    grid = load_grid(args.grid)
    report = validate_grid(grid)
    print(f"segments: {len(grid.segments)}  devices: {len(grid.devices)}")
    if report.ok:
        print("ok")
        return EXIT_OK
    for v in report.violations:
        print(f"violation: {v}")
    return EXIT_DOMAIN


def cmd_run(args) -> int:
    grid, plan = _request(args)
    _, profile, report = _evaluate(grid, plan, args.sigma)
    written = _write(args, [("dispatch.csv", write_dispatch_csv, plan),
                            ("profile.csv", write_profile_csv, profile),
                            ("metrics.json", write_metrics_json, report)])
    print(f"mode: {args.mode}  stations: {len(plan.ids)}")
    print(f"total_p: {fmt_float(report.total_p)}  leftover_p: {fmt_float(report.leftover_p)}")
    print(f"max_dev: {fmt_float(report.max_dev)}  l2_dev: {fmt_float(report.l2_dev)}"
          f"  min_terminal_v: {fmt_float(report.min_terminal_v)}")
    print(f"sweeps: {profile.sweeps}")
    for path in written:
        print(f"wrote: {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    grid, synthesized = _request(args)
    plans = {"synthesized": synthesized, "uniform": uniform_baseline(grid, args.pref)}
    reports, files = {}, []
    for label, plan in plans.items():
        _, profile, reports[label] = _evaluate(grid, plan, args.sigma)
        files += [(f"dispatch_{label}.csv", write_dispatch_csv, plan),
                  (f"profile_{label}.csv", write_profile_csv, profile)]
    summary = {label: rep.as_dict() for label, rep in reports.items()}
    for key in ("max_dev", "l2_dev"):
        ref, got = summary["uniform"][key], summary["synthesized"][key]
        summary[f"flatter_{key}"] = got < ref
        # 0/0 means the two runs coincide: report no change, not NaN
        summary[f"{key}_reduction_pct"] = 100.0 * (ref - got) / ref if ref != 0.0 else 0.0
    written = _write(args, files + [("compare.json", write_metrics_json, summary)])
    for label, rep in reports.items():
        print(f"{label}: max_dev {fmt_float(rep.max_dev)}  l2_dev {fmt_float(rep.l2_dev)}"
              f"  min_terminal_v {fmt_float(rep.min_terminal_v)}")
    print(f"flatter_max_dev: {summary['flatter_max_dev']}"
          f"  flatter_l2_dev: {summary['flatter_l2_dev']}")
    print(f"max_dev reduction: {fmt_float(summary['max_dev_reduction_pct'])}%"
          f"  l2_dev reduction: {fmt_float(summary['l2_dev_reduction_pct'])}%")
    print(f"wrote: {written[-1]}")
    return EXIT_OK


def cmd_xcheck(args) -> int:
    grid, plan = _request(args)
    if not grid.is_single_feeder():
        raise ValueError("xcheck needs a single straight feeder "
                         "(closed forms are not defined across junctions)")
    density, non, _ = _evaluate(grid, plan, args.sigma)
    lin = solve_linearized(grid, density)
    closed = ClosedFormProfile(injections_from_grid(grid, plan))
    x = lin.x_km    # the one segment's nodes
    mask = np.ones(x.shape, dtype=bool)
    for inj in closed.inj.injections:   # the loads and the placed stations
        mask &= np.abs(x - inj.xi_km) >= MASK_SIGMAS * args.sigma
    if not mask.any():
        raise ValueError(f"--sigma {args.sigma} km leaves no mesh point {MASK_SIGMAS:g} sigma "
                         "from every device, the only points where the closed form is compared")
    sup_analytic = float(np.max(np.abs(closed.amplitude(x[mask]) - lin.v_pu[mask])))
    sup_nonlinear = float(np.max(np.abs(lin.v_pu - non.v_pu)))
    payload = {
        "mode": args.mode,
        "pref": args.pref,
        "sigma_km": args.sigma,
        "masked_points": int(mask.sum()),
        "total_points": int(x.size),
        "sup_analytic_vs_linearized": sup_analytic,
        "analytic_tol": ANALYTIC_TOL,
        "analytic_ok": sup_analytic <= ANALYTIC_TOL,
        "sup_linearized_vs_nonlinear": sup_nonlinear,
        "nonlinear_tol": NONLINEAR_TOL,
        "nonlinear_ok": sup_nonlinear <= NONLINEAR_TOL,
    }
    written = _write(args, [("xcheck.json", write_metrics_json, payload)])
    print(f"analytic vs linearized (>= {MASK_SIGMAS:g} sigma from devices): "
          f"{fmt_float(sup_analytic)}  ok: {payload['analytic_ok']}")
    print(f"linearized vs nonlinear: {fmt_float(sup_nonlinear)}"
          f"  ok: {payload['nonlinear_ok']}")
    print(f"wrote: {written[0]}")
    return EXIT_OK


# the exit code of each error a command may raise; the first class that
# matches wins (io.UnsupportedOperation is an OSError and a ValueError)
EXIT_CODES = {GridFileError: EXIT_IO, OSError: EXIT_IO, SolverError: EXIT_SOLVER,
              ValueError: EXIT_DOMAIN}


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """argv with each negative number that follows a long option joined to
    it, as in --pref=-5e-2: argparse takes only the forms -5, -.5 and -0.5
    for a negative number and reads any other token that starts with "-",
    such as -5e-2 or -inf, as an option.  Every long option but --help
    (which argparse also takes abbreviated) takes a value."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and len(prev) > 2 and "=" not in prev
                and not "--help".startswith(prev) and arg.startswith("-")):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_numbers(argv))
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
