"""Command-line front end.

Subcommands::

    feederflow validate --grid FILE
    feederflow run      --grid FILE [--pref X] [--mode M] [--sigma S] [--out DIR]
    feederflow compare  --grid FILE [--pref X] [--mode M] [--sigma S] [--out DIR]
    feederflow xcheck   --grid FILE [--pref X] [--mode M] [--sigma S] [--out DIR]

Exit codes: 0 success, 1 domain error (invalid grid, bad request), 2 file
error (unreadable or malformed input, unwritable output), 3 solver failure.
Result files are byte-deterministic; FEEDERFLOW_OUT sets the default output
directory (falling back to ./feederflow-out).
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .analytic import ClosedFormProfile, injections_from_grid
# synthesize is not called here, but it stays importable from this module:
# perfbench/layers.py wraps it by name in this namespace
from .dispatch import DispatchPlan, synthesize, synthesize_tree, uniform_baseline  # noqa: F401
from .grid import GridTree, power_density, validate_grid
from .gridio import (
    GridFileError,
    fmt_float,
    load_grid,
    write_dispatch_csv,
    write_metrics_json,
    write_profile_csv,
)
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


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("FEEDERFLOW_OUT") or "feederflow-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _make_plan(grid: GridTree, pref: float, mode: str) -> DispatchPlan:
    if mode == "uniform":
        return uniform_baseline(grid, pref)
    return synthesize_tree(grid, pref, mode=mode)


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
    grid = load_grid(args.grid).validated()
    plan = _make_plan(grid, args.pref, args.mode)
    density = power_density(grid, plan, sigma_km=args.sigma)
    profile = solve_nonlinear(grid, density)
    report = compute_metrics(profile, plan)
    out = _out_dir(args)
    write_dispatch_csv(out / "dispatch.csv", plan)
    write_profile_csv(out / "profile.csv", profile)
    write_metrics_json(out / "metrics.json", report)
    print(f"mode: {args.mode}  stations: {len(plan.ids)}")
    print(f"total_p: {fmt_float(report.total_p)}  leftover_p: {fmt_float(report.leftover_p)}")
    print(f"max_dev: {fmt_float(report.max_dev)}  l2_dev: {fmt_float(report.l2_dev)}"
          f"  min_terminal_v: {fmt_float(report.min_terminal_v)}")
    print(f"sweeps: {profile.sweeps}")
    for name in ("dispatch.csv", "profile.csv", "metrics.json"):
        print(f"wrote: {out / name}")
    return EXIT_OK


def _reduction_pct(ref: float, got: float) -> float:
    # 0/0 means the two runs coincide: report no change, not NaN
    if ref == 0.0:
        return 0.0
    return 100.0 * (ref - got) / ref


def cmd_compare(args) -> int:
    grid = load_grid(args.grid).validated()
    plans = {
        "synthesized": _make_plan(grid, args.pref, args.mode),
        "uniform": uniform_baseline(grid, args.pref),
    }
    reports = {}
    out = _out_dir(args)
    for label, plan in plans.items():
        density = power_density(grid, plan, sigma_km=args.sigma)
        profile = solve_nonlinear(grid, density)
        reports[label] = compute_metrics(profile, plan)
        write_dispatch_csv(out / f"dispatch_{label}.csv", plan)
        write_profile_csv(out / f"profile_{label}.csv", profile)
    summary = {label: rep.as_dict() for label, rep in reports.items()}
    summary["flatter_max_dev"] = reports["synthesized"].max_dev < reports["uniform"].max_dev
    summary["flatter_l2_dev"] = reports["synthesized"].l2_dev < reports["uniform"].l2_dev
    summary["max_dev_reduction_pct"] = _reduction_pct(
        reports["uniform"].max_dev, reports["synthesized"].max_dev)
    summary["l2_dev_reduction_pct"] = _reduction_pct(
        reports["uniform"].l2_dev, reports["synthesized"].l2_dev)
    write_metrics_json(out / "compare.json", summary)
    for label in ("synthesized", "uniform"):
        rep = reports[label]
        print(f"{label}: max_dev {fmt_float(rep.max_dev)}  l2_dev {fmt_float(rep.l2_dev)}"
              f"  min_terminal_v {fmt_float(rep.min_terminal_v)}")
    print(f"flatter_max_dev: {summary['flatter_max_dev']}"
          f"  flatter_l2_dev: {summary['flatter_l2_dev']}")
    print(f"max_dev reduction: {fmt_float(summary['max_dev_reduction_pct'])}%"
          f"  l2_dev reduction: {fmt_float(summary['l2_dev_reduction_pct'])}%")
    print(f"wrote: {out / 'compare.json'}")
    return EXIT_OK


def cmd_xcheck(args) -> int:
    grid = load_grid(args.grid).validated()
    if not grid.is_single_feeder():
        print("error: xcheck needs a single straight feeder "
              "(closed forms are not defined across junctions)", file=sys.stderr)
        return EXIT_DOMAIN
    plan = _make_plan(grid, args.pref, args.mode)
    closed = ClosedFormProfile(injections_from_grid(grid, plan))
    density = power_density(grid, plan, sigma_km=args.sigma)
    lin = solve_linearized(grid, density)
    non = solve_nonlinear(grid, density)
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
    out = _out_dir(args)
    write_metrics_json(out / "xcheck.json", payload)
    print(f"analytic vs linearized (>= {MASK_SIGMAS:g} sigma from devices): "
          f"{fmt_float(sup_analytic)}  ok: {payload['analytic_ok']}")
    print(f"linearized vs nonlinear: {fmt_float(sup_nonlinear)}"
          f"  ok: {payload['nonlinear_ok']}")
    print(f"wrote: {out / 'xcheck.json'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
