"""The program's layers as the traced run sees them: which public functions
are wrapped, under which span names, and the per-layer metrics derived from
the spans.  Layers are named after the feederflow modules."""
from __future__ import annotations

import importlib
import os

from spans import coverage, totals

DISPATCH = ("synthesize", "synthesize_tree", "uniform_baseline")
WRITERS = (("write_dispatch_csv", "gridio.write_dispatch"),
           ("write_profile_csv", "gridio.write_profile"),
           ("write_metrics_json", "gridio.write_metrics"))


def _bytes(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _plan(_args, plan):
    return {"stations": len(plan.stations), "handoffs": len(plan.trace)}


def _points(args, _result):
    return {"points": len(args[2])}       # (self, seg_id, x_km)


def _solve(_args, profile):
    points = sum(len(sp.x_km) for sp in profile.segments)
    return {"sweeps": profile.sweeps, "segments": len(profile.segments), "points": points,
            "point_sweeps": profile.sweeps * points}


def _rows(args, _result):
    return {"rows": sum(len(sp.x_km) for sp in args[1].segments)}


def targets(namespace) -> list:
    """Wrappers for a pipeline that looks its functions up in `namespace`:
    the feederflow package for the studies, feederflow.cli for the CLI."""
    grid = importlib.import_module("feederflow.grid")
    out = [(namespace, name, "dispatch.synthesize", _plan) for name in DISPATCH]
    out += [
        (namespace, "load_grid", "gridio.load_grid", _bytes),
        (namespace, "power_density", "grid.power_density", None),
        (namespace, "solve_nonlinear", "solver.solve", _solve),
        (namespace, "compute_metrics", "metrics.compute", None),
        (grid, "validate_grid", "grid.validate", None),
        (grid.DensityField, "sample", "grid.sample", _points),
    ]
    return out + [(namespace, fn, name, _rows if fn == "write_profile_csv" else None)
                  for fn, name in WRITERS]


def layer_metrics(spans, op_walls_ns: dict) -> dict[str, tuple[float, str]]:
    """(value, unit) per metric: per-operation means over the traced
    operations (op -> (start, end) ns), timings as self times so that a
    wrapped child is not counted twice, and load_grid per call wherever it
    ran (the studies load once, during set-up)."""
    n = max(len(op_walls_ns), 1)
    t = totals(spans, op_walls_ns)
    load = totals(spans, {s.op for s in spans}).get("gridio.load_grid", {})

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def ms(name, key="self_ns"):
        return get(name, key) / 1e6 / n

    def ratio(a, b):
        return a / b if b else 0.0

    cover = coverage(spans, op_walls_ns, skip=("cli.main",)).values()
    return {
        "cli.main_self_ms": (ms("cli.main"), "ms"),
        "gridio.load_grid_ms": (ratio(load.get("total_ns", 0) / 1e6, load.get("calls", 0)), "ms"),
        "gridio.input_bytes": (ratio(load.get("bytes", 0), load.get("calls", 0)), "bytes"),
        "gridio.write_profile_ms": (ms("gridio.write_profile"), "ms"),
        "gridio.profile_rows": (get("gridio.write_profile", "rows") / n, "count"),
        "gridio.write_profile_us_per_row": (
            ratio(get("gridio.write_profile", "self_ns") / 1e3,
                  get("gridio.write_profile", "rows")), "us"),
        "gridio.write_dispatch_ms": (ms("gridio.write_dispatch"), "ms"),
        "gridio.write_metrics_ms": (ms("gridio.write_metrics"), "ms"),
        "grid.validate_ms": (ms("grid.validate"), "ms"),
        "grid.validate_calls": (get("grid.validate", "calls") / n, "count"),
        "grid.power_density_ms": (ms("grid.power_density"), "ms"),
        "grid.sample_ms": (ms("grid.sample"), "ms"),
        "grid.sample_calls": (get("grid.sample", "calls") / n, "count"),
        "grid.sample_points": (get("grid.sample", "points") / n, "count"),
        "grid.sample_ns_per_point": (ratio(get("grid.sample", "self_ns"),
                                           get("grid.sample", "points")), "ns"),
        "dispatch.synthesize_ms": (ms("dispatch.synthesize"), "ms"),
        "dispatch.stations": (get("dispatch.synthesize", "stations") / n, "count"),
        "dispatch.handoffs": (get("dispatch.synthesize", "handoffs") / n, "count"),
        "solver.solve_ms": (ms("solver.solve", "total_ns"), "ms"),
        "solver.self_ms": (ms("solver.solve"), "ms"),
        "solver.sweeps": (get("solver.solve", "sweeps") / n, "count"),
        "solver.points": (get("solver.solve", "points") / n, "count"),
        "solver.segments": (get("solver.solve", "segments") / n, "count"),
        "solver.ns_per_point_sweep": (ratio(get("solver.solve", "self_ns"),
                                            get("solver.solve", "point_sweeps")), "ns"),
        "metrics.compute_ms": (ms("metrics.compute"), "ms"),
        "trace.coverage_pct": (100.0 * sum(cover) / n, "%"),
    }
