"""Distribution-feeder voltage profiles and spatial EV-charging dispatch.

The package models a feeder tree as a continuum (per-unit line parameters,
coarse-grained power densities), solves the resulting two-point boundary
problem by backward-forward sweeps, evaluates exact closed forms for point
injections on a straight feeder, and synthesizes station set points that
deliver a requested total power while keeping the voltage profile flat.
"""
from .analytic import ClosedFormProfile, PointInjection, PointInjectionSet, injections_from_grid
from .dispatch import (
    DispatchPlan,
    HandOff,
    StationDispatch,
    audit_trace,
    synthesize,
    synthesize_tree,
    uniform_baseline,
)
from .grid import (
    DensityField,
    Device,
    FeederSegment,
    GridTree,
    GridValidationReport,
    PerUnitBase,
    power_density,
    station_q_cap,
    to_per_unit,
    validate_grid,
)
from .gridio import (
    GridFileError,
    load_grid,
    parse_grid,
    write_dispatch_csv,
    write_metrics_json,
    write_profile_csv,
)
from .metrics import MetricsReport, compute_metrics
from .scenarios import (
    FEEDER_TREE_PREF,
    SINGLE_FEEDER_PREF,
    bundled_grid_path,
    load_feeder_tree,
    load_single_feeder,
)
from .solver import (
    ConvergenceError,
    SegmentProfile,
    SolverError,
    SolverSettings,
    VoltageCollapseError,
    VoltageProfile,
    solve_linearized,
    solve_nonlinear,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormProfile", "PointInjection", "PointInjectionSet", "injections_from_grid",
    "DispatchPlan", "HandOff", "StationDispatch", "audit_trace",
    "synthesize", "synthesize_tree", "uniform_baseline",
    "DensityField", "Device", "FeederSegment", "GridTree", "GridValidationReport",
    "PerUnitBase", "power_density", "station_q_cap", "to_per_unit", "validate_grid",
    "GridFileError", "load_grid", "parse_grid",
    "write_dispatch_csv", "write_metrics_json", "write_profile_csv",
    "MetricsReport", "compute_metrics",
    "FEEDER_TREE_PREF", "SINGLE_FEEDER_PREF", "bundled_grid_path",
    "load_feeder_tree", "load_single_feeder",
    "ConvergenceError", "SegmentProfile", "SolverError", "SolverSettings",
    "VoltageCollapseError", "VoltageProfile", "solve_linearized", "solve_nonlinear",
    "__version__",
]
