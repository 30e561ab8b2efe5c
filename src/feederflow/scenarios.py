"""Bundled study grids and their reference service requests."""
from __future__ import annotations

from pathlib import Path

from .grid import GridTree
from .gridio import load_grid

__all__ = [
    "SINGLE_FEEDER_PREF",
    "FEEDER_TREE_PREF",
    "bundled_grid_path",
    "load_single_feeder",
    "load_feeder_tree",
]

# requested ancillary-service totals used by the comparison studies, in pu
SINGLE_FEEDER_PREF = 0.1
FEEDER_TREE_PREF = 0.01

_NAMES = ("single_feeder", "feeder_tree")


def bundled_grid_path(name: str) -> Path:
    if name not in _NAMES:
        raise KeyError(f"unknown bundled grid {name!r}; available: {_NAMES}")
    return Path(__file__).with_name("data") / f"{name}.yaml"


def load_single_feeder() -> GridTree:
    """5 km straight feeder: 4 stations, 5 loads, 12 MVA base."""
    return load_grid(bundled_grid_path("single_feeder"))


def load_feeder_tree() -> GridTree:
    """Five-segment tree with two junctions: 16 stations, 12 loads."""
    return load_grid(bundled_grid_path("feeder_tree"))
