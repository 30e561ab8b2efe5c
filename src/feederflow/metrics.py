"""Voltage-quality metrics for comparing dispatch strategies."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispatch import DispatchPlan
from .solver import VoltageProfile

__all__ = ["MetricsReport", "compute_metrics"]

@dataclass(frozen=True)
class MetricsReport:
    max_dev: float              # sup |v - 1| over the whole tree
    l2_dev: float               # integral of (v - 1)^2 dx, summed over segments
    min_terminal_v: float       # worst open-end voltage
    w_flatness: dict[str, float] = field(default_factory=dict)  # integral of w^2 dx per segment
    total_p: float = 0.0
    leftover_p: float = 0.0

    def as_dict(self) -> dict:
        return {
            "max_dev": self.max_dev,
            "l2_dev": self.l2_dev,
            "min_terminal_v": self.min_terminal_v,
            "w_flatness": dict(self.w_flatness),
            "total_p": self.total_p,
            "leftover_p": self.leftover_p,
        }


def compute_metrics(profile: VoltageProfile, plan: DispatchPlan | None = None) -> MetricsReport:
    """Metrics of a profile, in one vector pass over its columns.

    The trapezoid terms of every segment come from one expression over the
    flat columns, and the terms that straddle two segments are never
    summed.  Each segment's terms get the pairwise sum that np.trapezoid
    uses, so every integral is bit for bit the per-segment np.trapezoid.
    """
    dev = profile.v_pu - 1.0
    d = np.diff(profile.x_km)
    terms = [d * (y[1:] + y[:-1]) / 2.0 for y in (dev ** 2, profile.w ** 2)]
    # segments with the same number of terms are summed as the rows of one
    # C-contiguous array: numpy sums along the fast axis pairwise, row by
    # row, exactly as .sum() sums that row alone
    sums = np.empty((2, len(profile.segment_ids)))
    for rows, cells in profile.trapezoid_groups:
        for k in (0, 1):
            sums[k, rows] = terms[k][cells].sum(axis=1)
    l2 = 0.0
    for term in sums[0].tolist():    # not sum(): it compensates from Python 3.12
        l2 += term
    return MetricsReport(
        max_dev=float(np.abs(dev).max()),
        l2_dev=l2,
        min_terminal_v=min(v_end for _sid, v_end in profile.terminal_v),
        w_flatness=dict(zip(profile.segment_ids, sums[1].tolist())),
        total_p=plan.total_p() if plan is not None else 0.0,
        leftover_p=plan.leftover_p if plan is not None else 0.0,
    )
