"""compute_metrics integrates every segment in one vector pass; the report
must be bit for bit the one np.trapezoid gives one segment at a time."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feederflow import (
    FEEDER_TREE_PREF,
    SINGLE_FEEDER_PREF,
    ConvergenceError,
    DensityField,
    MetricsReport,
    SegmentProfile,
    SolverSettings,
    VoltageCollapseError,
    VoltageProfile,
    compute_metrics,
    power_density,
    solve_nonlinear,
    synthesize_tree,
    uniform_baseline,
)
from test_tree import MANY_EDGE_SIGMA_KM, MANY_EDGE_STEP_KM, many_edge_tree, random_tree


def reference_metrics(profile, plan=None):
    """Reference: np.trapezoid on each segment in turn."""
    max_dev = 0.0
    l2 = 0.0
    flats = {}
    for seg in profile.segments:
        max_dev = max(max_dev, float(np.abs(seg.v_pu - 1.0).max()))
        l2 += float(np.trapezoid((seg.v_pu - 1.0) ** 2, seg.x_km))
        flats[seg.segment_id] = float(np.trapezoid(seg.w ** 2, seg.x_km))
    return MetricsReport(
        max_dev=max_dev,
        l2_dev=l2,
        min_terminal_v=min(v for _sid, v in profile.terminal_v),
        w_flatness=flats,
        total_p=plan.total_p() if plan is not None else 0.0,
        leftover_p=plan.leftover_p if plan is not None else 0.0,
    )


def assert_same_report(profile, plan=None):
    # repr: every float to its last bit, and the sign of zero
    assert repr(compute_metrics(profile, plan)) == repr(reference_metrics(profile, plan))


@pytest.mark.parametrize("name, pref", [("single_feeder", SINGLE_FEEDER_PREF),
                                        ("feeder_tree", FEEDER_TREE_PREF)])
@pytest.mark.parametrize("mode", ["literal", "principle", "uniform", None])
def test_bundled_grids(request, name, pref, mode):
    grid = request.getfixturevalue(name)
    if mode is None:
        plan = None
    elif mode == "uniform":
        plan = uniform_baseline(grid, pref)
    else:
        plan = synthesize_tree(grid, pref, mode=mode)
    assert_same_report(solve_nonlinear(grid, power_density(grid, plan)), plan)


def test_many_edge_tree():
    grid, power = many_edge_tree()
    profile = solve_nonlinear(grid, power_density(grid, power, MANY_EDGE_SIGMA_KM),
                              SolverSettings(step_km=MANY_EDGE_STEP_KM))
    assert_same_report(profile)


@settings(max_examples=40, deadline=None)
@given(random_tree(), st.sampled_from(["literal", "principle"]))
def test_property_random_trees(case, mode):
    grid, p_ref = case
    plan = synthesize_tree(grid, p_ref, mode=mode)
    try:
        profile = solve_nonlinear(grid, DensityField(grid, plan.as_power_map(), 0.03),
                                  SolverSettings(step_km=0.015))
    except (VoltageCollapseError, ConvergenceError):
        return
    assert_same_report(profile, plan)


def _profile(lengths, rng):
    """Random samples on segments of the given numbers of points."""
    segs = []
    x0 = 0.0
    for k, n in enumerate(lengths):
        x = x0 + np.cumsum(rng.uniform(0.0, 0.1, n))
        v = 1.0 + rng.normal(0.0, 0.02, n)
        w = rng.normal(0.0, 0.05, n)
        segs.append(SegmentProfile(f"s{k}", x, np.zeros(n), v, np.zeros(n), w))
        x0 = float(rng.uniform(0.0, x[-1]))    # the next segment's range overlaps
    return VoltageProfile(tuple(segs), 1, 0.0, (("s0", float(segs[0].v_pu[-1])),),
                          0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


# around the pairwise sum's blocks of 8 and 128 terms, and one point (no term)
@pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 128, 129, 130, 257, 4001])
def test_single_segment(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        assert_same_report(_profile([n], rng))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 9, 41, 129, 130, 300]), min_size=1, max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_property_segments_of_repeated_lengths(lengths, seed):
    assert_same_report(_profile(lengths, np.random.default_rng(seed)))
