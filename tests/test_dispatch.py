import math

import pytest
from hypothesis import given, settings, strategies as st

import _oracle as oracle
from feederflow import (
    Device,
    FeederSegment,
    GridTree,
    HandOff,
    PerUnitBase,
    audit_trace,
    power_density,
    station_q_cap,
    synthesize,
    uniform_baseline,
)

# bank-nearest first, the order the display table uses; the bank-nearest
# element carries the refinement pass's float residue (9e-18 off the round value)
P_PLAN = (0.010000000000000009, 0.03, 0.03, 0.03)
Q_PLAN = (0.004843221048378528, 0.014529663145135579,
          0.014529663145135579, 0.014529663145135579)
P_TABLE = (0.01, 0.03, 0.03, 0.03)
Q_TABLE = (0.0048, 0.0145, 0.0145, 0.0145)


def make_single(devices, length=5.0, g=3.881, b=6.856):
    return GridTree(
        PerUnitBase(12.0e6, 6600.0),
        (FeederSegment("main", length, g, b),),
        tuple(devices),
    )


# -- bundled scenario goldens ----------------------------------------------------

def test_plan_frozen_exact(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    assert [st.station_id for st in plan.stations] == ["st-1", "st-2", "st-3", "st-4"]
    assert [st.xi_km for st in plan.stations] == [1.0, 2.0, 3.0, 4.0]
    assert tuple(st.p_pu for st in plan.stations) == P_PLAN
    assert tuple(st.q_pu for st in plan.stations) == Q_PLAN
    assert plan.leftover_p == 0.0


def test_plan_matches_table_display(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    for st_row, p_ref, q_ref in zip(plan.stations, P_TABLE, Q_TABLE):
        assert abs(st_row.p_pu - p_ref) <= 0.005e-2
        assert abs(st_row.q_pu - q_ref) <= 0.005e-2


def test_plan_total_is_exact(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    assert plan.total_p() == 0.1


def test_residual_chain_in_trace(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    p_events = [ev for ev in plan.trace if ev.quantity == "P"]
    assert p_events == [
        HandOff("P", 0.03, "st-4", "st-3"),
        HandOff("P", 0.06, "st-3", "st-2"),
        HandOff("P", 0.09, "st-2", "st-1"),
        HandOff("P", 0.12, "st-1", None),
    ]
    assert plan.seeds_p == (("st-4", 0.0), ("st-3", 0.03), ("st-2", 0.06), ("st-1", 0.09))
    assert audit_trace(plan) == 0.0


def test_caps_bind_everywhere_but_bank_nearest(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    assert plan.stations[0].p_max_eff == 0.03
    for st_row in plan.stations[1:]:
        assert st_row.p_pu == st_row.p_max_eff
        assert st_row.q_pu == st_row.q_cap
    assert plan.stations[0].p_pu < plan.stations[0].p_max_eff
    assert plan.stations[0].q_pu == plan.stations[0].q_cap


def test_principle_mode_agrees_on_bundled_scenario(single_feeder):
    lit = synthesize(single_feeder, 0.1)
    pr = synthesize(single_feeder, 0.1, mode="principle")
    assert [s.p_pu for s in pr.stations] == [s.p_pu for s in lit.stations]
    assert [s.q_pu for s in pr.stations] == [s.q_pu for s in lit.stations]


def test_uniform_baseline_matches_table(single_feeder):
    uni = uniform_baseline(single_feeder, 0.1)
    for st_row in uni.stations:
        assert st_row.p_pu == 0.025
        assert st_row.q_pu == 0.012108052620946315
        assert abs(st_row.p_pu - 0.025) <= 0.005e-2
        assert abs(st_row.q_pu - 0.0121) <= 0.005e-2
    assert uni.leftover_p == 0.0


def test_oracle_agrees_on_bundled_scenario(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    raw = 400.0e3 / 12.0e6
    xi_sta = [4.0, 3.0, 2.0, 1.0]
    p_want, left = oracle.active_pass(xi_sta, [-raw] * 4, [raw] * 4,
                                      [4.5, 3.5, 2.5, 1.5, 0.5], [-0.06] * 5, 0.1)
    q_want = oracle.reactive_pass(p_want, xi_sta, [4.5, 3.5, 2.5, 1.5, 0.5],
                                  [-0.06] * 5, *_gb(single_feeder))
    far_first = list(reversed(plan.stations))
    assert [s.p_pu for s in far_first] == p_want
    assert [s.q_pu for s in far_first] == q_want
    assert plan.leftover_p == left


def _gb(grid):
    seg = grid.segments[0]
    return seg.g_pu_per_km, seg.b_pu_per_km


# -- behaviour off the golden path --------------------------------------------

def test_q_cap_shape():
    assert station_q_cap(0.0) == 0.0
    assert station_q_cap(0.03) == station_q_cap(-0.03)
    assert station_q_cap(0.03) == pytest.approx(0.03 * math.tan(math.acos(0.9)), rel=1e-14)


def test_zero_request_no_loads_is_all_zero():
    grid = make_single([
        Device("station", "main", 1.0, "s1", p_min_pu=-0.1, p_max_pu=0.1),
        Device("station", "main", 3.0, "s2", p_min_pu=-0.1, p_max_pu=0.1),
    ])
    plan = synthesize(grid, 0.0)
    assert all(s.p_pu == 0.0 and s.q_pu == 0.0 for s in plan.stations)
    assert plan.leftover_p == 0.0
    assert plan.trace == ()


def test_pass_two_lifts_partial_station_to_meet_request():
    # pass 1 only covers the load beyond the station; the refinement pass
    # tops the same station up with the rest of the request
    plan = synthesize(make_single([
        Device("station", "main", 1.0, "s", p_min_pu=-0.05, p_max_pu=0.05),
        Device("load", "main", 2.0, "l", p_pu=-0.02),
    ]), 0.03)
    (row,) = plan.stations
    assert row.p_max_eff == 0.9 * 0.05
    assert row.p_pu == 0.02 + 0.01   # 0.02 from pass 1, lifted by the remaining 0.01
    assert plan.leftover_p == 0.0
    assert plan.seeds_p == (("s", 0.0),)
    # never clamped in P, so nothing was forwarded; the Q pass clamps at the
    # cone and drops its residual at the bank
    assert [ev for ev in plan.trace if ev.quantity == "P"] == []
    assert [(ev.quantity, ev.source, ev.target) for ev in plan.trace] == [("Q", "s", None)]


def test_infeasible_request_saturates_and_reports_leftover(single_feeder):
    plan = synthesize(single_feeder, 1.0)
    for st_row in plan.stations:
        assert st_row.p_pu == st_row.p_max_eff
    assert plan.leftover_p == pytest.approx(1.0 - 0.12, abs=1e-12)
    assert plan.total_p() + plan.leftover_p == pytest.approx(1.0, abs=1e-12)


def test_negative_request_discharges(single_feeder):
    plan = synthesize(single_feeder, -0.1)
    assert plan.total_p() == pytest.approx(-0.1, abs=1e-12)
    assert any(s.p_pu < 0.0 for s in plan.stations)
    for st_row in plan.stations:
        assert st_row.p_min_eff <= st_row.p_pu <= st_row.p_max_eff


def test_refinement_noop_when_nothing_left():
    p = [0.01, 0.02, 0.005]
    out, left = oracle.refine_pass(p, [-0.1] * 3, [0.1] * 3, 0.0)
    assert out == p and left == 0.0


def test_refinement_on_saturated_plan_changes_nothing():
    hi = [0.03] * 4
    out, left = oracle.refine_pass([0.027] * 4, [-0.03] * 4, hi, 5.0)
    assert out == [0.9 * h for h in hi]
    out2, left2 = oracle.refine_pass(out, [-0.03] * 4, hi, left)
    assert out2 == out


def test_synthesize_rejects_trees(feeder_tree):
    with pytest.raises(ValueError, match="single feeder"):
        synthesize(feeder_tree, 0.01)


def test_uniform_needs_stations_and_sane_pf():
    grid = make_single([Device("load", "main", 1.0, "l", p_pu=-0.1)])
    with pytest.raises(ValueError, match="at least one station"):
        uniform_baseline(grid, 0.1)


def test_unclamped_seed_quirk_is_preserved():
    # a station that receives a residual but has no pending load beyond it
    # keeps the raw seed, even outside its own bounds: the first pass
    # only clamps while consuming loads.  p_ref equals what the first pass
    # delivers, so the refinement pass never runs and the seed survives.
    grid = make_single([
        Device("station", "main", 3.0, "far", p_min_pu=-0.001, p_max_pu=0.001),
        Device("station", "main", 1.0, "near", p_min_pu=-0.0001, p_max_pu=0.0001),
        Device("load", "main", 3.5, "l", p_pu=-0.5),
    ])
    plan = synthesize(grid, 0.5)
    hi = 0.9 * 0.001
    near, far = plan.stations          # bank-nearest first
    assert far.p_pu == hi
    assert near.p_pu == 0.5 - hi
    assert near.p_pu > 0.9 * 0.0001   # hand-off kept verbatim, far above near's cap
    assert plan.leftover_p == 0.0
    assert plan.seeds_p == (("far", 0.0), ("near", 0.5 - hi))
    p_events = [ev for ev in plan.trace if ev.quantity == "P"]
    assert p_events == [HandOff("P", 0.5 - hi, "far", "near")]
    # reactive: same structure; the near station's seed is never re-checked
    assert far.q_pu == station_q_cap(far.p_pu)
    assert near.q_pu == dict(plan.seeds_q)["near"]
    assert near.q_pu > station_q_cap(near.p_pu)  # out of cone, faithfully so
    # the density builder rejects the plan and names the hand-off behind it
    with pytest.raises(ValueError, match=(r"^station 'near': p=0\.4991 outside effective bounds "
                                          r".*; P hand-offs received: 0\.4991 from 'far'$")):
        power_density(grid, plan)


# -- randomized properties -----------------------------------------------------

@st.composite
def interleaved_feeder(draw):
    """Stations with one load just beyond each: every station always clamps
    or lands in bounds, so plans must respect bounds and cones exactly."""
    n = draw(st.integers(min_value=1, max_value=5))
    raws = draw(st.lists(st.floats(0.01, 0.2), min_size=n, max_size=n))
    lo_scale = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    load_p = draw(st.lists(st.floats(0.0, 0.3), min_size=n + 1, max_size=n + 1))
    p_ref = draw(st.floats(-0.5, 0.5))
    g = draw(st.floats(0.5, 8.0))
    b = draw(st.floats(0.5, 8.0))
    devices = []
    for i in range(n):
        x = 0.5 + 1.0 * i
        devices.append(Device("station", "main", x, f"s{i}",
                              p_min_pu=-raws[i] * lo_scale[i], p_max_pu=raws[i]))
        devices.append(Device("load", "main", x + 0.5, f"l{i}", p_pu=-load_p[i]))
    devices.append(Device("load", "main", 0.25, "l-bank", p_pu=-load_p[n]))
    grid = GridTree(PerUnitBase(1.0, 1.0),
                    (FeederSegment("main", 0.5 + 1.0 * n, g, b),),
                    tuple(devices))
    return grid, p_ref


@settings(max_examples=120, deadline=None)
@given(interleaved_feeder())
def test_property_bounds_cone_and_audit(case):
    grid, p_ref = case
    plan = synthesize(grid, p_ref)
    for row in plan.stations:
        assert row.p_min_eff <= row.p_pu <= row.p_max_eff
        assert abs(row.q_pu) <= row.q_cap
    assert audit_trace(plan) == 0.0
    assert plan.total_p() + plan.leftover_p == pytest.approx(p_ref, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(interleaved_feeder())
def test_property_oracle_equivalence(case):
    grid, p_ref = case
    plan = synthesize(grid, p_ref)
    sta = sorted(grid.stations(), key=lambda d: -d.xi_km)
    loads = sorted(grid.loads(), key=lambda d: -d.xi_km)
    p_want, left = oracle.active_pass(
        [d.xi_km for d in sta], [d.p_min_pu for d in sta], [d.p_max_pu for d in sta],
        [d.xi_km for d in loads], [d.p_pu for d in loads], p_ref)
    q_want = oracle.reactive_pass(
        p_want, [d.xi_km for d in sta], [d.xi_km for d in loads],
        [d.p_pu for d in loads], grid.segments[0].g_pu_per_km, grid.segments[0].b_pu_per_km)
    far_first = list(reversed(plan.stations))
    assert [s.p_pu for s in far_first] == p_want
    assert [s.q_pu for s in far_first] == q_want
    assert plan.leftover_p == left


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.11, 0.11), st.floats(0.5, 8.0), st.floats(0.5, 8.0))
def test_property_leftover_zero_within_capacity(p_ref, g, b):
    # aggregate capacity is +-0.36; any request inside it must be met
    devices = []
    for i in range(4):
        devices.append(Device("station", "main", 0.5 + i, f"s{i}", p_min_pu=-0.1, p_max_pu=0.1))
        devices.append(Device("load", "main", 1.0 + i, f"l{i}", p_pu=-0.05))
    grid = GridTree(PerUnitBase(1.0, 1.0), (FeederSegment("main", 4.5, g, b),), tuple(devices))
    plan = synthesize(grid, p_ref)
    assert plan.leftover_p == 0.0
    assert plan.total_p() == pytest.approx(p_ref, abs=1e-12)
