import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracle as oracle
import feederflow.dispatch as dispatch_module
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
    synthesize_tree,
    uniform_baseline,
)
from feederflow.grid import station_q_caps

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
    q_want, _total = oracle.principle_pass(
        p_want, [d.xi_km for d in sta], [d.xi_km for d in loads], [d.p_pu for d in loads],
        [d.q_pu for d in loads], grid.segments[0].g_pu_per_km, grid.segments[0].b_pu_per_km)
    far_first = list(reversed(synthesize(grid, p_ref, "principle").stations))
    assert [s.q_pu for s in far_first] == q_want


@st.composite
def trunk_with_laterals(draw):
    """A 4 km trunk with up to two 2 km laterals joined straight to it, and
    the oracle's description of it.  Devices sit on lattices: a quarter km
    on the laterals, half a km on the trunk, whose devices may thus share a
    junction's position."""
    def powers():
        raw = draw(st.floats(0.01, 0.2))
        return -raw * draw(st.floats(0.1, 1.0)), raw

    def leg(seg_id, start, spots, step, at=None):
        g, b = draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0))
        kinds = draw(st.lists(st.sampled_from("-sl"), min_size=spots, max_size=spots))
        stations, loads, devices = [], [], []
        for k in reversed(range(spots)):        # far-to-near
            xi = start + step * (k + 1)
            if kinds[k] == "s":
                lo, hi = powers()
                stations.append((f"{seg_id}-s{k}", xi, lo, hi))
                devices.append(Device("station", seg_id, xi, f"{seg_id}-s{k}",
                                      p_min_pu=lo, p_max_pu=hi))
            elif kinds[k] == "l":
                p, q = -draw(st.floats(0.0, 0.3)), draw(st.floats(-0.1, 0.1))
                loads.append((xi, p, q))
                devices.append(Device("load", seg_id, xi, f"{seg_id}-l{k}", p_pu=p, q_pu=q))
        return {"g": g, "b": b, "at": at, "stations": stations, "loads": loads}, devices

    legs, devices, segments = [], [], []
    for n in range(draw(st.integers(0, 2))):
        at = 0.5 * draw(st.integers(1, 8))
        lateral, on_it = leg(f"lat{n}", at, 7, 0.25, at)
        legs.append(lateral)
        devices += on_it
        segments.append(FeederSegment(f"lat{n}", 2.0, lateral["g"], lateral["b"],
                                      parent="trunk", offset_km=at))
    trunk, on_it = leg("trunk", 0.0, 7, 0.5)
    legs.append(trunk)
    segments.insert(0, FeederSegment("trunk", 4.0, trunk["g"], trunk["b"]))
    return GridTree(PerUnitBase(1.0, 1.0), tuple(segments), tuple(devices + on_it)), legs


@settings(max_examples=100, deadline=None)
@given(trunk_with_laterals(),
       st.lists(st.floats(-1.0, 1.0) | st.sampled_from((0.0, -0.0)), min_size=4, max_size=6))
def test_property_warm_grid_matches_oracle(case, requests):
    # one grid object answers every request: each resumes the reactive pass
    # the grid keeps, at the first station its refinement visited
    grid, legs = case
    for p_ref in requests:
        for mode in ("literal", "principle"):
            plan = synthesize_tree(grid, p_ref, mode)
            want, left = oracle.tree_dispatch(legs, p_ref, mode)
            seeds = dict(plan.seeds_q)
            got = {row.station_id: (row.p_pu, row.q_pu, seeds[row.station_id])
                   for row in plan.stations}
            assert repr(got) == repr({sid: want[sid] for sid in got})
            assert set(got) == set(want)
            assert repr(plan.leftover_p) == repr(left)


def test_a_resumed_principle_walk_takes_the_carry_of_a_lateral_it_did_not_walk():
    # post order walks lat, then the trunk: far, the tap at 1.0, near.  The
    # request refines near and then far, so principle resumes at far and
    # must add lat's kept near-end sum at the tap; lat's capped station
    # leaves that sum far from zero, and it flips near's q to the other cap
    g, b = 3.881, 6.856
    legs = [
        {"g": g, "b": b, "at": 1.0, "stations": [("lat-st", 2.5, -0.1, 0.1)],
         "loads": [(2.75, -0.08, -0.2)]},
        {"g": g, "b": b, "at": None,
         "stations": [("far", 2.0, -0.1, 0.1), ("near", 0.5, -0.1, 0.1)],
         "loads": [(3.0, -0.05, 0.0)]},
    ]
    grid = GridTree(
        PerUnitBase(1.0, 1.0),
        (FeederSegment("trunk", 4.0, g, b), FeederSegment("lat", 2.0, g, b, parent="trunk",
                                                          offset_km=1.0)),
        (Device("station", "lat", 2.5, "lat-st", p_min_pu=-0.1, p_max_pu=0.1),
         Device("load", "lat", 2.75, "lat-ld", p_pu=-0.08, q_pu=-0.2),
         Device("station", "trunk", 2.0, "far", p_min_pu=-0.1, p_max_pu=0.1),
         Device("station", "trunk", 0.5, "near", p_min_pu=-0.1, p_max_pu=0.1),
         Device("load", "trunk", 3.0, "t-ld", p_pu=-0.05)))
    for p_ref in (0.25, 0.25, 0.0, 0.25):
        plan = synthesize_tree(grid, p_ref, "principle")
        want, _left = oracle.tree_dispatch(legs, p_ref, "principle")
        assert repr(plan.as_power_map()) == repr({sid: want[sid][:2] for sid in plan.ids})
    assert plan.as_power_map()["near"] == (0.09000000000000001, station_q_cap(0.09000000000000001))


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


# -- columnar plans ------------------------------------------------------------

# finite floats with the awkward ones forced in: signed zeros, subnormals and
# magnitudes where pe * pe overflows or underflows
AWKWARD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e154, 1.3e154,
                     -1.3e154, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(AWKWARD_FLOATS, min_size=1, max_size=20))
def test_vector_q_cap_is_station_q_cap_bit_for_bit(p):
    got = station_q_caps(np.array(p, dtype=float)).tolist()
    assert list(map(repr, got)) == [repr(station_q_cap(x)) for x in p]


@settings(max_examples=300, deadline=None)
@given(AWKWARD_FLOATS, st.lists(st.tuples(AWKWARD_FLOATS, AWKWARD_FLOATS), min_size=1, max_size=8))
@example(-0.0, [(0.0, 0.0)])
@example(0.0, [(-0.0, -0.0)])
@example(-0.0, [(0.0, 1.0)])
@example(0.0, [(-1.0, -0.0)])
@example(-0.0, [(-0.0, 0.0), (0.0, -0.0), (-1.0, 0.0)])
def test_uniform_clamp_is_pythons_min_max(share, bounds):
    lo, hi = (np.array(column, dtype=float) for column in zip(*bounds))
    got = dispatch_module._clamp(share, lo, hi).tolist()
    assert list(map(repr, got)) == [repr(min(max(share, a), b)) for a, b in bounds]


def test_uniform_split_keeps_signed_zero_ties():
    # a -0.0 request: Python's min/max keep the share, -0.0, also at the
    # station whose bounds are both 0.0, where np.maximum would give 0.0
    grid = make_single([Device("station", "main", 1.0, "s1"),
                        Device("station", "main", 2.0, "s2", p_min_pu=-0.1, p_max_pu=0.1)])
    plan = uniform_baseline(grid, -0.0)
    assert list(map(repr, plan.p_pu)) == ["-0.0", "-0.0"]
    assert list(map(repr, plan.q_pu)) == ["-0.0", "-0.0"]


# sha256 of repr(plan.stations) and of repr(plan.as_power_map()), and
# total_p(), of each bundled grid's plan at p_ref = 0.1, recorded when the
# plan still stored its StationDispatch rows
FROZEN_PLAN_SHA256 = {
    ("single", "literal"): ("555f3761228801f29177c50c7c18ad51fef6ce76c74673272e28f420562744a3",
                            "1e087f5d65e1385737df6197ce077daaf00d0ad88a79973c7e88545f7f88f823",
                            0.1),
    ("single", "principle"): ("555f3761228801f29177c50c7c18ad51fef6ce76c74673272e28f420562744a3",
                              "1e087f5d65e1385737df6197ce077daaf00d0ad88a79973c7e88545f7f88f823",
                              0.1),
    ("single", "uniform"): ("393d7b1e9a7ea20f1352e7484c0d2d16ec924599c45582dca329df266f63fb3d",
                            "9c8477295131bb2732da4599c6ea8e683d4557b0f5afac56a3afa3c80b915f7b",
                            0.1),
    ("tree", "literal"): ("9a4fc4a05ac8151f282666d26bbaf498269c1c461ad58a40731e058a6bd66d61",
                          "7c6c6f09fd3baab03b62fc52d93dfd4d1e3a536bbed806e03411c13a4d49dbde",
                          0.1),
    ("tree", "principle"): ("cd63db02c962887b68d74ff1d2cdaccb15a7bd3d05a838e48e24dc37fcb71f88",
                            "7f454060dd6194dbaf880bf6eb35a9478b43d485de8ce51be339f4e028e2fa9b",
                            0.1),
    ("tree", "uniform"): ("a400527eb5b5eacf56ab1e40ad7213b9b04f7e9c8602085b32430208edce1162",
                          "f325701d3aa032ffbd46829f558780901f0788079b8596220e02221cc0ddfa1f",
                          0.1),
}


def _plan_of(grid, mode, p_ref=0.1):
    if mode == "uniform":
        return uniform_baseline(grid, p_ref)
    return synthesize_tree(grid, p_ref, mode=mode)


@pytest.mark.parametrize("name,mode", sorted(FROZEN_PLAN_SHA256))
def test_plan_rows_map_and_total_frozen(single_feeder, feeder_tree, name, mode):
    plan = _plan_of(single_feeder if name == "single" else feeder_tree, mode)

    def sha(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    assert (sha(plan.stations), sha(plan.as_power_map()), plan.total_p()) == (
        FROZEN_PLAN_SHA256[name, mode])


@pytest.mark.parametrize("mode", ["literal", "principle", "uniform"])
def test_plan_rows_are_built_once_and_plans_compare_by_value(feeder_tree, mode):
    plan = _plan_of(feeder_tree, mode)
    assert plan.stations is plan.stations
    again = _plan_of(feeder_tree, mode)
    assert again == plan and hash(again) == hash(plan)
    assert all(type(x) is float for column in (plan.xi_km, plan.p_pu, plan.q_pu, plan.p_min_eff,
                                               plan.p_max_eff, plan.q_cap) for x in column)
    q = list(plan.q_pu)
    q[3] = q[3] + 1e-9
    assert dataclasses.replace(plan, q_pu=tuple(q)) != plan


# sha256 of repr(plan.trace) at p_ref 0.1, recorded when dispatch still
# built the HandOff records as it logged them
FROZEN_TRACE_SHA256 = {
    ("single", "literal"): "d53040de70260180003e861aff04405e3267d4c82ee19e79678ef8fa654386ba",
    ("single", "principle"): "db3ae9f985e77171cc3f21251cc66f9ed5239c9485424e02a7b0e86b53de59a1",
    ("single", "uniform"): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ("tree", "literal"): "90fcfc3f9227626575428f49f605e51e4931803a5c35502419126a7921e41579",
    ("tree", "principle"): "e121c50e48bc3fbe33c73f48713ae54b3768052a5b91b9818373445bfdf03ea5",
    ("tree", "uniform"): "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
}


@pytest.mark.parametrize("name,mode", sorted(FROZEN_TRACE_SHA256))
def test_plan_trace_is_built_from_its_columns_on_first_read(single_feeder, feeder_tree,
                                                            monkeypatch, name, mode):
    # dispatch, power_density and audit_trace build no HandOff; reading
    # plan.trace builds each record once
    built = []
    record = dispatch_module.HandOff

    def counting(*args):
        built.append(args)
        return record(*args)

    monkeypatch.setattr(dispatch_module, "HandOff", counting)
    grid = single_feeder if name == "single" else feeder_tree
    plan = _plan_of(grid, mode)
    power_density(grid, plan, 0.05)
    assert audit_trace(plan) == 0.0
    assert built == []
    trace = plan.trace
    assert trace is plan.trace and len(built) == len(trace)
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == FROZEN_TRACE_SHA256[name, mode]
    assert _plan_of(grid, mode).handoffs == plan.handoffs


# -- one grid answering a sweep of requests -------------------------------------

def seeded_feeder(seed=19, pairs=200):
    """A 20 km feeder of `pairs` stations, each with one load just beyond it."""
    rng = random.Random(seed)
    devices = []
    for k in range(pairs):
        x = 0.1 * k + 0.05
        raw = rng.uniform(0.001, 0.02)
        devices.append(Device("station", "main", x, f"s{k:03d}",
                              p_min_pu=-raw * rng.uniform(0.1, 1.0), p_max_pu=raw))
        devices.append(Device("load", "main", x + rng.uniform(0.01, 0.09), f"l{k:03d}",
                              p_pu=-rng.uniform(0.0, 0.02), q_pu=rng.uniform(-0.01, 0.01)))
    return GridTree(PerUnitBase(1.0, 1.0), (FeederSegment("main", 20.05, 3.881, 6.856),),
                    tuple(devices))


def idle_feeder():
    """Loads only nearer the bank than every station: the active pass sets
    every station to 0.0, so a request of 0.0 leaves each as it was."""
    return make_single([
        Device("load", "main", 0.5, "l0", p_pu=-0.02, q_pu=0.01),
        Device("station", "main", 1.0, "s0", p_min_pu=-0.1, p_max_pu=0.1),
        Device("station", "main", 2.0, "s1", p_min_pu=-0.1, p_max_pu=0.1),
        Device("load", "main", 0.8, "l1", p_pu=-0.01),
    ])


def sweep_requests(scale, seed=19):
    """36 seeded requests within +-1.5 scale, then 0.0, -0.0 and +-1e9."""
    rng = random.Random(seed)
    return [round(rng.uniform(-1.5, 1.5) * scale, 9) for _ in range(36)] + [0.0, -0.0, 1e9, -1e9]


# sha256 over every plan of the sweep, recorded before the reactive pass
# resumed at the first station the refinement visited
FROZEN_SWEEP_SHA256 = {
    "idle": "8de6bdc591bde28a1381fa7141d180256bf18d246f94638ae2dd2691f40c7ab4",
    "seeded": "93ad38a632101874bb8c354b176bf7f102e5393abf15db38b0f6dc542495d235",
    "tree": "a06f78d8a108166d76bfc3bd9cbe199421564014eefac242ab8f76c86e3a371b",
}


def _sweep_digest(grid, requests):
    digest = hashlib.sha256()
    plans = {}
    for order in (requests, requests[::-1]):
        for p_ref in order:
            for mode in ("literal", "principle"):
                plan = synthesize_tree(grid, p_ref, mode)
                for part in (plan, plan.handoffs, plan.seeds_p, plan.seeds_q):
                    digest.update(repr(part).encode())
                # the same request gives the same plan whatever came before
                assert repr(plans.setdefault((repr(p_ref), mode), plan)) == repr(plan)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(FROZEN_SWEEP_SHA256))
def test_frozen_request_sweep(feeder_tree, name):
    # the requests run forward and then in reverse on one grid object
    grid, scale = {"seeded": (seeded_feeder(), 2.0), "tree": (feeder_tree, 0.2),
                   "idle": (idle_feeder(), 0.03)}[name]
    assert _sweep_digest(grid, sweep_requests(scale)) == FROZEN_SWEEP_SHA256[name]
