"""Branched-feeder dispatch: hand-off routing, audit, and flat-feeder parity."""
import collections
import dataclasses
import hashlib
import importlib.util
import math
import pickle
import random
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import feederflow.dispatch as dispatch_module
import feederflow.grid as grid_module
import feederflow.solver as solver_module
from feederflow import (
    FEEDER_TREE_PREF,
    SINGLE_FEEDER_PREF,
    ConvergenceError,
    DensityField,
    Device,
    FeederSegment,
    GridTree,
    HandOff,
    PerUnitBase,
    SolverError,
    SolverSettings,
    VoltageCollapseError,
    audit_trace,
    bundled_grid_path,
    compute_metrics,
    load_feeder_tree,
    load_single_feeder,
    parse_grid,
    power_density,
    solve_nonlinear,
    station_q_cap,
    synthesize,
    synthesize_tree,
    uniform_baseline,
    write_dispatch_csv,
    write_metrics_json,
    write_profile_csv,
)


def two_level(station_bounds=0.01, lateral_station=True):
    """trunk --< lat at 1.0; trunk spans [0, 2], lat spans [1, 2.2]."""
    devices = [
        Device("load", "lat", 1.8, "lat-load", p_pu=-0.06),
        Device("load", "trunk", 1.6, "trunk-load", p_pu=-0.02),
    ]
    if lateral_station:
        devices.append(Device("station", "lat", 1.4, "lat-st",
                              p_min_pu=-station_bounds, p_max_pu=station_bounds))
    devices.append(Device("station", "trunk", 0.6, "trunk-st", p_min_pu=-0.5, p_max_pu=0.5))
    return GridTree(
        PerUnitBase(1.0, 1.0),
        (
            FeederSegment("trunk", 2.0, 3.881, 6.856),
            FeederSegment("lat", 1.2, 3.881, 6.856, parent="trunk", offset_km=1.0),
        ),
        tuple(devices),
    )


def test_single_segment_tree_equals_flat(single_feeder):
    assert synthesize_tree(single_feeder, 0.1) == synthesize(single_feeder, 0.1)
    got = synthesize_tree(single_feeder, 0.1, mode="principle")
    want = synthesize(single_feeder, 0.1, mode="principle")
    assert [s.q_pu for s in got.stations] == [s.q_pu for s in want.stations]


def test_handoff_crosses_junction_to_bank_side_station():
    grid = two_level()
    plan = synthesize_tree(grid, 0.0)
    p_events = [ev for ev in plan.trace if ev.quantity == "P"]
    # lat-st clamps at 0.009 and hands the rest to the trunk station at 0.6
    assert p_events[0].source == "lat-st"
    assert p_events[0].target == "trunk-st"
    assert p_events[0].amount == 0.06 - 0.9 * 0.01
    seeds = dict(plan.seeds_p)
    assert seeds["trunk-st"] == p_events[0].amount
    assert audit_trace(plan) == 0.0


def test_handoff_drops_at_bank_without_bank_side_station():
    grid = two_level(lateral_station=False)
    # remove the trunk station too: residual from the lateral has nowhere to go
    devices = tuple(d for d in grid.devices if d.kind == "load")
    bare = GridTree(PerUnitBase(1.0, 1.0), grid.segments, devices)
    plan = synthesize_tree(bare, 0.0)
    assert plan.stations == ()
    assert plan.trace == ()

    # station only on the lateral, none on the trunk: drop happens at the bank
    only_lat = GridTree(
        PerUnitBase(1.0, 1.0),
        grid.segments,
        devices + (Device("station", "lat", 1.4, "lat-st", p_min_pu=-0.01, p_max_pu=0.01),),
    )
    plan = synthesize_tree(only_lat, 0.0)
    p_events = [ev for ev in plan.trace if ev.quantity == "P"]
    assert [ev.target for ev in p_events] == [None]
    assert audit_trace(plan) == 0.0


def test_handoff_picks_nearest_bank_side_station():
    grid = GridTree(
        PerUnitBase(1.0, 1.0),
        (
            FeederSegment("trunk", 2.0, 3.881, 6.856),
            FeederSegment("lat", 1.0, 3.881, 6.856, parent="trunk", offset_km=1.5),
        ),
        (
            Device("load", "lat", 2.0, "l", p_pu=-0.06),
            Device("station", "lat", 1.8, "s-lat", p_min_pu=-0.01, p_max_pu=0.01),
            Device("station", "trunk", 1.8, "s-beyond", p_min_pu=-0.5, p_max_pu=0.5),
            Device("station", "trunk", 1.2, "s-near", p_min_pu=-0.5, p_max_pu=0.5),
            Device("station", "trunk", 0.4, "s-far", p_min_pu=-0.5, p_max_pu=0.5),
        ),
    )
    plan = synthesize_tree(grid, 0.0)
    hand = [ev for ev in plan.trace if ev.quantity == "P"][0]
    # 1.8 km on the trunk is beyond the tap at 1.5; 1.2 is the nearest bank side
    assert hand.source == "s-lat"
    assert hand.target == "s-near"


def test_post_order_follows_declared_child_order(feeder_tree):
    plan = synthesize_tree(feeder_tree, 0.01)
    order = [sid for sid, _ in plan.seeds_p]
    # fdrA's laterals (declared fdrA1 then fdrA2) run before fdrA, then fdrB, then trunk
    a1 = order.index("a1-st-1")
    a2 = order.index("a2-st-4")
    a = order.index("a-st-6")
    b = order.index("b-st-5")
    assert a1 < a2 < a < b


def test_chain_deeper_than_the_recursion_limit():
    # 1100 segments, each tapping its parent's far end, one station and one
    # light load on each
    segments = tuple(FeederSegment(f"s{k}", 0.01, 3.881, 6.856,
                                   parent=f"s{k - 1}" if k else None,
                                   offset_km=0.01 if k else 0.0) for k in range(1100))
    devices = []
    for k in range(1100):
        devices += [Device("station", f"s{k}", 0.01 * k + 0.003, f"st{k}", p_min_pu=-0.01, p_max_pu=0.01),
                    Device("load", f"s{k}", 0.01 * k + 0.007, f"l{k}", p_pu=-1e-5)]
    grid = GridTree(PerUnitBase(1.0, 1.0), segments, tuple(devices))
    plan = synthesize_tree(grid, 0.0)
    assert len(plan.stations) == 1100
    profile = solve_nonlinear(grid, power_density(grid, plan, 0.001), SolverSettings(step_km=0.0005))
    assert len(profile.segments) == 1100
    assert max(profile.junction_s_max, profile.junction_w_max, profile.junction_v_max) <= 1e-9


def test_bundled_tree_exact_total(feeder_tree):
    plan = synthesize_tree(feeder_tree, 0.01)
    assert plan.total_p() == 0.01
    assert plan.leftover_p == 0.0
    assert len(plan.stations) == 16
    assert audit_trace(plan) == 0.0


def test_bundled_tree_respects_bounds_and_cone(feeder_tree):
    plan = synthesize_tree(feeder_tree, 0.01)
    for row in plan.stations:
        assert row.p_min_eff <= row.p_pu <= row.p_max_eff
        assert abs(row.q_pu) <= row.q_cap
    # the plan is accepted by the density builder's independent checks
    power_density(feeder_tree, plan)


def test_bundled_tree_known_cross_junction_handoff(feeder_tree):
    plan = synthesize_tree(feeder_tree, 0.01)
    p_events = [ev for ev in plan.trace if ev.quantity == "P"]
    assert len(p_events) == 1
    hand = p_events[0]
    assert (hand.source, hand.target) == ("a1-st-1", "a-st-6")
    # two 200 kW loads minus the station's derated 25.6 MVA-base cap
    assert hand.amount == (2.0 * 2.0 ** -7) - 0.9 * 2.0 ** -6


def test_bundled_tree_stations_bank_first(feeder_tree):
    plan = synthesize_tree(feeder_tree, 0.01)
    xs = [row.xi_km for row in plan.stations]
    assert xs == sorted(xs)
    assert plan.stations[0].station_id == "a-st-1"


def test_refinement_spans_segments():
    # request more than the lateral can carry; trunk stations absorb the rest
    grid = two_level(station_bounds=0.004)
    plan = synthesize_tree(grid, 0.05)
    assert plan.total_p() == pytest.approx(0.05, abs=1e-12)
    assert plan.leftover_p == 0.0
    by_id = {row.station_id: row for row in plan.stations}
    assert by_id["lat-st"].p_pu == by_id["lat-st"].p_max_eff
    assert by_id["trunk-st"].p_pu > 0.0


def symmetric_tree(first="latA"):
    order = ("latA", "latB") if first == "latA" else ("latB", "latA")
    segs = [FeederSegment("trunk", 1.0, 3.881, 6.856)]
    devices = [Device("station", "trunk", 0.5, "trunk-st", p_min_pu=-0.5, p_max_pu=0.5)]
    for name in order:
        segs.append(FeederSegment(name, 1.0, 3.881, 6.856, parent="trunk", offset_km=1.0))
        devices.append(Device("load", name, 1.8, f"{name}-load", p_pu=-0.05))
        devices.append(Device("station", name, 1.4, f"{name}-st",
                              p_min_pu=-0.02, p_max_pu=0.02))
    return GridTree(PerUnitBase(1.0, 1.0), tuple(segs), tuple(devices))


def test_symmetric_branches_get_symmetric_plan():
    plan = synthesize_tree(symmetric_tree(), 0.1)
    by_id = {row.station_id: row for row in plan.stations}
    a, b = by_id["latA-st"], by_id["latB-st"]
    assert (a.p_pu, a.q_pu) == (b.p_pu, b.q_pu)
    p_events = [ev for ev in plan.trace if ev.quantity == "P"]
    assert sorted((ev.source, ev.target) for ev in p_events) == [
        ("latA-st", "trunk-st"), ("latB-st", "trunk-st")]
    assert p_events[0].amount == p_events[1].amount
    assert plan.total_p() == pytest.approx(0.1, abs=1e-12)
    assert plan.leftover_p == 0.0


def test_swapping_symmetric_branches_permutes_nothing():
    want = {row.station_id: (row.p_pu, row.q_pu)
            for row in synthesize_tree(symmetric_tree(), 0.1).stations}
    got = {row.station_id: (row.p_pu, row.q_pu)
           for row in synthesize_tree(symmetric_tree(first="latB"), 0.1).stations}
    assert got == want


def test_tree_uniform_baseline(feeder_tree):
    uni = uniform_baseline(feeder_tree, 0.01)
    assert len(uni.stations) == 16
    p = 0.01 / 16
    for row in uni.stations:
        assert row.p_pu == p
        assert row.q_pu == p * math.tan(math.acos(0.9))
    assert uni.leftover_p == 0.0


def test_tree_mode_validation(feeder_tree):
    with pytest.raises(ValueError, match="unknown mode"):
        synthesize_tree(feeder_tree, 0.01, mode="verbatim")


def test_unknown_mode_is_refused_before_the_grid_prepares_anything():
    grid = load_feeder_tree()
    message = r"^unknown mode 'bogus'; expected 'literal' or 'principle'$"
    with pytest.raises(ValueError, match=message):
        synthesize_tree(grid, 0.01, "bogus")
    assert grid._cache == {}
    # the grid keeps one reactive pass per known mode: any number of unknown
    # modes leaves what it holds in place
    for mode in ("literal", "principle"):
        synthesize_tree(grid, 0.01, mode)
    held = {key: id(value) for key, value in grid._cache["dispatch"].items()}
    assert sorted(held, key=str) == [None, "literal", "principle"]
    for n in range(2 * grid_module.CACHED_PER_KIND):
        with pytest.raises(ValueError, match="unknown mode"):
            synthesize_tree(grid, 0.01, f"mode-{n}")
    assert {key: id(value) for key, value in grid._cache["dispatch"].items()} == held


def test_tree_principle_mode_stays_in_cone(feeder_tree):
    plan = synthesize_tree(feeder_tree, 0.01, mode="principle")
    assert plan.total_p() == 0.01  # active pass identical in both modes
    for row in plan.stations:
        assert abs(row.q_pu) <= station_q_cap(row.p_pu)


# -- bundled tree golden, recorded bit for bit --------------------------------

# bank-nearest first: (station id, p_pu, literal q_pu, principle q_pu)
TREE_ROWS = (
    ("a-st-1", -0.0140625, -0.006810779599282301, 0.006810779599282301),
    ("b-st-1", 0.00013671875000000056, 6.621591277080045e-05, 6.621591277080045e-05),
    ("a-st-2", 0.00048828125, 0.0002364854027528578, -0.0),
    ("b-st-2", 0.0009765625, 0.0004729708055057156, -0.0),
    ("a-st-3", 0.00048828125, 0.0002364854027528578, -0.0),
    ("b-st-3", 0.0009765625, 0.0004729708055057156, -0.0),
    ("a-st-4", 0.00048828125, 0.0002364854027528578, -0.0),
    ("b-st-4", 0.0009765625, 0.0004729708055057156, -0.0),
    ("a-st-5", 0.00048828125, 0.0002364854027528578, -0.0),
    ("b-st-5", 0.0009765625, 0.0004729708055057156, -0.0),
    ("a-st-6", 0.0020507812499999997, 0.0009932386915620026, -0.0008845074812967577),
    ("a2-st-1", 0.00048828125, 0.0002364854027528578, -0.0),
    ("a1-st-1", 0.0140625, 0.006810779599282301, 0.0013157894736842105),
    ("a2-st-2", 0.00048828125, 0.0002364854027528578, -0.0),
    ("a2-st-3", 0.00048828125, 0.0002364854027528578, -0.0),
    ("a2-st-4", 0.00048828125, 0.0002364854027528578, -0.0),
)
# post order, far end first within each segment
TREE_SEEDS_P = (
    ("a1-st-1", 0.0),
    ("a2-st-4", 0.0),
    ("a2-st-3", 0.0),
    ("a2-st-2", 0.0),
    ("a2-st-1", 0.0),
    ("a-st-6", 0.0015624999999999997),
    ("a-st-5", 0.0),
    ("a-st-4", 0.0),
    ("a-st-3", 0.0),
    ("a-st-2", 0.0),
    ("a-st-1", 0.0),
    ("b-st-5", 0.0),
    ("b-st-4", 0.0),
    ("b-st-3", 0.0),
    ("b-st-2", 0.0),
    ("b-st-1", 0.0),
)
TREE_SEEDS_Q_LITERAL = (
    ("a1-st-1", 0.0),
    ("a2-st-4", 0.0),
    ("a2-st-3", 0.000585883018299774),
    ("a2-st-2", 0.000585883018299774),
    ("a2-st-1", 0.000585883018299774),
    ("a-st-6", 0.012196156050596423),
    ("a-st-5", 0.00044408596554522894),
    ("a-st-4", 0.00031633177305761596),
    ("a-st-3", 0.00031633177305761596),
    ("a-st-2", 0.00031633177305761596),
    ("a-st-1", 0.00031633177305761596),
    ("b-st-5", 0.0),
    ("b-st-4", 0.0006326635461152319),
    ("b-st-3", 0.0006326635461152319),
    ("b-st-2", 0.0006326635461152319),
    ("b-st-1", 0.0006326635461152319),
)
TREE_TRACE_LITERAL = (
    HandOff("P", 0.0015624999999999997, "a1-st-1", "a-st-6"),
    HandOff("Q", 0.011610273032296649, "a1-st-1", "a-st-6"),
    HandOff("Q", 0.000585883018299774, "a2-st-4", "a2-st-3"),
    HandOff("Q", 0.000585883018299774, "a2-st-3", "a2-st-2"),
    HandOff("Q", 0.000585883018299774, "a2-st-2", "a2-st-1"),
    HandOff("Q", 0.000585883018299774, "a2-st-1", "a-st-6"),
    HandOff("Q", 0.00044408596554522894, "a-st-6", "a-st-5"),
    HandOff("Q", 0.00031633177305761596, "a-st-5", "a-st-4"),
    HandOff("Q", 0.00031633177305761596, "a-st-4", "a-st-3"),
    HandOff("Q", 0.00031633177305761596, "a-st-3", "a-st-2"),
    HandOff("Q", 0.00031633177305761596, "a-st-2", "a-st-1"),
    HandOff("Q", -0.0008733791444832844, "a-st-1", None),
    HandOff("Q", 0.0006326635461152319, "b-st-5", "b-st-4"),
    HandOff("Q", 0.0006326635461152319, "b-st-4", "b-st-3"),
    HandOff("Q", 0.0006326635461152319, "b-st-3", "b-st-2"),
    HandOff("Q", 0.0006326635461152319, "b-st-2", "b-st-1"),
    HandOff("Q", 0.0005639956676531399, "b-st-1", None),
)


def _exact(values):
    """repr of the whole tuple: unlike ==, it also tells -0.0 from 0.0."""
    return repr(tuple(values))


@pytest.mark.parametrize("mode", ["literal", "principle"])
def test_bundled_tree_plan_frozen_exact(feeder_tree, mode):
    plan = synthesize_tree(feeder_tree, FEEDER_TREE_PREF, mode=mode)
    q_col = 2 if mode == "literal" else 3
    assert _exact((row.station_id, row.p_pu, row.q_pu) for row in plan.stations) == _exact(
        (row[0], row[1], row[q_col]) for row in TREE_ROWS)
    assert _exact(plan.seeds_p) == _exact(TREE_SEEDS_P)
    if mode == "literal":
        seeds_q, trace = TREE_SEEDS_Q_LITERAL, TREE_TRACE_LITERAL
    else:
        # principle mode forwards no Q, so it seeds nothing and logs only P
        seeds_q = tuple((sid, 0.0) for sid, _ in TREE_SEEDS_P)
        trace = tuple(ev for ev in TREE_TRACE_LITERAL if ev.quantity == "P")
    assert _exact(plan.seeds_q) == _exact(seeds_q)
    assert _exact(plan.trace) == _exact(trace)
    assert repr(plan.leftover_p) == "0.0"


# sha256 of the raw bytes of every profile array: literal plan at the
# bundled request, sigma 0.05 km, default solver settings
PROFILE_SHA256 = {
    "single_feeder": {
        ("main", "x_km"): "633805a8a49c4965e2475daa4e857567f0f8619e250d5315e326343bdf62c6ea",
        ("main", "theta_rad"): "ef912d0636626da3c6f4662e87160ecd44046395957184f4894b0b051126bb7f",
        ("main", "v_pu"): "28e3c776da86243e2a4b446cdeab467f127cfcaf4480d1371aa988e9851663e3",
        ("main", "s"): "a594972d9c3fb05d82b568efe2fddc1e3e2774f88fc1cf912c342e7b70703aa4",
        ("main", "w"): "cb3b7d25441c01ae63e69335a969f661c4ed9edd4f2a500ca6ea25fb28c435ac",
    },
    "feeder_tree": {
        ("trunk", "x_km"): "e9f9c65d5aa43630b0daacc01f78dea837a7a3421f0fc0f4599805ef97c82a4f",
        ("trunk", "theta_rad"): "4db9cc83253d76f52f07dee452746a2118b11589000f3c3a1524915666e00ba0",
        ("trunk", "v_pu"): "1baf2bfc1b7e443d5605261440d5c2163943d1b5530c87fa86096ddf7d73e30b",
        ("trunk", "s"): "ac9f399822af75b4bb85259ca808c7d538ac251d38db33824e82d902c208668d",
        ("trunk", "w"): "d9fd3c0364775c4a3772c8a247e71221d5d113aa05cf32649d2c51a90915f26e",
        ("fdrA", "x_km"): "0e0d2fa2756598159d45881e94d5ad99691f7bb8c0b52d1915abe09052af914f",
        ("fdrA", "theta_rad"): "b5e8f4c0061c785fdaafa4d2e7313ac5c96dcd84fbdda7ab383678fcd1b74709",
        ("fdrA", "v_pu"): "6eb00b141acdaef4c5e35652d90e8f019a4ca9693d0d6d2f73b1adda781c9cab",
        ("fdrA", "s"): "2e0f11540ec9761e2ba30b9c4a559c3848d6dfb6ad1dbb71ee21533dd5299a56",
        ("fdrA", "w"): "ffc26bfc2cb5a2de0659ded131d2f7a7631869c56276cc699e64745c53fb2b19",
        ("fdrB", "x_km"): "9aa34a2f1ad75ac8a6b9016253c2fb67460d8e2de8d751551cbf775b71ab09b0",
        ("fdrB", "theta_rad"): "2090e5aa814f6a763b37bb37230002b41903bccadabf9ea5471c661ffbf10590",
        ("fdrB", "v_pu"): "4ab3b97eba16d2feef78e8cd3946abf225d27d1b8e493191c36b9e87fd254479",
        ("fdrB", "s"): "fd307323e9142eeb70ad69a95fdf50e8001f8c04e9a515dcd8aaf6ee242242bb",
        ("fdrB", "w"): "08b24bf1c0be92c08f21ab244f06805631d4c85b01e0971b1d4fc10dbe7052e4",
        ("fdrA1", "x_km"): "ee5cb9b4e9baafb58a6300250f26cb980526f0925bdb20a4330ae48bdc73bbf5",
        ("fdrA1", "theta_rad"): "3b62e93208b7ac614a94ce3f6f7205150d8cb6751b3790ea8c933b742003bd6e",
        ("fdrA1", "v_pu"): "a90056a9ee234d4538e810d3d58a9ec4162f25dc12614fa3123bc270aed11d9f",
        ("fdrA1", "s"): "9a48b14e9bd4d2f8811b23b6d1484ba5dcc89de744e4935c0402a56c9c1580de",
        ("fdrA1", "w"): "ecc30f6e9ddbcf830548923b00f848f4f89c1734c332202837466b2fb6162c48",
        ("fdrA2", "x_km"): "ddb901f3dc1b7d31e92b871bb7964423352d175f16e7e88bd615644275ce39c0",
        ("fdrA2", "theta_rad"): "2dbaece94f7f01f0b3bae7b5f1e55b6263e4e7f3d1f59daf335ab61c75037ff8",
        ("fdrA2", "v_pu"): "38e4929c79cb708a4ca51bb170dc691499c086b9041c52b66ce100d58452645b",
        ("fdrA2", "s"): "6efb7af7782751c8b02b168c1d53d967affaee28a5752126d2ba0de986c002dc",
        ("fdrA2", "w"): "9044ce7cffcd61d61578bea419eed85e8e51786bb23aca2ade551640915374cc",
    },
}


@pytest.mark.parametrize("name,load,pref", [
    ("single_feeder", load_single_feeder, SINGLE_FEEDER_PREF),
    ("feeder_tree", load_feeder_tree, FEEDER_TREE_PREF),
])
def test_bundled_profiles_frozen_exact(name, load, pref):
    grid = load()
    profile = solve_nonlinear(grid, power_density(grid, synthesize_tree(grid, pref)))
    got = {(sp.segment_id, f): hashlib.sha256(getattr(sp, f).tobytes()).hexdigest()
           for sp in profile.segments for f in ("x_km", "theta_rad", "v_pu", "s", "w")}
    assert got == PROFILE_SHA256[name]


# -- randomized trees ------------------------------------------------------------

@st.composite
def random_tree(draw):
    """1-6 segments, each with at least one station and one load strictly inside."""
    segs = []
    start = {}
    devices = []
    for k in range(draw(st.integers(min_value=1, max_value=6))):
        sid = f"s{k}"
        length = draw(st.floats(0.5, 3.0))
        g = draw(st.floats(0.5, 8.0))
        b = draw(st.floats(0.5, 8.0))
        if k == 0:
            segs.append(FeederSegment(sid, length, g, b))
            start[sid] = 0.0
        else:
            parent = segs[draw(st.integers(min_value=0, max_value=k - 1))]
            offset = parent.length_km * draw(st.floats(0.05, 1.0))
            segs.append(FeederSegment(sid, length, g, b, parent=parent.id, offset_km=offset))
            start[sid] = start[parent.id] + offset
        extra = draw(st.lists(st.sampled_from(["station", "load"]), max_size=4))
        kinds = draw(st.permutations(["station", "load"] + extra))
        for i, kind in enumerate(kinds):
            xi = start[sid] + length * (i + 1) / (len(kinds) + 1)
            if kind == "station":
                raw = draw(st.floats(0.001, 0.2))
                lo_scale = draw(st.floats(0.1, 1.0))
                devices.append(Device("station", sid, xi, f"{sid}-d{i}",
                                      p_min_pu=-raw * lo_scale, p_max_pu=raw))
            else:
                devices.append(Device("load", sid, xi, f"{sid}-d{i}",
                                      p_pu=-draw(st.floats(0.0, 0.3)),
                                      q_pu=draw(st.floats(-0.1, 0.1))))
    grid = GridTree(PerUnitBase(1.0, 1.0), tuple(segs), tuple(devices))
    return grid, draw(st.floats(-0.5, 0.5))


@settings(max_examples=100, deadline=None)
@given(random_tree())
def test_property_random_tree_audits_and_conserves(case):
    grid, p_ref = case
    for mode in ("literal", "principle"):
        plan = synthesize_tree(grid, p_ref, mode=mode)
        assert audit_trace(plan) == 0.0
        assert plan.total_p() + plan.leftover_p == pytest.approx(p_ref, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(random_tree())
def test_property_random_tree_uniform_split_is_capped(case):
    grid, p_ref = case
    plan = uniform_baseline(grid, p_ref)
    for row in plan.stations:
        assert row.p_min_eff <= row.p_pu <= row.p_max_eff
        assert abs(row.q_pu) <= row.q_cap + 1e-12
    assert plan.total_p() + plan.leftover_p == pytest.approx(p_ref, abs=1e-12)
    power_density(grid, plan, 0.03)    # the density builder's own checks accept it


def sibling_permuted(grid, data):
    """The same tree with each segment's children declared in a drawn order."""
    children = {}
    for seg in grid.segments:
        children.setdefault(seg.parent, []).append(seg)
    order = []

    def visit(parent):
        for seg in data.draw(st.permutations(children.get(parent, []))):
            order.append(seg)
            visit(seg.id)

    visit(None)
    return GridTree(grid.base, tuple(order), grid.devices)


@settings(max_examples=40, deadline=None)
@given(random_tree(), st.sampled_from(["literal", "principle"]), st.data())
def test_property_random_tree_solves_and_ignores_sibling_order(case, mode, data):
    grid, p_ref = case
    power = synthesize_tree(grid, p_ref, mode=mode).as_power_map()
    solver_settings = SolverSettings(step_km=0.015)
    try:
        profile = solve_nonlinear(grid, DensityField(grid, power, 0.03), solver_settings)
    except (VoltageCollapseError, ConvergenceError):
        return
    assert max(profile.bank_residual, profile.terminal_s_max, profile.terminal_w_max,
               profile.junction_s_max, profile.junction_w_max, profile.junction_v_max) <= 1e-9
    fields = ("x_km", "theta_rad", "v_pu", "s", "w")
    for sp in profile.segments:
        assert all(np.all(np.isfinite(getattr(sp, f))) for f in fields)
    permuted = sibling_permuted(grid, data)
    other = solve_nonlinear(permuted, DensityField(permuted, power, 0.03), solver_settings)
    for sp in profile.segments:
        twin = other.by_segment(sp.segment_id)
        for f in fields:
            assert np.max(np.abs(getattr(twin, f) - getattr(sp, f))) <= 1e-12, (sp.segment_id, f)


# -- one grid, many requests: what the grid prepares once --------------------

def _request(grid, plan, idle, sigma, step_km):
    """Density, solve and metrics of plan with the idle stations left out:
    the result's bytes and the warnings raised, or the error."""
    power = {k: v for k, v in plan.as_power_map().items() if k not in idle}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            profile = solve_nonlinear(grid, power_density(grid, power, sigma),
                                      SolverSettings(step_km=step_km))
        except (ValueError, SolverError) as exc:
            result = repr(exc)
        else:
            result = (profile.sweeps, repr(compute_metrics(profile, plan)),
                      [b"".join(getattr(sp, f).tobytes()
                                for f in ("x_km", "theta_rad", "v_pu", "s", "w"))
                       for sp in profile.segments])
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@settings(max_examples=40, deadline=None)
@given(random_tree(), st.data())
def test_property_repeated_requests_on_one_grid_match_a_fresh_grid(case, data):
    grid, _ = case
    station_ids = [d.id for d in grid.stations()]
    for _ in range(data.draw(st.integers(1, 4))):
        p_ref = data.draw(st.floats(-0.5, 0.5))
        mode = data.draw(st.sampled_from(["literal", "principle", "uniform"]))
        # sigma = 0.001 refines the default mesh below length / 2000, and
        # sigma = 0.1 overlaps the kernels of close devices, which warns
        sigma = data.draw(st.sampled_from([0.001, 0.01, 0.1]))
        step_km = data.draw(st.sampled_from([None, sigma / 2]))
        idle = data.draw(st.sets(st.sampled_from(station_ids)))
        fresh = GridTree(grid.base, grid.segments, grid.devices)
        plans = [uniform_baseline(g, p_ref) if mode == "uniform"
                 else synthesize_tree(g, p_ref, mode=mode) for g in (grid, fresh)]
        assert repr(plans[0]) == repr(plans[1])
        assert (_request(grid, plans[0], idle, sigma, step_km)
                == _request(fresh, plans[1], idle, sigma, step_km))


def test_grid_prepares_each_mesh_pair_set_and_legs_once(monkeypatch):
    grid = two_level()
    built = {"mesh": 0, "pairs": 0, "legs": 0}

    def counting(name, real):
        def wrapper(*args):
            built[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(solver_module, "_Mesh", counting("mesh", solver_module._Mesh))
    monkeypatch.setattr(grid_module, "_kernel_pairs", counting("pairs", grid_module._kernel_pairs))
    monkeypatch.setattr(dispatch_module, "_legs", counting("legs", dispatch_module._legs))

    def request(g, p_ref, sigma=0.03, idle=()):
        plan = synthesize_tree(g, p_ref)
        power = {k: v for k, v in plan.as_power_map().items() if k not in idle}
        solve_nonlinear(g, power_density(g, power, sigma), SolverSettings(step_km=0.01))
        return dict(built)

    assert request(grid, 0.05) == {"mesh": 1, "pairs": 1, "legs": 1}
    # a new plan reuses the mesh, the pairs and the legs
    assert request(grid, -0.02) == {"mesh": 1, "pairs": 1, "legs": 1}
    # a new sigma needs its own mesh and kernels
    assert request(grid, 0.05, sigma=0.04) == {"mesh": 2, "pairs": 2, "legs": 1}
    # an idle station keeps its column at zero power, so its pairs stay
    assert request(grid, 0.05, sigma=0.04, idle=("lat-st",)) == {"mesh": 2, "pairs": 2, "legs": 1}
    # the grid keeps the pairs of each sigma: back at sigma 0.03, the mesh
    # and the pairs are both cached
    assert request(grid, 0.05, idle=("lat-st",)) == {"mesh": 2, "pairs": 2, "legs": 1}
    # one layout holds every station, and each set of station ids its placement
    assert set(grid._cache) == {"mesh", "layout", "placement", "pairs", "dispatch"}
    assert len(grid._cache["layout"]) == 1
    # a dataclasses.replace copy starts with nothing prepared
    assert request(dataclasses.replace(grid), 0.05) == {"mesh": 3, "pairs": 3, "legs": 2}


def test_active_pass_runs_once_per_grid(monkeypatch):
    # the far-to-near P pass never reads the request, so the grid keeps it;
    # it keeps each mode's Q pass over those unrefined values too, with the
    # walk's state before each station, and every request resumes that walk
    doc = yaml.safe_load(bundled_grid_path("feeder_tree").read_text())
    grid = parse_grid(doc)
    passes = collections.Counter()
    forward, principle = dispatch_module._forward, dispatch_module._principle

    def counting_forward(quantity, *args, **kwargs):
        passes[quantity, kwargs.get("start") is not None, kwargs.get("record") is not None] += 1
        return forward(quantity, *args, **kwargs)

    def counting_principle(*args, **kwargs):
        passes["principle", kwargs.get("start") is not None, kwargs.get("record") is not None] += 1
        return principle(*args, **kwargs)

    monkeypatch.setattr(dispatch_module, "_forward", counting_forward)
    monkeypatch.setattr(dispatch_module, "_principle", counting_principle)
    plans = {}
    for p_ref in (-0.3, 0.0, 0.05, 1e9):
        plans[p_ref] = synthesize_tree(grid, p_ref, "literal")
        synthesize_tree(grid, p_ref, "principle")
        uniform_baseline(grid, p_ref)
    # (pass, resumed, recording the walk's states): one pass from the start
    # per quantity and mode, and each request resumed
    assert passes == {("P", False, False): 1, ("Q", False, True): 1, ("Q", True, False): 4,
                      ("principle", False, True): 1, ("principle", True, False): 4}
    # a replaced grid with one load changed runs the passes again, and plans
    # as a grid freshly loaded with that load
    entry = next(d for d in doc["devices"] if d.get("id") == "a-ld-1")
    entry["p_W"] = -500.0e3
    fresh = parse_grid(doc)
    load = next(d for d in fresh.devices if d.id == "a-ld-1")
    changed = dataclasses.replace(grid, devices=tuple(
        load if d.id == load.id else d for d in grid.devices))
    for p_ref in plans:
        plan = synthesize_tree(changed, p_ref, "literal")
        assert plan != plans[p_ref]
        assert repr(plan) == repr(synthesize_tree(fresh, p_ref, "literal"))
    assert passes == {("P", False, False): 3, ("Q", False, True): 3, ("Q", True, False): 12,
                      ("principle", False, True): 1, ("principle", True, False): 4}


def study_dense_feeder():
    """The benchmark's seed-0 dense study feeder: 1000 stations and 1000
    loads on one 50 km segment."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "grids.py"
    spec = importlib.util.spec_from_file_location("perfbench_grids", path)
    grids = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grids)
    return parse_grid(grids.dense_feeder(0))


@pytest.mark.parametrize("make", [load_feeder_tree, two_level, study_dense_feeder])
@pytest.mark.parametrize("mode", ["literal", "principle"])
def test_every_resume_point_reproduces_the_kept_pass(make, mode):
    # resumed from any start tuple the kept pass recorded, the one past the
    # last station included, with the unrefined p, either walk writes that
    # pass's q, seeds and hand-offs again bit for bit
    grid = make()
    synthesize_tree(grid, 0.0, mode)
    prep, kept = grid._cache["dispatch"][None], grid._cache["dispatch"][mode]
    walk = {"literal": dispatch_module._literal, "principle": dispatch_module._principle}[mode]
    p, caps = prep.p.tolist(), grid_module.station_q_caps(prep.p)

    def bits(q, seeds_q, handoffs):
        # == takes -0.0 for 0.0; the floats' bytes do not
        return np.array([*q, *(seed for _sid, seed in seeds_q), *handoffs[1]]).tobytes()

    want = (kept.q, kept.seeds_q, kept.handoffs)
    assert len(kept.state) == len(prep.ids) + 1
    for r, start in enumerate(kept.state):
        trace = ([], [], [], [])
        q, seeds = walk(prep, p, caps, trace, list(kept.q[:r]), list(kept.ends), start=start)
        got = (tuple(q), kept.seeds_q[:r] + tuple(zip(prep.ids[r:], seeds)),
               tuple(old[:start[-1]] + tuple(new) for old, new in zip(kept.handoffs, trace)))
        assert got == want and bits(*got) == bits(*want)
        q, seeds_q, handoffs = dispatch_module._reactive(grid, prep, mode, p, caps, r)
        got = (tuple(q), seeds_q, handoffs)
        assert got == want and bits(*got) == bits(*want)


@pytest.mark.parametrize("make", [load_feeder_tree, two_level])
def test_requests_do_not_change_the_cached_active_pass(make):
    # literal requests append Q hand-offs after the cached P ones: each plan
    # must match one from a fresh copy of the grid that has never planned
    grid = make()
    requests = [(p_ref, mode) for p_ref in (-1.0, 0.05, -0.05, 0.3, 1.0)
                for mode in ("literal", "principle")]
    for p_ref, mode in requests + requests[::-1]:
        plan = synthesize_tree(grid, p_ref, mode)
        expected = synthesize_tree(pickle.loads(pickle.dumps(grid)), p_ref, mode)
        assert plan == expected
        for name in ("handoffs", "seeds_p", "seeds_q", "leftover_p"):
            assert repr(getattr(plan, name)) == repr(getattr(expected, name)), name
        assert audit_trace(plan) == 0.0
    assert "Q" in synthesize_tree(grid, 0.05).handoffs[0]


def test_a_pickled_grid_leaves_its_prepared_arrays_behind():
    grid = two_level().validated()
    size = len(pickle.dumps(grid))
    plan = synthesize_tree(grid, 0.05)
    profile = solve_nonlinear(grid, power_density(grid, plan, 0.03), SolverSettings(step_km=0.01))
    assert len(pickle.dumps(grid)) == size
    copy = pickle.loads(pickle.dumps(grid))
    again = solve_nonlinear(copy, power_density(copy, plan, 0.03), SolverSettings(step_km=0.01))
    assert [sp.v_pu.tobytes() for sp in again.segments] == [
        sp.v_pu.tobytes() for sp in profile.segments]


def test_grid_cache_stays_bounded():
    grid = two_level()
    settings_ = SolverSettings(step_km=0.01)
    first = solve_nonlinear(grid, power_density(grid, None, 0.02), settings_)
    for k in range(2 * grid_module.CACHED_PER_KIND):
        solve_nonlinear(grid, power_density(grid, None, 0.021 + 0.001 * k), settings_)
        assert len(grid._cache["mesh"]) <= grid_module.CACHED_PER_KIND
    again = solve_nonlinear(grid, power_density(grid, None, 0.02), settings_)
    assert [sp.v_pu.tobytes() for sp in again.segments] == [
        sp.v_pu.tobytes() for sp in first.segments]


# -- many-edge tree golden, recorded bit for bit -----------------------------

# (id, length km, parent, offset km): 32 solver edges of 2, 4, 5, 18, 20,
# 30, 36, 38 and 40 cells at step 0.05 km.  Two laterals share the tap
# at trunk 3.0 and one hangs off the trunk's end; A -> A1 -> A1a -> A1a1
# reaches depth 4.
MANY_EDGE_SEGMENTS = (
    ("trunk", 4.0, None, 0.0),
    ("A", 2.2, "trunk", 0.05),
    ("A1", 1.0, "A", 0.2),
    ("A1a", 0.1, "A1", 0.1),
    ("A1a1", 0.2, "A1a", 0.1),
    ("A2", 0.2, "A", 2.0),
    ("B", 0.05, "trunk", 0.25),
    ("C", 2.0, "trunk", 0.3),
    ("C1", 0.2, "C", 0.05),
    ("C2", 0.2, "C", 0.1),
    ("D", 0.2, "trunk", 0.5),
    ("E", 3.0, "trunk", 2.5),
    ("E1", 0.05, "E", 1.5),
    ("F", 0.2, "trunk", 2.55),
    ("G", 0.05, "trunk", 2.75),
    ("H1", 2.0, "trunk", 3.0),
    ("H2", 0.2, "trunk", 3.0),
    ("I", 0.2, "trunk", 4.0),
)
MANY_EDGE_STEP_KM = 0.05
MANY_EDGE_SIGMA_KM = 0.1


def many_edge_tree():
    """The tree above with a load at the middle of every segment and a
    station on each segment of 2 km or more, and the stations' (p, q)."""
    start = {}
    segs = []
    devices = []
    power = {}
    for k, (sid, length, parent, offset) in enumerate(MANY_EDGE_SEGMENTS):
        g, b = 3.881 * (1.0 + 0.01 * k), 6.856 * (1.0 - 0.005 * k)
        if parent is None:
            segs.append(FeederSegment(sid, length, g, b))
            start[sid] = 0.0
        else:
            segs.append(FeederSegment(sid, length, g, b, parent=parent, offset_km=offset))
            start[sid] = start[parent] + offset
        devices.append(Device("load", sid, start[sid] + 0.5 * length, f"{sid}-load",
                              p_pu=-0.004 * (1 + k % 3), q_pu=-0.001 * (k % 2)))
        if length >= 2.0:
            devices.append(Device("station", sid, start[sid] + 0.25 * length, f"{sid}-st",
                                  p_min_pu=-0.02, p_max_pu=0.02))
            power[f"{sid}-st"] = (0.003, 0.001)
    return GridTree(PerUnitBase(1.0, 1.0), tuple(segs), tuple(devices)), power


# sha256 of the raw bytes of every profile array of the many-edge tree
MANY_EDGE_SHA256 = {
    ("trunk", "x_km"): "899391eb6e80a7829cf7a883356633ad5a3f49e1038b8162de6a052898ba49c4",
    ("trunk", "theta_rad"): "3f19e8f93fb305f4726378455dddf642cf65aa78949971e89a7dcbccacec441c",
    ("trunk", "v_pu"): "2a842d53e684fd774b3bb4e5b2dd637b3ff7f2b20af8f4da47512ae389612c04",
    ("trunk", "s"): "cdabb9f05f2e7778645a87ea5845c8b30d3798aa2dfa99ac2f9eb0e8387d83fe",
    ("trunk", "w"): "9745ac9f245fa0a24da2c70e7b88bd042827aca354d3596e47ff9690936fa5db",
    ("A", "x_km"): "07b81718a7f82529531c46f6bd80a35bf5833e13ea17c8c73500b7c90923e0b7",
    ("A", "theta_rad"): "50feb3c9d9b5b725c99b874e293135f69e197a429f8a31646289318ae2aeda8e",
    ("A", "v_pu"): "9dac4b28d926aa15bb674f6509e9bd3b7a8b08266894e21c122b72739d8fa0d4",
    ("A", "s"): "359e5fdb21d265afa30bdea27e35f16e75cf9cd983f20936fb6eae3faff5b2ce",
    ("A", "w"): "e02f9d37301d1ba8a21d142825ff84e4ab4d8f6aebaa36cccec972345d211bab",
    ("A1", "x_km"): "fdaea4b29ee082913039b9d7f465fc00cf79b4f0785f8024d5cc36bb3dde5bdc",
    ("A1", "theta_rad"): "b46f0a05ff80205bf5491db9c62ff6f0d4907636ccfefdd2194c3f09c58c95a3",
    ("A1", "v_pu"): "658a35598e837ff9e03f9c23e14c439a7a6112c6831c79d6e2be9627d3ff3a3b",
    ("A1", "s"): "ee3cd7d0109b8845e0ad5227186bafc1a67cc88f308b38d71a6a8c8323729c68",
    ("A1", "w"): "fb58ff3284f144a8da00b1252cf3c1381e57b3a11349a0df8d6cf188f3ee8c67",
    ("A1a", "x_km"): "1137def1eafd6261c698cf105fe1b34aa22c1f62b5b6e7a4de97529ed065d904",
    ("A1a", "theta_rad"): "9c54a61421dd2e53a93587feaabc31911755c446b35da01122bf0bd0fce6b543",
    ("A1a", "v_pu"): "a2140ca77a853788070ef5c437c9c29489707691a00eb68fa2778bddcedb0da7",
    ("A1a", "s"): "e7d713050dfe5d33c6899cb14d45cb7f5a27793c9f39feac69ea9f00d7c27eb5",
    ("A1a", "w"): "7c593ed6b057caf8713667a7c3cf28d686a9ad43ba73c3b132171939fc0bda87",
    ("A1a1", "x_km"): "382f64ec814a8002db89fb577dc86ac3a831c97916d9d43cd8ea3e2075070f0e",
    ("A1a1", "theta_rad"): "f054bfaab0e2008e2343b54e97960b73ac366046f90fd27fbe97c8dccf922f7a",
    ("A1a1", "v_pu"): "da28f58c4dd523daf4f9f38e1c0084e2aa2e0ed6301b647e48c29cd640aa59ca",
    ("A1a1", "s"): "24fd2d05af875817756d9d7bf8a74059a6e3103e692884039b908a41b418f084",
    ("A1a1", "w"): "f259fc4723ea4aed3161c735a76e2066300e885df1a4d04500dddfffe49f0493",
    ("A2", "x_km"): "9b692faab41f4181a04e64c26b5af582d58c7adda257f297d4b482e1f14afb98",
    ("A2", "theta_rad"): "8c21fd6aa05ad30122931428678ac988aec45e922a305ffbaeb63aae7ed841a3",
    ("A2", "v_pu"): "e7f17719a561d2f11e388a0e25a9f36ca1ab2be900bf2225a7fe06279376b7bf",
    ("A2", "s"): "5153775799fe4dae21229111001c24bbf6cf457d646fb80f54a9f84be6fc4783",
    ("A2", "w"): "b0b24b508ab1d780a029e10b53c8b5e7d295b8c9d941db15c7a62da116852a63",
    ("B", "x_km"): "242642e015a2edacb0a7e58cfeab8c1d89e7c8cf848b0c720cad6d0e4696d6fb",
    ("B", "theta_rad"): "d099206a8de593b302c05ab532feb3dc3bbb55ff4981b90fcd60c3c8b6344187",
    ("B", "v_pu"): "bcf40d86422b02e306a08d0265f84526487ffe05e18d7c0c036bc4055c72f397",
    ("B", "s"): "e000bd4a4e8e96723748b1d2359f6f12ba6bdec994a1c75eb5b2f2ea7e01e075",
    ("B", "w"): "d9e0fc62eb08e73ec88e392b7afc53dd00c0e1b702293d99e225a1597513b600",
    ("C", "x_km"): "75b6c1c3f3b855db30b964c13ae983adb3c4373aed1007905b8a6dcd29069d21",
    ("C", "theta_rad"): "538fa65cc082852b4dd0ed86f38ea723b15b4c3980acadb7d6006060473cf4f3",
    ("C", "v_pu"): "db7a8bcee269f8ebc5329955f7bee30ebc6729d496c30ec875727800996a9eed",
    ("C", "s"): "03a1dd8b398428d2003aac4f2d7e274546c77f4d758caa0f4412a03b97171743",
    ("C", "w"): "7c134ed1e3d6d66b730c3727f9ecfae719cdc9e5ecd74f4bbbf62bf0d991dcc0",
    ("C1", "x_km"): "7847a6139d978d63e4ad9c8064208d4ccfd1cbd786c5bbc20d8e966fab10df1e",
    ("C1", "theta_rad"): "341e3be216c2cc58203b16b00d8690c2922e74390a516bf8cc777c1252fd6b6f",
    ("C1", "v_pu"): "f879a6d5d07bac6ef5952d893f924c6e875a7bd550129140cd64390207f2f75c",
    ("C1", "s"): "1169abe042244c2d76bacaebd2fdcceb4b334381288c0a58535b62449533b7bb",
    ("C1", "w"): "93afc20bb80340d8e16a7164a5bedf5d6fe3af429a7b225028229f0cc6b4059a",
    ("C2", "x_km"): "74d0ead84440253b37c47a6cc775f4e141bed90ccad8701cbed4cd3de9583c42",
    ("C2", "theta_rad"): "f3ec88d83750c94d7f7492ad9c5055e0069744ab3873171e0b7f464983440d36",
    ("C2", "v_pu"): "aadee1d434770b64c511b78b3a2dee8ab4718a63735fc9aa2aea209a9b332195",
    ("C2", "s"): "46eebf6f6dfef224aeb91718a8de1466dfdf66d2512377451508315321497eb3",
    ("C2", "w"): "1aa7b5e4c11ec2ac1a83bb91ec56a80c413849a4de2d5e03b3c7e045420aa6ff",
    ("D", "x_km"): "2a0073b07e6ff0b33e094a71d32c592f4102e640896eb4fec7a90e4f15c4b4b1",
    ("D", "theta_rad"): "fd7727125d23027deb66fe064a55e39d03beff0d94184cfc1335609d70ddee42",
    ("D", "v_pu"): "cd6d140a124e517301bd813cf444d163fa22e08ca65aa07323ab481ab51b7cb2",
    ("D", "s"): "804c64a398ef3081c2718e9ee079eec1fa6beb7694d61e702c9f06f4bb2d41af",
    ("D", "w"): "957dceb5c70fb52537b0e75dddb6921e972980c4e291c8c43e12c7ac729407fb",
    ("E", "x_km"): "498cf54f8fab9747c3ffd9f1ef2e076d29b267c194f47025ddeab51e2c932c78",
    ("E", "theta_rad"): "66d3068ef64609fceb8192727e573d3c22c20ceb965b85d29668b07c3f8f5a01",
    ("E", "v_pu"): "aee5adba383801b0d69c05745ef529888f8d65419bf69d35c0fbde7aef013d74",
    ("E", "s"): "1bef071a5a8d4977954b3d63cd6ffa68cba61ac45f2e2567979001a543245772",
    ("E", "w"): "c353d6adfe9f202dae2839ed2984f0d973d97131aa239433c2f0eb285c419589",
    ("E1", "x_km"): "7522f9b1e64b0e98c83115ccf7f6288510c3a0bf50a2f77a20ac5041f6e638c2",
    ("E1", "theta_rad"): "4d79bb80d0c6e4e3eeec058700205e92b947e29877f12ce04393213d0ac9e6df",
    ("E1", "v_pu"): "2fd1e5c6434fb95c78127a15379a729716dc32f3700b94980a3abe8ff5f803b9",
    ("E1", "s"): "8f84d51597081ca6e868832faac44e26e54b9b41a54071542e40ed13145d1276",
    ("E1", "w"): "db42604cc7c99290c5384d9226f4af32e095610d0ab3493aca322275bbbad5b4",
    ("F", "x_km"): "a7bcf1bd2fa3c9209c4ca69e0bdfc859351accf8447ec86b8c44770e71806ef3",
    ("F", "theta_rad"): "57897c94b971b07ebd5484873691ae8a700b6bc68e9619aa19da715b6f8aa669",
    ("F", "v_pu"): "e10eab5dd9e8ab187f2177330b50d52f27ec42e81c5b0cabe1d59325c9a5ec16",
    ("F", "s"): "bd1625f4ffe2c73f9584312e6ec50bf055dadc3774307a9f81bb7edd579c5c3d",
    ("F", "w"): "f2e4be15b1e402d79816e0a4abb6cfac0925c4ecf5094d75687aa83bb197b600",
    ("G", "x_km"): "3c5978eb5defa31852cd14995f023d16a1c346706879f28af8873b88183d712b",
    ("G", "theta_rad"): "7eb318d18f041e1746579242f1acbb6c63645320e71ae675e51b4d604d0a2148",
    ("G", "v_pu"): "0e76c652c1173cc460552e711eb870e7d9592aaf0b87913188bae0fbd5b5b5f9",
    ("G", "s"): "5985ddca88282c33698ae1fc6e463170ee6235d29aca475d634ffe09fdeffa6a",
    ("G", "w"): "6c6d03200b3581108c3442beec428a9d70dbc264696b0b02745ea604eb56fd3d",
    ("H1", "x_km"): "a2836347d21c4a7ee080b2da18308ce97c2ca10c93e557bfa8f5283a65124cc4",
    ("H1", "theta_rad"): "7a841895e896043305efb108493fcd0852e11dfa4014dd5bd509e7148a71da07",
    ("H1", "v_pu"): "e797d96fcb99839014e0608098f2be9a01e59fd90f579b8a76fb60c6dd06b8cd",
    ("H1", "s"): "5c97465f7400ae4f3b336a5099ee2b520e64693f39adde195d32ecb7486212af",
    ("H1", "w"): "42c7b6e8f6197a154965e5a1c0c5a33c0e7af68bc0b980aa987027ae75947039",
    ("H2", "x_km"): "3b93b1d158a09b79cf3f8589dc02e78825d90683b3cffdbb18278a53e3dca64c",
    ("H2", "theta_rad"): "1e80ea9536bc6139141e05f6c67d2a6aba35853854b93f620ed4fecd876ab4d4",
    ("H2", "v_pu"): "d4ff114ab587e2b6b8e855559a2d2d4a372dec091c4f293c17e5e330b314efea",
    ("H2", "s"): "1b92d601c7e85a5d1e0c6a276c553df01fbed0a6b79b4c1bdb8241b4b72bf15a",
    ("H2", "w"): "d737a3722b500b7b3d3637aeb12d7d213a46324311fa4522e0e45e6bd7afdb5c",
    ("I", "x_km"): "c15c996044ed0219692b5f187da43b56c73f29cd61c87820e54c287820f40eed",
    ("I", "theta_rad"): "bf0363afaac7f12b7091556defc8793b932ca82c528befd9598c67cb8e264d8e",
    ("I", "v_pu"): "b5d1d01676ebe5bf071d0bff173c5337940b94d7b6afe124a33d24d2c9c6e3b0",
    ("I", "s"): "2651a840664b789987ca6372e01004b55b85397ecf6ae85b880be013d1f0d463",
    ("I", "w"): "7a539446760c91f62e5490d3966d111a121031381fdbaacab1b49f3c1a9bbd96",
}


def test_many_edge_profiles_frozen_exact():
    grid, power = many_edge_tree()
    profile = solve_nonlinear(grid, power_density(grid, power, MANY_EDGE_SIGMA_KM),
                              SolverSettings(step_km=MANY_EDGE_STEP_KM))
    got = {(sp.segment_id, f): hashlib.sha256(getattr(sp, f).tobytes()).hexdigest()
           for sp in profile.segments for f in ("x_km", "theta_rad", "v_pu", "s", "w")}
    assert got == MANY_EDGE_SHA256
    assert (profile.sweeps, repr(profile.last_change)) == (5, "3.4453662145494945e-11")
    trunk = profile.by_segment("trunk")
    assert np.count_nonzero(trunk.x_km == 3.0) == 2  # the tap is sampled twice


# -- what the writers and the solver diagnostics emit ------------------------

NON_FINITE_TOKEN = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@settings(max_examples=40, deadline=None)
@given(random_tree())
def test_property_writers_emit_no_nan_or_inf(case):
    grid, p_ref = case
    for mode in ("literal", "principle", "uniform"):
        plan = (uniform_baseline(grid, p_ref) if mode == "uniform"
                else synthesize_tree(grid, p_ref, mode=mode))
        try:
            profile = solve_nonlinear(grid, power_density(grid, plan, 0.03),
                                      SolverSettings(step_km=0.015))
        except (ValueError, SolverError):
            continue    # refused by the station check or the solve: nothing is written
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            write_dispatch_csv(out / "dispatch.csv", plan)
            write_profile_csv(out / "profile.csv", profile)
            write_metrics_json(out / "metrics.json", compute_metrics(profile, plan))
            for name in ("dispatch.csv", "profile.csv", "metrics.json"):
                text = (out / name).read_text()
                assert not NON_FINITE_TOKEN.search(text), (mode, name)



@settings(max_examples=60, deadline=None)
@given(random_tree(), st.sampled_from(["literal", "principle", "uniform"]), st.data())
def test_property_density_of_a_plan_is_the_density_of_its_power_map(case, mode, data):
    # power_density reads a plan's columns; a mapping goes through the
    # station ids.  A plan of some of the stations, in a drawn order, places
    # only those.
    grid, p_ref = case
    plan = (uniform_baseline(grid, p_ref) if mode == "uniform"
            else synthesize_tree(grid, p_ref, mode=mode))
    keep = data.draw(st.lists(st.sampled_from(range(len(plan.ids))), unique=True))
    columns = ("ids", "xi_km", "p_pu", "q_pu", "p_min_eff", "p_max_eff", "q_cap")
    part = dataclasses.replace(plan, **{name: tuple(getattr(plan, name)[k] for k in keep)
                                        for name in columns})

    def density(source):
        try:
            field = power_density(grid, source, 0.03)
        except ValueError as exc:
            return str(exc)
        return [b"".join(a.tobytes() for a in field.sample(
                    seg.id, np.linspace(grid.segment_start_km(seg.id),
                                        grid.segment_end_km(seg.id), 64)))
                for seg in grid.segments]

    for whole in (plan, part):
        by_columns, by_map = density(whole), density(whole.as_power_map())
        if isinstance(by_map, str):    # the plan's message adds its hand-offs
            assert by_columns.startswith(by_map)
        else:
            assert by_columns == by_map

def _residuals_edge_by_edge(mesh, v, s, w):
    """The diagnostics of _assemble_profile, one solver edge at a time."""
    v_end, s_end, w_end = (a[mesh.last].tolist() for a in (v, s, w))
    v0, s0, w0 = (a[mesh.first].tolist() for a in (v, s, w))
    seg_of = {e: seg_id for seg_id, rows in mesh.rows.items() for e in rows}
    terminal_v = []
    term_s = term_w = junc_s = junc_w = junc_v = 0.0
    for e, kids in enumerate(mesh.kids):
        if not kids:
            terminal_v.append((seg_of[e], v_end[e]))
            term_s = max(term_s, abs(s_end[e]))
            term_w = max(term_w, abs(w_end[e]))
        else:
            junc_s = max(junc_s, abs(s_end[e] - sum(s0[c] for c in kids)))
            junc_w = max(junc_w, abs(w_end[e] - sum(w0[c] for c in kids)))
            junc_v = max(junc_v, max(abs(v0[c] - v_end[e]) for c in kids))
    bank = max(abs(v0[r] - 1.0) for r in mesh.roots)
    return tuple(terminal_v), bank, term_s, term_w, junc_s, junc_w, junc_v


def _diagnostics(profile):
    return (profile.terminal_v, profile.bank_residual, profile.terminal_s_max,
            profile.terminal_w_max, profile.junction_s_max, profile.junction_w_max,
            profile.junction_v_max)


@settings(max_examples=60, deadline=None)
@given(random_tree(), st.integers(0, 2**32 - 1))
def test_property_residual_diagnostics_match_an_edge_by_edge_walk(case, seed):
    # states far from any solution, so that every residual is non-zero
    grid, _ = case
    mesh = solver_module._mesh(grid.validated(), SolverSettings(step_km=0.05), 0.1)
    rng = np.random.default_rng(seed)
    theta, v, s, w = (rng.normal(size=mesh.h_pos.size + 1) for _ in range(4))
    profile = solver_module._assemble_profile(mesh, (theta, v, s, w), 1, 0.0)
    assert repr(_diagnostics(profile)) == repr(_residuals_edge_by_edge(mesh, v, s, w))


def test_residual_diagnostics_without_junctions_are_zero():
    grid = GridTree(PerUnitBase(1.0, 1.0), (FeederSegment("main", 1.0, 3.0, 6.0),))
    mesh = solver_module._mesh(grid.validated(), SolverSettings(step_km=0.05), 0.1)
    v, s, w = np.random.default_rng(0).normal(size=(3, mesh.h_pos.size + 1))
    profile = solver_module._assemble_profile(mesh, (v, v, s, w), 1, 0.0)
    assert mesh.junctions.size == 0
    assert (profile.junction_s_max, profile.junction_w_max, profile.junction_v_max) == (0.0,) * 3
    assert repr(_diagnostics(profile)) == repr(_residuals_edge_by_edge(mesh, v, s, w))


# -- the bucketed mesh buffer ------------------------------------------------

WIDE_STEP_KM = 0.025
WIDE_SIGMA_KM = 0.05


def wide_tree():
    """A 5 km trunk tapped every 0.1 km from 0.05 km on by 50 one-kilometre
    laterals, so that its edges have 2, 4 (trunk) and 40 cells (laterals):
    a load on the trunk and on every lateral, a station on every second
    lateral, and the stations' (p, q)."""
    segs = [FeederSegment("trunk", 5.0, 3.881, 6.856)]
    devices = [Device("load", "trunk", 2.52, "trunk-load", p_pu=-0.01, q_pu=-0.002)]
    power = {}
    for k in range(50):
        sid, tap = f"lat{k}", round(0.05 + 0.1 * k, 9)
        segs.append(FeederSegment(sid, 1.0, 3.881 * (1.0 + 0.002 * k), 6.856,
                                  parent="trunk", offset_km=tap))
        devices.append(Device("load", sid, tap + 0.5, f"{sid}-load",
                              p_pu=-0.002 * (1 + k % 3), q_pu=-0.0005 * (k % 2)))
        if k % 2 == 0:
            devices.append(Device("station", sid, tap + 0.25, f"{sid}-st",
                                  p_min_pu=-0.02, p_max_pu=0.02))
            power[f"{sid}-st"] = (0.002, 0.0005 * (k % 4 - 1))
    return GridTree(PerUnitBase(1.0, 1.0), tuple(segs), tuple(devices)), power


# recorded with the padded (edges, most cells + 1) layout
WIDE_TREE_SHA256 = {
    "x_km": "705fb128e133f5e4f6012c84f673a25f33a39a0a1877e05cc27d4535e07aaf53",
    "theta_rad": "ee6cc10325509126aad220232713da2d5bff7a613f9477e1e2182c91c54648c6",
    "v_pu": "8e9b12efd0c01b005a6b5edee3971769a8a87f1b38ba2f3022c15e029ad8293c",
    "s": "c000aab8674618dbf8cae105fedef6ffd67cf758bd11298d82c46b8688f1f814",
    "w": "cbf6dafca06cf64b397eba73e65746c249c8ecdf630b7e569ae10163e1bde0b3",
}
WIDE_TREE_DIAGNOSTICS_SHA256 = "5b097fd010fad45b14bfdc510f6ed77997a8565239ea44220261b864244ce75b"


def test_wide_tree_profile_frozen_exact_on_an_unpadded_buffer():
    grid, power = wide_tree()
    solver_settings = SolverSettings(step_km=WIDE_STEP_KM)
    profile = solve_nonlinear(grid, power_density(grid, power, WIDE_SIGMA_KM), solver_settings)
    assert {f: hashlib.sha256(getattr(profile, f).tobytes()).hexdigest()
            for f in WIDE_TREE_SHA256} == WIDE_TREE_SHA256
    assert (profile.sweeps, repr(profile.last_change)) == (6, "4.3135151006623573e-10")
    assert (hashlib.sha256(repr(_diagnostics(profile)).encode()).hexdigest()
            == WIDE_TREE_DIAGNOSTICS_SHA256)
    # one width per bucket: the buffer holds every node once and no padding
    mesh = solver_module._mesh(grid, solver_settings, WIDE_SIGMA_KM)
    assert sorted(set(mesh.n)) == [2, 4, 40]
    assert len(mesh.blocks) == 3
    assert mesh.h_pos.size == sum(k + 1 for k in mesh.n) == profile.node_ends[-1]


@settings(max_examples=60, deadline=None)
@given(random_tree(), st.sampled_from([0.004, 0.01, 0.05]))
def test_property_bucketed_buffer_is_at_most_twice_the_real_nodes(case, step_km):
    grid, _ = case
    mesh = solver_module._mesh(grid.validated(), SolverSettings(step_km=step_km), 0.1)
    real = sum(k + 1 for k in mesh.n)
    assert real <= mesh.h_pos.size <= 2 * real
    assert len(mesh.blocks) <= (max(mesh.n) - 1).bit_length()
    # each edge sits in the block of its power-of-two width, (cells - 1).bit_length(),
    # whose widest edge sets the block's span
    assert sum((b - a) // span for a, b, span in mesh.blocks) == len(mesh.n)
    for e, k in enumerate(mesh.n):
        block = next(blk for blk in mesh.blocks if blk[0] <= mesh.first[e] < blk[1])
        assert (k - 1).bit_length() == (block[2] - 2).bit_length()
        assert block[2] // 2 < k + 1 <= block[2]
        assert mesh.last[e] == mesh.first[e] + k
    assert [span for _, _, span in mesh.blocks] == sorted(
        {max(j for j in mesh.n if (j - 1).bit_length() == (k - 1).bit_length()) + 1
         for k in mesh.n})


@pytest.mark.parametrize("scale,sweeps,v_min", [
    (19.5, 53, "0.6002201560863685"),     # converges just above the collapse floor
    (20.0, None, "0.49963288943636863"),
    (1000.0, None, "-79.55961910039112"),
])
def test_near_collapse_keeps_every_pad_and_straddle_finite(scale, sweeps, v_min):
    # edges of 2 to 40 cells: pad cells, pad nodes and the midpoints that
    # straddle two rows all take part; error::RuntimeWarning fails on any
    # overflow or invalid value among them
    grid, power = many_edge_tree()
    devices = tuple(dataclasses.replace(d, p_pu=d.p_pu * scale, q_pu=d.q_pu * scale)
                    if d.kind == "load" else d for d in grid.devices)
    grid = GridTree(grid.base, grid.segments, devices)
    density = power_density(grid, power, MANY_EDGE_SIGMA_KM)
    solver_settings = SolverSettings(step_km=MANY_EDGE_STEP_KM)
    if sweeps is None:
        with pytest.raises(VoltageCollapseError) as caught:
            solve_nonlinear(grid, density, solver_settings)
        assert repr(caught.value.v_min) == v_min
        return
    profile = solve_nonlinear(grid, density, solver_settings)
    assert (profile.sweeps, repr(profile.v_min())) == (sweeps, v_min)
    for f in ("x_km", "theta_rad", "v_pu", "s", "w"):
        assert np.all(np.isfinite(getattr(profile, f)))


# -- the junction passes against an edge-by-edge walk ---------------------------

def _row_sums(mesh, f, step):
    """Running sums of f along each row, one row at a time; step -1 sums
    from each row's far end."""
    out = np.empty_like(f)
    for a, b, span in mesh.blocks:
        for lo in range(a, b, span):
            out[lo:lo + span][::step] = np.add.accumulate(f[lo:lo + span][::step])
    return out


def _backward_edge_by_edge(mesh, post, f):
    """_Mesh.backward as a walk over the edges in post order (the solver's
    former loop)."""
    f[mesh.pad] = -0.0
    rc = _row_sums(mesh, f, -1)
    total = rc[mesh.first].tolist()
    h = mesh.h.tolist()
    end = [0.0] * len(total)
    near = [0.0] * len(total)
    for e in post:
        acc = 0.0
        for c in mesh.kids[e]:
            acc += near[c]
        end[e] = acc
        near[e] = acc - h[e] * total[e]
    out = np.empty(f.size + 1)
    out[:-1] = mesh._spread(end) - mesh.h_pos * rc
    out[-1] = 0.0
    return out


def _forward_edge_by_edge(mesh, post, f, at_bank, scale):
    """_Mesh.forward as a walk over the edges in pre-order (the solver's
    former loop)."""
    f[mesh.pad] = -0.0
    cs = _row_sums(mesh, f, 1)
    total = cs[mesh.last].tolist()    # a pad cell adds -0.0 to the far end
    h = mesh.h.tolist() if scale else [1.0] * len(total)
    start = [at_bank] * len(total)
    for e in reversed(post):
        end = start[e] + h[e] * total[e]
        for c in mesh.kids[e]:
            start[c] = end
    out = np.empty(f.size + 1)
    out[1:] = mesh._spread(start) + (mesh.h_pos * cs if scale else cs)
    out[mesh.first] = start
    return out


def junction_tree(rng):
    """1-10 segments: several roots, laterals tapped at a quarter, half or
    the whole of their parent (so at its far end, and often at a cut point
    another child shares), and parents drawn among the last three segments
    (so chains run deep)."""
    segs = []
    for k in range(rng.randint(1, 10)):
        length = rng.choice([0.3, 0.5, 0.75, 1.0])
        g, b = rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)
        if k == 0 or rng.random() < 0.15:
            segs.append(FeederSegment(f"s{k}", length, g, b))
        else:
            parent = segs[rng.randint(max(0, k - 3), k - 1)]
            segs.append(FeederSegment(f"s{k}", length, g, b, parent=parent.id,
                                      offset_km=parent.length_km * rng.choice([0.25, 0.5, 1.0])))
    return GridTree(PerUnitBase(1.0, 1.0), tuple(segs)).validated()


def mid_tapped_chain(rng, count):
    """count segments, each tapping its parent at a quarter, half or three
    quarters of its length (so the chain's levels hinge on which kid of
    each junction continues it), some with a far-end or a shared-cut lateral
    beside the chain's next segment."""
    segs = [FeederSegment("c0", 1.0, rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0))]
    for k in range(1, count):
        parent = segs[-1] if segs[-1].id.startswith("c") else segs[-2]
        offset = parent.length_km * rng.choice([0.25, 0.5, 0.75])
        segs.append(FeederSegment(f"c{k}", rng.choice([0.5, 1.0]), rng.uniform(0.5, 8.0),
                                  rng.uniform(0.5, 8.0), parent=parent.id, offset_km=offset))
        if rng.random() < 0.3:
            at = rng.choice([offset, parent.length_km])
            segs.append(FeederSegment(f"lat{k}", 0.5, 1.0, 2.0, parent=parent.id, offset_km=at))
    return GridTree(PerUnitBase(1.0, 1.0), tuple(segs)).validated()


def test_a_mid_tapped_chain_takes_two_levels_each_way():
    # 1100 segments, each tapping its parent at mid-length: the chain runs on
    # through every tapped segment, and each parent's far part hangs off it
    segs = tuple(FeederSegment(f"s{k}", 0.01, 3.881, 6.856, parent=f"s{k - 1}" if k else None,
                               offset_km=0.005 if k else 0.0) for k in range(1100))
    grid = GridTree(PerUnitBase(1.0, 1.0), segs)
    mesh = solver_module._mesh(grid, SolverSettings(step_km=0.0005), 0.001)
    assert len(mesh.up) == len(mesh.down) == 2


def test_junction_passes_match_an_edge_by_edge_walk_bit_for_bit():
    seen = collections.Counter()
    for seed in range(200):
        rng = random.Random(seed)
        grid = junction_tree(rng) if seed < 150 else mid_tapped_chain(rng, rng.randint(2, 40))
        mesh = solver_module._mesh(grid, SolverSettings(step_km=0.05), 0.1)
        post = [e for s in grid.post_order() for e in reversed(mesh.rows[s.id])]
        offsets = [(s.parent, s.offset_km) for s in grid.segments if s.parent is not None]
        seen["several roots"] += len(grid.roots()) > 1
        seen["far-end tap"] += any(off == grid.segment(p).length_km for p, off in offsets)
        seen["shared cut point"] += len(set(offsets)) < len(offsets)
        seen["three levels or more"] += min(len(mesh.up), len(mesh.down)) >= 3
        # a junction whose second kid leads further than its first, which
        # then hangs off the chain
        below = {}
        for e in post:
            below[e] = max((below[c] + 1 for c in mesh.kids[e]), default=0)
        seen["second kid deeper"] += any(len(fed) > 1 and below[fed[1]] > below[fed[0]]
                                         for fed in mesh.kids)
        # values of every sign and size, with +0.0, -0.0 and whole rows of +-0.0
        f = np.random.default_rng(seed).normal(size=mesh.h_pos.size) * 10.0 ** rng.uniform(-3, 3)
        f[rng.sample(range(f.size), f.size // 5)] = 0.0
        f[rng.sample(range(f.size), f.size // 5)] = -0.0
        for e in rng.sample(range(len(mesh.n)), (len(mesh.n) + 1) // 3):
            f[mesh.first[e]:mesh.last[e] + 1] = rng.choice([0.0, -0.0])
        ws = mesh.workspace()
        integrand = ws[0]
        integrand[:] = f
        assert (mesh.backward(ws, np.empty(f.size + 1)).tobytes()
                == _backward_edge_by_edge(mesh, post, f.copy()).tobytes()), seed
        for at_bank in (1.0, 0.3, -0.0):
            for scale in (True, False):
                integrand[:] = f
                assert (mesh.forward(ws, at_bank, scale, np.empty(f.size + 1)).tobytes()
                        == _forward_edge_by_edge(mesh, post, f.copy(), at_bank, scale).tobytes()
                        ), (seed, at_bank, scale)
    # every shape the level tables handle turned up
    assert min(seen.values()) >= 10 and len(seen) == 5, seen
