"""Branched-feeder dispatch: hand-off routing, audit, and flat-feeder parity."""
import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from feederflow import (
    FEEDER_TREE_PREF,
    SINGLE_FEEDER_PREF,
    Device,
    FeederSegment,
    GridTree,
    HandOff,
    PerUnitBase,
    audit_trace,
    load_feeder_tree,
    load_single_feeder,
    power_density,
    solve_nonlinear,
    station_q_cap,
    synthesize,
    synthesize_tree,
    uniform_baseline,
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
