import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feederflow.grid as grid_module
from feederflow import (
    Device,
    DensityField,
    FeederSegment,
    GridTree,
    PerUnitBase,
    injections_from_grid,
    power_density,
    station_q_cap,
    synthesize,
    to_per_unit,
    validate_grid,
)

INF = float("inf")
NAN = float("nan")


def make_single(devices, length=5.0, g=3.881, b=6.856):
    return GridTree(
        PerUnitBase(12.0e6, 6600.0),
        (FeederSegment("main", length, g, b),),
        tuple(devices),
    )


# -- per-unit conversion -----------------------------------------------------

def test_impedance_base():
    base = PerUnitBase(12.0e6, 6600.0)
    assert base.impedance_ohm == 3.63


def test_to_per_unit_frozen():
    g, b = to_per_unit(0.227, 0.401, PerUnitBase(12.0e6, 6600.0))
    assert g == 3.88079875665238
    assert b == 6.8555079357603725


def test_to_per_unit_rounds_to_display_constants():
    g, b = to_per_unit(0.227, 0.401, PerUnitBase(12.0e6, 6600.0))
    assert abs(g - 3.881) / 3.881 < 1e-3
    assert abs(b - 6.856) / 6.856 < 1e-3


@pytest.mark.parametrize("r,x", [(-0.1, 0.4), (0.2, -0.4), (0.0, 0.0)])
def test_to_per_unit_rejects_bad_conductor(r, x):
    with pytest.raises(ValueError):
        to_per_unit(r, x, PerUnitBase(12.0e6, 6600.0))


@pytest.mark.parametrize("power,voltage", [(0.0, 6600.0), (-1.0, 6600.0), (12e6, 0.0), (12e6, float("nan"))])
def test_per_unit_base_rejects_nonpositive(power, voltage):
    with pytest.raises(ValueError):
        PerUnitBase(power, voltage)


def test_station_effective_bounds_are_derated():
    raw = 400.0e3 / 12.0e6
    st = Device("station", "main", 1.0, "st", p_min_pu=-raw, p_max_pu=raw)
    assert st.p_max_eff == 0.9 * raw
    assert st.p_min_eff == -0.9 * raw
    # the 5.1 scenario derates to exactly 0.03 pu
    assert st.p_max_eff == 0.03


# -- structural validation ---------------------------------------------------

def test_validate_ok_bundled(single_feeder, feeder_tree):
    assert validate_grid(single_feeder).ok
    assert validate_grid(feeder_tree).ok


def test_validate_collects_every_violation():
    grid = GridTree(
        PerUnitBase(1.0, 1.0),
        (
            FeederSegment("a", 2.0, 1.0, 2.0),
            FeederSegment("a", -1.0, 1.0, 2.0),            # dup id, bad length
            FeederSegment("b", 1.0, 1.0, 2.0, parent="zz", offset_km=0.5),
            FeederSegment("c", 1.0, 1.0, 0.0),                # B = 0
            FeederSegment("d", 1.0, 1.0, 2.0, parent="d", offset_km=0.5),
        ),
        (
            Device("load", "a", 1.0, "l1", p_pu=0.5),       # load must be <= 0
            Device("load", "a", 1.0, "l2", p_pu=-0.5),      # overlaps l1
            Device("station", "a", 3.5, "s1", p_min_pu=0.1, p_max_pu=0.2),  # off-end + bounds
            Device("widget", "a", 1.0, "w1"),               # unknown kind
            Device("load", "nope", 1.0, "l3", p_pu=-0.1),   # unknown segment
            Device("load", "a", 1.5, "l2", p_pu=-0.1),      # duplicated id
            Device("load", "d", 9.0, "l4", p_pu=0.1),       # on an unreachable segment
        ),
    )
    report = validate_grid(grid)
    assert not report.ok
    text = "\n".join(report.violations)
    # d's own violations, and none for the device on it
    assert [v for v in report.violations if "'d'" in v or "l4" in v] == [
        "segment 'd' is its own parent",
        "segment 'd' is unreachable from the bank (parent cycle)",
    ]
    for needle in (
        "duplicated",
        "device id 'l2' is duplicated",
        "length must be positive",
        "unknown parent 'zz'",
        "segment 'c': G and B must be positive",
        "must be <= 0",
        "overlap at xi=1.0",
        "must lie strictly inside",
        "straddle 0",
        "unknown kind 'widget'",
        "unknown segment 'nope'",
    ):
        assert needle in text, needle
    # a duplicated id closes a cycle through the root: A, B under A, A under B
    looped = GridTree(
        PerUnitBase(1.0, 1.0),
        (
            FeederSegment("A", 2.0, 1.0, 2.0),
            FeederSegment("B", 1.0, 1.0, 2.0, parent="A", offset_km=1.0),
            FeederSegment("A", 1.0, 1.0, 2.0, parent="B", offset_km=1.0),
        ),
    )
    assert "segment id 'A' is duplicated" in validate_grid(looped).violations
    # a two-segment parent cycle has no root and reaches neither segment
    cycle = GridTree(
        PerUnitBase(1.0, 1.0),
        (
            FeederSegment("X", 1.0, 1.0, 2.0, parent="Y", offset_km=0.5),
            FeederSegment("Y", 1.0, 1.0, 2.0, parent="X", offset_km=0.5),
        ),
    )
    assert validate_grid(cycle).violations == (
        "no root segment: every segment names a parent (cycle)",
        "segment 'X' is unreachable from the bank (parent cycle)",
        "segment 'Y' is unreachable from the bank (parent cycle)",
    )


def test_validate_rejects_unnamed_device():
    # plans are keyed by id: an unnamed station would be dispatched but
    # left out of the density and its bound and cone checks
    grid = make_single([
        Device("load", "main", 4.0, "l", p_pu=-0.05),
        Device("station", "main", 2.0, p_min_pu=-0.1, p_max_pu=0.1),
    ])
    assert validate_grid(grid).violations == ("device station@main:2.0: id must be non-empty",)
    with pytest.raises(ValueError, match="station@main:2.0: id must be non-empty"):
        synthesize(grid, 0.05)


@pytest.mark.parametrize("changes,violation", [
    pytest.param({"g": INF}, "segment 'main': g_pu_per_km must be finite, got inf", id="G"),
    pytest.param({"b": NAN}, "segment 'main': b_pu_per_km must be finite, got nan", id="B"),
    pytest.param({"load": {"p_pu": NAN}}, "device l: p_pu must be finite, got nan",
                 id="load-p"),
    pytest.param({"load": {"p_pu": -0.05, "q_pu": -INF}},
                 "device l: q_pu must be finite, got -inf", id="load-q"),
    pytest.param({"station": {"p_min_pu": -INF, "p_max_pu": 0.1}},
                 "device s: p_min_pu must be finite, got -inf", id="station-p-min"),
    pytest.param({"station": {"p_min_pu": -0.1, "p_max_pu": INF}},
                 "device s: p_max_pu must be finite, got inf", id="station-p-max"),
    pytest.param({"station": {"p_min_pu": -1e200, "p_max_pu": 1e200}},
                 "device s: station bounds [-1e+200, 1e+200] overflow the power-factor cap",
                 id="station-cap"),
    pytest.param({"station": {"p_min_pu": -0.1, "p_max_pu": 1.4e154}},
                 "device s: station bounds [-0.1, 1.4e+154] overflow the power-factor cap",
                 id="station-cap-p-max"),
    pytest.param({"station": {"p_min_pu": -1.4e154, "p_max_pu": 0.0}},
                 "device s: station bounds [-1.4e+154, 0.0] overflow the power-factor cap",
                 id="station-cap-p-min"),
])
def test_validate_rejects_non_finite_numbers(changes, violation):
    grid = make_single([
        Device("load", "main", 4.0, "l", **changes.get("load", {"p_pu": -0.05})),
        Device("station", "main", 2.0, "s",
               **changes.get("station", {"p_min_pu": -0.1, "p_max_pu": 0.1})),
    ], g=changes.get("g", 3.881), b=changes.get("b", 6.856))
    assert validate_grid(grid).violations == (violation,)


def test_validate_accepts_station_bounds_just_below_the_cap_overflow():
    # station_q_cap squares the derated bound: its overflow, past about
    # 1.3e154 pu, is the limit, not a constant
    grid = make_single([Device("station", "main", 2.0, "s", p_min_pu=-1.3e154, p_max_pu=1.3e154)])
    assert validate_grid(grid).ok


def test_validate_rejects_a_grid_with_no_segments():
    # a grid file cannot say this (parse_grid wants a non-empty list); a
    # library caller can, and the solver's mesh would fail on it
    grid = GridTree(PerUnitBase(1.0, 1.0), ())
    assert validate_grid(grid).violations == ("a grid needs at least one segment",)


@pytest.mark.parametrize("gb", [
    pytest.param(1e160, id="z2-raises-OverflowError"),
    pytest.param(1e154, id="z2-inf"),
    pytest.param(1e-200, id="z2-zero"),
])
def test_validate_rejects_a_line_whose_z2_is_zero_or_not_finite(gb):
    grid = make_single([Device("load", "main", 4.0, "l", p_pu=-0.05)], g=gb, b=gb)
    assert validate_grid(grid).violations == (
        f"segment 'main': |z|^2 = G^2 + B^2 must be positive and finite, got G={gb}, B={gb}",)


def test_validate_accepts_a_subnormal_z2():
    # 2e-320 is positive: what the solver then makes of it is physics
    grid = make_single([Device("load", "main", 4.0, "l", p_pu=-0.05)], g=1e-160, b=1e-160)
    assert 0.0 < grid.segments[0].z2 < 2.3e-308
    assert validate_grid(grid).ok


def test_validated_raises_with_all_messages():
    grid = make_single([Device("load", "main", 9.0, "l", p_pu=-0.1)])
    with pytest.raises(ValueError, match="strictly inside"):
        grid.validated()


@pytest.fixture
def validate_calls(monkeypatch):
    """The grids that validate_grid is called on while the test runs."""
    calls = []
    real = grid_module.validate_grid
    monkeypatch.setattr(grid_module, "validate_grid", lambda g: calls.append(g) or real(g))
    return calls


def test_validated_caches_a_passing_result(validate_calls):
    grid = make_single([Device("load", "main", 2.0, "l", p_pu=-0.1)])
    assert grid.validated() is grid
    assert grid.validated() is grid
    assert validate_calls == [grid]


def test_validated_never_caches_an_invalid_grid(validate_calls):
    grid = make_single([Device("load", "main", 9.0, "l", p_pu=-0.1)])
    for _ in range(3):
        with pytest.raises(ValueError, match="strictly inside"):
            grid.validated()
    assert validate_calls == [grid] * 3


def test_validate_grid_ignores_the_cache():
    grid = make_single([Device("load", "main", 9.0, "l", p_pu=-0.1)])
    object.__setattr__(grid, "_valid", True)
    assert not validate_grid(grid).ok


def test_grid_stores_segments_and_devices_as_tuples():
    # a list handed to the constructor could be mutated after validation
    segs = [FeederSegment("main", 5.0, 3.881, 6.856)]
    devs = [Device("load", "main", 2.0, "l", p_pu=-0.1)]
    grid = GridTree(PerUnitBase(1.0, 1.0), segs, devs).validated()
    devs.append(Device("load", "main", 9.0, "bad", p_pu=-0.1))
    assert grid.segments == tuple(segs)
    assert grid.devices == (devs[0],)
    assert grid == GridTree(PerUnitBase(1.0, 1.0), tuple(segs), (devs[0],))
    hash(grid)


def test_offset_must_lie_on_parent():
    grid = GridTree(
        PerUnitBase(1.0, 1.0),
        (
            FeederSegment("a", 2.0, 1.0, 2.0),
            FeederSegment("b", 1.0, 1.0, 2.0, parent="a", offset_km=2.5),
        ),
        (),
    )
    report = validate_grid(grid)
    assert any("outside (0, 2.0]" in v for v in report.violations)


def test_tree_geometry_helpers(feeder_tree):
    assert not feeder_tree.is_single_feeder()
    assert [s.id for s in feeder_tree.roots()] == ["trunk"]
    kids = [s.id for s in feeder_tree.children_of("fdrA")]
    assert kids == ["fdrA1", "fdrA2"]
    assert feeder_tree.segment_start_km("fdrA") == 1.0
    assert feeder_tree.segment_end_km("fdrA") == 3.0
    assert feeder_tree.segment_start_km("fdrA1") == 3.0


def test_device_partition(single_feeder):
    assert len(single_feeder.loads()) == 5
    assert len(single_feeder.stations()) == 4
    assert all(d.kind == "load" for d in single_feeder.loads())


# -- coarse-grained density --------------------------------------------------

def test_density_mass_matches_device_power():
    grid = make_single([
        Device("load", "main", 2.0, "l", p_pu=-0.06, q_pu=-0.01),
        Device("station", "main", 3.0, "s", p_min_pu=-0.1, p_max_pu=0.1),
    ])
    field = power_density(grid, {"s": (0.05, 0.02)}, sigma_km=0.05)
    x = np.linspace(0.0, 5.0, 20001)
    p, q = field.sample("main", x)
    assert np.trapezoid(p, x) == pytest.approx(-0.06 + 0.05, abs=1e-6)
    assert np.trapezoid(q, x) == pytest.approx(-0.01 + 0.02, abs=1e-6)


def test_density_idle_station_contributes_nothing():
    grid = make_single([Device("station", "main", 3.0, "s", p_min_pu=-0.1, p_max_pu=0.1)])
    field = power_density(grid, None, sigma_km=0.05)
    p, q = field.sample("main", np.linspace(0.0, 5.0, 101))
    assert np.all(p == 0.0)
    assert np.all(q == 0.0)


def test_density_kernel_truncated_at_six_sigma():
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1)])
    field = power_density(grid, None, sigma_km=0.05)
    p, _ = field.sample("main", np.array([2.5 - 0.31, 2.5 + 0.31]))
    assert np.all(p == 0.0)
    p, _ = field.sample("main", np.array([2.5 - 0.29]))
    assert p[0] != 0.0


def test_density_overlap_warning_is_strict():
    devices = [
        Device("load", "main", 2.0, "l1", p_pu=-0.1),
        Device("load", "main", 2.08, "l2", p_pu=-0.1),
    ]
    with pytest.warns(UserWarning, match="kernels overlap"):
        power_density(make_single(devices), None, sigma_km=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power_density(make_single(devices), None, sigma_km=0.04)  # 0.04 == gap/2: quiet


def test_density_kernels_stay_on_their_segment(feeder_tree):
    field = power_density(feeder_tree, None, sigma_km=0.05)
    # trunk carries no devices; nothing may leak across the junction at 1.0
    p, q = field.sample("trunk", np.linspace(0.0, 1.0, 51))
    assert np.all(p == 0.0) and np.all(q == 0.0)
    assert p.dtype == q.dtype == np.float64


def test_density_rejects_bad_sigma():
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1)])
    with pytest.raises(ValueError, match="sigma"):
        DensityField(grid, None, 0.0)


@pytest.mark.parametrize("sigma", [1e150, math.nextafter(1e150, INF), 1e200, 1e308, INF])
def test_density_rejects_a_sigma_whose_kernels_overflow(sigma):
    # the kernels square sigma; up to 1e150 km their arithmetic stays finite
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1),
                        Device("station", "main", 3.5, "s", p_min_pu=-0.1, p_max_pu=0.1)])
    for build in (lambda: power_density(grid, {"s": (0.05, 0.0)}, sigma),
                  lambda: DensityField(grid, {"s": (0.05, 0.0)}, sigma)):
        if sigma <= 1e150:
            with pytest.warns(UserWarning, match="kernels overlap"):
                p, q = build().sample("main", np.array([2.5, 3.5]))
            assert np.all(np.isfinite(p)) and np.all(p != 0.0) and np.all(q == 0.0)
        else:
            with pytest.raises(ValueError, match="^sigma must be"):
                build()


def test_only_placed_stations_count_for_the_spacing_warning():
    gap = 2.08 - 2.0
    grid = make_single([
        Device("load", "main", 2.0, "l", p_pu=-0.1),
        Device("station", "main", 2.08, "s", p_min_pu=-0.1, p_max_pu=0.1),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power_density(grid, None, sigma_km=0.05)    # s is idle
        DensityField(grid, {}, 0.05)
    message = (f"sigma=0.05 km exceeds half the minimum device spacing ({gap} km) "
               "on segment 'main': kernels overlap strongly")
    for build in (lambda: power_density(grid, {"s": (0.0, 0.0)}, sigma_km=0.05),
                  lambda: DensityField(grid, {"s": (0.0, 0.0)}, 0.05)):
        with pytest.warns(UserWarning) as record:
            build()
        assert [str(w.message) for w in record] == [message]
        assert record[0].filename == __file__    # the line that builds the density


def test_power_density_checks_bounds_and_cone():
    # only placed stations are checked: "off" would fail its bounds at 0.0
    grid = make_single([Device("station", "main", 2.5, "s", p_min_pu=-0.1, p_max_pu=0.1),
                        Device("station", "main", 3.5, "off", p_min_pu=0.1, p_max_pu=0.2)])
    power_density(grid, None)
    with pytest.raises(ValueError, match="outside effective bounds"):
        power_density(grid, {"s": (0.095, 0.0)})
    with pytest.raises(ValueError, match="power-factor cone"):
        power_density(grid, {"s": (0.05, 0.05)})
    # at the cone boundary, q = p*tan(acos(0.9)) is accepted
    power_density(grid, {"s": (0.05, 0.05 * math.tan(math.acos(0.9)))})


@pytest.mark.parametrize("power, message", [
    ({"b": (0.05, 0.05), "a": (0.095, 0.0)}, "station 'b': q=0.05 violates the power-factor cone"),
    ({"b": (-0.5, 0.0), "a": (0.05, 0.05)}, "station 'b': p=-0.5 outside effective bounds"),
    # NaN compares False both ways: it must still fall outside the cone
    ({"b": (0.05, NAN), "a": (0.05, 0.0)}, "station 'b': q=nan violates the power-factor cone"),
])
def test_power_density_names_the_first_offending_station(power, message):
    # b is declared first but sits farther from the bank than a
    grid = make_single([
        Device("station", "main", 3.5, "b", p_min_pu=-0.1, p_max_pu=0.1),
        Device("station", "main", 1.5, "a", p_min_pu=-0.1, p_max_pu=0.1),
        Device("station", "main", 2.5, "idle", p_min_pu=-0.1, p_max_pu=0.1),
    ])
    with pytest.raises(ValueError, match=re.escape(message)):
        power_density(grid, power)


@pytest.mark.parametrize("value", [(0.01, 0.0, 0.0), (0.01,), 0.01])
def test_station_power_must_be_a_pq_pair(value):
    grid = make_single([
        Device("station", "main", 1.5, "a", p_min_pu=-0.1, p_max_pu=0.1),
        Device("station", "main", 3.5, "b", p_min_pu=-0.1, p_max_pu=0.1),
    ])
    # a malformed value is refused even under an id that names no station
    for sid in ("b", "ghost"):
        power = {"a": (0.0, 0.0), sid: value}
        with pytest.raises((ValueError, TypeError)):
            power_density(grid, power)
        with pytest.raises((ValueError, TypeError)):
            DensityField(grid, power, 0.05)


@pytest.mark.parametrize("p,q", [(NAN, 0.0), (INF, 0.0), (-INF, 0.0),
                                 (0.01, NAN), (0.01, INF), (0.01, -INF)])
def test_density_field_refuses_non_finite_station_powers(p, q):
    grid = make_single([
        Device("station", "main", 1.5, "a", p_min_pu=-0.1, p_max_pu=0.1),
        Device("station", "main", 3.5, "b", p_min_pu=-0.1, p_max_pu=0.1),
    ])
    with pytest.raises(ValueError, match=re.escape(
            f"station 'b': p and q must be finite, got p={p}, q={q}")):
        DensityField(grid, {"a": (0.01, 0.0), "b": (p, q)}, 0.05)
    # finite values outside the bounds and the cone are the caller's to pass
    DensityField(grid, {"a": (0.01, 0.0), "b": (1.0, 1.0)}, 0.05)


@pytest.mark.parametrize("sid", ["ghost", "l1", "main"])    # a typo, a load's, a segment's
def test_a_station_power_map_refuses_an_id_that_names_no_station(sid):
    # such an entry used to be dropped: the map read as if it were absent
    grid = make_single([
        Device("station", "main", 1.5, "a", p_min_pu=-0.1, p_max_pu=0.1),
        Device("load", "main", 2.5, "l1", p_pu=-0.05),
        Device("station", "main", 3.5, "b", p_min_pu=-0.1, p_max_pu=0.1),
    ])
    message = re.escape(f"station power given for {sid!r}, which names no station of the grid")
    for power in ({sid: (0.01, 0.0)}, {"a": (0.01, 0.0), sid: (0.0, 0.0), "b": (0.01, 0.0)}):
        for consumer in (lambda: power_density(grid, power),
                         lambda: DensityField(grid, power, 0.05),
                         lambda: injections_from_grid(grid, power)):
            with pytest.raises(ValueError, match=message):
                consumer()
        assert tuple(power) not in grid._cache["placement"]
    # the same stations without the stray id place as before
    power = {"a": (0.01, 0.0), "b": (0.01, 0.0)}
    assert power_density(grid, power).sample("main", np.array([1.5]))[0][0] > 0.0
    assert len(injections_from_grid(grid, power)) == 3


def _station_check_loop(grid, power):
    """Reference: the per-station check, one station at a time."""
    for d in grid.stations():
        if d.id not in power:
            continue
        p, q = power[d.id]
        if not (d.p_min_eff - 1e-12 <= p <= d.p_max_eff + 1e-12):
            return f"station {d.id!r}: p={p} outside effective bounds [{d.p_min_eff}, {d.p_max_eff}]"
        if not abs(q) <= station_q_cap(p) + 1e-12:
            return f"station {d.id!r}: q={q} violates the power-factor cone"
    return None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.2), st.sampled_from([0.0, 1e-13, 1e-11, -1e-13, -1e-11]),
                          st.sampled_from(["p_max", "p_min", "cone", "inside", "idle"]),
                          st.booleans()),
                min_size=1, max_size=12))
def test_property_station_check_matches_the_loop(stations):
    """Stations dispatched at, just inside and just outside their derated
    bounds and the cone's edge, in declaration order unrelated to position."""
    devices, power = [], {}
    for k, (raw, nudge, where, q_sign) in enumerate(stations):
        devices.append(Device("station", "main", 4.5 - 0.3 * k, f"s{k}",
                              p_min_pu=-raw / 2, p_max_pu=raw))
        d = devices[-1]
        p = {"p_max": d.p_max_eff + nudge, "p_min": d.p_min_eff + nudge}.get(where, d.p_max_eff / 2)
        q = station_q_cap(p) + nudge if where == "cone" else 0.0
        if where != "idle":
            power[d.id] = (p, -q if q_sign else q)
    grid = make_single(devices)
    expected = _station_check_loop(grid, power)
    if expected is None:
        power_density(grid, power)
    else:
        with pytest.raises(ValueError) as err:
            power_density(grid, power)
        assert str(err.value) == expected


# -- windowed sampling against a per-device mask loop -------------------------

def _mask_loop(kernels, sigma, x):
    """Reference: every kernel masks the whole sample array, in turn."""
    x = np.asarray(x, dtype=float)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma ** 2)
    cut = 6.0 * sigma
    for xi, pw, qw in kernels:
        dx = x - xi
        mask = np.abs(dx) <= cut
        kern = norm * np.exp(-dx[mask] ** 2 / (2.0 * sigma ** 2))
        p[mask] += pw * kern
        q[mask] += qw * kern
    return p, q


# a large case: enough devices and samples for the pair search to run in
# several blocks
MANY_DEVICES = 515


def _dense_count(n_dev, span, sigma):
    """A sample count for np.linspace over span km that gives n_dev devices,
    each at least 0.5 km inside the span, more than 2 * DENSITY_BLOCK_PAIRS
    pairs in all: each device sees that many samples on the side of its
    window that points into the span."""
    per_device = 2 * grid_module.DENSITY_BLOCK_PAIRS // n_dev + 2
    return 2 + math.ceil(per_device * span / min(6.0 * sigma, span / 2.0))


def _spanned_blocks(grid):
    """At least how many blocks the pair search of the grid's one sampling
    ran in: the samples of its runs and the pairs it kept, at most the
    pairs it found, size the blocks."""
    ((_sigma, runs, _x), pairs), = grid._cache["pairs"].items()
    layout = grid._cache["layout"][None]
    n = sum(count for _, count in runs)
    kept = np.count_nonzero(pairs.cols != layout.xpq.shape[1] - 1)
    return -(-n // max(grid_module.DENSITY_BLOCK_PAIRS * n // max(kept, 1), 1))


@st.composite
def sampled_segment(draw):
    """A segment with loads, dispatched and idle stations, a neighbour
    segment whose devices must be ignored, and sample positions that are
    unsorted, repeated, outside the segment and on kernel cut-offs.  Some
    dispatched stations carry p and q of +0.0 or -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    length = draw(st.floats(0.5, 5.0))
    sigma = draw(st.floats(0.01, 0.3))
    many = draw(st.booleans())
    n = MANY_DEVICES if many else draw(st.integers(0, 30))
    kinds = rng.choice(["load", "station", "idle"], size=n)
    devices, power, kernels = [], {}, []
    for k, (kind, xi) in enumerate(zip(kinds, rng.uniform(0.0, length, n))):
        xi = float(xi)
        p, q = float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.05, 0.05))
        if kind == "load":
            devices.append(Device("load", "main", xi, f"d{k}", p_pu=p, q_pu=q))
            kernels.append((xi, p, q))
        else:
            devices.append(Device("station", "main", xi, f"d{k}", p_min_pu=-1.0, p_max_pu=1.0))
            if kind == "station":
                if rng.random() < 0.25:
                    p, q = rng.choice([0.0, -0.0], size=2).tolist()
                power[f"d{k}"] = (p, q)
                kernels.append((xi, p, q))
    devices.append(Device("load", "lat", length + 0.5, "other", p_pu=-0.3, q_pu=0.1))
    count = _dense_count(n, length + 1.0, sigma) if many else draw(st.integers(0, 400))
    mesh = np.linspace(-0.5, length + 0.5, count)
    # kernel cut-offs and their floating-point neighbours
    edges = np.array([xi + s * 6.0 * sigma for xi, _, _ in kernels[:20] for s in (-1.0, 1.0)])
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    x = np.concatenate([mesh, mesh[: draw(st.integers(0, 20))], edges, edges])
    grid = GridTree(
        PerUnitBase(1.0, 1.0),
        (FeederSegment("main", length, 1.0, 2.0),
         FeederSegment("lat", 1.0, 1.0, 2.0, parent="main", offset_km=length)),
        tuple(devices),
    )
    return grid, power, sigma, kernels, rng.permutation(x), many


@pytest.mark.filterwarnings("ignore:sigma=")
@settings(max_examples=60, deadline=None)
@given(sampled_segment())
def test_property_sample_equals_mask_loop_bit_for_bit(case):
    grid, power, sigma, kernels, x, many = case
    p, q = DensityField(grid, power, sigma).sample("main", x)
    assert not many or _spanned_blocks(grid) >= 3
    p_ref, q_ref = _mask_loop(kernels, sigma, x)
    assert p.tobytes() == p_ref.tobytes()    # the sign of zero counts
    assert q.tobytes() == q_ref.tobytes()


def test_kernel_pair_search_peak_memory_stays_in_blocks():
    # a 50 km feeder with a station and a load in each of 1000 slots: about
    # 48k pairs at sigma 0.05 km and step 0.025 km.  Searched in blocks of
    # DENSITY_BLOCK_PAIRS pairs the temporaries peak at about 0.75 MiB; in one
    # pass over all pairs they would reach 2.4 MiB.
    rng = np.random.default_rng(0)
    devices = []
    for k, x0 in enumerate(0.1 + 0.0498 * np.arange(1000)):
        xs, xl = x0 + 0.0498 * rng.uniform([0.05, 0.55], [0.45, 0.95])
        devices.append(Device("station", "main", xs, f"s{k}", p_min_pu=-1e-5, p_max_pu=1e-5))
        devices.append(Device("load", "main", xl, f"l{k}", p_pu=-1e-5))
    layout = grid_module._Layout(make_single(devices, length=50.0))
    x = 0.0125 + 0.025 * np.arange(2000)
    tracemalloc.start()
    try:
        pairs = grid_module._kernel_pairs(layout, 0.05, [("main", x.size)], x)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 47_000 < np.count_nonzero(pairs.cols != len(devices)) < 49_000
    assert peak - kept < 2 ** 20


def test_sample_empty_and_deviceless():
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1)])
    field = DensityField(grid, None, 0.05)
    p, q = field.sample("main", np.array([]))
    assert p.shape == q.shape == (0,)
    p, q = field.sample("elsewhere", np.array([2.5, 2.5]))
    assert np.array_equal(p, [0.0, 0.0]) and np.array_equal(q, [0.0, 0.0])
    with pytest.raises(ValueError, match="runs cover 1 samples, x_km has 2"):
        field.sample([("main", 1)], np.array([2.5, 2.5]))


# -- one call over several segments ------------------------------------------

@st.composite
def sampled_runs(draw):
    """A trunk with two laterals tapped at interior points, so the three x
    ranges overlap, a segment with only idle stations, and runs over them
    and over a segment id without devices: runs may repeat a segment or be
    empty, and each one's samples are unsorted and repeated, reach past
    its segment into the others' ranges and sit on its own and on the other
    segments' kernel cut-offs.  Some dispatched stations carry p and q of
    +0.0 or -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = draw(st.floats(0.01, 0.3))
    trunk = draw(st.floats(1.0, 5.0))
    segs = [FeederSegment("trunk", trunk, 1.0, 2.0)]
    for name in ("a", "b", "quiet"):
        segs.append(FeederSegment(name, draw(st.floats(0.5, 3.0)), 1.0, 2.0, parent="trunk",
                                  offset_km=trunk * draw(st.floats(0.1, 1.0))))
    grid = GridTree(PerUnitBase(1.0, 1.0), tuple(segs), ())
    many = draw(st.booleans())
    devices, power, kernels = [], {}, {s.id: [] for s in segs}
    for k in range(MANY_DEVICES if many else draw(st.integers(0, 40))):
        seg = segs[k % 4]
        kind = "idle" if seg.id == "quiet" else rng.choice(["load", "station", "idle"])
        lo, hi = grid.segment_start_km(seg.id), grid.segment_end_km(seg.id)
        xi = float(rng.uniform(lo, hi))
        p, q = float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.05, 0.05))
        if kind == "load":
            devices.append(Device("load", seg.id, xi, f"d{k}", p_pu=p, q_pu=q))
        else:
            devices.append(Device("station", seg.id, xi, f"d{k}", p_min_pu=-1.0, p_max_pu=1.0))
            if kind == "station":
                if rng.random() < 0.25:
                    p, q = rng.choice([0.0, -0.0], size=2).tolist()
                power[f"d{k}"] = (p, q)
        if kind != "idle":
            kernels[seg.id].append((xi, p, q))
    grid = GridTree(grid.base, grid.segments, tuple(devices))
    edges = np.array([xi + s * 6.0 * sigma for ks in kernels.values() for xi, _, _ in ks[:10]
                      for s in (-1.0, 1.0)])
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    ids = draw(st.lists(st.sampled_from(["trunk", "a", "b", "quiet", "ghost"]), min_size=1, max_size=6))
    runs = []
    if many:    # a leading trunk run, dense enough for three blocks of pairs
        n_trunk = sum(d.segment == "trunk" for d in devices)
        mesh = np.linspace(-0.5, trunk + 0.5, _dense_count(n_trunk, trunk + 1.0, sigma))
        runs.append(("trunk", rng.permutation(mesh)))
    for seg_id in ids:
        start = grid.segment_start_km(seg_id) if grid.has_segment(seg_id) else 0.0
        end = grid.segment_end_km(seg_id) if grid.has_segment(seg_id) else trunk
        mesh = np.linspace(start - 0.5, end + 0.5, draw(st.integers(0, 200)))
        x = np.concatenate([mesh, mesh[: draw(st.integers(0, 20))], edges, edges])
        runs.append((seg_id, rng.permutation(x)[: draw(st.integers(0, x.size))]))
    return grid, power, sigma, kernels, runs, many


@pytest.mark.filterwarnings("ignore:sigma=")
@settings(max_examples=60, deadline=None)
@given(sampled_runs())
def test_property_batched_sample_equals_per_run_calls_bit_for_bit(case):
    grid, power, sigma, kernels, runs, many = case
    field = DensityField(grid, power, sigma)
    p, q = field.sample([(seg_id, x.size) for seg_id, x in runs],
                        np.concatenate([x for _, x in runs]))
    assert not many or _spanned_blocks(grid) >= 3
    per_run = [field.sample(seg_id, x) for seg_id, x in runs]
    loop = [_mask_loop(kernels.get(seg_id, []), sigma, x) for seg_id, x in runs]
    for k, expected in ((0, p), (1, q)):
        for parts in (per_run, loop):
            ref = np.concatenate([part[k] for part in parts])
            assert np.array_equal(expected, ref)
            assert expected.tobytes() == ref.tobytes()    # the sign of zero counts


# -- the replay of the cached pairs --------------------------------------------

def _table_pairs(pairs, zero, n):
    """The (sample, column, kernel) pairs of a slot table, device-major,
    after checking its layout: the tiers tile the table, where gives each
    sample its own column and leaves one spare column per tier, an unused
    slot holds the zero column with kernel 0.0, and each sample's used
    slots hold its devices in declaration order."""
    assert pairs.cols.dtype == np.intp and pairs.kern.dtype == np.float64
    assert pairs.cols.shape == pairs.kern.shape and pairs.scratch.shape == (2, pairs.cols.size)
    assert pairs.where.dtype == np.intp and pairs.where.shape == (n,)
    at = column = 0
    sample_of = np.full(n + len(pairs.tiers), -1)
    sample_of[pairs.where] = np.arange(n)
    assert np.count_nonzero(sample_of >= 0) == n
    idx, col, kern = [], [], []
    for start, width, first, count in pairs.tiers:
        assert (start, first) == (at, column)
        assert count >= 2 or width == 0    # no one-column block of slots
        cols = pairs.cols[start:start + width * count].reshape(width, count)
        kerns = pairs.kern[start:start + width * count].reshape(width, count)
        for j in range(count):
            used = cols[:, j] != zero
            assert not kerns[~used, j].any()
            assert np.all(np.diff(cols[used, j]) > 0)
            if sample_of[first + j] < 0:    # a tier's spare column
                assert not used.any()
            idx += [sample_of[first + j]] * int(used.sum())
            col += cols[used, j].tolist()
            kern += kerns[used, j].tolist()
        at, column = start + width * count, first + count
    assert (at, column) == (pairs.cols.size, n + len(pairs.tiers))
    order = np.lexsort((idx, col))
    return np.array(idx)[order], np.array(col, dtype=np.intp)[order], np.array(kern)[order]


def _repeat_replay(pairs, zero, power_rows, n):
    """The former replay over the table's pairs, device-major: each pair's
    power gathered by np.repeat over the device columns, times its kernel,
    added by np.bincount over int32 sample indices."""
    idx, col, kern = _table_pairs(pairs, zero, n)
    cols, kept = np.unique(col, return_counts=True)
    return [np.bincount(idx.astype(np.int32), np.repeat(power[cols], kept) * kern, n)
            for power in power_rows]


@pytest.mark.filterwarnings("ignore:sigma=")
@settings(max_examples=60, deadline=None)
@given(sampled_runs())
def test_property_take_replay_equals_the_repeat_replay_bit_for_bit(case):
    # idle stations, +-0.0 powers, repeated and empty runs, runs on a
    # segment without devices
    grid, power, sigma, _kernels, runs, _many = case
    field = DensityField(grid, power, sigma)
    x = np.concatenate([x for _, x in runs])
    p, q = field.sample([(seg_id, x.size) for seg_id, x in runs], x)
    (pairs,) = grid._cache["pairs"].values()
    p_ref, q_ref = _repeat_replay(pairs, len(grid.devices), field._pq, x.size)
    assert p.tobytes() == p_ref.tobytes()    # the sign of zero counts
    assert q.tobytes() == q_ref.tobytes()


def test_fields_of_one_grid_share_the_scratch_buffer_without_leaking():
    devices = [Device("station", "main", 0.5 + 0.25 * k, f"s{k}", p_min_pu=-1.0, p_max_pu=1.0)
               for k in range(12)]
    devices.append(Device("load", "main", 2.125, "l", p_pu=-0.2, q_pu=-0.1))
    grid, twin = make_single(devices), make_single(devices)
    x = np.linspace(0.0, 5.0, 401)
    plans = ({f"s{k}": (0.01 * k, -0.005 * k) for k in range(12)},
             {f"s{k}": (-0.02, 0.0) for k in range(0, 12, 3)})
    alone = [DensityField(twin, plan, 0.05).sample("main", x) for plan in plans]
    first, second = (DensityField(grid, plan, 0.05) for plan in plans)
    a = first.sample("main", x)
    b = second.sample("main", x)
    (pairs,) = grid._cache["pairs"].values()
    assert all(not np.shares_memory(out, pairs.scratch) for out in (*a, *b))
    assert all(not np.shares_memory(out, other) for out in a for other in b)
    again = first.sample("main", x)
    for got, ref in ((a, alone[0]), (b, alone[1]), (again, alone[0])):
        assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]


def test_empty_pairs_replay_to_zeros():
    # no device on the sampled segment, and no sample at all: the pairs are empty
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1, q_pu=0.05)])
    field = DensityField(grid, None, 0.05)
    for runs, x in (("elsewhere", np.array([2.5, 2.5, 0.0])), ("main", np.array([]))):
        for _ in range(2):    # built, then replayed from the cache
            p, q = field.sample(runs, x)
            assert p.tobytes() == q.tobytes() == np.zeros(x.size).tobytes()
            # int64 zeros have the same bytes; the dtype tells them apart
            assert p.dtype == q.dtype == np.float64
    for pairs in grid._cache["pairs"].values():
        assert pairs.cols.dtype == np.intp
        assert pairs.cols.size == pairs.kern.size == pairs.scratch.size == 0


def _stack(n, xi, p0, q0, name="l"):
    """n loads at xi with distinct p and q, and the kernels they make."""
    devices = [Device("load", "main", xi, f"{name}{k}", p_pu=p0 * (1.0 + 0.37 * k),
                      q_pu=q0 * (0.5 - 0.11 * k)) for k in range(n)]
    return devices, [(d.xi_km, d.p_pu, d.q_pu) for d in devices]


@pytest.mark.filterwarnings("ignore:sigma=")
@pytest.mark.parametrize("x", [
    np.array([2.5]),                          # one sample, 12 pairs
    np.array(2.5),                            # the same, as a 0-d x
    np.array([2.5, 2.5]),                     # two columns of 12 pairs
    np.array([4.0, 2.5, 2.51]),               # 100, 12, 12 pairs: a tier of one sample
    np.array([0.3, 2.5, 4.9, 2.51, 9.0]),     # samples with and without pairs
    np.array([4.9]),                          # one sample with no pair
])
def test_replay_of_many_pairs_per_sample_equals_mask_loop(x):
    # numpy adds the slots of a one-column block pairwise from 8 slots on:
    # after a 1.0 the 1e-16 terms vanish one by one, but not in pairs
    devices = [Device("station", "main", 2.5 + 1e-3 * k, f"s{k}", p_min_pu=-1.0, p_max_pu=1.0)
               for k in range(12)]
    power = {d.id: (1.0, -0.5) if k == 0 else (1e-16, -3e-17) for k, d in enumerate(devices)}
    kernels = [(d.xi_km, *power[d.id]) for d in devices]
    stack, more = _stack(100, 4.0, -1e-3, 5e-4)
    field = DensityField(make_single(devices + stack), power, 0.05)
    p_ref, q_ref = _mask_loop(kernels + more, 0.05, x.reshape(-1))
    for _ in range(2):    # built, then replayed from the cache
        p, q = field.sample("main", x)
        assert p.shape == q.shape == x.shape
        assert p.tobytes() == p_ref.tobytes() and q.tobytes() == q_ref.tobytes()


@pytest.mark.filterwarnings("ignore:sigma=")
def test_replay_of_signed_zero_powers_equals_mask_loop():
    # +0.0 and -0.0 station powers on samples reached by them alone, and
    # mixed with loads: every sum starts from +0.0, as the loop's does
    devices = [Device("station", "main", 1.0 + 0.02 * k, f"s{k}", p_min_pu=-1.0, p_max_pu=1.0)
               for k in range(10)]
    devices.append(Device("load", "main", 1.05, "l", p_pu=-0.01, q_pu=0.0))
    power = {f"s{k}": ((0.0, -0.0) if k % 2 else (-0.0, 0.0)) for k in range(10)}
    kernels = [(d.xi_km, *power[d.id]) for d in devices[:10]] + [(1.05, -0.01, 0.0)]
    x = np.array([0.75, 0.8, 1.0, 1.1, 1.3, 1.36, 1.4])
    p, q = DensityField(make_single(devices), power, 0.05).sample("main", x)
    p_ref, q_ref = _mask_loop(kernels, 0.05, x)
    assert p.tobytes() == p_ref.tobytes() and q.tobytes() == q_ref.tobytes()
    assert np.count_nonzero(p == 0.0) == 2 and not np.signbit(p[p == 0.0]).any()
    assert not np.signbit(q).any()


@pytest.mark.filterwarnings("ignore:sigma=")
@pytest.mark.parametrize("isolated", [False, True])
def test_a_device_stack_keeps_the_slot_table_in_pairs_plus_samples(isolated):
    # 240 devices at one position on a 2400-sample mesh: a table as wide as
    # the stack for every sample would hold 240 * 2400 slots.  With isolated,
    # a second stack reaches only one sample.
    devices, kernels = _stack(240, 7.3, -2e-4, 1e-4)
    x = np.linspace(0.0, 30.0, 2400)
    if isolated:
        more, extra = _stack(60, 20.0, 3e-4, -2e-4, name="m")
        devices, kernels = devices + more, kernels + extra
        x = np.concatenate([x[np.abs(x - 20.0) > 0.5], [20.0]])
    grid = make_single(devices, length=30.0)
    p, q = DensityField(grid, None, 0.05).sample("main", x)
    p_ref, q_ref = _mask_loop(kernels, 0.05, x)
    assert p.tobytes() == p_ref.tobytes() and q.tobytes() == q_ref.tobytes()
    (pairs,) = grid._cache["pairs"].values()
    kept = np.count_nonzero(pairs.cols != len(devices))
    assert kept == sum(np.count_nonzero(np.abs(x - xi) <= 6.0 * 0.05) for xi, _, _ in kernels)
    assert len(pairs.tiers) >= 2
    assert pairs.cols.size <= 2 * kept + 2 * x.size
    assert pairs.scratch.size == 2 * pairs.cols.size


@pytest.mark.parametrize("runs", [[("main", 2.7), ("main", 2.3)], [("main", -1), ("main", 5)],
                                  [("main", float("nan")), ("main", 4)], [("main", "4")],
                                  [("main", None), ("main", 4)], [("main", 2 + 0j), ("main", 2)],
                                  [("main", True), ("main", 3)]])
def test_a_run_count_that_is_not_a_whole_number_is_refused(runs):
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1)])
    field = DensityField(grid, None, 0.05)
    bad = runs[0]    # each case's first run is the one refused
    with pytest.raises(ValueError, match=re.escape(f"run {bad!r}")):
        field.sample(runs, np.linspace(2.0, 3.0, 4))
    assert not grid._cache.get("pairs")
    p, q = field.sample([("main", 2.0), ("main", 2)], np.linspace(2.0, 3.0, 4))    # whole
    assert p.shape == q.shape == (4,)
