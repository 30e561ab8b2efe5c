import dataclasses
import json
import math

import pytest
import yaml

from feederflow import (
    GridFileError,
    compute_metrics,
    load_grid,
    parse_grid,
    power_density,
    solve_nonlinear,
    synthesize,
    synthesize_tree,
)
from feederflow.gridio import (
    DISPATCH_HEADER,
    PROFILE_HEADER,
    YAML_LOADER,
    fmt_float,
    write_dispatch_csv,
    write_metrics_json,
    write_profile_csv,
)
from feederflow.scenarios import bundled_grid_path

GOOD = """\
base: {power_VA: 12.0e6, voltage_V: 6600.0}
segments:
  - {id: main, length_km: 5.0, r_ohm_per_km: 0.227, x_ohm_per_km: 0.401}
devices:
  - {kind: load, segment: main, xi_km: 2.0, p_W: -720.0e3}
  - {kind: station, segment: main, xi_km: 1.0, p_min_W: -400.0e3, p_max_W: 400.0e3}
"""


def write_tmp(tmp_path, text, name="grid.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_bundled_single_feeder():
    grid = load_grid(bundled_grid_path("single_feeder"))
    assert len(grid.segments) == 1
    assert len(grid.devices) == 9
    assert grid.base.power_va == 12.0e6
    # watt inputs divide through the base exactly
    assert grid.loads()[0].p_pu == -720.0e3 / 12.0e6
    assert grid.stations()[0].p_max_pu == 400.0e3 / 12.0e6


def test_load_bundled_tree():
    grid = load_grid(bundled_grid_path("feeder_tree"))
    assert len(grid.segments) == 5
    assert len(grid.stations()) == 16
    assert len(grid.loads()) == 17
    # 25.6 MVA base turns the device table into exact binary fractions
    by_id = {d.id: d for d in grid.devices}
    assert by_id["a-ld-1"].p_pu == -(2.0 ** -11)
    assert by_id["a-st-1"].p_max_pu == 2.0 ** -6
    assert by_id["a1-ld-1"].p_pu == -(2.0 ** -7)


def test_parse_good_inline(tmp_path):
    grid = load_grid(write_tmp(tmp_path, GOOD))
    seg = grid.segments[0]
    assert seg.g_pu_per_km == 3.88079875665238
    assert seg.b_pu_per_km == 6.8555079357603725
    # string-typed numbers coerce ("12e6" parses as a YAML string)
    grid2 = parse_grid(
        {
            "base": {"power_VA": "12e6", "voltage_V": "6600"},
            "segments": [{"id": "m", "length_km": 1.0, "g_pu_per_km": 1.0, "b_pu_per_km": 2.0}],
        }
    )
    assert grid2.base.power_va == 12.0e6


def test_auto_ids(tmp_path):
    grid = load_grid(write_tmp(tmp_path, GOOD))
    assert grid.loads()[0].id == "load-1"
    assert grid.stations()[0].id == "station-1"


def test_missing_file_raises():
    with pytest.raises(GridFileError, match="cannot read"):
        load_grid("/nonexistent/grid.yaml")


def test_yaml_syntax_error(tmp_path):
    with pytest.raises(GridFileError, match="YAML syntax"):
        load_grid(write_tmp(tmp_path, "segments: [\n"))


@pytest.mark.parametrize("name", ["single_feeder", "feeder_tree"])
def test_libyaml_and_python_loaders_agree(name):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    assert YAML_LOADER is yaml.CSafeLoader
    text = bundled_grid_path(name).read_text(encoding="utf-8")
    fast = yaml.load(text, Loader=yaml.CSafeLoader)
    slow = yaml.load(text, Loader=yaml.SafeLoader)
    assert fast == slow
    assert repr(fast) == repr(slow)


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("unknown_top", "unknown keys"),
        ("no_segments", "segments"),
        ("both_units", "not both"),
        ("pu_without_base", "base"),
        ("station_with_p", "only applies to loads"),
        ("load_with_bounds", "only applies to stations"),
        ("parent_no_offset", "offset_km"),
        ("bad_number", "number"),
        ("missing_kind", "kind"),
    ],
)
def test_schema_rejections(tmp_path, mutation, needle):
    docs = {
        "unknown_top": GOOD + "extra: 1\n",
        "no_segments": "base: {power_VA: 12.0e6, voltage_V: 6600.0}\n",
        "both_units": GOOD.replace(
            "r_ohm_per_km: 0.227, x_ohm_per_km: 0.401",
            "r_ohm_per_km: 0.227, x_ohm_per_km: 0.401, g_pu_per_km: 3.9, b_pu_per_km: 6.9",
        ),
        "pu_without_base": (
            "segments:\n"
            "  - {id: m, length_km: 1.0, r_ohm_per_km: 0.2, x_ohm_per_km: 0.4}\n"
        ),
        "station_with_p": GOOD.replace("p_min_W: -400.0e3, p_max_W: 400.0e3",
                                       "p_min_W: -400.0e3, p_max_W: 400.0e3, p_W: 1.0"),
        "load_with_bounds": GOOD.replace("p_W: -720.0e3", "p_W: -720.0e3, p_max_W: 1.0"),
        "parent_no_offset": GOOD.replace(
            "x_ohm_per_km: 0.401}", "x_ohm_per_km: 0.401}\n  - {id: lat, length_km: 1.0, "
            "r_ohm_per_km: 0.227, x_ohm_per_km: 0.401, parent: main}"),
        "bad_number": GOOD.replace("xi_km: 2.0", "xi_km: wide"),
        "missing_kind": GOOD.replace("kind: load, ", ""),
    }
    with pytest.raises(GridFileError, match=needle):
        load_grid(write_tmp(tmp_path, docs[mutation]))


def test_parse_rejects_non_mapping():
    with pytest.raises(GridFileError):
        parse_grid(["not", "a", "mapping"])


# -- deterministic writers -----------------------------------------------------

def test_fmt_float_rules():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(-0.0) == "0"
    assert fmt_float(0.0) == "0"
    assert fmt_float(1.0) == "1"
    assert fmt_float(1 / 3) == "0.333333333333"
    assert fmt_float(-1.5e-7) == "-1.5e-07"


def test_dispatch_csv_layout(tmp_path, single_feeder):
    plan = synthesize(single_feeder, 0.1)
    path = tmp_path / "dispatch.csv"
    write_dispatch_csv(path, plan)
    lines = path.read_text().splitlines()
    assert lines[0] == DISPATCH_HEADER
    assert lines[1].startswith("st-1,1,0.01,")
    assert lines[-1] == "TOTAL,,0.1,0,,,"
    assert len(lines) == 6


def test_profile_csv_layout(tmp_path, single_feeder):
    prof = solve_nonlinear(single_feeder, power_density(single_feeder, None))
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    lines = path.read_text().splitlines()
    assert lines[0] == PROFILE_HEADER
    assert lines[1].split(",")[:2] == ["main", "0"]
    assert len(lines) == 1 + prof.segments[0].x_km.size


@pytest.mark.parametrize("name", ["single_feeder", "feeder_tree"])
def test_profile_csv_bytes_match_fmt_float_per_value(tmp_path, name):
    grid = load_grid(bundled_grid_path(name))
    prof = solve_nonlinear(grid, power_density(grid, synthesize_tree(grid, 0.1)))
    # signed zeros and non-finite values next to the solved ones, on the
    # first segment, whose nodes lead the columns
    w = prof.w.copy()
    w[:5] = (-0.0, 0.0, float("nan"), -float("inf"), -1e-300)
    theta = prof.theta_rad.copy()
    theta[0] = -0.0
    prof = dataclasses.replace(prof, w=w, theta_rad=theta)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    expected = [PROFILE_HEADER]
    for seg in prof.segments:
        for row in zip(seg.x_km, seg.theta_rad, seg.v_pu, seg.s, seg.w):
            expected.append(",".join([seg.segment_id, *map(fmt_float, row)]))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert b"-0," not in path.read_bytes()


def test_writers_are_byte_deterministic(tmp_path, single_feeder):
    plan = synthesize(single_feeder, 0.1)
    prof = solve_nonlinear(single_feeder, power_density(single_feeder, plan))
    rep = compute_metrics(prof, plan)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        write_dispatch_csv(out / "d.csv", plan)
        write_profile_csv(out / "p.csv", prof)
        write_metrics_json(out / "m.json", rep)
    for name in ("d.csv", "p.csv", "m.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert b"\r" not in (a / name).read_bytes()


def test_metrics_json_is_sorted_and_round_trips(tmp_path, single_feeder):
    plan = synthesize(single_feeder, 0.1)
    prof = solve_nonlinear(single_feeder, power_density(single_feeder, plan))
    rep = compute_metrics(prof, plan)
    path = tmp_path / "m.json"
    write_metrics_json(path, rep)
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["total_p"] == 0.1
    assert list(data) == sorted(data)


def test_metrics_json_normalizes_negative_zero_at_every_depth(tmp_path, single_feeder):
    plan = synthesize(single_feeder, 0.1)
    prof = solve_nonlinear(single_feeder, power_density(single_feeder, plan))
    rep = dataclasses.replace(compute_metrics(prof, plan), leftover_p=-0.0,
                              w_flatness={"main": -0.0})
    path = tmp_path / "m.json"
    write_metrics_json(path, rep)
    write_metrics_json(tmp_path / "d.json", {"pref": -0.0, "nested": {"deeper": {"x": -0.0}},
                                             "flag": False, "count": 0})
    for text in (path.read_text(), (tmp_path / "d.json").read_text()):
        assert "-0.0" not in text
    data = json.loads(path.read_text())
    assert math.copysign(1.0, data["leftover_p"]) == 1.0
    assert math.copysign(1.0, data["w_flatness"]["main"]) == 1.0
    assert json.loads((tmp_path / "d.json").read_text()) == {
        "pref": 0.0, "nested": {"deeper": {"x": 0.0}}, "flag": False, "count": 0}
