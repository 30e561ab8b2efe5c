import dataclasses
import json
import math
import re
import textwrap
from pathlib import Path

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
    validate_grid,
)
from feederflow import gridio
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
    # an empty devices section holds no devices
    assert load_grid(write_tmp(tmp_path, GOOD.split("devices:")[0] + "devices:\n")).devices == ()


def test_auto_ids(tmp_path):
    grid = load_grid(write_tmp(tmp_path, GOOD))
    assert grid.loads()[0].id == "load-1"
    assert grid.stations()[0].id == "station-1"


def test_auto_ids_skip_the_ids_the_file_gives(tmp_path):
    # an unnamed device is numbered past any id another device names, of
    # either kind; the numbering still counts every device of its kind
    text = textwrap.dedent("""\
        segments:
          - {id: main, length_km: 5.0, g_pu_per_km: 1.0, b_pu_per_km: 2.0}
        devices:
          - {kind: load, segment: main, xi_km: 1.0, id: load-2, p_pu: -0.01}
          - {kind: load, segment: main, xi_km: 1.5, p_pu: -0.01}
          - {kind: station, segment: main, xi_km: 2.0, id: load-4, p_min_pu: -0.1, p_max_pu: 0.1}
          - {kind: load, segment: main, xi_km: 2.5, p_pu: -0.01}
          - {kind: station, segment: main, xi_km: 3.0, p_min_pu: -0.1, p_max_pu: 0.1}
          - {kind: load, segment: main, xi_km: 3.5, p_pu: -0.01}
        """)
    grid = load_grid(write_tmp(tmp_path, text))
    assert [d.id for d in grid.devices] == [
        "load-2", "load-3", "load-4", "load-5", "station-2", "load-6"]
    assert validate_grid(grid).ok
    # a named load-2, then two unnamed loads: once refused as "device id
    # 'load-2' is duplicated"
    lines = text.splitlines(keepends=True)
    two_unnamed = "".join(lines[:5] + lines[6:7])
    grid = load_grid(write_tmp(tmp_path, two_unnamed))
    assert [d.id for d in grid.devices] == ["load-2", "load-3", "load-4"]
    assert validate_grid(grid).ok


def test_missing_file_raises():
    with pytest.raises(GridFileError, match="cannot read"):
        load_grid("/nonexistent/grid.yaml")
    with pytest.raises(KeyError, match="unknown bundled grid 'nope'"):
        bundled_grid_path("nope")


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
        ("bool_number", r"devices\[0\]\.xi_km: expected a number, got True"),
        ("null_number", r"segments\[0\]\.length_km: expected a number, got None"),
        ("segment_not_mapping", r"segments\[0\]: expected a mapping, got int"),
        ("device_not_mapping", r"devices\[2\]: expected a mapping, got str"),
        ("p_pu_and_p_w", r"devices\[0\]: give exactly one of \['p_pu', 'p_W'\]"),
        ("load_without_p", r"devices\[0\]: one of \['p_pu', 'p_W'\] is required"),
        ("base_without_voltage", "base: voltage_V is required"),
        ("base_power_zero", "base: base power must be positive"),
        ("segment_id_empty", r"segments\[0\]: id must be a non-empty string"),
        ("segment_id_number", r"segments\[0\]: id must be a non-empty string"),
        ("no_length", r"segments\[0\]: length_km is required"),
        ("zero_impedance", r"segments\[0\]: degenerate conductor"),
        ("r_without_x", r"segments\[0\]: give r_ohm_per_km\+x_ohm_per_km or"),
        ("parent_not_string", r"segments\[1\]: parent must be a segment id string"),
        ("offset_without_parent", r"segments\[0\]: offset_km only applies with parent"),
        ("devices_not_list", "devices: expected a list"),
        ("device_segment_empty", r"devices\[0\]: segment must be a non-empty string"),
        ("device_without_xi", r"devices\[0\]: xi_km is required"),
        ("device_id_empty", r"devices\[0\]: id must be a non-empty string"),
        ("watts_without_base", r"devices\[0\]: p_W needs a base section"),
        ("unknown_int_and_str", r"devices\[0\]: unknown keys \[1, 'foo'\]; allowed keys \['id',"),
        ("unknown_null_and_str", r"devices\[0\]: unknown keys \[None, 'a'\]; allowed keys"),
        ("unknown_mixed_top", r"top level: unknown keys \[1, 'foo'\]; allowed keys \['base',"),
        ("unknown_strings_sorted", r"segments\[0\]: unknown keys \['Zeta', 'alpha'\];"),
        ("kind_a_list", r"devices\[0\]: kind must be 'load' or 'station', got \['load'\]"),
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
        "bool_number": GOOD.replace("xi_km: 2.0", "xi_km: true"),
        "null_number": GOOD.replace("length_km: 5.0", "length_km: null"),
        "segment_not_mapping": GOOD.replace("  - {id: main", "  - 5\n  - {id: main"),
        "device_not_mapping": GOOD + "  - station\n",
        "p_pu_and_p_w": GOOD.replace("p_W: -720.0e3", "p_W: -720.0e3, p_pu: -0.06"),
        "load_without_p": GOOD.replace(", p_W: -720.0e3", ""),
        "base_without_voltage": GOOD.replace(", voltage_V: 6600.0", ""),
        "base_power_zero": GOOD.replace("power_VA: 12.0e6", "power_VA: 0"),
        "segment_id_empty": GOOD.replace("id: main", "id: ''"),
        "segment_id_number": GOOD.replace("id: main", "id: 7"),
        "no_length": GOOD.replace("length_km: 5.0, ", ""),
        "zero_impedance": GOOD.replace("r_ohm_per_km: 0.227, x_ohm_per_km: 0.401",
                                       "r_ohm_per_km: 0, x_ohm_per_km: 0"),
        "r_without_x": GOOD.replace(", x_ohm_per_km: 0.401", ""),
        "parent_not_string": GOOD.replace(
            "x_ohm_per_km: 0.401}", "x_ohm_per_km: 0.401}\n  - {id: lat, length_km: 1.0, "
            "r_ohm_per_km: 0.227, x_ohm_per_km: 0.401, parent: 3, offset_km: 1.0}"),
        "offset_without_parent": GOOD.replace("length_km: 5.0", "length_km: 5.0, offset_km: 1.0"),
        "devices_not_list": GOOD.split("devices:")[0] + "devices: {kind: load}\n",
        "device_segment_empty": GOOD.replace("segment: main, xi_km: 2.0", "segment: '', xi_km: 2.0"),
        "device_without_xi": GOOD.replace("xi_km: 2.0, ", ""),
        "device_id_empty": GOOD.replace("xi_km: 2.0", "xi_km: 2.0, id: ''"),
        "watts_without_base": (
            "segments:\n"
            "  - {id: m, length_km: 1.0, g_pu_per_km: 1.0, b_pu_per_km: 2.0}\n"
            "devices:\n"
            "  - {kind: load, segment: m, xi_km: 0.5, p_W: -1.0}\n"
        ),
        "unknown_int_and_str": GOOD.replace("xi_km: 2.0", "xi_km: 2.0, 1: x, foo: y"),
        "unknown_null_and_str": GOOD.replace("xi_km: 2.0", "xi_km: 2.0, ~: 1, a: 2"),
        "unknown_mixed_top": GOOD + "1: x\nfoo: y\n",
        "unknown_strings_sorted": GOOD.replace("length_km: 5.0", "length_km: 5.0, alpha: 1, Zeta: 2"),
        "kind_a_list": GOOD.replace("kind: load", "kind: [load]"),
    }
    with pytest.raises(GridFileError, match=needle):
        load_grid(write_tmp(tmp_path, docs[mutation]))


def test_parse_rejects_non_mapping():
    with pytest.raises(GridFileError):
        parse_grid(["not", "a", "mapping"])


@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_beyond_the_float_range_reads_as_inf(tmp_path, sign):
    # as a YAML float literal beyond the range (1.0e400) already reads
    big = sign + "1" + "0" * 400
    grid = load_grid(write_tmp(tmp_path, GOOD.replace("length_km: 5.0", f"length_km: {big}")
                               .replace("p_W: -720.0e3", f"p_W: {big}")))
    assert grid.segments[0].length_km == float(f"{sign}inf")
    assert grid.loads()[0].p_pu == float(f"{sign}inf")
    assert f"length must be positive, got {sign}inf" in validate_grid(grid).violations[0]


REPEATED_KEYS = {
    # where: (text, line, key); YAML alone keeps the last value
    "top": (GOOD + "base: {power_VA: 1.0e6, voltage_V: 400.0}\n", 7, "base"),
    "segment": (GOOD.replace("length_km: 5.0", "length_km: 5.0, length_km: 50.0"), 3, "length_km"),
    "device": (GOOD.replace("xi_km: 2.0", "xi_km: 2.0, 'xi_km': 3.0"), 5, "xi_km"),
    "block": (GOOD.replace("{kind: station, segment: main, xi_km: 1.0, p_min_W: -400.0e3, "
                           "p_max_W: 400.0e3}", "kind: station\n    segment: main\n"
                           "    xi_km: 1.0\n    p_min_W: -400.0e3\n    p_max_W: 400.0e3\n"
                           "    xi_km: 1.5"), 11, "xi_km"),
}


@pytest.mark.parametrize("loader", ["libyaml", "python"])
@pytest.mark.parametrize("where", list(REPEATED_KEYS))
def test_a_repeated_key_is_refused_with_its_line(tmp_path, monkeypatch, where, loader):
    if loader == "python":
        monkeypatch.setattr(gridio, "_GridLoader",
                            type("PythonGridLoader", (gridio._UniqueKeys, yaml.SafeLoader), {}))
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    text, line, key = REPEATED_KEYS[where]
    assert yaml.safe_load(text)    # plain YAML reads it, keeping the last value
    path = write_tmp(tmp_path, text)
    with pytest.raises(GridFileError) as exc:
        load_grid(path)
    assert str(exc.value) == f"{path}: line {line}: key {key!r} is repeated"


@pytest.mark.parametrize("loader", ["libyaml", "python"])
def test_a_key_in_another_mapping_or_over_a_merge_is_not_repeated(tmp_path, monkeypatch, loader):
    if loader == "python":
        monkeypatch.setattr(gridio, "_GridLoader",
                            type("PythonGridLoader", (gridio._UniqueKeys, yaml.SafeLoader), {}))
    text = (GOOD.replace("  - {id: main,", "  - &line {id: main,")
            .replace("devices:", "  - {<<: *line, id: lat, length_km: 1.0, parent: main, "
                                 "offset_km: 2.5}\ndevices:")
            + "  - {kind: load, segment: lat, xi_km: 3.0, p_W: -1.0e3}\n")
    grid = load_grid(write_tmp(tmp_path, text))
    assert [(s.id, s.length_km, s.parent) for s in grid.segments] == [
        ("main", 5.0, None), ("lat", 1.0, "main")]
    assert len(grid.loads()) == 2


REPO =Path(__file__).resolve().parents[1]


def documented_grids():
    """The YAML examples of the schema: under the README's "Grid files"
    heading, and in the gridio module docstring."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Grid files"):]
    yield "README", re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    doc = gridio.__doc__.split("::\n\n", 1)[1]
    yield "gridio", textwrap.dedent(doc.split("\n\n", 1)[0])


@pytest.mark.parametrize("name,text", list(documented_grids()))
def test_documented_schema_examples_parse_and_validate(name, text):
    grid = parse_grid(yaml.load(text, Loader=YAML_LOADER), source=name)
    assert grid.loads() and grid.stations()
    assert validate_grid(grid).violations == ()


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
