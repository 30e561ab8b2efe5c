import dataclasses
import json
import math
import re
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

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


# -- the event walk against PyYAML's full load -----------------------------------

LOADERS = {"libyaml": getattr(yaml, "CSafeLoader", None), "python": yaml.SafeLoader}

# every implicit scalar type of YAML 1.1, in the spellings the resolver and
# the constructors treat apart, quoted numbers and scalars that refuse to build
SCALARS = [
    "0", "-42", "+7", "0x1F", "-0x_1f", "0o17", "017", "0b101", "1_000", "190:20:30",
    "1" + "0" * 400, "1.5", "-0.0", "1e3", "1.0e+3", "6.8523015e+5", "685.230_15e+03",
    "190:20:30.15", ".inf", "-.Inf", "+.INF", ".nan", ".NaN", "1_0.5", "1.",
    "yes", "No", "on", "OFF", "true", "False", "y", "n",
    "~", "null", "Null", "''", '""',
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5",
    "2002-12-14 21:59:43.10", "2001-02-30", "2001-12-14T21:59:60",
    "'1.5'", '"0x1F"', "'~'", "'yes'", '"2001-12-14"', "'<<'", "'='",
    "abc", "load-1", "xi_km", "'a: b'", '"tab\\there"', "=", "<<",
]

# documents outside the plain subset, and streams with no or several documents
SPECIAL = [
    "", "---", "--- \n...\n", "# only a comment\n", "...\n", "42", "'quoted root'\n",
    "a: 1\n---\nb: 2\n", "--- a\n--- b\n", "- 1\n...\n---\n- 2\n",
    "a: &x 1\nb: *x\n", "a: *x\n", "- &x [1, 2]\n- *x\n", "&r {a: 1}\n",
    "a: &x 1\nb: &x 2\n", "- !!str 5\n", "a: !!float 1\n", "a: !foo bar\n", "a: ! 12\n",
    "!!map {a: 1}\n", "!!omap [a: 1]\n", "!!set {a, b}\n", "a: !!binary aGk=\n",
    "- &m {x: 1, y: 2}\n- {<<: *m, y: 3}\n", "- &m {x: 1}\n- &n {z: 2}\n- {<<: [*m, *n]}\n",
    "{<<: 5}\n", "<<: {a: 1}\n", "=: 1\n", "a: =\n", "a: <<\n",
    "? [a, b]\n: 1\n", "{[1]: 2}\n", "? {a: 1}\n: 2\n", "? a\n",
    "a: 1\na: 2\n", "{a: 1, 'a': 2}\n", "1: a\n1.0: b\n", "yes: a\n1: b\n", "~: a\nnull: b\n",
    "0x1: a\n1: b\n", ".nan: a\n.nan: b\n", "[.nan, .nan]\n",
    "a: [\n", "a: b: c\n", "{a: 1\n", "- a\nb: c\n", "\t- x\n", "a: 'unterminated\n",
    "%YAML 1.1\n--- {a: 1}\n", "%YAML 2.0\n--- {a: 1}\n", "%TAG !e! tag:e.com,2000:\n--- !e!x 1\n",
    "a: 2001-02-30\n", "a:\n  - b\n  -\n    c: d\n  - [e, {f: g}]\n",
    "- [a, [b, [c, [d, [e]]]]]\n" * 3,
]


def _canonical(value):
    """value as nested tuples that compare equal exactly when the values
    are the same: types kept, floats by repr (so NaN and -0.0 compare),
    maps as their ordered items."""
    if isinstance(value, dict):
        return ("map", [(_canonical(k), _canonical(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple, set)):
        return (type(value).__name__, [_canonical(v) for v in value])
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, repr(value))


def _outcome(load, text):
    try:
        return "value", _canonical(load(text))
    except Exception as exc:    # the same type and message on both paths
        return type(exc).__name__, str(exc)


def _full_load(text):
    return yaml.load(text, Loader=gridio._GridLoader)


@pytest.fixture(params=list(LOADERS))
def yaml_base(request, monkeypatch):
    """Grid loading on the libyaml or the pure-Python base loader."""
    base = LOADERS[request.param]
    if base is None:
        pytest.skip("PyYAML was built without libyaml")
    monkeypatch.setattr(gridio, "_GridLoader",
                        type("GridLoader", (gridio._UniqueKeys, base), {}))
    return request.param


def _render(tree, block, indent=""):
    """A drawn tree as YAML source: a scalar is its source, a list or a map
    (a list of key, value pairs, keys possibly repeated) is written in
    block style when block and it is not empty, else in flow style."""
    if isinstance(tree, str):
        return tree
    kind, items = tree
    if not (block and items):
        if kind == "seq":
            return "[" + ", ".join(_render(v, False) for v in items) + "]"
        return "{" + ", ".join(f"{_render(k, False)}: {_render(v, False)}" for k, v in items) + "}"
    lines = []
    for item in items:
        lead, value = ("- ", item) if kind == "seq" else (f"{_render(item[0], False)}: ", item[1])
        if isinstance(value, str) or not value[1]:
            lines.append(f"{indent}{lead}{_render(value, False)}\n")
        else:
            lines.append(f"{indent}{lead.rstrip()}\n{_render(value, True, indent + '  ')}")
    return "".join(lines)


_trees = st.recursive(
    st.sampled_from(SCALARS),
    lambda inner: st.one_of(
        st.tuples(st.just("seq"), st.lists(inner, max_size=4)),
        st.tuples(st.just("map"), st.lists(st.tuples(st.sampled_from(SCALARS), inner), max_size=4)),
    ),
    max_leaves=12,
)


# the fixture only picks the base loader, which every drawn document shares
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=st.tuples(st.just("map"), st.lists(st.tuples(st.sampled_from(SCALARS), _trees),
                                               max_size=5)) | _trees,
       block=st.booleans())
def test_property_event_walk_loads_as_pyyaml_does(yaml_base, tree, block):
    text = _render(tree, block)
    assert _outcome(gridio._load_yaml, text) == _outcome(_full_load, text), text


@pytest.mark.parametrize("text", SPECIAL)
def test_event_walk_loads_each_special_document_as_pyyaml_does(yaml_base, text):
    assert _outcome(gridio._load_yaml, text) == _outcome(_full_load, text)


@pytest.mark.parametrize("scalar", SCALARS)
def test_event_walk_loads_each_scalar_as_pyyaml_does(yaml_base, scalar):
    # alone, as a key and as a value, in block and in flow style
    docs = [scalar] + [_render(("map", [(scalar, scalar), ("k", ("seq", [scalar]))]), block)
                       for block in (True, False)]
    for doc in docs:
        assert _outcome(gridio._load_yaml, doc) == _outcome(_full_load, doc), doc


def test_plain_documents_take_the_event_walk(yaml_base):
    # the walk builds these itself; everything else is handed to the full load
    for name in ("single_feeder", "feeder_tree"):
        text = bundled_grid_path(name).read_text(encoding="utf-8")
        assert _canonical(gridio._plain_document(text)) == _canonical(_full_load(text))
    for text in ("", "---", "42", "[a, {b: [1, 2.5, .nan]}]", "a: {b: ~, c: [yes, '1']}\n",
                 "2001-12-14: 0x1F\n'<<': 1\n'=': 2\n"):
        assert _canonical(gridio._plain_document(text)) == _canonical(_full_load(text))
    # one NaN object for every .nan, as in a full load
    assert [id(v) for v in gridio._plain_document("[.nan, .nan]")] == [
        id(v) for v in _full_load("[.nan, .nan]")]
    for text in ("a: &x 1\n", "a: *x\n", "a: !!str 1\n", "<<: {a: 1}\n", "=: 1\n",
                 "a: =\n", "? [a]\n: 1\n", "1: a\n1.0: b\n", "a: 1\na: 2\n", "a: 2001-02-30\n",
                 "a: 1\n---\nb: 2\n", "a: [\n"):
        with pytest.raises(Exception):
            gridio._plain_document(text)


def test_a_grid_with_an_anchor_loads_through_the_full_load(tmp_path, monkeypatch):
    calls, full = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda *a, **k: calls.append(a) or full(*a, **k))
    grid = load_grid(write_tmp(tmp_path, GOOD))
    assert calls == []
    anchored = GOOD.replace("  - {id: main,", "  - &line {id: main,")
    assert load_grid(write_tmp(tmp_path, anchored, "anchored.yaml")) == grid
    assert len(calls) == 1


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
    s = prof.s.copy()
    s[:3] = (1e-320, 1e300, -1e300)    # a subnormal and the largest exponents
    prof = dataclasses.replace(prof, w=w, theta_rad=theta, s=s)
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
