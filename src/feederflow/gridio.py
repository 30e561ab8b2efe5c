"""Grid file loading and deterministic result writers.

Grid files are YAML with three sections::

    base:                      # optional if all segments give per-unit G, B
      power_VA: 12.0e+6        # and all device powers are per-unit
      voltage_V: 6600.0
    segments:
      - id: main
        length_km: 5.0
        r_ohm_per_km: 0.227    # either ohmic parameters ...
        x_ohm_per_km: 0.401
        # g_pu_per_km: 3.88    # ... or per-unit parameters, not both
        # b_pu_per_km: 6.86
        # parent: trunk        # non-root segments attach to a parent
        # offset_km: 1.0       # at this distance along the parent
    devices:
      - kind: load             # loads: p (<= 0) and optional q
        segment: main
        xi_km: 0.5             # arc length from the bank, strictly inside
        p_pu: -0.06            # or p_W
      - kind: station          # stations: raw active-power bounds
        segment: main
        xi_km: 1.0
        id: st1                # optional everywhere; auto-numbered if absent
        p_min_pu: -0.0334      # or p_min_W / p_max_W
        p_max_pu: 0.0334

Unknown and repeated keys are rejected so typos cannot silently change a
study.  A plain document (untagged scalars, maps and sequences, scalar
keys, no anchor or alias, one document, no key equal to an earlier one)
is built straight from the YAML event stream, to the value yaml.load
gives it.  Any other document, a malformed one, or one with a scalar
that cannot be built (such as the date 2001-02-30) is loaded by PyYAML's
full yaml.load, which then gives its value or its error.

All writers emit platform-independent bytes: "\n" newlines, no
timestamps, negative zero normalized; the CSV files give floats 12
significant digits, the JSON files Python's shortest round-trip repr.
"""
from __future__ import annotations

import json
import math
from itertools import chain, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np
import yaml

from .dispatch import DispatchPlan
from .grid import Device, FeederSegment, GridTree, PerUnitBase, to_per_unit
from .metrics import MetricsReport
from .solver import VoltageProfile

__all__ = [
    "GridFileError",
    "load_grid",
    "parse_grid",
    "write_profile_csv",
    "write_dispatch_csv",
    "write_metrics_json",
]

PROFILE_HEADER = "segment_id,x_km,theta_rad,v_pu,s,w"
DISPATCH_HEADER = "station_id,xi_km,p_pu,q_pu,p_min_eff,p_max_eff,q_cap"

# libyaml's parser when PyYAML was built with it (several times faster on
# large grids), else the pure-Python one; both resolve tags the same way
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class GridFileError(Exception):
    """Unreadable or malformed grid file (I/O, YAML syntax, schema)."""


class _UniqueKeys:
    """Mixed into a YAML loader: a key repeated in one mapping, which both
    loaders would read as its last value, is refused with its line."""

    def construct_mapping(self, node, deep=False):
        pairs = node.value[:]    # as written: a merge key would flatten into node.value
        mapping = super().construct_mapping(node, deep)
        if len(mapping) < len(pairs):    # some keys are equal: find a repeated one
            seen = set()
            for key, _value in pairs:
                if isinstance(key, yaml.ScalarNode):
                    if (key.tag, key.value) in seen:
                        raise GridFileError(f"line {key.start_mark.line + 1}: "
                                            f"key {key.value!r} is repeated")
                    seen.add((key.tag, key.value))
        return mapping


class _GridLoader(_UniqueKeys, YAML_LOADER):
    """The loader of grid files."""


class _NotPlain(Exception):
    """The document is not plain: PyYAML's full load decides it."""


_CLOSE = (yaml.MappingEndEvent, yaml.SequenceEndEvent)
_NONE = object()    # no scalar built yet; no key pending in a map


def _plain_document(text: str):
    """The document of text, built straight from _GridLoader's events when
    it is plain: untagged scalars, maps and sequences, scalar keys, no
    anchor or alias, one document.  Each scalar is resolved and built as
    the full load does (the loader's resolve and yaml_constructors entry),
    and each map is filled key by key in document order.  Raises _NotPlain,
    or what the parser or a constructor raised, for any other document."""
    loader = _GridLoader(text)
    try:
        get, resolve, constructors = loader.get_event, loader.resolve, loader.yaml_constructors
        node = yaml.ScalarNode(None, None)    # what a constructor reads: tag and value
        built = {}    # (value, implicit) -> its scalar: a constructor is a pure function
        get()    # the stream start
        if isinstance(get(), yaml.StreamEndEvent):    # else the document start
            return None
        stack = []    # each open map or list, with a map's pending key
        while True:
            event = get()
            if isinstance(event, _CLOSE):
                value = stack.pop()[0]
            elif event.anchor is not None or event.tag is not None:
                raise _NotPlain    # an anchor, an alias (which has one) or an explicit tag
            elif isinstance(event, yaml.ScalarEvent):
                source = (event.value, event.implicit)
                value = built.get(source, _NONE)
                if value is _NONE:
                    node.tag = resolve(yaml.ScalarNode, event.value, event.implicit)
                    node.value = event.value
                    if node.tag not in constructors:    # a merge key or "="
                        raise _NotPlain
                    value = built[source] = constructors[node.tag](loader, node)
            else:
                stack.append(({} if isinstance(event, yaml.MappingStartEvent) else [], _NONE))
                continue
            if not stack:
                break
            into, key = stack[-1]
            if isinstance(into, list):
                into.append(value)
            elif key is _NONE:
                if isinstance(value, (dict, list)):    # a map or list as a key
                    raise _NotPlain
                stack[-1] = (into, value)
            else:
                size = len(into)
                into[key] = value
                if len(into) == size:    # a key equal to an earlier one
                    raise _NotPlain
                stack[-1] = (into, _NONE)
        if not (isinstance(get(), yaml.DocumentEndEvent)
                and isinstance(get(), yaml.StreamEndEvent)):
            raise _NotPlain    # a second document
        return value
    finally:
        loader.dispose()


def _load_yaml(text: str):
    """The document of text, as yaml.load(text, Loader=_GridLoader) gives it:
    built from the event stream when it is plain, else by that load, which
    then also decides every error and its message."""
    try:
        return _plain_document(text)
    except Exception:    # whatever failed: yaml.load composes the whole document
        # before it builds any of it, so it alone says which error comes first
        return yaml.load(text, Loader=_GridLoader)


# The schema, one table per record; the allowed keys are derived from them.
_TOP_KEYS = frozenset(("base", "segments", "devices"))
_BASE_KEYS = ("power_VA", "voltage_V")       # PerUnitBase's fields, in order
# a segment's line parameters: the ohmic pair (needs a base) or the per-unit pair
_LINE_PAIRS = (("r_ohm_per_km", "x_ohm_per_km"), ("g_pu_per_km", "b_pu_per_km"))
_SEGMENT_KEYS = frozenset(("id", "length_km", "parent", "offset_km", *chain(*_LINE_PAIRS)))
# per device kind, a row per power: (per-unit key, which is also the Device
# field, SI key, whether one of the two is required)
_DEVICE_POWERS = {
    "load": (("p_pu", "p_W", True), ("q_pu", "q_VAr", False)),
    "station": (("p_min_pu", "p_min_W", True), ("p_max_pu", "p_max_W", True)),
}
# how a kind's power keys, given on the other kind, are said to apply to it
_APPLIES_TO = {"load": "loads (station set points come from dispatch)", "station": "stations"}
_POWER_KEYS = {kind: [k for row in rows for k in row[:2]] for kind, rows in _DEVICE_POWERS.items()}
_DEVICE_KEYS = frozenset(("kind", "segment", "xi_km", "id", *chain(*_POWER_KEYS.values())))
# per kind, the other kind's keys in declared order, each with what it applies to
_REFUSED = {kind: [(key, _APPLIES_TO[other]) for other in _DEVICE_POWERS if other != kind
                   for key in _POWER_KEYS[other]] for kind in _DEVICE_POWERS}


def _fail(source: str, msg: str) -> NoReturn:
    raise GridFileError(f"{source}: {msg}")


def _num(value, source: str, where: str) -> float:
    if isinstance(value, bool) or value is None:
        _fail(source, f"{where}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:   # an int beyond the float range, read as 1.0e400 is
            return math.inf if value > 0 else -math.inf
    if isinstance(value, str):
        # YAML 1.1 reads e.g. "12e6" as a string; accept it as a number
        try:
            return float(value)
        except ValueError:
            pass
    _fail(source, f"{where}: expected a number, got {value!r}")


def _sorted_keys(keys) -> list:
    """keys sorted; if their types do not compare, by type name, then str or repr."""
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=lambda k: (type(k).__name__, k if isinstance(k, str) else repr(k)))


def _check_keys(entry, allowed: frozenset, source: str, where: str) -> None:
    if not isinstance(entry, dict):
        _fail(source, f"{where}: expected a mapping, got {type(entry).__name__}")
    if not allowed.issuperset(entry):
        unknown = _sorted_keys(set(entry) - allowed)
        _fail(source, f"{where}: unknown keys {unknown}; allowed keys {sorted(allowed)}")


def _number(entry: dict, key: str, source: str, where: str, missing: str = "is required"):
    """entry[key] as a float; a missing key is refused with "<key> <missing>"."""
    if key not in entry:
        _fail(source, f"{where}: {key} {missing}")
    return _num(entry[key], source, f"{where}.{key}")


def _name(entry: dict, key: str, source: str, where: str) -> str:
    """entry[key], which must be a non-empty string."""
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        _fail(source, f"{where}: {key} must be a non-empty string")
    return value


def _power(entry: dict, row: tuple, base: PerUnitBase | None, source: str, where: str) -> float:
    """The power of a _DEVICE_POWERS row: given per unit, or in SI units and
    divided by the base power; 0.0 if neither is given and it is optional."""
    pu_key, si_key, required = row
    if si_key not in entry:
        if pu_key in entry:
            return _num(entry[pu_key], source, f"{where}.{pu_key}")
        if required:
            _fail(source, f"{where}: one of {[pu_key, si_key]} is required")
        return 0.0
    if pu_key in entry:
        _fail(source, f"{where}: give exactly one of {[pu_key, si_key]}, got {[pu_key, si_key]}")
    value = _num(entry[si_key], source, f"{where}.{si_key}")
    if base is None:
        _fail(source, f"{where}: {si_key} needs a base section")
    return value / base.power_va


def load_grid(path: str | Path) -> GridTree:
    """Read and parse a grid file.  Raises GridFileError on any I/O or
    schema problem; the returned tree is not yet semantically validated."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GridFileError(f"{path}: cannot read: {exc}") from exc
    try:
        doc = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise GridFileError(f"{path}: YAML syntax error: {exc}") from exc
    except GridFileError as exc:    # a repeated key
        raise GridFileError(f"{path}: {exc}") from None
    return parse_grid(doc, source=str(path))


def parse_grid(doc, source: str = "<grid>") -> GridTree:
    if not isinstance(doc, dict):
        _fail(source, f"top level must be a mapping, got {type(doc).__name__}")
    _check_keys(doc, _TOP_KEYS, source, "top level")

    base = None
    if "base" in doc:
        entry = doc["base"]
        _check_keys(entry, frozenset(_BASE_KEYS), source, "base")
        for key in _BASE_KEYS:     # every key's presence before any value
            if key not in entry:
                _fail(source, f"base: {key} is required")
        try:
            base = PerUnitBase(*(_number(entry, key, source, "base") for key in _BASE_KEYS))
        except ValueError as exc:
            _fail(source, f"base: {exc}")

    raw_segments = doc.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        _fail(source, "segments: a non-empty list is required")
    segments = []
    for k, entry in enumerate(raw_segments):
        where = f"segments[{k}]"
        _check_keys(entry, _SEGMENT_KEYS, source, where)
        seg_id = _name(entry, "id", source, where)
        length = _number(entry, "length_km", source, where)
        ohmic, perunit = ([key for key in pair if key in entry] for pair in _LINE_PAIRS)
        if ohmic and perunit:
            _fail(source, f"{where}: give ohmic or per-unit line parameters, not both")
        if len(ohmic) == 2:
            if base is None:
                _fail(source, f"{where}: ohmic parameters need a base section")
            try:
                g, b = to_per_unit(*(_number(entry, key, source, where) for key in ohmic), base)
            except ValueError as exc:
                _fail(source, f"{where}: {exc}")
        elif len(perunit) == 2:
            g, b = (_number(entry, key, source, where) for key in perunit)
        else:
            _fail(source, f"{where}: give {' or '.join(map('+'.join, _LINE_PAIRS))}")
        parent = entry.get("parent")
        if parent is not None and not isinstance(parent, str):
            _fail(source, f"{where}: parent must be a segment id string")
        if parent is None and "offset_km" in entry:
            _fail(source, f"{where}: offset_km only applies with parent")
        offset = (0.0 if parent is None
                  else _number(entry, "offset_km", source, where, "is required with parent"))
        segments.append(FeederSegment(seg_id, length, g, b, parent, offset))

    raw_devices = [] if doc.get("devices") is None else doc["devices"]
    if not isinstance(raw_devices, list):
        _fail(source, "devices: expected a list")
    devices = []
    counters = dict.fromkeys(_DEVICE_POWERS, 0)
    named = {e["id"] for e in raw_devices if isinstance(e, dict) and isinstance(e.get("id"), str)}
    for k, entry in enumerate(raw_devices):
        where = f"devices[{k}]"
        _check_keys(entry, _DEVICE_KEYS, source, where)
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _DEVICE_POWERS:
            _fail(source, f"{where}: kind must be 'load' or 'station', got {kind!r}")
        seg_ref = _name(entry, "segment", source, where)
        xi = _number(entry, "xi_km", source, where)
        counters[kind] += 1
        while entry.get("id") is None and f"{kind}-{counters[kind]}" in named:    # taken
            counters[kind] += 1
        dev_id = (f"{kind}-{counters[kind]}" if entry.get("id") is None
                  else _name(entry, "id", source, where))
        for key, applies_to in _REFUSED[kind]:
            if key in entry:
                _fail(source, f"{where}: {key} only applies to {applies_to}")
        powers = {}
        for row in _DEVICE_POWERS[kind]:
            powers[row[0]] = _power(entry, row, base, source, where)
        devices.append(Device(kind, seg_ref, xi, dev_id, **powers))

    if base is None:
        base = PerUnitBase(power_va=1.0, voltage_v=1.0)
    return GridTree(base=base, segments=tuple(segments), devices=tuple(devices))


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def _csv_rows(ids, columns) -> str:
    """One CSV row per id: the id, then its value in each column.  Each
    value is written as fmt_float writes it: adding 0.0 turns -0.0 into 0.0
    and leaves every other value as it is.  The rows are formatted by one %
    over one tuple that interleaves the ids with the columns (% and
    f-strings format .12g alike)."""
    cols = [(np.asarray(c, dtype=float) + 0.0).tolist() for c in columns]
    row = "%s" + ",%.12g" * len(cols) + "\n"
    return (row * len(cols[0])) % tuple(chain.from_iterable(zip(ids, *cols)))


def write_profile_csv(path: str | Path, profile: VoltageProfile) -> None:
    """One row per mesh sample, segments in declared order, x ascending.

    Interior junction positions appear twice per hosting segment (far-side
    and bank-side s, w).  Each segment's id is repeated by its number of
    nodes."""
    ends = profile.node_ends
    counts = [b - a for a, b in zip((0, *ends), ends)]
    ids = chain.from_iterable(map(repeat, profile.segment_ids, counts))
    rows = _csv_rows(ids, (profile.x_km, profile.theta_rad, profile.v_pu, profile.s, profile.w))
    Path(path).write_text(f"{PROFILE_HEADER}\n{rows}", encoding="utf-8", newline="\n")


def write_dispatch_csv(path: str | Path, plan: DispatchPlan) -> None:
    """Stations bank-nearest first, then a TOTAL footer row carrying the
    delivered total in p_pu and the unplaced remainder in q_pu's column."""
    rows = _csv_rows(plan.ids, (plan.xi_km, plan.p_pu, plan.q_pu, plan.p_min_eff,
                                plan.p_max_eff, plan.q_cap))
    total = f"TOTAL,,{fmt_float(plan.total_p())},{fmt_float(plan.leftover_p)},,,"
    Path(path).write_text(f"{DISPATCH_HEADER}\n{rows}{total}\n", encoding="utf-8", newline="\n")


def _plus_zero(value):
    """value with each float -0.0 in it, nested dicts included, made 0.0."""
    if isinstance(value, dict):
        return {k: _plus_zero(v) for k, v in value.items()}
    return value + 0.0 if isinstance(value, float) else value


def write_metrics_json(path: str | Path, report: MetricsReport | dict) -> None:
    """Sorted keys, two-space indent, floats in Python's shortest repr."""
    payload = report.as_dict() if isinstance(report, MetricsReport) else report
    text = json.dumps(_plus_zero(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")
