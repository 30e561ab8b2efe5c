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

Unknown keys are rejected so typos cannot silently change a study.  All
writers emit platform-independent bytes: "\n" newlines, no timestamps,
negative zero normalized; the CSV files give floats 12 significant digits,
the JSON files Python's shortest round-trip repr.
"""
from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path

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


def _fail(source: str, msg: str) -> None:
    raise GridFileError(f"{source}: {msg}")


def _num(value, source: str, where: str) -> float:
    if isinstance(value, bool) or value is None:
        _fail(source, f"{where}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        # YAML 1.1 reads e.g. "12e6" as a string; accept it as a number
        try:
            return float(value)
        except ValueError:
            pass
    _fail(source, f"{where}: expected a number, got {value!r}")


def _check_keys(entry: dict, allowed: set[str], source: str, where: str) -> None:
    if not isinstance(entry, dict):
        _fail(source, f"{where}: expected a mapping, got {type(entry).__name__}")
    unknown = sorted(set(entry) - allowed)
    if unknown:
        _fail(source, f"{where}: unknown keys {unknown}; allowed keys {sorted(allowed)}")


def _one_of(entry: dict, keys: tuple[str, ...], source: str, where: str, required: bool):
    present = [k for k in keys if k in entry]
    if len(present) > 1:
        _fail(source, f"{where}: give exactly one of {list(keys)}, got {present}")
    if not present:
        if required:
            _fail(source, f"{where}: one of {list(keys)} is required")
        return None, None
    return present[0], entry[present[0]]


def load_grid(path: str | Path) -> GridTree:
    """Read and parse a grid file.  Raises GridFileError on any I/O or
    schema problem; the returned tree is not yet semantically validated."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GridFileError(f"{path}: cannot read: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise GridFileError(f"{path}: YAML syntax error: {exc}") from exc
    return parse_grid(doc, source=str(path))


def parse_grid(doc, source: str = "<grid>") -> GridTree:
    if not isinstance(doc, dict):
        _fail(source, f"top level must be a mapping, got {type(doc).__name__}")
    _check_keys(doc, {"base", "segments", "devices"}, source, "top level")

    base = None
    if "base" in doc:
        entry = doc["base"]
        _check_keys(entry, {"power_VA", "voltage_V"}, source, "base")
        for key in ("power_VA", "voltage_V"):
            if key not in entry:
                _fail(source, f"base: {key} is required")
        try:
            base = PerUnitBase(
                power_va=_num(entry["power_VA"], source, "base.power_VA"),
                voltage_v=_num(entry["voltage_V"], source, "base.voltage_V"),
            )
        except ValueError as exc:
            _fail(source, f"base: {exc}")

    raw_segments = doc.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        _fail(source, "segments: a non-empty list is required")
    segments = []
    for k, entry in enumerate(raw_segments):
        where = f"segments[{k}]"
        _check_keys(
            entry,
            {"id", "length_km", "r_ohm_per_km", "x_ohm_per_km",
             "g_pu_per_km", "b_pu_per_km", "parent", "offset_km"},
            source, where,
        )
        seg_id = entry.get("id")
        if not isinstance(seg_id, str) or not seg_id:
            _fail(source, f"{where}: id must be a non-empty string")
        if "length_km" not in entry:
            _fail(source, f"{where}: length_km is required")
        length = _num(entry["length_km"], source, f"{where}.length_km")
        ohmic = [k_ for k_ in ("r_ohm_per_km", "x_ohm_per_km") if k_ in entry]
        perunit = [k_ for k_ in ("g_pu_per_km", "b_pu_per_km") if k_ in entry]
        if ohmic and perunit:
            _fail(source, f"{where}: give ohmic or per-unit line parameters, not both")
        if len(ohmic) == 2:
            if base is None:
                _fail(source, f"{where}: ohmic parameters need a base section")
            try:
                g, b = to_per_unit(
                    _num(entry["r_ohm_per_km"], source, f"{where}.r_ohm_per_km"),
                    _num(entry["x_ohm_per_km"], source, f"{where}.x_ohm_per_km"),
                    base,
                )
            except ValueError as exc:
                _fail(source, f"{where}: {exc}")
        elif len(perunit) == 2:
            g = _num(entry["g_pu_per_km"], source, f"{where}.g_pu_per_km")
            b = _num(entry["b_pu_per_km"], source, f"{where}.b_pu_per_km")
        else:
            _fail(source, f"{where}: give r_ohm_per_km+x_ohm_per_km or "
                          "g_pu_per_km+b_pu_per_km")
        parent = entry.get("parent")
        if parent is not None and not isinstance(parent, str):
            _fail(source, f"{where}: parent must be a segment id string")
        offset = 0.0
        if parent is not None:
            if "offset_km" not in entry:
                _fail(source, f"{where}: offset_km is required with parent")
            offset = _num(entry["offset_km"], source, f"{where}.offset_km")
        elif "offset_km" in entry:
            _fail(source, f"{where}: offset_km only applies with parent")
        segments.append(FeederSegment(
            id=seg_id, length_km=length, g_pu_per_km=g, b_pu_per_km=b,
            parent=parent, offset_km=offset,
        ))

    raw_devices = doc.get("devices", [])
    if raw_devices is None:
        raw_devices = []
    if not isinstance(raw_devices, list):
        _fail(source, "devices: expected a list")
    devices = []
    counters = {"load": 0, "station": 0}
    for k, entry in enumerate(raw_devices):
        where = f"devices[{k}]"
        _check_keys(
            entry,
            {"kind", "segment", "xi_km", "id", "p_pu", "p_W", "q_pu", "q_VAr",
             "p_min_pu", "p_min_W", "p_max_pu", "p_max_W"},
            source, where,
        )
        kind = entry.get("kind")
        if kind not in ("load", "station"):
            _fail(source, f"{where}: kind must be 'load' or 'station', got {kind!r}")
        seg_ref = entry.get("segment")
        if not isinstance(seg_ref, str) or not seg_ref:
            _fail(source, f"{where}: segment must be a non-empty string")
        if "xi_km" not in entry:
            _fail(source, f"{where}: xi_km is required")
        xi = _num(entry["xi_km"], source, f"{where}.xi_km")
        counters[kind] += 1
        dev_id = entry.get("id")
        if dev_id is None:
            dev_id = f"{kind}-{counters[kind]}"
        elif not isinstance(dev_id, str) or not dev_id:
            _fail(source, f"{where}: id must be a non-empty string")

        def in_pu(pu_key: str, w_key: str, required: bool) -> float:
            key, value = _one_of(entry, (pu_key, w_key), source, where, required)
            if key is None:
                return 0.0
            value = _num(value, source, f"{where}.{key}")
            if key == w_key:
                if base is None:
                    _fail(source, f"{where}: {w_key} needs a base section")
                return value / base.power_va
            return value

        if kind == "load":
            for bad_key in ("p_min_pu", "p_min_W", "p_max_pu", "p_max_W"):
                if bad_key in entry:
                    _fail(source, f"{where}: {bad_key} only applies to stations")
            devices.append(Device(
                kind="load", segment=seg_ref, xi_km=xi, id=dev_id,
                p_pu=in_pu("p_pu", "p_W", required=True),
                q_pu=in_pu("q_pu", "q_VAr", required=False),
            ))
        else:
            for bad_key in ("p_pu", "p_W", "q_pu", "q_VAr"):
                if bad_key in entry:
                    _fail(source, f"{where}: {bad_key} only applies to loads "
                                  "(station set points come from dispatch)")
            devices.append(Device(
                kind="station", segment=seg_ref, xi_km=xi, id=dev_id,
                p_min_pu=in_pu("p_min_pu", "p_min_W", required=True),
                p_max_pu=in_pu("p_max_pu", "p_max_W", required=True),
            ))

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


def _write_lines(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_profile_csv(path: str | Path, profile: VoltageProfile) -> None:
    """One row per mesh sample, segments in declared order, x ascending.

    Interior junction positions appear twice per hosting segment (far-side
    and bank-side s, w).  Each value is written as fmt_float writes it:
    adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
    The five columns are formatted in one pass, next to each segment's id
    repeated by its number of nodes."""
    ends = profile.node_ends
    counts = [b - a for a, b in zip((0, *ends), ends)]
    ids = chain.from_iterable(map(repeat, profile.segment_ids, counts))
    cols = [(a + 0.0).tolist()
            for a in (profile.x_km, profile.theta_rad, profile.v_pu, profile.s, profile.w)]
    lines = [PROFILE_HEADER]
    lines += [f"{sid},{x:.12g},{th:.12g},{v:.12g},{s:.12g},{w:.12g}"
              for sid, x, th, v, s, w in zip(ids, *cols)]
    _write_lines(path, lines)


def write_dispatch_csv(path: str | Path, plan: DispatchPlan) -> None:
    """Stations bank-nearest first, then a TOTAL footer row carrying the
    delivered total in p_pu and the unplaced remainder in q_pu's column."""
    lines = [DISPATCH_HEADER]
    columns = (plan.xi_km, plan.p_pu, plan.q_pu, plan.p_min_eff, plan.p_max_eff, plan.q_cap)
    lines += [",".join((sid, *map(fmt_float, values)))
              for sid, *values in zip(plan.ids, *columns)]
    lines.append(f"TOTAL,,{fmt_float(plan.total_p())},{fmt_float(plan.leftover_p)},,,")
    _write_lines(path, lines)


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
