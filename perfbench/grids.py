"""Seeded inputs for the benchmark workloads.

The synthetic grids are written through the public YAML schema (per-unit
line parameters and device powers), so the program only ever sees a grid
file.  The same seed gives byte-identical YAML.  Each study operation is a
(pref, mode) pair; a run cycles through a fixed set of them so that every
input repeats and the mix of inputs is the same in every run.
"""
from __future__ import annotations

import random

SIGMA_KM = 0.05
STEP_KM = SIGMA_KM / 2  # the mesh must resolve the kernels: step <= sigma/2
MODES = ("literal", "principle", "uniform")

# 0.227 + j0.401 ohm/km on a 12 MVA / 6.6 kV base, the bundled conductor
G_PU_PER_KM = 3.881
B_PU_PER_KM = 6.856

# Kernels are cut at 6 sigma; keeping devices that far from the segment
# ends means no kernel loses mass at an end.
END_CLEARANCE_KM = 6 * SIGMA_KM

DENSE_LENGTH_KM = 50.0
DENSE_PAIRS = 1000
TREE_TRUNK_KM = 10.0
TREE_LATERALS = 100
TREE_LATERAL_KM = 1.0

# Request ranges, as a share of the grid's total load magnitude.  Every
# mode converges over the whole range on every seed; a negative request
# with the uniform split collapses the dense feeder, so none is used.
PREF_SHARE = (0.05, 0.75)
PREF_STRATA = 4

# The bundled grids at their reference requests (SINGLE_FEEDER_PREF and
# FEEDER_TREE_PREF in feederflow.scenarios).
BUNDLED = (("single_feeder", 0.1), ("feeder_tree", 0.01))


def _pos(x: float) -> float:
    return round(x, 6)


def _line(seg_id: str, length: float, rng: random.Random, **attach) -> dict:
    seg = {"id": seg_id, "length_km": length}
    seg.update(attach)
    scale = rng.uniform(0.9, 1.1)
    seg["g_pu_per_km"] = round(G_PU_PER_KM * scale, 6)
    seg["b_pu_per_km"] = round(B_PU_PER_KM * scale, 6)
    return seg


def _load(seg_id: str, xi: float, rng: random.Random, k: int, scale: float) -> dict:
    return {"kind": "load", "segment": seg_id, "xi_km": _pos(xi), "id": f"l{k}",
            "p_pu": round(-scale * rng.uniform(0.5, 1.5), 9)}


def _station(seg_id: str, xi: float, rng: random.Random, k: int, scale: float) -> dict:
    cap = round(scale * rng.uniform(1.0, 2.0), 9)
    return {"kind": "station", "segment": seg_id, "xi_km": _pos(xi), "id": f"s{k}",
            "p_min_pu": -cap, "p_max_pu": cap}


def dense_feeder(seed: int) -> dict:
    """A 50 km straight feeder with 1000 stations and 1000 loads.

    The feeder is split into 1000 equal slots; each holds one station in its
    first half and one load in its second half, jittered by the seed.
    """
    rng = random.Random(f"dense-{seed}")
    seg = _line("main", DENSE_LENGTH_KM, rng)
    slot = (DENSE_LENGTH_KM - 2 * END_CLEARANCE_KM) / DENSE_PAIRS
    devices = []
    for k in range(DENSE_PAIRS):
        x0 = END_CLEARANCE_KM + k * slot
        devices.append(_station("main", x0 + slot * rng.uniform(0.05, 0.45), rng, k, 2e-5))
        devices.append(_load("main", x0 + slot * rng.uniform(0.55, 0.95), rng, k, 2e-5))
    return {"segments": [seg], "devices": devices}


def wide_tree(seed: int) -> dict:
    """A 10 km trunk with 100 one-kilometre laterals, one station and one
    load on each lateral.

    Lateral k taps the trunk at (k + 0.5) * 0.1 km, so the trunk splits
    into 101 edges and the solver walks 201 short edges.
    """
    rng = random.Random(f"tree-{seed}")
    segments = [_line("trunk", TREE_TRUNK_KM, rng)]
    devices = []
    spacing = TREE_TRUNK_KM / TREE_LATERALS
    for k in range(TREE_LATERALS):
        offset = _pos((k + 0.5) * spacing)
        lat = f"lat{k}"
        segments.append(_line(lat, TREE_LATERAL_KM, rng, parent="trunk", offset_km=offset))
        devices.append(_station(lat, offset + rng.uniform(0.35, 0.45), rng, k, 1e-4))
        devices.append(_load(lat, offset + rng.uniform(0.55, 0.65), rng, k, 1e-4))
    return {"segments": segments, "devices": devices}


GENERATORS = {"study_dense_feeder": dense_feeder, "study_wide_tree": wide_tree}


def _yaml_value(v) -> str:
    if isinstance(v, str):
        return v
    text = repr(float(v))
    mantissa, e, exp = text.partition("e")
    if e and "." not in mantissa:
        text = f"{mantissa}.0e{exp}"  # YAML 1.1 reads 1e-05 as a string
    return text


def to_yaml(doc: dict) -> str:
    """Block lists of flow mappings, the layout of the bundled grid files."""
    lines = []
    for section in ("segments", "devices"):
        lines.append(f"{section}:")
        for entry in doc[section]:
            fields = ", ".join(f"{k}: {_yaml_value(v)}" for k, v in entry.items())
            lines.append(f"  - {{{fields}}}")
    return "\n".join(lines) + "\n"


def study_inputs(doc: dict, seed: int) -> list[tuple[float, str]]:
    """Stratified (pref, mode) pairs for one study run, in seeded order.

    PREF_STRATA requests, one drawn from each equal slice of PREF_SHARE of
    the total load, each paired with every mode.
    """
    rng = random.Random(f"inputs-{seed}")
    load = sum(-d["p_pu"] for d in doc["devices"] if d["kind"] == "load")
    lo, hi = PREF_SHARE
    width = (hi - lo) / PREF_STRATA
    prefs = [round(load * (lo + width * (j + rng.random())), 9) for j in range(PREF_STRATA)]
    pairs = [(p, m) for p in prefs for m in MODES]
    rng.shuffle(pairs)
    return pairs


def cli_inputs(seed: int) -> list[tuple[str, float, str]]:
    """(bundled grid, pref, mode) for each CLI run: the grids alternate and
    the modes cycle, so six runs cover every pair; the seed picks where the
    cycle starts."""
    cycle = [(*BUNDLED[k % 2], MODES[k % 3]) for k in range(6)]
    start = seed % len(cycle)
    return cycle[start:] + cycle[:start]
