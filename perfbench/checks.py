"""Output checks applied to every benchmark operation.

The checks read the program's outputs, either the files `feederflow run`
writes or the objects the library returns, and recompute what they can
from first principles: the dispatch request balance, each station's
derated bounds and power-factor cone (the grid-code policy in the README),
the bank, terminal and junction residuals of the profile, and (for the
study workloads) the residuals of the feeder equations on every mesh cell
against a power density rebuilt here from the grid and the plan.  They
never trust the residuals or bounds the program reports about itself.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOUND_FACTOR = 0.9          # station bounds are derated to 90% of the raw range
PF_FLOOR = 0.9              # |Q| <= sqrt((P/0.9)^2 - P^2)
Q_PER_P = math.sqrt(1.0 / PF_FLOOR ** 2 - 1.0)
BOUND_TOL = 1e-12
BALANCE_TOL = 1e-12         # total_p + leftover_p == pref
RESIDUAL_TOL = 1e-9         # acceptance criterion 6
REFERENCE_TOL = 1e-9
CELL_TOL = 1e-12            # feeder-equation residual of one mesh cell
KERNEL_CUTOFF_SIGMAS = 6.0  # density kernels are Gaussians cut at +-6 sigma
REFERENCE_KEYS = ("max_dev", "l2_dev", "min_terminal_v")
OUTPUT_FILES = ("dispatch.csv", "profile.csv", "metrics.json")
NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@dataclass
class GridFacts:
    """What the checks need to know about a grid, read from its public fields."""

    bounds: dict[str, tuple[float, float]]
    roots: tuple[str, ...]
    taps: dict[str, list[tuple[float, str]]]   # segment -> (x of tap, child segment)
    lines: dict[str, tuple[float, float]]      # segment -> (g, b) per km
    loads: dict[str, list[tuple[float, float, float]]]  # segment -> (x, p, q)
    stations: dict[str, tuple[str, float]]     # station -> (segment, x)


def grid_facts(grid) -> GridFacts:
    bounds = {d.id: (BOUND_FACTOR * d.p_min_pu, BOUND_FACTOR * d.p_max_pu)
              for d in grid.devices if d.kind == "station"}
    taps: dict[str, list[tuple[float, str]]] = {s.id: [] for s in grid.segments}
    for s in grid.segments:
        if s.parent is not None:
            taps[s.parent].append((grid.segment_start_km(s.parent) + s.offset_km, s.id))
    roots = tuple(s.id for s in grid.segments if s.parent is None)
    lines = {s.id: (s.g_pu_per_km, s.b_pu_per_km) for s in grid.segments}
    loads: dict[str, list[tuple[float, float, float]]] = {s.id: [] for s in grid.segments}
    for d in grid.devices:
        if d.kind == "load":
            loads[d.segment].append((d.xi_km, d.p_pu, d.q_pu))
    stations = {d.id: (d.segment, d.xi_km) for d in grid.devices if d.kind == "station"}
    return GridFacts(bounds, roots, taps, lines, loads, stations)


@dataclass
class Outputs:
    """One operation's results in a form common to files and objects."""

    stations: list[tuple[str, float, float]]            # (id, p, q)
    total_p: float
    leftover_p: float
    profile: dict[str, dict[str, np.ndarray]]           # segment -> x, v, s, w
    metrics: dict[str, float]
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def _edges(x: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges of the mesh edges along one segment.

    Where a child taps the segment interior the tap position appears twice,
    once as the end of one edge and once as the start of the next.
    """
    cuts = np.flatnonzero(np.diff(x) <= 1e-9) + 1
    bounds = [0, *cuts.tolist(), len(x)]
    return list(zip(bounds[:-1], bounds[1:]))


def residuals(facts: GridFacts, profile: dict[str, dict[str, np.ndarray]]) -> dict[str, float]:
    """Bank, terminal and junction residuals recomputed from the sampled profile."""
    out = dict.fromkeys(("bank", "terminal_s", "terminal_w",
                         "junction_s", "junction_w", "junction_v"), 0.0)
    for root in facts.roots:
        out["bank"] = max(out["bank"], abs(profile[root]["v"][0] - 1.0))
    for seg_id, taps in facts.taps.items():
        seg = profile[seg_id]
        edges = _edges(seg["x"])
        for k, (i0, i1) in enumerate(edges):
            end = i1 - 1
            # (s, w, v) at the start of every edge fed by this edge's far end
            fed = [(seg["s"][i1], seg["w"][i1], seg["v"][i1])] if k + 1 < len(edges) else []
            for x_tap, child in taps:
                if abs(x_tap - seg["x"][end]) <= 1e-9:
                    c = profile[child]
                    fed.append((c["s"][0], c["w"][0], c["v"][0]))
            if not fed:
                out["terminal_s"] = max(out["terminal_s"], abs(seg["s"][end]))
                out["terminal_w"] = max(out["terminal_w"], abs(seg["w"][end]))
                continue
            out["junction_s"] = max(out["junction_s"],
                                    abs(seg["s"][end] - math.fsum(f[0] for f in fed)))
            out["junction_w"] = max(out["junction_w"],
                                    abs(seg["w"][end] - math.fsum(f[1] for f in fed)))
            out["junction_v"] = max(out["junction_v"],
                                    max(abs(f[2] - seg["v"][end]) for f in fed))
    return out


def _density(devices, x: np.ndarray, sigma_km: float) -> tuple[np.ndarray, np.ndarray]:
    """p and q at the sorted positions x: a Gaussian of mass p, q centred
    at each device (x, p, q), cut at KERNEL_CUTOFF_SIGMAS."""
    p, q = np.zeros_like(x), np.zeros_like(x)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma_km ** 2)
    cut = KERNEL_CUTOFF_SIGMAS * sigma_km
    for xi, pw, qw in devices:
        i0, i1 = np.searchsorted(x, [xi - 2 * cut, xi + 2 * cut])
        dx = x[i0:i1] - xi
        kern = np.where(np.abs(dx) <= cut, norm * np.exp(-dx ** 2 / (2.0 * sigma_km ** 2)), 0.0)
        p[i0:i1] += pw * kern
        q[i0:i1] += qw * kern
    return p, q


def cell_residuals(facts: GridFacts, out: Outputs, sigma_km: float) -> dict[str, float]:
    """Largest residual over all mesh cells of each feeder equation, with
    the density rebuilt from the grid's loads and the plan's stations and
    sampled at the cell midpoints (the solver's midpoint rule):

        s[i] - s[i+1] = -h (b p - g q) / z2
        w[i] - w[i+1] = -h (s^2 / v^3 - (g p + b q) / (v z2))
        v[i+1] - v[i] = h (w[i] + w[i+1]) / 2
    """
    devices = {seg: list(loads) for seg, loads in facts.loads.items()}
    for sid, p, q in out.stations:
        seg, xi = facts.stations[sid]
        devices[seg].append((xi, p, q))
    worst = dict.fromkeys(("cell_s", "cell_w", "cell_v"), 0.0)
    for seg_id, (g, b) in facts.lines.items():
        seg = out.profile[seg_id]
        x, v, s, w = seg["x"], seg["v"], seg["s"], seg["w"]
        cells = np.concatenate([np.arange(i0, i1 - 1) for i0, i1 in _edges(x)])
        h = x[cells + 1] - x[cells]
        pm, qm = _density(sorted(devices[seg_id]), 0.5 * (x[cells] + x[cells + 1]), sigma_km)
        z2 = g * g + b * b
        s_mid = 0.5 * (s[cells] + s[cells + 1])
        v_mid = 0.5 * (v[cells] + v[cells + 1])
        fw = s_mid ** 2 / v_mid ** 3 - (g * pm + b * qm) / (v_mid * z2)
        for name, res in (
                ("cell_s", s[cells] - s[cells + 1] + h * (b * pm - g * qm) / z2),
                ("cell_w", w[cells] - w[cells + 1] + h * fw),
                ("cell_v", v[cells + 1] - v[cells] - 0.5 * h * (w[cells] + w[cells + 1]))):
            worst[name] = max(worst[name], float(np.max(np.abs(res))))
    return worst


def check_cells(facts: GridFacts, out: Outputs, sigma_km: float) -> list[str]:
    """The feeder equations hold on every mesh cell, or the failures."""
    try:
        res = cell_residuals(facts, out, sigma_km)
    except (KeyError, IndexError, ValueError) as exc:
        return [f"profile does not match the grid and plan: {exc!r}"]
    return [f"{name} residual {value!r} > {CELL_TOL}"
            for name, value in res.items() if not value <= CELL_TOL]


def check(facts: GridFacts, pref: float, out: Outputs,
          reference: dict[str, float] | None = None) -> list[str]:
    """Every failed check as a message; an empty list means the operation passed."""
    problems = list(out.problems)
    numbers = [out.total_p, out.leftover_p, *out.metrics.values()]
    numbers += [v for _sid, p, q in out.stations for v in (p, q)]
    if not all(math.isfinite(v) for v in numbers) or not all(
            np.isfinite(a).all() for seg in out.profile.values() for a in seg.values()):
        problems.append("non-finite value in the outputs")
    if abs(out.total_p + out.leftover_p - pref) > BALANCE_TOL:
        problems.append(f"total_p {out.total_p!r} + leftover_p {out.leftover_p!r} != pref {pref!r}")
    if sorted(sid for sid, _p, _q in out.stations) != sorted(facts.bounds):
        problems.append("the plan does not list every station exactly once")
    for sid, p, q in out.stations:
        lo, hi = facts.bounds.get(sid, (0.0, 0.0))
        if not lo - BOUND_TOL <= p <= hi + BOUND_TOL:
            problems.append(f"station {sid}: p={p!r} outside derated bounds [{lo!r}, {hi!r}]")
        if abs(q) > Q_PER_P * abs(p) + BOUND_TOL:
            problems.append(f"station {sid}: q={q!r} outside the power-factor cone of p={p!r}")
    try:
        res = residuals(facts, out.profile)
    except (KeyError, IndexError) as exc:
        problems.append(f"profile does not match the grid topology: {exc!r}")
    else:
        problems += [f"{name} residual {value!r} > {RESIDUAL_TOL}"
                     for name, value in res.items() if not value <= RESIDUAL_TOL]
    if reference is not None:
        for key in REFERENCE_KEYS:
            if not abs(out.metrics[key] - reference[key]) <= REFERENCE_TOL:
                problems.append(f"{key} {out.metrics[key]!r} != reference {reference[key]!r}")
    return problems


def _profile_arrays(rows) -> dict[str, dict[str, np.ndarray]]:
    return {seg_id: {k: np.asarray(cols[k], dtype=float) for k in cols}
            for seg_id, cols in rows.items()}


def read_run_outputs(out_dir: Path) -> Outputs:
    """Parse the three files of `feederflow run`; missing or malformed files
    become problems of the returned Outputs."""
    empty = Outputs([], math.nan, math.nan, {}, dict.fromkeys(REFERENCE_KEYS, math.nan))
    texts = {}
    for name in OUTPUT_FILES:
        try:
            texts[name] = (out_dir / name).read_bytes()
        except OSError:
            empty.problems.append(f"{name} was not written")
    if empty.problems:
        return empty
    digest = hashlib.sha256(b"\0".join(texts[n] for n in OUTPUT_FILES)).hexdigest()
    decoded = {n: t.decode("utf-8") for n, t in texts.items()}
    bad = [n for n, t in decoded.items() if NONFINITE.search(t)]
    try:
        rows = list(csv.reader(decoded["dispatch.csv"].splitlines()[1:]))
        stations = [(r[0], float(r[2]), float(r[3])) for r in rows if r[0] != "TOTAL"]
        profile: dict[str, dict[str, list[float]]] = {}
        for r in csv.reader(decoded["profile.csv"].splitlines()[1:]):
            cols = profile.setdefault(r[0], {"x": [], "v": [], "s": [], "w": []})
            for key, text in zip(("x", "v", "s", "w"), (r[1], r[3], r[4], r[5])):
                cols[key].append(float(text))
        metrics = json.loads(decoded["metrics.json"])
        out = Outputs(stations, float(metrics["total_p"]), float(metrics["leftover_p"]),
                      _profile_arrays(profile),
                      {k: float(metrics[k]) for k in REFERENCE_KEYS}, digest)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        empty.problems.append(f"malformed output: {exc!r}")
        return empty
    out.problems += [f"{n} contains a nan or inf token" for n in bad]
    return out


def library_outputs(plan, profile, report) -> Outputs:
    """The same view of the objects returned by the library pipeline."""
    stations = [(st.station_id, st.p_pu, st.q_pu) for st in plan.stations]
    segs = {sp.segment_id: {"x": sp.x_km, "v": sp.v_pu, "s": sp.s, "w": sp.w}
            for sp in profile.segments}
    metrics = {k: getattr(report, k) for k in REFERENCE_KEYS}
    h = hashlib.sha256(repr((stations, plan.leftover_p, sorted(report.as_dict().items())))
                       .encode())
    for sp in profile.segments:
        for arr in (sp.x_km, sp.theta_rad, sp.v_pu, sp.s, sp.w):
            h.update(np.ascontiguousarray(arr).tobytes())
    return Outputs(stations, report.total_p, report.leftover_p, segs, metrics, h.hexdigest())


class RepeatCheck:
    """Repeating an input must reproduce its first result byte for byte."""

    def __init__(self):
        self._seen: dict = {}

    def __call__(self, key, digest: str) -> list[str]:
        first = self._seen.setdefault(key, digest)
        return [] if first == digest else [f"repeat of {key} gave different outputs"]
