"""Spatial charging/discharging dispatch that delivers a requested total power.

One kernel dispatches a single feeder and a feeder tree alike: a single
feeder is the tree with one segment.  Segments run in the grid's post order
(GridTree.post_order: children, in declared order, before their parent),
and on each one the active pass works station by station from the
segment's far end toward the bank: each station absorbs the loads beyond
it plus any residual handed to it, clamps to its derated bounds and
forwards the excess.  A residual left at a segment's near end is handed to
the nearest bank-side station on the path to the bank, or dropped at the
bank when there is none; that target depends only on the segment, so it is
fixed per segment.  A refinement pass then walks every station from the
bank outward until the requested total is met exactly.

The ``literal`` reactive mode runs the same clamp-and-forward pass with the
plain per-load update g/b*(p_i - P_load), including its overwrite of the
running value, inside the power-factor cone of the station's own active set
point.  ``principle`` mode instead accumulates the running sum of
(G*P + B*Q) over everything beyond the current point, child subtrees
included, and drives it toward zero, which differs once caps stop binding.
Active dispatch is identical in both modes.

Residual forwarding is logged as HandOff events so a plan can be audited:
every forwarded amount reappears as part of some station's seed or is
explicitly dropped at the bank.

The passes read the grid's own Device records.  What no request changes
(the legs, the station order and bounds) is built once per grid and kept
on it.  A caller with bare station and load lists builds a one-segment
GridTree and calls synthesize.  Plans are keyed by device id, so devices
built in code need a non-empty id; validate_grid rejects an unnamed one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .grid import PF_FLOOR, Device, GridTree, station_q_cap

__all__ = [
    "HandOff",
    "StationDispatch",
    "DispatchPlan",
    "synthesize",
    "synthesize_tree",
    "uniform_baseline",
    "audit_trace",
]


@dataclass(frozen=True)
class HandOff:
    """One forwarded residual: from `source`'s clamp to `target`'s seed.

    target None means the residual ran out of bank-side stations and was
    dropped at the bank.
    """

    quantity: str          # "P" | "Q"
    amount: float
    source: str
    target: str | None


@dataclass(frozen=True)
class StationDispatch:
    station_id: str
    xi_km: float
    p_pu: float
    q_pu: float
    p_min_eff: float
    p_max_eff: float
    q_cap: float


@dataclass(frozen=True)
class DispatchPlan:
    """Synthesis result, stations ordered bank-nearest first.

    seeds_p / seeds_q record each station's pass-1 seed (incoming residuals
    summed in trace order) for auditing; leftover_p is whatever part of the
    request the refinement pass could not place.
    """

    stations: tuple[StationDispatch, ...]
    p_ref: float
    leftover_p: float
    trace: tuple[HandOff, ...] = ()
    seeds_p: tuple[tuple[str, float], ...] = ()
    seeds_q: tuple[tuple[str, float], ...] = ()

    def total_p(self) -> float:
        return math.fsum(st.p_pu for st in self.stations)

    def as_power_map(self) -> dict[str, tuple[float, float]]:
        return {st.station_id: (st.p_pu, st.q_pu) for st in self.stations}


# ---------------------------------------------------------------------------
# the kernel: segments in post order, devices on each listed from the far end
# toward the bank; stations are indexed in that concatenated order.  The order
# of arithmetic is load-bearing, tests pin it bit for bit.
# ---------------------------------------------------------------------------

class _Leg(NamedTuple):
    """One segment's share of a dispatch."""

    id: str
    stations: tuple[Device, ...]       # far end first
    loads: tuple[Device, ...]          # far end first
    g: float
    b: float
    taps: tuple[tuple[float, str], ...]    # (junction xi, child leg id)
    # station id that takes a residual left at the near end; None drops it
    # at the bank
    bank_side: str | None


def _forward(quantity, legs, bounds, update, trace):
    """One far-to-near clamp-and-forward pass over every leg.

    Each station is seeded with the hand-offs it received from child legs
    (summed in trace order) plus the residual forwarded by the previous
    station.  It then absorbs the loads strictly beyond it, value =
    update(value, k, load), until the value leaves bounds[k] = (lo, hi),
    where it clamps and forwards the excess.  A station that consumes no load
    keeps its seed unclamped.  Returns (values, seeds) in station order.
    """
    incoming: dict[str, list[float]] = {}
    values: list[float] = []
    seeds: list[float] = []
    for leg in legs:
        residual = 0.0
        src = ""
        j = 0
        for st in leg.stations:
            k = len(values)
            seed = 0.0
            for amount in incoming.pop(st.id, ()):  # hand-offs arrived earlier
                seed = seed + amount
            if residual != 0.0:
                trace.append(HandOff(quantity, residual, src, st.id))
                seed = seed + residual
                residual = 0.0
            seeds.append(seed)
            lo, hi = bounds[k]
            value = seed
            while j < len(leg.loads) and leg.loads[j].xi_km > st.xi_km:
                value = update(value, k, leg.loads[j])
                j += 1
                if value > hi:
                    residual = value - hi
                    value = hi
                elif value < lo:
                    residual = value - lo
                    value = lo
                else:
                    continue
                src = st.id  # clamped: the excess goes bank-ward
                break
            values.append(value)
        if residual != 0.0:
            trace.append(HandOff(quantity, residual, src, leg.bank_side))
            if leg.bank_side is not None:
                incoming.setdefault(leg.bank_side, []).append(residual)
    assert not incoming, "hand-off targeted an already-processed station"
    return values, seeds


def _principle(legs, p):
    """Per-station Q driving the running sum of g*P + b*Q beyond it to zero.

    The sum covers the whole subtree beyond the walk point, each device
    weighted with its own segment's parameters; at a tied position loads
    (and child taps) count as beyond the station.
    """
    q = [0.0] * len(p)
    subtree: dict[str, float] = {}
    base = 0
    for leg in legs:
        g, b = leg.g, leg.b
        events = (
            [(xi, 0, subtree[child]) for xi, child in leg.taps]
            + [(ld.xi_km, 1, ld) for ld in leg.loads]
            + [(st.xi_km, 2, base + i) for i, st in enumerate(leg.stations)]
        )
        events.sort(key=lambda t: (-t[0], t[1]))
        run = 0.0
        for _xi, kind, item in events:
            if kind == 0:
                run += item
            elif kind == 1:
                run += g * item.p_pu + b * item.q_pu
            else:
                cap = station_q_cap(p[item])
                raw = -(run + g * p[item]) / b
                q[item] = min(max(raw, -cap), cap)
                run += g * p[item] + b * q[item]
        subtree[leg.id] = run
        base += len(leg.stations)
    return q


def _refine(stations, p, order, p_run):
    """Place the undelivered request p_run, visiting stations in `order`
    (bank-nearest first) and filling each up to its derated bound.

    Updates p in place and returns what could not be placed.
    """
    for k in order:
        if p_run == 0.0:
            break
        st = stations[k]
        if p[k] + p_run > st.p_max_eff:
            p_run = p_run - st.p_max_eff + p[k]
            p[k] = st.p_max_eff
        elif p[k] + p_run < st.p_min_eff:
            p_run = p_run - st.p_min_eff + p[k]
            p[k] = st.p_min_eff
        else:
            p[k] = p[k] + p_run
            p_run = 0.0
    return p_run


def _active(prep, p_ref, trace):
    """Two-pass active dispatch. Returns (p, leftover, seeds) in station order."""
    p, seeds = _forward("P", prep.legs, prep.bounds,
                        lambda value, _k, load: value - load.p_pu, trace)
    for value in p:
        p_ref = p_ref - value
    return p, _refine(prep.stations, p, prep.order, p_ref), seeds


def _reactive(prep, p, mode, trace):
    """Reactive set points for fixed active dispatch. Returns (q, seeds)."""
    if mode == "principle":
        return _principle(prep.legs, p), [0.0] * len(p)
    if mode != "literal":
        raise ValueError(f"unknown mode {mode!r}; expected 'literal' or 'principle'")
    caps = [station_q_cap(p_k) for p_k in p]
    g_over_b = prep.g_over_b
    return _forward("Q", prep.legs, [(-cap, cap) for cap in caps],
                    lambda _value, k, load: g_over_b[k] * (p[k] - load.p_pu), trace)


# ---------------------------------------------------------------------------
# grid-level entry points
# ---------------------------------------------------------------------------

def _legs(grid: GridTree) -> list[_Leg]:
    """The grid's segments in post order, devices listed far end first."""
    stations: dict[str, list[Device]] = {s.id: [] for s in grid.segments}
    loads: dict[str, list[Device]] = {s.id: [] for s in grid.segments}
    # one sort for the whole grid; each segment's lists keep its order
    for d in sorted(grid.devices, key=lambda d: (-d.xi_km, d.id)):
        (stations if d.kind == "station" else loads)[d.segment].append(d)
    post = grid.post_order()
    # a residual leaving a segment's near end goes to the parent's first
    # station (far end first: the nearest) at or before the junction, else
    # wherever a residual leaving the parent would go; parents come first
    bank_side: dict[str, str | None] = {}
    for seg in reversed(post):
        target = None
        if seg.parent is not None:
            pos = grid.segment_start_km(seg.id)
            target = next((st.id for st in stations[seg.parent] if st.xi_km <= pos),
                          bank_side[seg.parent])
        bank_side[seg.id] = target
    return [_Leg(seg.id, tuple(stations[seg.id]), tuple(loads[seg.id]),
                 seg.g_pu_per_km, seg.b_pu_per_km,
                 tuple((grid.segment_start_km(c.id), c.id) for c in grid.children_of(seg.id)),
                 bank_side[seg.id])
            for seg in post]


class _Prepared(NamedTuple):
    """What every dispatch of one grid reads: no request changes it."""

    legs: tuple[_Leg, ...]
    stations: tuple[Device, ...]             # station order: each leg's in turn
    ids: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]  # derated (lo, hi) per station
    order: tuple[int, ...]                   # station indices, bank-nearest first
    g_over_b: tuple[float, ...]              # per station, its segment's g / b


def _prepare(grid: GridTree) -> _Prepared:
    """The grid's dispatch legs and station order, built once per grid."""
    def build() -> _Prepared:
        legs = tuple(_legs(grid))
        stations = tuple(st for leg in legs for st in leg.stations)
        order = sorted(range(len(stations)), key=lambda k: (stations[k].xi_km, stations[k].id))
        return _Prepared(legs, stations, tuple(st.id for st in stations),
                         tuple((st.p_min_eff, st.p_max_eff) for st in stations), tuple(order),
                         tuple(leg.g / leg.b for leg in legs for _ in leg.stations))
    return grid._cached("dispatch", None, build)


def _row(st: Device, p_i: float, q_i: float) -> StationDispatch:
    return StationDispatch(
        station_id=st.id,
        xi_km=st.xi_km,
        p_pu=p_i,
        q_pu=q_i,
        p_min_eff=st.p_min_eff,
        p_max_eff=st.p_max_eff,
        q_cap=station_q_cap(p_i),
    )


def _check_request(p_ref: float) -> None:
    if not math.isfinite(p_ref):
        raise ValueError(f"requested power p_ref must be finite, got {p_ref}")


def synthesize(grid: GridTree, p_ref: float, mode: str = "literal") -> DispatchPlan:
    """Dispatch a single straight feeder: the one-segment synthesize_tree."""
    if not grid.is_single_feeder():
        raise ValueError("synthesize handles a single feeder; use synthesize_tree")
    return synthesize_tree(grid, p_ref, mode)


def uniform_baseline(grid: GridTree, p_ref: float) -> DispatchPlan:
    """Every station gets P_ref/N clamped to its derated bounds, and the
    reactive power of power factor PF_FLOOR, leading, for its own p."""
    _check_request(p_ref)
    grid.validated()
    stations = grid._cached("uniform", None,
                            lambda: tuple(sorted(grid.stations(), key=lambda d: (d.xi_km, d.id))))
    if not stations:
        raise ValueError("uniform baseline needs at least one station")
    share = p_ref / len(stations)
    p = [min(max(share, st.p_min_eff), st.p_max_eff) for st in stations]
    tan_pf = math.tan(math.acos(PF_FLOOR))
    return DispatchPlan(
        stations=tuple(_row(st, p_i, p_i * tan_pf) for st, p_i in zip(stations, p)),
        p_ref=p_ref,
        leftover_p=p_ref - math.fsum(p),
    )


def synthesize_tree(grid: GridTree, p_ref: float, mode: str = "literal") -> DispatchPlan:
    """Dispatch a feeder tree: per-segment passes plus cross-junction hand-off.

    Segments run in post order (children, in declared order, before their
    parent).  A residual left at a segment's near end is handed to the
    nearest bank-side station along the path to the bank and seeds it
    there; with no such station the residual is dropped at the bank.  The
    refinement pass then runs over all stations ordered by distance to the
    bank, so the requested total is met whenever aggregate capacity allows.
    """
    _check_request(p_ref)
    grid.validated()
    prep = _prepare(grid)
    trace: list[HandOff] = []
    p, leftover, seeds_p = _active(prep, p_ref, trace)
    q, seeds_q = _reactive(prep, p, mode, trace)
    return DispatchPlan(
        stations=tuple(_row(prep.stations[k], p[k], q[k]) for k in prep.order),
        p_ref=p_ref,
        leftover_p=leftover,
        trace=tuple(trace),
        seeds_p=tuple(zip(prep.ids, seeds_p)),
        seeds_q=tuple(zip(prep.ids, seeds_q)),
    )


def audit_trace(plan: DispatchPlan) -> float:
    """Max mismatch between recorded seeds and the trace's forwarded amounts.

    Sums each station's incoming HandOff amounts in trace order and compares
    with the recorded seed; a faithful literal plan audits to exactly 0.
    """
    worst = 0.0
    for quantity, seeds in (("P", plan.seeds_p), ("Q", plan.seeds_q)):
        incoming: dict[str, float] = {}
        for ev in plan.trace:
            if ev.quantity == quantity and ev.target is not None:
                incoming[ev.target] = incoming.get(ev.target, 0.0) + ev.amount
        for station_id, seed in seeds:
            worst = max(worst, abs(incoming.get(station_id, 0.0) - seed))
    return worst
