"""Spatial charging/discharging dispatch that delivers a requested total power.

One kernel dispatches a single feeder and a feeder tree alike: a single
feeder is the tree with one segment.  Segments run in post order (children,
in declared order, before their parent), and on each one the active pass
works station by station from the segment's far end toward the bank: each
station absorbs the loads beyond it plus any residual handed to it, clamps
to its derated bounds and forwards the excess.  A residual left at a
segment's near end is handed to the nearest bank-side station on the path
to the bank, or dropped at the bank when there is none.  A refinement pass
then walks every station from the bank outward until the requested total is
met exactly.

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

Plans are keyed by device id, so devices built in code need a non-empty id;
validate_grid rejects an unnamed one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .grid import EFFECTIVE_BOUND_FACTOR, PF_FLOOR, GridTree

__all__ = [
    "StationState",
    "LoadPoint",
    "HandOff",
    "StationDispatch",
    "DispatchPlan",
    "station_q_cap",
    "active_dispatch",
    "reactive_dispatch",
    "synthesize",
    "synthesize_tree",
    "uniform_baseline",
    "audit_trace",
]


def station_q_cap(p_pu: float) -> float:
    """Reactive limit so that power factor stays >= 0.9 at active power p."""
    pe = p_pu / PF_FLOOR
    return math.sqrt(pe * pe - p_pu * p_pu)


@dataclass(frozen=True)
class StationState:
    """Charging station with raw bounds and grid-code derated bounds."""

    station_id: str
    xi_km: float
    p_min_raw: float
    p_max_raw: float

    @property
    def p_min_eff(self) -> float:
        return EFFECTIVE_BOUND_FACTOR * self.p_min_raw

    @property
    def p_max_eff(self) -> float:
        return EFFECTIVE_BOUND_FACTOR * self.p_max_raw


@dataclass(frozen=True)
class LoadPoint:
    load_id: str
    xi_km: float
    p_pu: float
    q_pu: float = 0.0


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
    stations: list[StationState]       # far end first
    loads: list[LoadPoint]             # far end first
    g: float
    b: float
    taps: tuple[tuple[float, str], ...] = ()    # (junction xi, child leg id)
    # station id that takes a residual left at the near end; None at a root
    bank_side: Callable[[], str | None] = lambda: None


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
            for amount in incoming.pop(st.station_id, ()):  # hand-offs arrived earlier
                seed = seed + amount
            if residual != 0.0:
                trace.append(HandOff(quantity, residual, src, st.station_id))
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
                src = st.station_id  # clamped: the excess goes bank-ward
                break
            values.append(value)
        if residual != 0.0:
            target = leg.bank_side()
            trace.append(HandOff(quantity, residual, src, target))
            if target is not None:
                incoming.setdefault(target, []).append(residual)
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


def _active(legs, order, p_ref, trace):
    """Two-pass active dispatch. Returns (p, leftover, seeds) in station order."""
    stations = [st for leg in legs for st in leg.stations]
    p, seeds = _forward("P", legs, [(st.p_min_eff, st.p_max_eff) for st in stations],
                        lambda value, _k, load: value - load.p_pu, trace)
    for value in p:
        p_ref = p_ref - value
    return p, _refine(stations, p, order, p_ref), seeds


def _reactive(legs, p, mode, trace):
    """Reactive set points for fixed active dispatch. Returns (q, seeds)."""
    if mode == "principle":
        return _principle(legs, p), [0.0] * len(p)
    if mode != "literal":
        raise ValueError(f"unknown mode {mode!r}; expected 'literal' or 'principle'")
    caps = [station_q_cap(p_k) for p_k in p]
    g_over_b = [leg.g / leg.b for leg in legs for _ in leg.stations]
    return _forward("Q", legs, [(-cap, cap) for cap in caps],
                    lambda _value, k, load: g_over_b[k] * (p[k] - load.p_pu), trace)


# ---------------------------------------------------------------------------
# single-feeder passes: the kernel on one leg (stations and loads listed from
# the feeder end toward the bank)
# ---------------------------------------------------------------------------

def active_dispatch(stations, loads, p_ref: float):
    """Two-pass active dispatch. Returns (p far-to-near, leftover, trace, seeds)."""
    trace: list[HandOff] = []
    p, leftover, seeds = _active([_Leg("", stations, loads, 0.0, 0.0)],
                                 range(len(stations) - 1, -1, -1), p_ref, trace)
    return p, leftover, trace, seeds


def reactive_dispatch(p_values, stations, loads, g: float, b: float, mode: str = "literal"):
    """Reactive set points for fixed active dispatch.

    Returns (q far-to-near, trace, seeds).  Caps come from each station's
    own active set point; a zero active station therefore gets zero Q.
    """
    if not b > 0.0:
        raise ValueError("B must be positive to size reactive compensation")
    trace: list[HandOff] = []
    q, seeds = _reactive([_Leg("", stations, loads, g, b)], p_values, mode, trace)
    return q, trace, seeds


# ---------------------------------------------------------------------------
# grid-level entry points
# ---------------------------------------------------------------------------

def _legs(grid: GridTree) -> list[_Leg]:
    """The grid's segments in post order, devices sorted far end first."""
    stations: dict[str, list[StationState]] = {s.id: [] for s in grid.segments}
    loads: dict[str, list[LoadPoint]] = {s.id: [] for s in grid.segments}
    for d in grid.devices:
        if d.kind == "station":
            stations[d.segment].append(StationState(d.id, d.xi_km, d.p_min_pu, d.p_max_pu))
        else:
            loads[d.segment].append(LoadPoint(d.id, d.xi_km, d.p_pu, d.q_pu))
    for found in stations.values():
        found.sort(key=lambda st: (-st.xi_km, st.station_id))
    for found in loads.values():
        found.sort(key=lambda ld: (-ld.xi_km, ld.load_id))

    def bank_side_target(seg) -> str | None:
        """Nearest bank-side station for a residual leaving seg's near end."""
        while seg.parent is not None:
            pos = grid.segment_start_km(seg.id)
            candidates = [st for st in stations[seg.parent] if st.xi_km <= pos]
            if candidates:
                return max(candidates, key=lambda st: st.xi_km).station_id
            seg = grid.segment(seg.parent)
        return None

    legs: list[_Leg] = []

    def visit(seg) -> None:
        children = grid.children_of(seg.id)
        for child in children:
            visit(child)
        legs.append(_Leg(seg.id, stations[seg.id], loads[seg.id],
                         seg.g_pu_per_km, seg.b_pu_per_km,
                         tuple((grid.segment_start_km(c.id), c.id) for c in children),
                         partial(bank_side_target, seg)))

    for root in grid.roots():
        visit(root)
    return legs


def _row(st: StationState, p_i: float, q_i: float) -> StationDispatch:
    return StationDispatch(
        station_id=st.station_id,
        xi_km=st.xi_km,
        p_pu=p_i,
        q_pu=q_i,
        p_min_eff=st.p_min_eff,
        p_max_eff=st.p_max_eff,
        q_cap=station_q_cap(p_i),
    )


def synthesize(grid: GridTree, p_ref: float, mode: str = "literal") -> DispatchPlan:
    """Dispatch a single straight feeder: the one-segment synthesize_tree."""
    if not grid.is_single_feeder():
        raise ValueError("synthesize handles a single feeder; use synthesize_tree")
    return synthesize_tree(grid, p_ref, mode)


def uniform_baseline(grid: GridTree, p_ref: float, power_factor: float = PF_FLOOR) -> DispatchPlan:
    """Every station gets P_ref/N and the matching leading reactive power."""
    grid.validated()
    stations = sorted(
        (StationState(d.id, d.xi_km, d.p_min_pu, d.p_max_pu) for d in grid.stations()),
        key=lambda s: (s.xi_km, s.station_id),
    )
    if not stations:
        raise ValueError("uniform baseline needs at least one station")
    if not 0.0 < power_factor <= 1.0:
        raise ValueError(f"power factor must be in (0, 1], got {power_factor}")
    n = len(stations)
    p_i = p_ref / n
    q_i = p_i * math.tan(math.acos(power_factor))
    leftover = p_ref - math.fsum(p_i for _ in stations)
    return DispatchPlan(
        stations=tuple(_row(st, p_i, q_i) for st in stations),
        p_ref=p_ref,
        leftover_p=leftover,
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
    grid.validated()
    legs = _legs(grid)
    stations = [st for leg in legs for st in leg.stations]
    order = sorted(range(len(stations)),
                   key=lambda k: (stations[k].xi_km, stations[k].station_id))
    trace: list[HandOff] = []
    p, leftover, seeds_p = _active(legs, order, p_ref, trace)
    q, seeds_q = _reactive(legs, p, mode, trace)
    ids = [st.station_id for st in stations]
    return DispatchPlan(
        stations=tuple(_row(stations[k], p[k], q[k]) for k in order),
        p_ref=p_ref,
        leftover_p=leftover,
        trace=tuple(trace),
        seeds_p=tuple(zip(ids, seeds_p)),
        seeds_q=tuple(zip(ids, seeds_q)),
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
