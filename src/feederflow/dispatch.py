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
fixed per segment.  The residual is the leg's carry, ends[leg], and the
target lists the leg among its arrivals; the target sits on an ancestor
segment, which post order walks after the leg.  A refinement pass then
walks every station from the bank outward until the requested total is
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
explicitly dropped at the bank.  The log is kept as columns too, and the
HandOff records are built only when a caller reads plan.trace.

The passes read the grid's own Device records.  What no request changes
is built once per grid and kept on it: the legs, the station order and
bounds, the plan's id, position and bound columns, each load's principle
term g*P + b*Q, and the active pass, which never reads the request: its
values, seeds_p and P hand-offs, which each request copies.  The refinement
changes stations bank-nearest first and stops once the request is met, so
every station before the first one it visits, in the far-to-near station
order, keeps its unrefined p.  The reactive walk at a station reads only
that station's p and cap and what it carries from the stations walked
before, the legs' carries included, so up to that first station a
request's reactive pass is the one over the unrefined p.  Both modes'
walks keep one contract: each appends its stations' q in station order,
returns their seeds and records, before every station, a start tuple that
ends in the count of hand-offs logged so far.  The grid keeps each mode's
pass with those tuples and the legs' carries, and a request resumes the
walk from a tuple and a copy of the carries, after that many kept
hand-offs.  A plan holds its stations as columns: a request adds only its
p, q and q_cap columns, with q_cap computed once as one vector from the
final p, and the StationDispatch rows are built only when a caller reads
plan.stations.  A caller with bare station and load lists builds a
one-segment GridTree and calls synthesize.  Plans are keyed by device id,
so devices built in code need a non-empty id; validate_grid rejects an
unnamed one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# station_q_cap, the one-station cap, stays importable from here
from .grid import PF_FLOOR, Device, GridTree, station_q_cap, station_q_caps  # noqa: F401

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

    The stations are held as columns, one entry per station in that order:
    ids, then xi_km, p_pu, q_pu, p_min_eff, p_max_eff and q_cap, each the
    StationDispatch field of that name.  The columns are tuples of Python
    floats, so a plan keeps value equality, hashing and immutability as
    plain frozen fields.  ``stations`` builds the StationDispatch rows from
    the columns on first read and keeps them; dispatch itself builds none.
    The hand-off log is held the same way: ``handoffs`` holds the quantity,
    amount, source and target columns, and ``trace`` builds the HandOff
    records, in log order, on first read.  A dispatch thus allocates no
    Python object per station or per hand-off, and so seldom sets off the
    cyclic garbage collector, whose passes are counted in allocations.

    seeds_p / seeds_q record each station's pass-1 seed (incoming residuals
    summed in trace order) for auditing; leftover_p is whatever part of the
    request the refinement pass could not place.
    """

    ids: tuple[str, ...]
    xi_km: tuple[float, ...]
    p_pu: tuple[float, ...]
    q_pu: tuple[float, ...]
    p_min_eff: tuple[float, ...]
    p_max_eff: tuple[float, ...]
    q_cap: tuple[float, ...]
    p_ref: float
    leftover_p: float
    handoffs: tuple[tuple, ...] = ((), (), (), ())  # quantity, amount, source, target
    seeds_p: tuple[tuple[str, float], ...] = ()
    seeds_q: tuple[tuple[str, float], ...] = ()

    @cached_property
    def stations(self) -> tuple[StationDispatch, ...]:
        return tuple(map(StationDispatch, self.ids, self.xi_km, self.p_pu, self.q_pu,
                         self.p_min_eff, self.p_max_eff, self.q_cap))

    @cached_property
    def trace(self) -> tuple[HandOff, ...]:
        return tuple(map(HandOff, *self.handoffs))

    def total_p(self) -> float:
        return math.fsum(self.p_pu)

    def as_power_map(self) -> dict[str, tuple[float, float]]:
        return dict(zip(self.ids, zip(self.p_pu, self.q_pu)))


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
    taps: tuple[tuple[float, int], ...]    # (junction xi, child leg index)
    # station id that takes a residual left at the near end; None drops it
    # at the bank
    bank_side: str | None
    # per station, the legs whose near-end residual it takes, in post order
    arrivals: tuple[tuple[int, ...], ...]


def _hand_off(trace, *event) -> None:
    """Log one hand-off (quantity, amount, source, target) in the trace
    columns."""
    for column, value in zip(trace, event):
        column.append(value)


def _forward(quantity, legs, bounds, update, trace, values, ends, start=None, record=None):
    """One far-to-near clamp-and-forward pass over every leg.

    Each leg's near-end residual, 0.0 for none, is carried in ends[leg].
    Each station is seeded with the carries of the legs in its arrivals
    (in post order, the order their hand-offs were logged; adding a 0.0
    carry changes no bit, as a seed is never -0.0) plus the residual
    forwarded by the previous station.  It then absorbs the loads strictly
    beyond it, value = update(value, k, load), until the value leaves
    bounds[k] = (lo, hi), where it clamps and forwards the excess.  A
    station that consumes no load keeps its seed unclamped.

    values holds the values of the stations before the walk's first one,
    which start = (leg, index in leg, residual, src, j, hand-offs logged)
    places, None the first station; ends must hold the carries of the
    legs before that leg.  Returns (values, seeds), the seeds of the
    stations walked.  record, when given, gets that start tuple before
    every station walked and once past the last.
    """
    leg_index, first, residual, src, j, _logged = start or (0, 0, 0.0, "", 0, 0)
    seeds: list[float] = []
    for n, leg in enumerate(legs[leg_index:], leg_index):
        for i, st in enumerate(leg.stations[first:] if first else leg.stations, first):
            if record is not None:
                record.append((n, i, residual, src, j, len(trace[0])))
            k = len(values)
            seed = 0.0
            for arriving in leg.arrivals[i]:
                seed = seed + ends[arriving]
            if residual != 0.0:
                _hand_off(trace, quantity, residual, src, st.id)
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
        ends[n] = residual
        if residual != 0.0:
            _hand_off(trace, quantity, residual, src, leg.bank_side)
        first, residual, j = 0, 0.0, 0
    if record is not None:
        record.append((len(legs), 0, 0.0, src, 0, len(trace[0])))
    return values, seeds


def _walks(legs) -> tuple[tuple[tuple[int, object], ...], ...]:
    """Per leg, the (kind, item) events of the principle walk, far end first:
    kind 0 a child tap (item: the child leg's index), 1 a load (its term
    g*p_pu + b*q_pu), 2 a station (its index in station order and the
    event's own index in the walk, where a walk resumed there starts).  At
    a tied position loads and child taps count as beyond the station."""
    walks = []
    base = 0
    for leg in legs:
        events = (
            [(xi, 0, child) for xi, child in leg.taps]
            + [(ld.xi_km, 1, leg.g * ld.p_pu + leg.b * ld.q_pu) for ld in leg.loads]
            + [(st.xi_km, 2, base + i) for i, st in enumerate(leg.stations)]
        )
        events.sort(key=lambda t: (-t[0], t[1]))
        walks.append(tuple((kind, (item, at) if kind == 2 else item)
                           for at, (_xi, kind, item) in enumerate(events)))
        base += len(leg.stations)
    return tuple(walks)


def _principle(prep, p, caps, trace, values, ends, start=None, record=None):
    """The principle reactive pass: per-station Q driving the running sum of
    g*P + b*Q beyond it to zero, each clamped to its station's cap.

    The sum covers the whole subtree beyond the walk point, each device
    weighted with its own segment's parameters; the walk order is the
    grid's (see _walks), which meets the stations in station order.  Each
    leg's sum at its near end is carried in ends[leg], and a child tap adds
    its child's carry.  Called as _literal is, with start = (leg, event
    index, run, hand-offs logged); nothing is forwarded, so trace gets no
    hand-off and every station walked has seed 0.0.
    """
    leg_index, at, run, _logged = start or (0, 0, 0.0, 0)
    caps, logged, first = caps.tolist(), len(trace[0]), len(values)
    walked = zip(prep.legs[leg_index:], prep.walks[leg_index:])
    for n, (leg, walk) in enumerate(walked, leg_index):
        g, b = leg.g, leg.b
        for kind, item in walk[at:] if at else walk:
            if kind == 0:
                run += ends[item]
            elif kind == 1:
                run += item
            else:
                k, event = item
                if record is not None:
                    record.append((n, event, run, logged))
                cap = caps[k]
                raw = -(run + g * p[k]) / b
                values.append(min(max(raw, -cap), cap))
                run += g * p[k] + b * values[k]
        ends[n] = run
        at, run = 0, 0.0
    if record is not None:
        record.append((len(prep.legs), 0, 0.0, logged))
    return values, [0.0] * (len(values) - first)


def _refine(prep, p, p_run):
    """Place p_run less the grid's active pass (one sequential subtraction,
    in station order), visiting stations bank-nearest first and filling each
    up to its derated bounds.

    Updates p, a copy of the pass, in place (the other stations keep their
    p) and returns (what could not be placed, stations of order visited).
    """
    p_run, bounds = float(np.subtract.reduce(prep.p, initial=p_run)), prep.bounds
    for visited, k in enumerate(prep.order):
        if p_run == 0.0:
            return p_run, visited
        lo, hi = bounds[k]
        if p[k] + p_run > hi:
            p_run = p_run - hi + p[k]
            p[k] = hi
        elif p[k] + p_run < lo:
            p_run = p_run - lo + p[k]
            p[k] = lo
        else:
            p[k] = p[k] + p_run
            p_run = 0.0
    return p_run, len(prep.order)


def _literal(prep, p, caps, trace, values, ends, start=None, record=None):
    """The literal reactive pass: _forward over Q with the plain per-load
    update, inside each station's cap."""
    g_over_b = prep.g_over_b
    return _forward("Q", prep.legs, list(zip((-caps).tolist(), caps.tolist())),
                    lambda _value, k, load: g_over_b[k] * (p[k] - load.p_pu), trace,
                    values, ends, start=start, record=record)


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
    rank = {seg.id: n for n, seg in enumerate(post)}
    # a residual leaving a segment's near end goes to the parent's first
    # station (far end first: the nearest) at or before the junction, else
    # wherever a residual leaving the parent would go; parents come first
    bank_side: dict[str, Device | None] = {}
    for seg in reversed(post):
        target = None
        if seg.parent is not None:
            pos = grid.segment_start_km(seg.id)
            target = next((st for st in stations[seg.parent] if st.xi_km <= pos),
                          bank_side[seg.parent])
        bank_side[seg.id] = target
    # per station id, the legs whose near-end residual it takes, in post
    # order: the order their hand-offs are logged
    arrivals: dict[str, list[int]] = {}
    for n, seg in enumerate(post):
        target = bank_side[seg.id]
        if target is not None:
            assert rank[target.segment] > n, "a residual must arrive before its target is walked"
            arrivals.setdefault(target.id, []).append(n)
    return [_Leg(seg.id, tuple(stations[seg.id]), tuple(loads[seg.id]),
                 seg.g_pu_per_km, seg.b_pu_per_km,
                 tuple((grid.segment_start_km(c.id), rank[c.id])
                       for c in grid.children_of(seg.id)),
                 None if bank_side[seg.id] is None else bank_side[seg.id].id,
                 tuple(tuple(arrivals.get(st.id, ())) for st in stations[seg.id]))
            for seg in post]


class _Prepared(NamedTuple):
    """What every dispatch of one grid reads, its active pass included: no
    request changes it.  Station order lists each leg's stations in turn;
    the plan columns and bank_bounds list the stations bank-nearest first,
    as index picks them from station order."""

    legs: tuple[_Leg, ...]
    ids: tuple[str, ...]                     # station order
    bounds: tuple[tuple[float, float], ...]  # derated (lo, hi) per station
    order: tuple[int, ...]                   # station indices, bank-nearest first
    index: np.ndarray                        # order, as an index array
    # reach[m]: the least station index among order[:m], or the station count
    reach: np.ndarray
    g_over_b: tuple[float, ...]              # per station, its segment's g / b
    walks: tuple[tuple, ...]                 # per leg, the principle walk's events
    columns: tuple[tuple, ...]               # plan ids, xi_km, p_min_eff, p_max_eff
    bank_bounds: np.ndarray                  # (2, stations): derated lo, hi
    p: np.ndarray                            # the active pass's values, unrefined
    seeds_p: tuple[tuple[str, float], ...]   # its seeds, as plan.seeds_p
    handoffs_p: tuple[tuple, ...]            # its hand-off columns


def _prepare(grid: GridTree) -> _Prepared:
    """The grid's dispatch legs, order and active pass, built once per grid."""
    def build() -> _Prepared:
        legs = tuple(_legs(grid))
        stations = tuple(st for leg in legs for st in leg.stations)
        order = sorted(range(len(stations)), key=lambda k: (stations[k].xi_km, stations[k].id))
        bounds = tuple((st.p_min_eff, st.p_max_eff) for st in stations)
        bank = [stations[k] for k in order]
        lo, hi = tuple(st.p_min_eff for st in bank), tuple(st.p_max_eff for st in bank)
        ids = tuple(st.id for st in stations)
        trace: tuple[list, ...] = ([], [], [], [])
        p, seeds = _forward("P", legs, bounds, lambda value, _k, load: value - load.p_pu, trace,
                            [], [0.0] * len(legs))
        return _Prepared(legs, ids, bounds, tuple(order), np.array(order, dtype=np.intp),
                         np.minimum.accumulate(np.array([len(ids), *order], dtype=np.intp)),
                         tuple(leg.g / leg.b for leg in legs for _ in leg.stations),
                         _walks(legs),
                         (tuple(st.id for st in bank), tuple(st.xi_km for st in bank), lo, hi),
                         np.array((lo, hi), dtype=float), np.array(p, dtype=float),
                         tuple(zip(ids, seeds)), tuple(map(tuple, trace)))
    return grid._cached("dispatch", None, build)


_MODES = ("literal", "principle")


class _Reactive(NamedTuple):
    """One mode's reactive pass over the unrefined active values.

    Either walk, _literal or _principle, reads a station's own p and cap and
    what it carries from the stations before, so a request's pass equals
    this one up to the first station its refinement visited, and resumes
    there from the start tuple recorded and a copy of the legs' carries.
    Every start tuple ends in the count of hand-offs logged before it: the
    request keeps that many and logs its own after them."""

    q: tuple[float, ...]                    # station order
    seeds_q: tuple[tuple[str, float], ...]  # as plan.seeds_q
    handoffs: tuple[tuple, ...]             # the P hand-off columns, then Q's
    # the walk's start tuple before each station, and once past the last
    state: tuple[tuple, ...]
    ends: tuple[float, ...]                 # each leg's near-end carry


def _reactive(grid: GridTree, prep: _Prepared, mode: str, p, caps: np.ndarray, r: int):
    """(q, seeds_q, hand-off columns) of a request whose refinement left the
    stations before station r as the grid's active pass set them: the
    mode's reactive pass on the unrefined p, built once per grid and mode,
    up to r, and the walk resumed there."""
    walk = _principle if mode == "principle" else _literal

    def build() -> _Reactive:
        trace = tuple(map(list, prep.handoffs_p))
        ends = [0.0] * len(prep.legs)
        state: list[tuple] = []
        q, seeds = walk(prep, prep.p.tolist(), station_q_caps(prep.p), trace, [], ends,
                        record=state)
        return _Reactive(tuple(q), tuple(zip(prep.ids, seeds)), tuple(map(tuple, trace)),
                         tuple(state), tuple(ends))

    const = grid._cached("dispatch", mode, build)
    start, trace = const.state[r], ([], [], [], [])
    q, seeds = walk(prep, p, caps, trace, list(const.q[:r]), list(const.ends), start=start)
    logged = start[-1]
    return (q, const.seeds_q[:r] + tuple(zip(prep.ids[r:], seeds)),
            tuple(old[:logged] + tuple(new) for old, new in zip(const.handoffs, trace)))


def _plan(prep: _Prepared, p: np.ndarray, q: np.ndarray, q_cap: np.ndarray,
          **rest) -> DispatchPlan:
    """A plan of the grid's stations whose p, q and q_cap columns are given
    bank-nearest first."""
    ids, xi_km, p_min_eff, p_max_eff = prep.columns
    return DispatchPlan(ids, xi_km, tuple(p.tolist()), tuple(q.tolist()), p_min_eff, p_max_eff,
                        tuple(q_cap.tolist()), **rest)


def _clamp(share: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min(max(share, lo), hi) elementwise, by Python's rule: max keeps share
    unless lo > share, then min keeps that unless hi < it.  np.maximum,
    np.minimum and np.clip break signed-zero ties the other way: Python's
    min(max(-0.0, 0.0), 0.0) is -0.0, theirs 0.0."""
    x = np.where(lo > share, lo, share)
    return np.where(hi < x, hi, x)


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
    prep = _prepare(grid)
    if not prep.ids:
        raise ValueError("uniform baseline needs at least one station")
    p = _clamp(p_ref / len(prep.ids), *prep.bank_bounds)
    tan_pf = math.tan(math.acos(PF_FLOOR))
    return _plan(prep, p, p * tan_pf, station_q_caps(p),
                 p_ref=p_ref, leftover_p=p_ref - math.fsum(p.tolist()))


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
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected 'literal' or 'principle'")
    prep = _prepare(grid)
    p = prep.p.tolist()
    leftover, visited = _refine(prep, p, p_ref)
    p_vec = np.array(p, dtype=float)
    caps = station_q_caps(p_vec)    # once per plan: the reactive bounds and q_cap
    q, seeds_q, handoffs = _reactive(grid, prep, mode, p, caps, int(prep.reach[visited]))
    k = prep.index
    return _plan(prep, p_vec[k], np.array(q, dtype=float)[k], caps[k],
                 p_ref=p_ref, leftover_p=leftover, handoffs=handoffs,
                 seeds_p=prep.seeds_p, seeds_q=seeds_q)


def audit_trace(plan: DispatchPlan) -> float:
    """Max mismatch between recorded seeds and the trace's forwarded amounts.

    Sums each station's incoming HandOff amounts in trace order and compares
    with the recorded seed; a faithful literal plan audits to exactly 0.
    """
    worst = 0.0
    quantities, amounts, _sources, targets = plan.handoffs
    for quantity, seeds in (("P", plan.seeds_p), ("Q", plan.seeds_q)):
        incoming: dict[str, float] = {}
        for ev_quantity, amount, target in zip(quantities, amounts, targets):
            if ev_quantity == quantity and target is not None:
                incoming[target] = incoming.get(target, 0.0) + amount
        for station_id, seed in seeds:
            worst = max(worst, abs(incoming.get(station_id, 0.0) - seed))
    return worst
