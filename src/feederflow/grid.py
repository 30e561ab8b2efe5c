"""Feeder topology, per-unit conversion and coarse-grained power densities.

A grid is a tree of constant-parameter segments rooted at the bank (the
substation bus).  Point devices (loads and charging stations) sit strictly
inside segments and are positioned by their arc length from the bank along
the unique bank-to-device path, so a single coordinate orders every device
on a given root-to-leaf path.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain, pairwise
from typing import NamedTuple

import numpy as np

__all__ = [
    "PerUnitBase",
    "FeederSegment",
    "Device",
    "GridTree",
    "GridValidationReport",
    "DensityField",
    "to_per_unit",
    "validate_grid",
    "power_density",
    "station_q_cap",
]

# Grid-code policy shared with the dispatch module: station active-power
# bounds are derated to 90% before any dispatch (Device.p_min_eff and
# p_max_eff), and the admissible power factor is [0.9, 1] (station_q_cap).
EFFECTIVE_BOUND_FACTOR = 0.9
PF_FLOOR = 0.9


def station_q_cap(p_pu: float) -> float:
    """Reactive limit so that power factor stays >= 0.9 at active power p."""
    pe = p_pu / PF_FLOOR
    return math.sqrt(pe * pe - p_pu * p_pu)


def station_q_caps(p: np.ndarray) -> np.ndarray:
    """station_q_cap of every element of p, bit for bit: the same expression
    elementwise, and np.sqrt rounds correctly as math.sqrt does.  Like the
    scalar form it overflows to inf or nan, without a warning, beyond
    |p| ~ 1e154."""
    with np.errstate(over="ignore", invalid="ignore"):
        pe = p / PF_FLOOR
        return np.sqrt(pe * pe - p * p)


# Gaussian kernels are cut off here; the discarded tail mass is ~2e-9 of the
# device power, far below the 1e-6 quadrature tolerance.
KERNEL_CUTOFF_SIGMAS = 6.0

# The kernel pair search of DensityField.sample evaluates kernels a block of
# samples at a time, sized so that a block holds about this many (device,
# sample) pairs on average.  Its arrays (96 KiB of float64) then stay below
# the 128 KiB above which glibc's malloc maps fresh pages for every array,
# page faults that cost more than the kernels on a fine mesh.  The blocks
# also bound the search's peak memory: on a 1000-station 50 km feeder (48k
# pairs), one pass over all pairs takes the temporaries from 0.75 to 2.4 MiB.
DENSITY_BLOCK_PAIRS = 12288

# A GridTree caches at most this many meshes, density layouts, ... of each
# kind, so that sweeping sigma or the placed stations cannot grow it.
CACHED_PER_KIND = 8


@dataclass(frozen=True)
class PerUnitBase:
    """System-wide base quantities (single base for the whole tree)."""

    power_va: float
    voltage_v: float

    def __post_init__(self) -> None:
        if not (self.power_va > 0.0 and math.isfinite(self.power_va)):
            raise ValueError(f"base power must be positive, got {self.power_va}")
        if not (self.voltage_v > 0.0 and math.isfinite(self.voltage_v)):
            raise ValueError(f"base voltage must be positive, got {self.voltage_v}")

    @property
    def impedance_ohm(self) -> float:
        return self.voltage_v * self.voltage_v / self.power_va


def to_per_unit(r_ohm_per_km: float, x_ohm_per_km: float, base: PerUnitBase) -> tuple[float, float]:
    """Convert series resistance/reactance per km into per-unit G, B per km.

    The per-length admittance of the conductor is 1/(R + jX); its real and
    (magnitude of) imaginary parts are scaled by the base impedance.
    """
    if r_ohm_per_km < 0.0 or x_ohm_per_km < 0.0:
        raise ValueError("conductor R and X must be non-negative")
    denom = r_ohm_per_km * r_ohm_per_km + x_ohm_per_km * x_ohm_per_km
    if denom == 0.0:
        raise ValueError("degenerate conductor: R and X are both zero")
    zb = base.impedance_ohm
    return r_ohm_per_km / denom * zb, x_ohm_per_km / denom * zb


@dataclass(frozen=True)
class FeederSegment:
    """One constant-parameter feeder section.

    Non-root segments attach to their parent at ``offset_km`` along the
    parent's own axis (0 < offset <= parent length); the root attaches to
    the bank.
    """

    id: str
    length_km: float
    g_pu_per_km: float
    b_pu_per_km: float
    parent: str | None = None
    offset_km: float = 0.0

    @property
    def z2(self) -> float:
        return self.g_pu_per_km ** 2 + self.b_pu_per_km ** 2


@dataclass(frozen=True)
class Device:
    """Point load or charging station.

    xi_km is the arc length from the bank along the device's path.  Loads
    carry (p_pu <= 0, q_pu); stations carry raw active-power bounds, from
    which the 90%-derated effective bounds are derived.
    """

    kind: str                    # "load" | "station"
    segment: str
    xi_km: float
    id: str = ""
    p_pu: float = 0.0
    q_pu: float = 0.0
    p_min_pu: float = 0.0
    p_max_pu: float = 0.0

    @property
    def p_min_eff(self) -> float:
        return EFFECTIVE_BOUND_FACTOR * self.p_min_pu

    @property
    def p_max_eff(self) -> float:
        return EFFECTIVE_BOUND_FACTOR * self.p_max_pu


@dataclass(frozen=True)
class GridValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class GridTree:
    """Tree of segments plus the device list, with derived path offsets.

    The tree order is decided here alone: post_order() lists the segments
    children first, and dispatch and the solver mesh both read it.
    Construction never raises on semantic problems; run validate_grid (or
    the ``validated`` helper) before handing a tree to the solver or the
    dispatch passes.

    The instance remembers what depends only on the grid, so that repeated
    requests pay only for what their plan changes.  ``validated`` keeps a
    passing result, and a private cache fills on first use:

    - the solver mesh, keyed by (step_km, sigma), with its sample runs,
      midpoints, real-cell and node positions, leaf rows and junction
      children (solver._Mesh says how its flat buffer is laid out);
    - the density layout, one per grid: a column for every device, the
      loads' p and q, the station slots and derated bounds;
    - the density's kernel pairs, keyed by (sigma, sample runs, samples);
    - per tuple of station ids, the placement of the stations a plan or
      mapping with those ids places: each layout station's position among
      them, or -1 when it is idle, and each segment's closest spacing of
      loads and placed stations, for the spacing warnings (a tuple with an
      id that names no station is refused, and nothing is kept);
    - the dispatch legs, each station's arrivals (the legs whose near-end
      residual it takes), station order and bounds, a plan's bank-nearest
      id, position and bound columns, and the active pass's result; and
      per reactive mode, the reactive pass over the unrefined active
      values with the start tuple its walk recorded before each station
      and each leg's near-end carry, from which a request resumes at the
      first station its refinement visited.

    Each kind keeps at most CACHED_PER_KIND entries.  The cache cannot go
    stale: segments and devices are stored as frozen records in tuples.
    A ``dataclasses.replace`` copy, a pickle and a ``copy`` start with an
    empty cache.
    """

    base: PerUnitBase
    segments: tuple[FeederSegment, ...]
    devices: tuple[Device, ...] = ()
    _seg_by_id: dict = field(init=False, repr=False, compare=False)
    _start_km: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    _post: tuple = field(init=False, repr=False, compare=False)
    _valid: bool = field(init=False, repr=False, compare=False, default=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "_seg_by_id", {s.id: s for s in self.segments})
        children: dict[str, list[FeederSegment]] = {s.id: [] for s in self.segments}
        for s in self.segments:
            if s.parent is not None and s.parent in children:
                children[s.parent].append(s)
        # one walk from the roots sets each start offset and the post order;
        # segments in a parent cycle or under an unknown parent are never
        # reached and are reported by validate_grid.  Visited ids are
        # skipped, since a duplicated id can close a cycle through a root.
        start: dict[str, float] = {}
        post: list[FeederSegment] = []
        stack = [(s, False) for s in reversed(self.roots())]
        while stack:
            s, done = stack.pop()
            if done:
                post.append(s)
            elif s.id not in start:
                start[s.id] = 0.0 if s.parent is None else start[s.parent] + s.offset_km
                stack.append((s, True))
                stack.extend((c, False) for c in reversed(children[s.id]))
        object.__setattr__(self, "_start_km", start)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_post", tuple(post))
        object.__setattr__(self, "_cache", {})

    def __getstate__(self) -> dict:
        # a pickle or copy carries the grid, not the arrays it has prepared
        return {**self.__dict__, "_cache": {}}

    def _cached(self, kind: str, key, build):
        """build() for (kind, key), built on first use and kept; a kind that
        holds CACHED_PER_KIND entries starts over.  Every step is one dict
        call, so threads sharing a grid at worst build a value twice."""
        entries = self._cache.setdefault(kind, {})
        value = entries.get(key)
        if value is None:
            value = build()
            if len(entries) >= CACHED_PER_KIND:
                entries.clear()
            entries[key] = value
        return value

    def segment(self, seg_id: str) -> FeederSegment:
        return self._seg_by_id[seg_id]

    def has_segment(self, seg_id: str) -> bool:
        return seg_id in self._seg_by_id

    def segment_start_km(self, seg_id: str) -> float:
        """Arc length from the bank to the segment's near end."""
        return self._start_km[seg_id]

    def segment_end_km(self, seg_id: str) -> float:
        return self._start_km[seg_id] + self._seg_by_id[seg_id].length_km

    def children_of(self, seg_id: str) -> tuple[FeederSegment, ...]:
        return tuple(self._children.get(seg_id, ()))

    def roots(self) -> tuple[FeederSegment, ...]:
        return tuple(s for s in self.segments if s.parent is None)

    def post_order(self) -> tuple[FeederSegment, ...]:
        """Every segment reachable from the bank, each after its children
        (in declared order): the one tree order that dispatch and the
        solver read."""
        return self._post

    def is_single_feeder(self) -> bool:
        return len(self.segments) == 1 and self.segments[0].parent is None

    def loads(self) -> tuple[Device, ...]:
        return tuple(d for d in self.devices if d.kind == "load")

    def stations(self) -> tuple[Device, ...]:
        return tuple(d for d in self.devices if d.kind == "station")

    def validated(self) -> "GridTree":
        """self if the grid is valid, else ValueError naming every violation.

        Only a passing result is cached: an invalid grid raises every time.
        """
        if self._valid:
            return self
        report = validate_grid(self)
        if not report.ok:
            raise ValueError("invalid grid: " + "; ".join(report.violations))
        object.__setattr__(self, "_valid", True)
        return self


def _nonfinite(what: str, item, names: tuple[str, ...]) -> list[str]:
    """A violation for each of item's named numbers that is nan or infinite."""
    return [f"{what}: {name} must be finite, got {getattr(item, name)}"
            for name in names if not math.isfinite(getattr(item, name))]


# characters that would break an id written unquoted into a CSV file
CSV_UNSAFE = frozenset(',"\r\n')


def _z2(s: FeederSegment) -> float:
    """s.z2, or inf where the float power overflows (it raises, not rounds)."""
    try:
        return s.z2
    except OverflowError:
        return math.inf


def validate_grid(grid: GridTree) -> GridValidationReport:
    """Collect every structural violation instead of failing on the first."""
    bad: list[str] = [] if grid.segments else ["a grid needs at least one segment"]
    seen_ids: set[str] = set()
    for s in grid.segments:
        if s.id in seen_ids:
            bad.append(f"segment id {s.id!r} is duplicated")
        elif not CSV_UNSAFE.isdisjoint(s.id):
            bad.append(f"segment id {s.id!r} holds a comma, quote or line break")
        seen_ids.add(s.id)
        if not (s.length_km > 0.0 and math.isfinite(s.length_km)):
            bad.append(f"segment {s.id!r}: length must be positive, got {s.length_km}")
        if not (math.isfinite(s.g_pu_per_km) and math.isfinite(s.b_pu_per_km)):
            bad += _nonfinite(f"segment {s.id!r}", s, ("g_pu_per_km", "b_pu_per_km"))
        elif not (s.g_pu_per_km > 0.0 and s.b_pu_per_km > 0.0):
            bad.append(f"segment {s.id!r}: G and B must be positive")
        elif not 0.0 < _z2(s) < math.inf:
            bad.append(f"segment {s.id!r}: |z|^2 = G^2 + B^2 must be positive and finite, "
                       f"got G={s.g_pu_per_km}, B={s.b_pu_per_km}")
        if s.parent is not None:
            if s.parent == s.id:
                bad.append(f"segment {s.id!r} is its own parent")
            elif not grid.has_segment(s.parent):
                bad.append(f"segment {s.id!r}: unknown parent {s.parent!r}")
            else:
                plen = grid.segment(s.parent).length_km
                if not (0.0 < s.offset_km <= plen):
                    bad.append(
                        f"segment {s.id!r}: attachment offset {s.offset_km} outside (0, {plen}]"
                    )
    if grid.segments and not grid.roots():
        bad.append("no root segment: every segment names a parent (cycle)")
    for s in grid.segments:
        if s.id not in grid._start_km and s.parent is not None and grid.has_segment(s.parent):
            bad.append(f"segment {s.id!r} is unreachable from the bank (parent cycle)")

    dev_ids: set[str] = set()
    positions: dict[str, list[tuple[float, str]]] = {}
    for d in grid.devices:
        label = d.id or f"{d.kind}@{d.segment}:{d.xi_km}"
        if not d.id:
            # plans and densities are keyed by id: an unnamed station would
            # be dispatched but never placed in the density
            bad.append(f"device {label}: id must be non-empty")
        elif d.id in dev_ids:
            bad.append(f"device id {d.id!r} is duplicated")
        elif not CSV_UNSAFE.isdisjoint(d.id):
            bad.append(f"device id {d.id!r} holds a comma, quote or line break")
        dev_ids.add(d.id)
        if d.kind not in ("load", "station"):
            bad.append(f"device {label}: unknown kind {d.kind!r}")
            continue
        if not grid.has_segment(d.segment):
            bad.append(f"device {label}: unknown segment {d.segment!r}")
            continue
        if d.segment not in grid._start_km:
            continue  # the segment itself is already reported
        lo = grid.segment_start_km(d.segment)
        hi = grid.segment_end_km(d.segment)
        if not (lo < d.xi_km < hi):
            bad.append(
                f"device {label}: xi={d.xi_km} must lie strictly inside ({lo}, {hi}) "
                "(no device at the bank, a junction, or an open end)"
            )
        positions.setdefault(d.segment, []).append((d.xi_km, label))
        if d.kind == "load":
            if not (math.isfinite(d.p_pu) and math.isfinite(d.q_pu)):
                bad += _nonfinite(f"device {label}", d, ("p_pu", "q_pu"))
            elif d.p_pu > 0.0:
                bad.append(f"device {label}: load active power must be <= 0, got {d.p_pu}")
        else:
            if not (math.isfinite(d.p_min_pu) and math.isfinite(d.p_max_pu)):
                bad += _nonfinite(f"device {label}", d, ("p_min_pu", "p_max_pu"))
            elif not (d.p_min_pu <= 0.0 <= d.p_max_pu):
                bad.append(
                    f"device {label}: station bounds [{d.p_min_pu}, {d.p_max_pu}] must straddle 0"
                )
            elif not math.isfinite(station_q_cap(d.p_min_eff) + station_q_cap(d.p_max_eff)):
                bad.append(f"device {label}: station bounds [{d.p_min_pu}, {d.p_max_pu}] "
                           "overflow the power-factor cap")
    for seg_id, entries in positions.items():
        entries.sort()
        for (x0, l0), (x1, l1) in zip(entries, entries[1:]):
            if x0 == x1:
                bad.append(f"devices {l0} and {l1} overlap at xi={x0} on segment {seg_id!r}")
    return GridValidationReport(tuple(bad))


def _check_sigma(sigma_km: float) -> None:
    if not (sigma_km > 0.0 and math.isfinite(sigma_km)):
        raise ValueError(f"sigma must be positive and finite, got {sigma_km}")
    # the kernels square sigma (2 pi sigma^2 overflows above ~5e153) and shift
    # runs by powers of two above 24 sigma: keep both far inside float range
    if sigma_km > 1e150:
        raise ValueError(f"sigma must be at most 1e+150 km, got {sigma_km}")


class _Pairs(NamedTuple):
    """The (device, sample) kernel pairs of one sampling, kept on the grid
    per sigma, runs and x as a sample-major slot table: slot k of a sample
    holds its k-th pair in device order, a layout column in cols and a
    kernel in kern, or the zero column and 0.0.  Tier (start, width,
    column, n) is the C-order (width, n) block from start, summed into
    output columns column.. column + n - 1, one of them spare; where picks
    each sample's.  scratch is a (2, cols.size) buffer for every replay."""

    cols: np.ndarray
    kern: np.ndarray
    tiers: tuple
    where: np.ndarray
    scratch: np.ndarray


class _Layout:
    """The density columns of a grid: column k is grid.devices[k].

    xpq holds each column's centre and the loads' p and q, with 0.0 for the
    stations, whose values a density writes at slots: an idle station keeps
    0.0 and adds +0.0 to each sum, which changes no bit, as does the zero
    column after the devices, for unused slots.  columns maps each segment
    to its loads' and stations' columns, in declaration order.
    stations are the grid's stations in declaration order, slots their
    columns (by position: an unvalidated grid may repeat an id), lo and hi
    their derated bounds.
    """

    def __init__(self, grid: GridTree):
        self.stations = grid.stations()
        devices = grid.devices
        self.xpq = np.array([[d.xi_km for d in devices] + [0.0],
                             [d.p_pu if d.kind == "load" else 0.0 for d in devices] + [0.0],
                             [d.q_pu if d.kind == "load" else 0.0 for d in devices] + [0.0]])
        self.slots = np.array([k for k, d in enumerate(devices) if d.kind == "station"],
                              dtype=np.intp)
        cols: dict[str, list[int]] = {}
        for k, d in enumerate(devices):
            if d.kind in ("load", "station"):
                cols.setdefault(d.segment, []).append(k)
        self.columns = {seg_id: np.array(ks, dtype=np.intp) for seg_id, ks in cols.items()}
        self.lo = np.array([d.p_min_eff for d in self.stations], dtype=float)
        self.hi = np.array([d.p_max_eff for d in self.stations], dtype=float)


def _station_columns(station_power) -> tuple[tuple, tuple, tuple]:
    """The ids, p and q columns of a station power input: a DispatchPlan's
    own columns, a mapping's keys and values, each value unpacked into
    exactly (p, q), or nothing for None."""
    if hasattr(station_power, "p_pu"):    # a DispatchPlan
        return station_power.ids, station_power.p_pu, station_power.q_pu
    power = {} if station_power is None else dict(station_power)
    p, q = zip(*power.values(), strict=True) if power else ((), ())
    return tuple(power), p, q


def _placement(grid: GridTree, ids: tuple) -> tuple[_Layout, np.ndarray, list]:
    """The grid's layout, and, kept on the grid per tuple of ids, where the
    stations with these ids are placed: each layout station's position in
    ids (the last of a repeated id), or -1 when it is idle, and each
    segment's closest spacing of its loads and placed stations.  An id
    that names no station of the grid is refused, naming it."""
    layout = grid._cached("layout", None, lambda: _Layout(grid))

    def build():
        pos = {sid: k for k, sid in enumerate(ids)}
        index = np.array([pos.get(d.id, -1) for d in layout.stations], dtype=np.intp)
        if np.count_nonzero(index >= 0) < len(pos):
            known = {d.id for d in layout.stations}
            unknown = next(sid for sid in ids if sid not in known)
            raise ValueError(f"station power given for {unknown!r}, which names no station "
                             "of the grid")
        xs: dict[str, list[float]] = {}
        for d in grid.devices:
            if d.kind == "load" or (d.kind == "station" and d.id in pos):
                xs.setdefault(d.segment, []).append(d.xi_km)
        gaps = {seg_id: [b - a for a, b in pairwise(sorted(v))] for seg_id, v in xs.items()}
        return index, [(seg_id, min(g)) for seg_id, g in gaps.items() if g]
    return (layout, *grid._cached("placement", ids, build))


def _station_pq(p, q, index: np.ndarray) -> np.ndarray:
    """The layout stations' p and q, as two rows, from the columns p and q:
    index -1, an idle station, picks the 0.0 after each column."""
    return np.fromiter(chain(p, (0.0,), q, (0.0,)), float).reshape(2, -1)[:, index]


def _kernel_pairs(layout: _Layout, sigma_km: float, runs: list, x: np.ndarray) -> _Pairs:
    """Every (device, sample) pair of x within the cut-off, each run's
    samples against its own segment's columns, as a slot table built a
    block of whole samples at a time: a pair's slot is its rank in its own
    sample's window, so nothing carries from one block to the next."""
    n_run = np.array([n for _, n in runs], dtype=np.intp)
    none = np.empty(0, dtype=np.intp)
    columns = [layout.columns.get(seg_id, none) for seg_id, _ in runs]
    n_dev = np.array([c.size for c in columns], dtype=np.intp)
    # each run's devices as layout columns, in declaration order
    cols = np.concatenate([none, *columns])
    centres = layout.xpq[0, cols]
    cut = KERNEL_CUTOFF_SIGMAS * sigma_km
    # On a tree the x ranges of segments overlap, so each run is shifted
    # by its own multiple of a power of two at least four times any
    # |centre| plus the cut-off.  Shifted, the devices within reach of
    # one run's samples lie far from every other run's, so a window
    # holds only its own run's devices; a device of another run that
    # still falls in one fails the |dx| <= cut test, which uses the
    # unshifted positions.
    reach = float(np.abs(centres).max(initial=0.0)) + cut
    shift = 2.0 ** math.ceil(math.log2(4.0 * reach)) * np.arange(len(columns), dtype=float)
    keys = np.repeat(shift, n_run)
    keys += x
    ckeys = centres + np.repeat(shift, n_dev)
    by_key = np.argsort(ckeys)
    ckeys = ckeys[by_key]
    two_var = 2.0 * sigma_km ** 2
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma_km ** 2)
    # each sample's window over the sorted devices, padded by a few ulps so
    # that rounding in the shift and in x +- cut cannot drop a device that
    # the |dx| <= cut test below keeps; its length is the sample's width
    pad = 8.0 * np.spacing(np.abs(keys) + 2.0 * cut)
    lo = np.searchsorted(ckeys, keys - cut - pad, side="left")
    width = np.searchsorted(ckeys, keys + cut + pad, side="right") - lo
    found = int(width.sum())
    # a slot per device in each sample's window, in tiers widest first, each
    # as wide as its first sample and ending where its padding would pass
    # its pairs plus samples, so the table is O(pairs + samples); numpy sums
    # a one-column block pairwise, so each tier has a spare column
    rank = np.argsort(-width)
    w, bounds = width[rank], [0]
    while bounds[-1] < x.size:
        slack = np.cumsum(2 * w[bounds[-1]:] + 1 - w[bounds[-1]])
        bounds.append(bounds[-1] + (int(np.argmax(slack < 0)) or slack.size))
    where, base, stride = np.empty((3, x.size), dtype=np.intp)    # slot k: base + k * stride
    tiers, start = [], 0
    for t, (a, b) in enumerate(pairwise(bounds)):
        where[rank[a:b]] = np.arange(a + t, b + t)
        base[rank[a:b]] = np.arange(start, start + b - a)
        stride[rank[a:b]] = b - a + 1
        tiers.append((start, int(w[a]), a + t, b - a + 1))
        start += tiers[-1][1] * (b - a + 1)
    table = _Pairs(np.full(start, layout.xpq.shape[1] - 1), np.zeros(start), tuple(tiers),
                   where, np.empty((2, start)))
    per_block = max(DENSITY_BLOCK_PAIRS * x.size // max(found, 1), 1)
    for b in range(0, x.size, per_block):
        n = width[b:b + per_block]
        # the block's pairs, sample-major: the k-th pair of a sample is the
        # k-th device of its window, and after one sort by (sample, device)
        # the k-th in device order, which takes slot k
        k = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
        smp = np.repeat(np.arange(b, b + n.size), n)
        dev = by_key[lo[smp] + k]
        dev = dev[np.argsort(smp * centres.size + dev)]
        k *= stride[smp]
        k += base[smp]
        dx = x[smp]
        dx -= centres[dev]
        del smp    # the arrays of a block stay few: see DENSITY_BLOCK_PAIRS
        keep = np.abs(dx) <= cut
        at, dev, dx = k[keep], dev[keep], dx[keep]
        del k, keep
        table.cols[at] = cols[dev]
        table.kern[at] = norm * np.exp(-dx ** 2 / two_var)
        del at, dev, dx
    return table


class DensityField:
    """Per-segment coarse-grained p(x), q(x) built from point devices.

    Each device contributes a Gaussian of mass equal to its power, centred
    at its position and truncated at +-6 sigma.  Kernels never spill across
    junctions: a device's mass stays on its own segment, so positions closer
    than ~6 sigma to a segment end lose tail mass.

    The columns come from the grid's cached layout, with every station, so
    a construction only writes the stations' p and q; a station that
    station_power leaves out is idle, at 0.0, and an id of station_power
    that names no station of the grid is refused.  A NaN or infinite p or q
    is refused, naming the station; bounds and the cone are power_density's
    checks.  Sampling costs O(points x window), not O(devices x points):
    each sample is evaluated only against the devices inside its own
    cut-off window.  One call can sample every segment of a tree, each
    segment's samples given as a run, with one sort and one kernel pass
    for all of them.  The (device, sample, kernel) pairs are kept on the
    grid per sigma, runs and x as a slot table (see _Pairs) and replayed
    with this field's powers, so a repeated solve of a new plan evaluates
    no kernel.  A replay sums each sample's slots from +0.0 in device order
    through one scratch buffer kept with the table, so it allocates nothing
    pair-sized; every field of the grid shares it, and sampling one grid
    from two threads at once is not supported.
    """

    def __init__(self, grid: GridTree, station_power, sigma_km: float):
        _check_sigma(sigma_km)
        ids, p, q = _station_columns(station_power)
        layout, index, min_gaps = _placement(grid, ids)
        pq = _station_pq(p, q, index)
        bad = ~np.isfinite(pq).all(axis=0)    # an idle station's 0.0 is finite
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"station {layout.stations[k].id!r}: p and q must be finite, "
                             f"got p={pq[0, k]}, q={pq[1, k]}")
        self._setup(grid, layout, pq, min_gaps, sigma_km)

    def _setup(self, grid: GridTree, layout: _Layout, pq: np.ndarray, min_gaps: list,
               sigma_km: float) -> None:
        """Take the layout's columns with its stations at pq; the spacing
        warnings point at the caller of DensityField or power_density."""
        self.sigma_km = sigma_km
        self._grid, self._layout = grid, layout
        self._pq = layout.xpq[1:].copy()
        self._pq[:, layout.slots] = pq
        for seg_id, gap in min_gaps:
            if sigma_km > gap / 2.0:
                warnings.warn(
                    f"sigma={sigma_km} km exceeds half the minimum device spacing "
                    f"({gap} km) on segment {seg_id!r}: kernels overlap strongly",
                    stacklevel=3,
                )

    def sample(self, runs, x_km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (p, q) at cumulative positions x_km, one or more segments
        in a single call.

        runs is a segment id, when every sample lies on that segment, or a
        sequence of (segment id, n_points) runs that covers x_km in order;
        a segment may appear in several runs, and a count that is not a
        whole number >= 0 (2.0 is one; True is not) is refused.  Within a
        run x_km may be in any order and may repeat positions.  Each sample
        sums its own segment's kernels in device declaration order, so the
        result does not depend on how the samples are ordered or grouped
        into runs or calls.
        """
        x = np.asarray(x_km, dtype=float)
        if isinstance(runs, str):
            runs = ((runs, x.size),)
        for seg_id, n in (runs := list(runs)):
            number = type(n) is int or isinstance(n, (float, np.integer, np.floating))    # not a bool
            if not (number and n >= 0 and n % 1 == 0):
                raise ValueError(f"run ({seg_id!r}, {n!r}): a count must be a whole number >= 0")
        runs = [(seg_id, int(n)) for seg_id, n in runs]
        covered = sum(n for _, n in runs)
        if covered != x.size:
            raise ValueError(f"runs cover {covered} samples, x_km has {x.size}")
        x_flat = x.reshape(-1)
        pairs = self._grid._cached("pairs", (self.sigma_km, tuple(runs), x_flat.tobytes()),
                                   lambda: _kernel_pairs(self._layout, self.sigma_km, runs, x_flat))
        # each slot's device p and q times its kernel, in the table's scratch
        # buffer (every column is a valid index, so "clip" clips nothing;
        # the default "raise" would buffer out), added up slot by slot from
        # +0.0 down each column of a tier
        weights = np.take(self._pq, pairs.cols, axis=1, out=pairs.scratch, mode="clip")
        weights *= pairs.kern
        sums = np.empty((2, x.size + len(pairs.tiers)))
        for start, width, column, n in pairs.tiers:
            np.add.reduce(weights[:, start:start + width * n].reshape(2, width, n), axis=1,
                          out=sums[:, column:column + n], initial=0.0)
        p, q = np.take(sums, pairs.where, axis=1)
        return p.reshape(x.shape), q.reshape(x.shape)


def power_density(grid: GridTree, plan=None, sigma_km: float = 0.05) -> DensityField:
    """Build the sampled density field for a validated grid.

    plan may be a DispatchPlan or any mapping station-id -> (p_pu, q_pu);
    None leaves every station idle, and an id that names no station of the
    grid is refused.  Placed station values are checked against the derated
    active bounds and the power-factor cone before being accepted; the
    first offending station in declaration order is named, with the P
    (bounds) or Q (cone) hand-offs that a DispatchPlan's trace sent it.
    """
    ids, p, q = _station_columns(plan)
    layout, index, min_gaps = _placement(grid, ids)
    pq = _station_pq(p, q, index)
    tol = 1e-12
    out_of_bounds = ~((layout.lo - tol <= pq[0]) & (pq[0] <= layout.hi + tol))
    # the cone of station_q_cap; written so that a NaN q lies outside it
    outside_cone = ~(np.abs(pq[1]) <= station_q_caps(pq[0]) + tol)
    bad = (out_of_bounds | outside_cone) & (index >= 0)
    if bad.any():
        k = int(np.argmax(bad))
        d = layout.stations[k]
        if out_of_bounds[k]:
            quantity = "P"
            msg = (f"station {d.id!r}: p={p[index[k]]} outside effective bounds "
                   f"[{d.p_min_eff}, {d.p_max_eff}]")
        else:
            quantity = "Q"
            msg = f"station {d.id!r}: q={q[index[k]]} violates the power-factor cone"
        # a synthesized plan names the residuals that seeded the station
        received = [f"{amount} from {source!r}"
                    for qty, amount, source, target in zip(*getattr(plan, "handoffs", ()))
                    if qty == quantity and target == d.id]
        if received:
            msg += f"; {quantity} hand-offs received: " + ", ".join(received)
        raise ValueError(msg)
    _check_sigma(sigma_km)
    field = DensityField.__new__(DensityField)
    field._setup(grid, layout, pq, min_gaps, sigma_km)
    return field
