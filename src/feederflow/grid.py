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
from itertools import accumulate
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

# The kernel pair search of DensityField.sample evaluates kernels this many
# devices at a time, which bounds its temporary arrays to about this many
# windows of samples, and fewer when the windows are wide: a block holds
# about DENSITY_BLOCK_PAIRS (device, sample) pairs on average, so that its
# arrays (96 KiB of float64) stay below the 128 KiB above which glibc's
# malloc maps fresh pages for every array, page faults that cost more than
# the kernels on a fine mesh.
DENSITY_BLOCK_DEVICES = 256
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
      midpoints, valid-cell masks, leaf rows and junction children;
    - the density layout, keyed by the set of placed stations: the device
      columns, the loads' p and q, the station slots and derated bounds,
      the spacing warnings, and the kernel pairs of its last sampling;
    - per tuple of plan station ids, the index that takes a plan's columns
      into its layout's station order;
    - the dispatch legs, station order and bounds, and a plan's id,
      position and bound columns, bank-nearest first.

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


def validate_grid(grid: GridTree) -> GridValidationReport:
    """Collect every structural violation instead of failing on the first."""
    bad: list[str] = []
    seen_ids: set[str] = set()
    for s in grid.segments:
        if s.id in seen_ids:
            bad.append(f"segment id {s.id!r} is duplicated")
        seen_ids.add(s.id)
        if not (s.length_km > 0.0 and math.isfinite(s.length_km)):
            bad.append(f"segment {s.id!r}: length must be positive, got {s.length_km}")
        if not (math.isfinite(s.g_pu_per_km) and math.isfinite(s.b_pu_per_km)):
            bad += _nonfinite(f"segment {s.id!r}", s, ("g_pu_per_km", "b_pu_per_km"))
        elif not (s.g_pu_per_km > 0.0 and s.b_pu_per_km > 0.0):
            bad.append(f"segment {s.id!r}: G and B must be positive")
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
    for seg_id, entries in positions.items():
        entries.sort()
        for (x0, l0), (x1, l1) in zip(entries, entries[1:]):
            if x0 == x1:
                bad.append(f"devices {l0} and {l1} overlap at xi={x0} on segment {seg_id!r}")
    return GridValidationReport(tuple(bad))


def _check_sigma(sigma_km: float) -> None:
    if not (sigma_km > 0.0 and math.isfinite(sigma_km)):
        raise ValueError(f"sigma must be positive, got {sigma_km}")


class _Pairs(NamedTuple):
    """The (device, sample) pairs of one sampling, found for this sigma,
    these runs and these x.  They are device-major: device k, layout column
    cols[k], owns the next kept[k] pairs, each a sample index idx and a
    kernel value kern."""

    sigma_km: float
    runs: list
    x: np.ndarray
    idx: np.ndarray
    kern: np.ndarray
    cols: np.ndarray
    kept: np.ndarray


class _Layout:
    """The density columns of one set of placed stations on a grid.

    Loads and placed stations are grouped by segment, in the order of each
    segment's first such device, and keep declaration order within it.
    xpq holds each column's centre and the loads' p and q; a plan writes its
    stations' p and q at slots.  stations (and ids) are the placed stations
    in declaration order, lo and hi their derated bounds, and min_gaps each
    segment's closest device spacing.  pairs holds the kernel pairs of the
    layout's last sampling: one set at most.
    """

    def __init__(self, grid: GridTree, placed: bytes):
        self.stations = tuple(d for d, on in zip(grid.stations(), placed) if on)
        self.ids = tuple(d.id for d in self.stations)
        cols: dict[str, list[tuple[Device, int]]] = {}    # (device, station rank or -1)
        flags, rank = iter(placed), iter(range(len(self.stations)))
        for d in grid.devices:
            if d.kind == "load":
                cols.setdefault(d.segment, []).append((d, -1))
            elif d.kind == "station" and next(flags):
                cols.setdefault(d.segment, []).append((d, next(rank)))
        order = [entry for entries in cols.values() for entry in entries]
        self.xpq = np.zeros((3, len(order)))
        self.xpq[0] = [d.xi_km for d, _ in order]
        self.xpq[1] = [d.p_pu if r < 0 else 0.0 for d, r in order]
        self.xpq[2] = [d.q_pu if r < 0 else 0.0 for d, r in order]
        self.slots = np.empty(len(self.stations), dtype=np.intp)
        for col, (_, r) in enumerate(order):
            if r >= 0:
                self.slots[r] = col
        ends = list(accumulate(len(entries) for entries in cols.values()))
        self.columns = {seg_id: slice(a, b) for seg_id, a, b in zip(cols, [0, *ends], ends)}
        n = len(self.stations)
        self.lo = np.fromiter((d.p_min_eff for d in self.stations), float, n)
        self.hi = np.fromiter((d.p_max_eff for d in self.stations), float, n)
        self.min_gaps = []
        for seg_id, entries in cols.items():
            xs = sorted(d.xi_km for d, _ in entries)
            gaps = [b - a for a, b in zip(xs, xs[1:])]
            if gaps:
                self.min_gaps.append((seg_id, min(gaps)))
        self.pairs: _Pairs | None = None

    def station_pq(self, station_power) -> np.ndarray:
        """The placed stations' p and q, from station_power, as two rows;
        each station's value must unpack into exactly (p, q)."""
        if not self.ids:    # station_power may be None
            return np.empty((2, 0))
        p, q = zip(*map(station_power.__getitem__, self.ids), strict=True)
        return np.array((p, q), dtype=float)


def _station_ids(grid: GridTree) -> tuple[str, ...]:
    return grid._cached("station ids", None, lambda: tuple(d.id for d in grid.stations()))


def _placed(grid: GridTree, station_power) -> bytes:
    """One flag per station of the grid, in declaration order: does
    station_power (None places none) hold its id."""
    power = () if station_power is None else station_power
    return bytes(map(power.__contains__, _station_ids(grid)))


def _layout(grid: GridTree, placed: bytes) -> _Layout:
    """The grid's cached layout for the stations that placed flags."""
    return grid._cached("layout", placed, lambda: _Layout(grid, placed))


def _plan_layout(grid: GridTree, ids: tuple[str, ...]) -> tuple[_Layout, np.ndarray]:
    """The layout of the stations a plan with these station ids places, and
    the index that takes the plan's columns into the layout's station order.
    The index is kept on the grid per tuple of ids."""
    def build():
        pos = {sid: k for k, sid in enumerate(ids)}    # the last of a repeated id
        index = [pos[sid] for sid in _station_ids(grid) if sid in pos]
        return _placed(grid, pos), np.array(index, dtype=np.intp)
    placed, index = grid._cached("plan index", ids, build)
    return _layout(grid, placed), index


def _kernel_pairs(layout: _Layout, sigma_km: float, runs: list, x: np.ndarray) -> _Pairs:
    """Every (device, sample) pair of x within the cut-off, each run's
    samples against its own segment's columns, device-major with devices in
    declaration order."""
    n_run = np.array([n for _, n in runs], dtype=np.intp)
    columns = [layout.columns.get(seg_id, slice(0, 0)) for seg_id, _ in runs]
    n_dev = np.array([c.stop - c.start for c in columns], dtype=np.intp)
    if x.size == 0 or not n_dev.any():
        return _Pairs(sigma_km, runs, x.copy(), np.empty(0, dtype=np.int32), np.empty(0),
                      np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    # each run's devices as layout columns, in declaration order
    cols = np.concatenate([np.arange(c.start, c.stop) for c in columns])
    centres = layout.xpq[0, cols]
    cut = KERNEL_CUTOFF_SIGMAS * sigma_km
    # On a tree the x ranges of segments overlap, so each run is shifted
    # by its own multiple of a power of two at least four times any
    # |centre| plus the cut-off.  Shifted, the samples within reach of
    # one run's kernels lie far from every other run's, so a window
    # holds only its own run's samples; a sample of another run that
    # still falls in one fails the |dx| <= cut test, which uses the
    # unshifted positions.
    reach = float(np.abs(centres).max()) + cut
    shift = 2.0 ** math.ceil(math.log2(4.0 * reach)) * np.arange(len(columns), dtype=float)
    keys = np.repeat(shift, n_run)
    keys += x
    ckeys = centres + np.repeat(shift, n_dev)
    order = np.argsort(keys, kind="stable")
    two_var = 2.0 * sigma_km ** 2
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma_km ** 2)
    # windows are padded by a few ulps, so that rounding in the shift
    # and in xi +- cut cannot drop a sample (or a copy of a repeated
    # one) that the |dx| <= cut test below keeps
    pad = 8.0 * np.spacing(np.abs(ckeys) + 2.0 * cut)
    lo = np.searchsorted(keys, ckeys - cut - pad, side="left", sorter=order)
    hi = np.searchsorted(keys, ckeys + cut + pad, side="right", sorter=order)
    counts = hi - lo
    found = int(counts.sum())
    idx_all = np.empty(found, dtype=np.int32)
    kern_all = np.empty(found)
    kept = counts.copy()    # per device, once the |dx| <= cut test has run
    m = 0
    per_block = DENSITY_BLOCK_PAIRS * centres.size // max(found, 1)
    per_block = min(max(per_block, 1), DENSITY_BLOCK_DEVICES)
    for b in range(0, centres.size, per_block):
        blk = slice(b, b + per_block)
        n = counts[blk]
        total = int(n.sum())
        if total == 0:
            continue
        # flattened (device, sample) pairs, device-major
        dev = np.repeat(np.arange(b, b + n.size), n)
        idx = order[np.arange(total) + np.repeat(lo[blk] - (np.cumsum(n) - n), n)]
        dx = x[idx] - centres[dev]
        keep = np.abs(dx) <= cut
        if not keep.all():    # only samples on or beyond a cut-off
            dev, dx, idx = dev[keep], dx[keep], idx[keep]
            kept[blk] = np.bincount(dev - b, minlength=n.size)
        k = m + idx.size
        idx_all[m:k] = idx
        kern_all[m:k] = norm * np.exp(-dx ** 2 / two_var)
        m = k
    return _Pairs(sigma_km, runs, x.copy(), idx_all[:m], kern_all[:m], cols, kept)


class DensityField:
    """Per-segment coarse-grained p(x), q(x) built from point devices.

    Each device contributes a Gaussian of mass equal to its power, centred
    at its position and truncated at +-6 sigma.  Kernels never spill across
    junctions: a device's mass stays on its own segment, so positions closer
    than ~6 sigma to a segment end lose tail mass.

    The columns come from the grid's cached layout for the placed stations,
    so a construction only writes the stations' p and q.  Sampling costs
    O(devices x window), not O(devices x points): each device is evaluated
    only on the samples inside its own cut-off window.  One call can sample
    every segment of a tree, each segment's samples given as a run, with one
    sort and one kernel pass for all of them.  The (device, sample, kernel)
    pairs are kept on the layout and replayed with this field's powers
    while sigma, the runs and x stay the same, so a repeated solve of a new
    plan evaluates no kernel.
    """

    def __init__(self, grid: GridTree, station_power, sigma_km: float):
        _check_sigma(sigma_km)
        layout = _layout(grid, _placed(grid, station_power))
        p, q = layout.station_pq(station_power)
        self._setup(layout, p, q, sigma_km, stacklevel=4)

    def _setup(self, layout: _Layout, p: np.ndarray, q: np.ndarray, sigma_km: float,
               stacklevel: int) -> None:
        """Take the layout's columns with the placed stations at (p, q);
        the spacing warnings point stacklevel frames up."""
        self.sigma_km = sigma_km
        self._layout = layout
        self._pq = layout.xpq[1:].copy()
        self._pq[0, layout.slots] = p
        self._pq[1, layout.slots] = q
        for seg_id, gap in layout.min_gaps:
            if sigma_km > gap / 2.0:
                warnings.warn(
                    f"sigma={sigma_km} km exceeds half the minimum device spacing "
                    f"({gap} km) on segment {seg_id!r}: kernels overlap strongly",
                    stacklevel=stacklevel,
                )

    def sample(self, runs, x_km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (p, q) at cumulative positions x_km, one or more segments
        in a single call.

        runs is a segment id, when every sample lies on that segment, or a
        sequence of (segment id, n_points) runs that covers x_km in order;
        a segment may appear in several runs.  Within a run x_km may be in
        any order and may repeat positions.  Each sample sums its own
        segment's kernels in device declaration order, so the result does
        not depend on how the samples are ordered or grouped into runs or
        calls.
        """
        x = np.asarray(x_km, dtype=float)
        if isinstance(runs, str):
            runs = ((runs, x.size),)
        runs = [(seg_id, int(n)) for seg_id, n in runs]
        covered = sum(n for _, n in runs)
        if covered != x.size:
            raise ValueError(f"runs cover {covered} samples, x_km has {x.size}")
        x_flat = x.reshape(-1)
        pairs = self._layout.pairs
        if (pairs is None or pairs.sigma_km != self.sigma_km or pairs.runs != runs
                or not np.array_equal(pairs.x, x_flat)):
            pairs = self._layout.pairs = _kernel_pairs(self._layout, self.sigma_km, runs, x_flat)
        p = np.zeros(x.shape)
        q = np.zeros(x.shape)
        for out, power in ((p, self._pq[0]), (q, self._pq[1])):
            # each pair's device power times its kernel, device-major
            weights = np.repeat(power[pairs.cols], pairs.kept)
            weights *= pairs.kern
            np.add.at(out.reshape(-1), pairs.idx, weights)
        return p, q


def power_density(grid: GridTree, plan=None, sigma_km: float = 0.05) -> DensityField:
    """Build the sampled density field for a validated grid.

    plan may be a DispatchPlan or any mapping station-id -> (p_pu, q_pu);
    None leaves every station idle.  Station values are checked against the
    derated active bounds and the power-factor cone before being accepted;
    the first offending station in declaration order is named, with the
    P (bounds) or Q (cone) hand-offs that a DispatchPlan's trace sent it.
    """
    columns = hasattr(plan, "p_pu")
    if columns:
        # a DispatchPlan: its p and q columns, in the layout's station order
        layout, index = _plan_layout(grid, plan.ids)
        p = np.array(plan.p_pu)[index]
        q = np.array(plan.q_pu)[index]
    else:
        station_power = None if plan is None else dict(plan)
        layout = _layout(grid, _placed(grid, station_power))
        p, q = layout.station_pq(station_power)
    tol = 1e-12
    out_of_bounds = ~((layout.lo - tol <= p) & (p <= layout.hi + tol))
    # the cone of station_q_cap; written so that a NaN q lies outside it
    outside_cone = ~(np.abs(q) <= station_q_caps(p) + tol)
    bad = out_of_bounds | outside_cone
    if bad.any():
        k = int(np.argmax(bad))
        d = layout.stations[k]
        p_k, q_k = (plan.as_power_map() if columns else station_power)[d.id]
        if out_of_bounds[k]:
            quantity = "P"
            msg = (f"station {d.id!r}: p={p_k} outside effective bounds "
                   f"[{d.p_min_eff}, {d.p_max_eff}]")
        else:
            quantity = "Q"
            msg = f"station {d.id!r}: q={q_k} violates the power-factor cone"
        # a synthesized plan names the residuals that seeded the station
        received = [f"{ev.amount} from {ev.source!r}" for ev in getattr(plan, "trace", ())
                    if ev.quantity == quantity and ev.target == d.id]
        if received:
            msg += f"; {quantity} hand-offs received: " + ", ".join(received)
        raise ValueError(msg)
    _check_sigma(sigma_km)
    field = DensityField.__new__(DensityField)
    field._setup(layout, p, q, sigma_km, stacklevel=3)
    return field
