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
from itertools import accumulate, chain

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
]

# Grid-code policy shared with the dispatch module: station active-power
# bounds are derated to 90% before any dispatch, and the admissible power
# factor is [0.9, 1].
EFFECTIVE_BOUND_FACTOR = 0.9
PF_FLOOR = 0.9

# Gaussian kernels are cut off here; the discarded tail mass is ~2e-9 of the
# device power, far below the 1e-6 quadrature tolerance.
KERNEL_CUTOFF_SIGMAS = 6.0

# DensityField.sample evaluates kernels this many devices at a time, which
# bounds its temporary arrays to about this many windows of samples, and
# fewer when the windows are wide: a block holds about DENSITY_BLOCK_PAIRS
# (device, sample) pairs on average, so that its arrays (96 KiB of float64)
# stay below the 128 KiB above which glibc's malloc maps fresh pages for
# every array, page faults that cost more than the kernels on a fine mesh.
DENSITY_BLOCK_DEVICES = 256
DENSITY_BLOCK_PAIRS = 12288


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

    Construction never raises on semantic problems; run validate_grid (or
    the ``validated`` helper) before handing a tree to the solver or the
    dispatch passes.  ``validated`` remembers a passing result on the
    instance; segments and devices are stored as tuples so that it cannot
    go stale.
    """

    base: PerUnitBase
    segments: tuple[FeederSegment, ...]
    devices: tuple[Device, ...] = ()
    _seg_by_id: dict = field(init=False, repr=False, compare=False)
    _start_km: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    _valid: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "_seg_by_id", {s.id: s for s in self.segments})
        # resolve cumulative start offsets; segments in a parent cycle or
        # with an unknown parent stay unresolved and are reported later
        start: dict[str, float] = {s.id: 0.0 for s in self.segments if s.parent is None}
        children: dict[str, list[FeederSegment]] = {s.id: [] for s in self.segments}
        for s in self.segments:
            if s.parent is not None and s.parent in children:
                children[s.parent].append(s)
        pending = [s for s in self.segments if s.parent is not None]
        while pending:
            progressed = False
            rest = []
            for s in pending:
                if s.parent in start:
                    start[s.id] = start[s.parent] + s.offset_km
                    progressed = True
                else:
                    rest.append(s)
            pending = rest
            if not progressed:
                break
        object.__setattr__(self, "_start_km", start)
        object.__setattr__(self, "_children", children)

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

    def is_single_feeder(self) -> bool:
        return len(self.segments) == 1 and self.segments[0].parent is None

    def devices_on(self, seg_id: str) -> tuple[Device, ...]:
        return tuple(d for d in self.devices if d.segment == seg_id)

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


class DensityField:
    """Per-segment coarse-grained p(x), q(x) built from point devices.

    Each device contributes a Gaussian of mass equal to its power, centred
    at its position and truncated at +-6 sigma.  Kernels never spill across
    junctions: a device's mass stays on its own segment, so positions closer
    than ~6 sigma to a segment end lose tail mass.

    Sampling costs O(devices x window), not O(devices x points): each device
    is evaluated only on the samples inside its own cut-off window.  One
    call can sample every segment of a tree, each segment's samples given
    as a run, with one sort and one kernel pass for all of them.
    """

    def __init__(self, grid: GridTree, station_power, sigma_km: float):
        if not (sigma_km > 0.0 and math.isfinite(sigma_km)):
            raise ValueError(f"sigma must be positive, got {sigma_km}")
        self.sigma_km = sigma_km
        cols: dict[str, tuple[list[float], list[float], list[float]]] = {}
        for d in grid.devices:
            if d.kind == "load":
                p, q = d.p_pu, d.q_pu
            elif station_power is not None and d.id in station_power:
                p, q = station_power[d.id]
            else:
                continue  # idle station
            if d.segment not in cols:
                cols[d.segment] = ([], [], [])
            xs, ps, qs = cols[d.segment]
            xs.append(d.xi_km)
            ps.append(p)
            qs.append(q)
        # one (centre, p, q) array for all active devices, grouped by segment
        # and in declaration order within each, and each segment's columns
        counts = [len(c[0]) for c in cols.values()]
        xpq = np.empty((3, sum(counts)))
        for k in range(3):
            xpq[k] = np.fromiter(chain.from_iterable(c[k] for c in cols.values()), float, xpq.shape[1])
        ends = list(accumulate(counts))
        self._xpq = xpq
        self._columns = {seg_id: slice(a, b) for seg_id, a, b in zip(cols, [0, *ends], ends)}
        for seg_id, (xs, _, _) in cols.items():
            xs.sort()
            gaps = [b - a for a, b in zip(xs, xs[1:])]
            if gaps and sigma_km > min(gaps) / 2.0:
                warnings.warn(
                    f"sigma={sigma_km} km exceeds half the minimum device spacing "
                    f"({min(gaps)} km) on segment {seg_id!r}: kernels overlap strongly",
                    stacklevel=3,
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
        n_run = np.array([n for _, n in runs], dtype=np.intp)
        if n_run.sum() != x.size:
            raise ValueError(f"runs cover {n_run.sum()} samples, x_km has {x.size}")
        p = np.zeros(x.shape)
        q = np.zeros(x.shape)
        columns = [self._columns.get(seg_id, slice(0, 0)) for seg_id, _ in runs]
        n_dev = np.array([c.stop - c.start for c in columns], dtype=np.intp)
        if x.size == 0 or not n_dev.any():
            return p, q
        # each run's devices, in declaration order
        centres, pw, qw = np.concatenate([self._xpq[:, c] for c in columns], axis=1)
        cut = KERNEL_CUTOFF_SIGMAS * self.sigma_km
        # On a tree the x ranges of segments overlap, so each run is shifted
        # by its own multiple of a power of two at least four times any
        # |centre| plus the cut-off.  Shifted, the samples within reach of
        # one run's kernels lie far from every other run's, so a window
        # holds only its own run's samples; a sample of another run that
        # still falls in one fails the |dx| <= cut test, which uses the
        # unshifted positions.
        reach = float(np.abs(centres).max()) + cut
        shift = 2.0 ** math.ceil(math.log2(4.0 * reach)) * np.arange(len(columns), dtype=float)
        x_flat, p_flat, q_flat = x.reshape(-1), p.reshape(-1), q.reshape(-1)
        keys = np.repeat(shift, n_run)
        keys += x_flat
        ckeys = centres + np.repeat(shift, n_dev)
        order = np.argsort(keys, kind="stable")
        two_var = 2.0 * self.sigma_km ** 2
        norm = 1.0 / math.sqrt(2.0 * math.pi * self.sigma_km ** 2)
        # windows are padded by a few ulps, so that rounding in the shift
        # and in xi +- cut cannot drop a sample (or a copy of a repeated
        # one) that the |dx| <= cut test below keeps
        pad = 8.0 * np.spacing(np.abs(ckeys) + 2.0 * cut)
        lo = np.searchsorted(keys, ckeys - cut - pad, side="left", sorter=order)
        hi = np.searchsorted(keys, ckeys + cut + pad, side="right", sorter=order)
        counts = hi - lo
        per_block = DENSITY_BLOCK_PAIRS * centres.size // max(int(counts.sum()), 1)
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
            dx = x_flat[idx] - centres[dev]
            keep = np.abs(dx) <= cut
            if not keep.all():    # only samples on or beyond a cut-off
                dev, dx, idx = dev[keep], dx[keep], idx[keep]
            kern = norm * np.exp(-dx ** 2 / two_var)
            np.add.at(p_flat, idx, pw[dev] * kern)
            np.add.at(q_flat, idx, qw[dev] * kern)
        return p, q


def power_density(grid: GridTree, plan=None, sigma_km: float = 0.05) -> DensityField:
    """Build the sampled density field for a validated grid.

    plan may be a DispatchPlan or any mapping station-id -> (p_pu, q_pu);
    None leaves every station idle.  Station values are checked against the
    derated active bounds and the power-factor cone before being accepted;
    the first offending station in declaration order is named.
    """
    station_power = None
    if plan is not None:
        station_power = plan.as_power_map() if hasattr(plan, "as_power_map") else dict(plan)
        placed = [d for d in grid.stations() if d.id in station_power]
        if placed:
            tol = 1e-12
            n = len(placed)
            p, q = np.fromiter(chain.from_iterable(station_power[d.id] for d in placed),
                               float, 2 * n).reshape(n, 2).T
            lo = EFFECTIVE_BOUND_FACTOR * np.fromiter((d.p_min_pu for d in placed), float, n)
            hi = EFFECTIVE_BOUND_FACTOR * np.fromiter((d.p_max_pu for d in placed), float, n)
            out_of_bounds = ~((lo - tol <= p) & (p <= hi + tol))
            pe = p / PF_FLOOR
            with np.errstate(over="ignore", invalid="ignore"):
                # the cone of dispatch.station_q_cap, elementwise
                outside_cone = np.abs(q) > np.sqrt(pe * pe - p * p) + tol
            bad = out_of_bounds | outside_cone
            if bad.any():
                k = int(np.argmax(bad))
                d = placed[k]
                p_k, q_k = station_power[d.id]
                if out_of_bounds[k]:
                    raise ValueError(
                        f"station {d.id!r}: p={p_k} outside effective bounds "
                        f"[{d.p_min_eff}, {d.p_max_eff}]"
                    )
                raise ValueError(f"station {d.id!r}: q={q_k} violates the power-factor cone")
    return DensityField(grid, station_power, sigma_km)
