"""Backward-forward sweep solver for the continuum feeder equations.

State along each segment: voltage angle theta, amplitude v, power-transfer
variable s and gradient w = dv/dx.  s and w obey terminal conditions (both
zero at every open end), v and theta are pinned at the bank, so one sweep
integrates s, w from the terminals toward the bank (summing both across
junctions) and then v, theta from the bank outward, and the pair is
iterated to a fixed point in v (the sweep of Shirmohammadi et al. 1988).

Segments are split at interior taps into edges with a uniform mesh each.
Every state lives in one flat buffer: edges are grouped into power-of-two
width buckets, key (cells - 1).bit_length(), each a (rows, widest + 1)
block whose rows hold an edge's node j and cell j at position j, so a row
ends in a pad cell.  A sweep makes one call per elementwise operation and
one cumsum per bucket whatever the number of edges, and one accumulate
per tree level for the junction values (s, w at each edge's far end, v,
theta at its start; see _level_table).  Pad cells of a cumsum's input
hold -0.0, the exact identity of IEEE addition, so every value is bit for
bit what a cumsum over the edge alone gives.  s does not depend on v and
theta does not feed back, so both are integrated once.
The partially linearized system is the nonlinear one with the v feedback
pinned at 1 (exact: 1.0**3 and x / 1.0 are exact), so it converges on the
second sweep.
Densities are sampled at cell midpoints in one call per solve: a gather, a
multiply and an ordered reduce per tier of the grid's kernel pair table
(see grid._Pairs).  The mesh depends only on the grid, the step and sigma,
so the grid keeps it and a repeated solve only samples and sweeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import DensityField, GridTree

__all__ = [
    "SolverSettings",
    "SegmentProfile",
    "VoltageProfile",
    "SolverError",
    "ConvergenceError",
    "VoltageCollapseError",
    "solve_nonlinear",
    "solve_linearized",
]

# A sweep that takes any voltage below this is in the collapse region.
COLLAPSE_FLOOR_PU = 0.5
# Sweeps stop at a voltage change <= TOL_V pu, or raise after MAX_SWEEPS.
TOL_V = 1e-9
MAX_SWEEPS = 100
# A mesh whose buffer (rows x (widest + 1) per width bucket) holds more
# positions than this is refused before it is allocated.
MAX_MESH_NODES = 4_000_000


class SolverError(Exception):
    """Base class for solve failures."""


class ConvergenceError(SolverError):
    def __init__(self, sweeps: int, last_change: float):
        super().__init__(
            f"sweep iteration did not settle: change {last_change:.3e} > tol {TOL_V:.3e} "
            f"after {sweeps} sweeps"
        )
        self.sweeps = sweeps
        self.last_change = last_change


class VoltageCollapseError(SolverError):
    def __init__(self, v_min: float):
        super().__init__(
            f"voltage collapse region: v dropped to {v_min:.4f} pu (floor {COLLAPSE_FLOOR_PU})"
        )
        self.v_min = v_min


@dataclass(frozen=True)
class SolverSettings:
    """Mesh step and bank angle; the sweep limits are TOL_V and MAX_SWEEPS.

    step_km=None meshes each segment with min(length/2000, sigma/2), where
    sigma is the width of the supplied density's kernels, so any feeder
    length resolves its kernels.  An explicit step_km must itself satisfy
    step <= sigma/2, which is enforced against the supplied field.  Either
    way the mesh buffer may hold at most MAX_MESH_NODES positions.
    Integration is the second-order midpoint rule.
    """

    step_km: float | None = None
    theta_bank_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.step_km is not None and not 0.0 < self.step_km < math.inf:
            raise ValueError(f"step_km must be positive and finite, got {self.step_km}")
        if not math.isfinite(self.theta_bank_rad):
            raise ValueError(f"theta_bank_rad must be finite, got {self.theta_bank_rad}")


@dataclass(frozen=True)
class SegmentProfile:
    """Sampled state along one declared segment, bank-near end first.

    x_km is cumulative arc length from the bank.  Where a child taps the
    segment interior, the sample at the tap appears twice: once with the
    far-side s, w and once with the bank-side values (v and theta agree).
    """

    segment_id: str
    x_km: np.ndarray
    theta_rad: np.ndarray
    v_pu: np.ndarray
    s: np.ndarray
    w: np.ndarray


@dataclass(frozen=True, eq=False)
class VoltageProfile:
    """A converged solve: every segment's samples, and how the sweep settled.

    The samples are five flat, read-only columns (x_km, theta_rad, v_pu, s,
    w): segments in declared order, each bank end first, segment_ids[k]
    ending at node_ends[k].  ``segments`` builds one SegmentProfile of
    views per segment on first read; the solver, the metrics and the
    writers build none.  compute_metrics sums by trapezoid_groups (see
    _trapezoid_groups).  A profile holds arrays, so it compares by identity
    and hashes as an object; compare two solves by their columns.
    """

    segment_ids: tuple[str, ...]
    node_ends: tuple[int, ...]
    x_km: np.ndarray
    theta_rad: np.ndarray
    v_pu: np.ndarray
    s: np.ndarray
    w: np.ndarray
    sweeps: int
    last_change: float
    terminal_v: tuple[tuple[str, float], ...]    # open-end voltage per leaf edge
    bank_residual: float
    terminal_s_max: float
    terminal_w_max: float
    junction_s_max: float
    junction_w_max: float
    junction_v_max: float
    trapezoid_groups: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    def __post_init__(self) -> None:
        for column in (self.x_km, self.theta_rad, self.v_pu, self.s, self.w):
            column.flags.writeable = False

    @cached_property
    def segments(self) -> tuple[SegmentProfile, ...]:
        columns = (self.x_km, self.theta_rad, self.v_pu, self.s, self.w)
        return tuple(SegmentProfile(seg_id, *(c[a:b] for c in columns))
                     for seg_id, a, b in zip(self.segment_ids, (0, *self.node_ends),
                                             self.node_ends))

    def by_segment(self, seg_id: str) -> SegmentProfile:
        for sp in self.segments:
            if sp.segment_id == seg_id:
                return sp
        raise KeyError(seg_id)

    def v_min(self) -> float:
        return float(self.v_pu.min())


def _trapezoid_groups(node_ends) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Segments ending at node_ends, grouped by their number n of trapezoid
    terms: per group, the segments' positions and the (segments, n) index
    of their terms in the np.diff of the flat columns."""
    starts = [0, *node_ends[:-1]]
    groups: dict[int, list[int]] = {}
    for k, (a, b) in enumerate(zip(starts, node_ends)):
        groups.setdefault(b - a - 1, []).append(k)
    first = np.array(starts)
    return tuple((np.array(rows), first[rows, None] + np.arange(n))
                 for n, rows in groups.items())


class _Mesh:
    """Edges in rows, segments in declared order and each segment's edges
    bank side first; kids[e] lists the rows fed from e's far end, the next
    edge of its segment first, then tapped segments in declared order;
    up and down are the junction passes' level tables (see _level_table).

    The buffer holds the width buckets in ascending order, each bucket's
    rows in declared order: blocks lists each bucket's (start, stop, span),
    row e runs from position first[e] to its far end last[e], and h_pos, g,
    b and z2 are per position.  Node states end in one more pad node, so
    that a node state's midpoints fill the buffer.

    A mesh depends only on the grid, step_km and sigma, so the grid keeps
    it (see _mesh) with what every solve reads off it: the density's sample
    runs and cell midpoints, the positions of the real cells and nodes,
    where each segment's nodes end in the flattened profile and their
    trapezoid groups, and the leaf rows (with their segments) and junction
    rows (with their children) that the residual diagnostics read.  Every
    edge's cell count is known before anything is allocated.  A mesh whose
    buffer holds more than MAX_MESH_NODES positions is refused, and so is
    one whose step exceeds sigma/2: a refused mesh is never cached.
    """

    def __init__(self, grid: GridTree, settings: SolverSettings, sigma_km: float):
        self.rows: dict[str, range] = {}
        x0, widths, ratios, line, kids, roots = [], [], [], [], [], []
        far_end: dict[str, dict[float, int]] = {}    # segment -> {far-end offset: row}
        for s in grid.segments:
            step = settings.step_km
            if step is None:
                step = min(s.length_km / 2000.0, sigma_km / 2.0)
            cuts = sorted({c.offset_km for c in grid.children_of(s.id) if c.offset_km < s.length_km})
            bounds = [0.0] + cuts + [s.length_km]
            start = grid.segment_start_km(s.id)
            first = len(x0)
            far_end[s.id] = {b: first + k for k, b in enumerate(bounds[1:])}
            for a, b in zip(bounds, bounds[1:]):
                x0.append(start + a)
                widths.append(start + b - x0[-1])
                ratios.append(widths[-1] / step)
                line.append((s.g_pu_per_km, s.b_pu_per_km, s.z2))
                kids.append([len(x0)])
            kids[-1] = []
            self.rows[s.id] = range(first, len(x0))
            if s.parent is None:
                roots.append(first)
        # every edge's cell count, and so the buffer, is known before anything is allocated
        nodes = math.inf    # a step so small that a cell count, or their sum, overflows
        if all(map(math.isfinite, ratios)):
            n = [max(2, math.ceil(r - 1e-12)) for r in ratios]
            bucket = [(k - 1).bit_length() for k in n]
            span = {b: max(k for k, c in zip(n, bucket) if c == b) + 1 for b in sorted(set(bucket))}
            nodes = sum(float(span[b]) for b in bucket)
        if nodes > MAX_MESH_NODES:
            what = (f"sigma={sigma_km} km" if settings.step_km is None
                    else f"step_km={settings.step_km}")
            raise ValueError(f"{what} needs a mesh of {nodes:.4g} nodes, "
                             f"more than MAX_MESH_NODES={MAX_MESH_NODES}")
        h = [w / k for w, k in zip(widths, n)]
        if max(h) > sigma_km / 2.0 + 1e-15:
            raise ValueError(
                f"mesh step {max(h)} km exceeds sigma/2={sigma_km / 2.0}: "
                "the density kernels would be under-resolved; lower step_km"
            )
        # attach each child segment's first edge where the parent was cut
        for s in grid.segments:
            for c in grid.children_of(s.id):
                kids[far_end[s.id][c.offset_km]].append(self.rows[c.id].start)
        # the junction passes' level tables (see _level_table): one row per chain
        # of edges, each continuing into the taller of its first two kids (the
        # walk's sums start (0.0 + k0) + k1, which is (0.0 + k1) + k0 as no
        # near-end value is -0.0), its other kids added in kids order;
        # height[e] is the up level of the chain from e on
        post = [e for s in grid.post_order() for e in reversed(self.rows[s.id])]
        height, onward, side = [0] * len(kids), {}, {}
        for e in post:    # kids first
            fed = kids[e]
            if fed:
                onward[e] = fed[1] if len(fed) > 1 and height[fed[1]] > height[fed[0]] else fed[0]
                side[e] = [c for c in fed if c != onward[e]]
                height[e] = max([height[onward[e]], *(height[c] + 1 for c in side[e])])
        taps = {c: e for e, fed in side.items() for c in fed}    # chain head: its feeder
        chains = {e: [e] for e in reversed(post) if e in taps or e in roots}    # feeders first
        for edges in chains.values():
            while edges[-1] in onward:
                edges.append(onward[edges[-1]])
        depth, up, down = {}, {}, {}
        for head, edges in reversed(chains.items()):
            up.setdefault(height[head], []).append([slot for e in reversed(edges) for slot in (
                *((c, False) for c in side.get(e, ())), (e, True))])
        for head, edges in chains.items():
            depth.update(dict.fromkeys(edges, depth[taps[head]] + 1 if head in taps else 0))
            down.setdefault(depth[head], []).append(
                [(taps.get(head, len(kids)), False), *((e, True) for e in edges)])
        self.up = [_level_table(up[k], True, len(n)) for k in sorted(up)]
        self.down = [_level_table(down[k], False, len(n)) for k in sorted(down)]
        self.roots, self.kids, self.n, self.h = roots, kids, n, np.array(h)
        # buckets in ascending width, each bucket's rows in declared order
        self.order = np.array(sorted(range(len(n)), key=bucket.__getitem__), dtype=np.intp)
        self.span = np.array([span[bucket[e]] for e in self.order])
        self.row_at = np.repeat(self.order, self.span)    # each position's row
        stops = np.cumsum([bucket.count(b) * w for b, w in span.items()]).tolist()
        self.blocks = list(zip([0, *stops[:-1]], stops, span.values()))
        self.first = np.empty(len(n), dtype=np.intp)
        self.first[self.order] = np.cumsum(self.span) - self.span
        self.last = self.first + n
        self.h_pos = self._spread(h)
        self.g, self.b, self.z2 = (self._spread(c) for c in zip(*line))
        col = np.arange(self.h_pos.size) - self._spread(self.first)    # position in the row
        self.pad = np.flatnonzero(col >= self._spread(n))
        rows = [np.arange(a, a + k + 1) for a, k in zip(self.first, n)]    # each row's nodes
        self.cells = np.concatenate([r[:-1] for r in rows])
        self.nodes = np.concatenate(rows)
        x = self._spread(x0) + self.h_pos * col
        self.x = x[self.nodes]
        # the density is sampled at cell midpoints, one run per segment
        ends = self._segment_ends(n)
        self.runs = [(seg_id, b - a) for seg_id, a, b in zip(self.rows, [0, *ends], ends)]
        self.x_mid = (x + 0.5 * self.h_pos)[self.cells]
        self.segment_ids = tuple(self.rows)
        self.node_ends = tuple(self._segment_ends([k + 1 for k in n]))
        self.trapezoid_groups = _trapezoid_groups(self.node_ends)
        # what the residual diagnostics read: the open-end rows with their
        # segments, the junction rows, and every (junction, child) pair in
        # kids order, with each child's first position
        seg_of = {e: seg_id for seg_id, rows in self.rows.items() for e in rows}
        leaves = [e for e, fed in enumerate(kids) if not fed]
        junctions = [e for e, fed in enumerate(kids) if fed]
        self.leaf_segs = [seg_of[e] for e in leaves]
        self.leaves = np.array(leaves, dtype=np.intp)
        self.junctions = np.array(junctions, dtype=np.intp)
        self.kid_parents = np.array([e for e in junctions for _ in kids[e]], dtype=np.intp)
        self.kid_starts = self.first[[c for e in junctions for c in kids[e]]]

    def _segment_ends(self, counts) -> list[int]:
        """Where each segment's entries end when each row has counts[row]."""
        return np.cumsum(counts)[[r.stop - 1 for r in self.rows.values()]].tolist()

    def _spread(self, per_row) -> np.ndarray:
        """A per-row value (declared rows) at every position of its row."""
        return np.asarray(per_row)[self.row_at]

    def _levels(self, tables, term: np.ndarray, seed: float) -> np.ndarray:
        """Each row's value before its term, level by level (see _level_table)."""
        vals = np.concatenate((term, term, [seed], term))    # terms, after, seed, before
        for shape, put, take, read, write in tables:
            flat = np.zeros(shape).ravel()
            flat[put] = vals[take]
            vals[write] = np.add.accumulate(flat.reshape(shape), axis=1).ravel()[read]
        return vals[-term.size:]

    def _cumsum(self, f: np.ndarray, step: int) -> np.ndarray:
        """Row-wise cumulative sums of f, one call per bucket; step -1 sums
        from each row's far end."""
        out = np.empty_like(f)
        for a, b, w in self.blocks:
            np.add.accumulate(f[a:b].reshape(-1, w)[:, ::step], axis=1,
                              out=out[a:b].reshape(-1, w)[:, ::step])
        return out

    def backward(self, f: np.ndarray) -> np.ndarray:
        """Integrate f (per cell) from every far end toward the bank; an
        edge's far-end value is the sum of its children's near-end values.
        Pad nodes repeat their row's far-end value."""
        f[self.pad] = -0.0
        rc = self._cumsum(f, -1)
        end = self._levels(self.up, -self.h * rc[self.first], 0.0)
        out = np.empty(f.size + 1)
        out[:-1] = self._spread(end) - self.h_pos * rc
        out[-1] = 0.0
        return out

    def forward(self, f: np.ndarray, at_bank: float, scale: bool) -> np.ndarray:
        """Integrate f (per cell, times h if scale) from the bank outward;
        an edge starts at its parent's far-end value.  Pad nodes repeat
        their row's far-end value, so whole-buffer min and max stay exact."""
        f[self.pad] = -0.0
        cs = self._cumsum(f, 1)
        total = cs[self.last]    # a pad cell adds -0.0 to the far end
        start = self._levels(self.down, self.h * total if scale else total, at_bank)
        out = np.empty(f.size + 1)
        out[1:] = self._spread(start) + (self.h_pos * cs if scale else cs)
        out[self.first] = start
        return out


def _level_table(rows, right: bool, n: int):
    """One level of _Mesh._levels over n rows from each chain's (row,
    is_term) entries, an input naming the row it follows (n: the seed): the
    block shape, each entry's flat position and place in vals, and each
    term's and its predecessor's.  Backward rows are right-aligned behind a
    +0.0 column (a sum from +0.0 is never -0.0, so pads add nothing), and
    forward rows left-aligned, so that a -0.0 seed stays -0.0."""
    width, put, take, read, write = max(map(len, rows)) + right, [], [], [], []
    for r, row in enumerate(rows):
        for k, (e, term) in enumerate(row, r * width + (width - len(row) if right else 0)):
            put.append(k)
            take.append(e if term else n + e)
            if term:
                read += [k - 1, k]
                write += [2 * n + 1 + e, n + e]
    return (len(rows), width), *(np.array(a, dtype=np.intp) for a in (put, take, read, write))


def _mid(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a[:-1] + a[1:])


def _mesh(grid: GridTree, settings: SolverSettings, sigma_km: float) -> _Mesh:
    """The grid's cached mesh for this step and sigma."""
    return grid._cached("mesh", (settings.step_km, sigma_km),
                        lambda: _Mesh(grid, settings, sigma_km))


def _sample_density(mesh: _Mesh, density: DensityField):
    """Sample every segment's density at the midpoints of all its edges'
    cells, one run per segment in a single call; pad cells stay 0."""
    p = np.zeros(mesh.h_pos.size)
    q = np.zeros_like(p)
    p[mesh.cells], q[mesh.cells] = density.sample(mesh.runs, mesh.x_mid)
    return p, q


def _solve(grid: GridTree, density: DensityField, settings: SolverSettings,
           nonlinear: bool) -> VoltageProfile:
    grid.validated()
    mesh = _mesh(grid, settings, density.sigma_km)
    p, q = _sample_density(mesh, density)
    gp_bq = mesh.g * p + mesh.b * q
    # a subnormal |z|^2 may drive the states to inf or NaN; the collapse
    # check below stops that sweep, so numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        s = mesh.backward((mesh.b * p - mesh.g * q) / mesh.z2)
        s_mid = _mid(s)
        s_mid2 = s_mid ** 2
        v = np.ones_like(s)
        v_mid = np.ones_like(s_mid)       # the linearized system's fixed feedback

        for sweeps in range(1, MAX_SWEEPS + 1):    # MAX_SWEEPS >= 1 sets both names
            if nonlinear:
                v_mid = _mid(v)
            w = mesh.backward(s_mid2 / v_mid ** 3 - gp_bq / (v_mid * mesh.z2))
            v_old, v = v, mesh.forward(_mid(w), 1.0, scale=True)
            v_min = float(v.min())
            if not v_min >= COLLAPSE_FLOOR_PU:    # a NaN state stops at its first sweep
                raise VoltageCollapseError(v_min)
            change = float(np.maximum.reduce(np.abs(v - v_old)))
            if change <= TOL_V:
                break
        else:
            raise ConvergenceError(MAX_SWEEPS, change)

    if nonlinear:
        v_mid = _mid(v)
    theta = mesh.forward(-mesh.h_pos * s_mid / v_mid ** 2, settings.theta_bank_rad, scale=False)
    return _assemble_profile(mesh, (theta, v, s, w), sweeps, change)


def _assemble_profile(mesh: _Mesh, states, sweeps: int, change: float) -> VoltageProfile:
    """The profile of the node states (theta, v, s, w); x is the mesh's."""
    columns = [a[mesh.nodes] for a in states]
    # conservation diagnostics straight off the converged buffers
    _, v, s, w = states
    v_end, s_end, w_end = (a[mesh.last] for a in (v, s, w))
    leaves, junctions = mesh.leaves, mesh.junctions
    parents, kids = mesh.kid_parents, mesh.kid_starts
    # each junction's children in kids order, added one by one to 0.0 as
    # sum() adds them
    fed = [np.bincount(parents, a[kids], len(mesh.n))[junctions] for a in (s, w)]
    return VoltageProfile(
        mesh.segment_ids, mesh.node_ends, mesh.x, *columns,
        sweeps=sweeps,
        last_change=change,
        terminal_v=tuple(zip(mesh.leaf_segs, v_end[leaves].tolist())),
        bank_residual=_worst(v[mesh.first[mesh.roots]] - 1.0),
        terminal_s_max=_worst(s_end[leaves]),
        terminal_w_max=_worst(w_end[leaves]),
        junction_s_max=_worst(s_end[junctions] - fed[0]),
        junction_w_max=_worst(w_end[junctions] - fed[1]),
        junction_v_max=_worst(v[kids] - v_end[parents]),
        trapezoid_groups=mesh.trapezoid_groups,
    )


def _worst(residuals: np.ndarray) -> float:
    """The largest magnitude, 0.0 when there is none (a grid without
    junctions)."""
    return float(np.maximum.reduce(np.abs(residuals), initial=0.0))


def solve_nonlinear(grid: GridTree, density: DensityField,
                    settings: SolverSettings | None = None) -> VoltageProfile:
    """Solve the full nonlinear system on a validated grid tree."""
    return _solve(grid, density, settings or SolverSettings(), nonlinear=True)


def solve_linearized(grid: GridTree, density: DensityField,
                     settings: SolverSettings | None = None) -> VoltageProfile:
    """Solve the partially linearized system; single straight feeder only."""
    if not grid.is_single_feeder():
        raise ValueError("linearized solve is defined for a single straight feeder")
    return _solve(grid, density, settings or SolverSettings(), nonlinear=False)
