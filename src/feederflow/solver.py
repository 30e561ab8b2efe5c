"""Backward-forward sweep solver for the continuum feeder equations.

State along each segment: voltage angle theta, amplitude v, power-transfer
variable s and gradient w = dv/dx.  s and w obey terminal conditions (both
zero at every open end), v and theta are pinned at the bank, so one sweep
integrates s, w from the terminals toward the bank (summing both across
junctions) and then v, theta from the bank outward, and the pair is
iterated to a fixed point in v (the sweep of Shirmohammadi et al. 1988).

Segments are split at interior taps into edges with a uniform mesh each.
Every state lives in one padded (edges, max_cells + 1) array, node j of an
edge in column j of its row, so a sweep is a fixed number of whole-array
operations whatever the number of edges: the midpoint rule's recurrences
are row-wise cumulative sums, and only the junction values (s, w at each
edge's far end, v, theta at its start) come from scalar loops over the
edges in post-order and pre-order.  Pad cells of a reversed cumsum's input
hold -0.0, the exact identity of IEEE addition, so every value is bit for
bit what a cumsum over the edge alone gives.  s does not depend on v and
theta does not feed back, so both are integrated once.  The partially
linearized system is the nonlinear one with the v feedback pinned at 1
(exact: 1.0**3 and x / 1.0 are exact), so it converges on the second sweep.
Densities are sampled at mesh nodes and midpoints, in one call per solve.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

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


class SolverError(Exception):
    """Base class for solve failures."""


class ConvergenceError(SolverError):
    def __init__(self, sweeps: int, last_change: float, tol: float):
        super().__init__(
            f"sweep iteration did not settle: change {last_change:.3e} > tol {tol:.3e} "
            f"after {sweeps} sweeps"
        )
        self.sweeps = sweeps
        self.last_change = last_change


class VoltageCollapseError(SolverError):
    def __init__(self, v_min: float, floor: float):
        super().__init__(
            f"voltage collapse region: v dropped to {v_min:.4f} pu (floor {floor})"
        )
        self.v_min = v_min


@dataclass(frozen=True)
class SolverSettings:
    """Mesh and iteration controls.

    step_km=None meshes each segment with min(length/2000, sigma/2), where
    sigma is the width of the supplied density's kernels (length/2000 when
    no density is given), so any feeder length resolves its kernels.  An
    explicit step_km must itself satisfy step <= sigma/2, which is enforced
    against the supplied field.  Integration is the second-order midpoint
    rule.
    """

    step_km: float | None = None
    tol_v: float = 1e-9
    max_sweeps: int = 100
    theta_bank_rad: float = 0.0
    collapse_floor_pu: float = 0.5

    def __post_init__(self) -> None:
        if self.step_km is not None and not self.step_km > 0.0:
            raise ValueError(f"step_km must be positive, got {self.step_km}")
        if not self.tol_v > 0.0:
            raise ValueError("tol_v must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


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


@dataclass(frozen=True)
class VoltageProfile:
    segments: tuple[SegmentProfile, ...]
    sweeps: int
    last_change: float
    terminal_v: tuple[tuple[str, float], ...]    # open-end voltage per leaf edge
    bank_residual: float
    terminal_s_max: float
    terminal_w_max: float
    junction_s_max: float
    junction_w_max: float
    junction_v_max: float

    def by_segment(self, seg_id: str) -> SegmentProfile:
        for sp in self.segments:
            if sp.segment_id == seg_id:
                return sp
        raise KeyError(seg_id)

    def v_min(self) -> float:
        return min(float(sp.v_pu.min()) for sp in self.segments)


class _Mesh:
    """Edges in rows, segments in declared order and each segment's edges
    bank side first; kids[e] lists the rows fed from e's far end, the next
    edge of its segment first, then tapped segments in declared order."""

    def __init__(self, grid: GridTree, settings: SolverSettings, sigma_km: float | None):
        taps: dict[str, list[float]] = {s.id: [] for s in grid.segments}
        for s in grid.segments:
            if s.parent is not None:
                taps[s.parent].append(s.offset_km)
        self.rows: dict[str, range] = {}
        x0, x1, n, h, line, kids, roots = [], [], [], [], [], [], []
        for s in grid.segments:
            step = settings.step_km
            if step is None:
                step = s.length_km / 2000.0
                if sigma_km is not None:
                    step = min(step, sigma_km / 2.0)
            cuts = sorted({off for off in taps[s.id] if 0.0 < off < s.length_km})
            bounds = [0.0] + cuts + [s.length_km]
            start = grid.segment_start_km(s.id)
            first = len(n)
            for a, b in zip(bounds, bounds[1:]):
                x0.append(start + a)
                x1.append(start + b)
                n.append(max(2, math.ceil((x1[-1] - x0[-1]) / step - 1e-12)))
                h.append((x1[-1] - x0[-1]) / n[-1])
                line.append((s.g_pu_per_km, s.b_pu_per_km, s.z2))
                kids.append([len(n)])
            kids[-1] = []
            self.rows[s.id] = range(first, len(n))
            if s.parent is None:
                roots.append(first)
        # attach each child segment's first edge at the right point of the parent
        for s in grid.segments:
            if s.parent is None:
                continue
            x_att = grid.segment_start_km(s.parent) + s.offset_km
            rows = self.rows[s.parent]
            # far ends rise along a segment: skip those well short of x_att
            near = bisect.bisect_left(x1, x_att - 2e-12, rows.start, rows.stop)
            host = next((e for e in range(near, rows.stop) if abs(x1[e] - x_att) < 1e-12), None)
            if host is None:
                raise ValueError(
                    f"segment {s.id!r}: attachment at {x_att} km does not match a junction"
                )
            kids[host].append(self.rows[s.id].start)
        # post-order, children strictly before parents
        self.post: list[int] = []
        stack = [(r, False) for r in reversed(roots)]
        while stack:
            e, done = stack.pop()
            if done:
                self.post.append(e)
            else:
                stack.append((e, True))
                stack.extend((c, False) for c in reversed(kids[e]))
        self.roots, self.kids, self.n, self.h = roots, kids, n, h
        self.cells = max(n)
        self.last = (np.arange(len(n)), np.array(n))    # the far-end node of each row
        cols = np.arange(self.cells)
        self.pad = np.flatnonzero(cols >= self.last[1][:, None])
        self.h_col = np.array(h)[:, None]
        self.g, self.b, self.z2 = (c[:, None] for c in np.array(line).T)
        self.x = np.array(x0)[:, None] + self.h_col * np.arange(self.cells + 1)

    def segment_ends(self, valid: np.ndarray) -> list[int]:
        """Where each segment's entries end in the row-major flattening of
        the True cells of valid."""
        return np.cumsum(valid.sum(axis=1))[[r.stop - 1 for r in self.rows.values()]].tolist()

    def backward(self, f: np.ndarray) -> np.ndarray:
        """Integrate f (per cell) from every far end toward the bank; an
        edge's far-end value is the sum of its children's near-end values."""
        f.reshape(-1)[self.pad] = -0.0
        rc = np.cumsum(f[:, ::-1], axis=1)[:, ::-1]
        total = rc[:, 0].tolist()
        end = [0.0] * len(total)
        near = [0.0] * len(total)
        for e in self.post:
            acc = 0.0
            for c in self.kids[e]:
                acc += near[c]
            end[e] = acc
            near[e] = acc - self.h[e] * total[e]
        out = np.empty((len(end), self.cells + 1))
        out[:, :-1] = np.array(end)[:, None] - self.h_col * rc
        out[:, -1] = end    # a pad node on all but the longest rows: keep it finite
        out[self.last] = end
        return out

    def forward(self, f: np.ndarray, at_bank: float, scale: bool) -> np.ndarray:
        """Integrate f (per cell, times h if scale) from the bank outward;
        an edge starts at its parent's far-end value.  Pad nodes repeat
        their row's far-end value, so whole-array min and max stay exact."""
        f.reshape(-1)[self.pad] = -0.0
        cs = np.cumsum(f, axis=1)
        total = cs[self.last[0], self.last[1] - 1].tolist()
        h = self.h if scale else [1.0] * len(total)
        start = [at_bank] * len(total)
        for e in reversed(self.post):
            end = start[e] + h[e] * total[e]
            for c in self.kids[e]:
                start[c] = end
        out = np.empty((len(start), self.cells + 1))
        out[:, 0] = start
        out[:, 1:] = np.array(start)[:, None] + (self.h_col * cs if scale else cs)
        return out


def _mid(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a[:, :-1] + a[:, 1:])


def _sample_density(mesh: _Mesh, density: DensityField | None):
    """Sample every segment's density in a single call, at the nodes and
    midpoints of all its edges interleaved, one run per segment; return
    (p, q) at the midpoints."""
    p = np.zeros((len(mesh.n), 2 * mesh.cells + 1))
    q = np.zeros_like(p)
    if density is not None:
        x = np.empty_like(p)
        x[:, 0::2] = mesh.x
        x[:, 1::2] = mesh.x[:, :-1] + 0.5 * mesh.h_col
        valid = np.arange(x.shape[1]) <= 2 * mesh.last[1][:, None]
        ends = mesh.segment_ends(valid)
        runs = [(seg_id, b - a) for seg_id, a, b in zip(mesh.rows, [0, *ends], ends)]
        p[valid], q[valid] = density.sample(runs, x[valid])
    return p[:, 1::2], q[:, 1::2]


def _solve(grid: GridTree, density: DensityField | None, settings: SolverSettings,
           nonlinear: bool) -> VoltageProfile:
    grid.validated()
    sigma_km = density.sigma_km if density is not None else None
    mesh = _Mesh(grid, settings, sigma_km)
    if sigma_km is not None:
        coarsest = max(mesh.h)
        if coarsest > sigma_km / 2.0 + 1e-15:
            raise ValueError(
                f"mesh step {coarsest} km exceeds sigma/2={sigma_km / 2.0}: "
                "the density kernels would be under-resolved; lower step_km"
            )
    p, q = _sample_density(mesh, density)
    gp_bq = mesh.g * p + mesh.b * q
    s = mesh.backward((mesh.b * p - mesh.g * q) / mesh.z2)
    s_mid = _mid(s)
    s_mid2 = s_mid ** 2
    v = np.ones_like(s)
    v_mid = np.ones_like(s_mid)       # the linearized system's fixed feedback

    sweeps = 0
    change = np.inf
    for sweeps in range(1, settings.max_sweeps + 1):
        if nonlinear:
            v_mid = _mid(v)
        w = mesh.backward(s_mid2 / v_mid ** 3 - gp_bq / (v_mid * mesh.z2))
        v_old, v = v, mesh.forward(_mid(w), 1.0, scale=True)
        v_min = float(v.min())
        if v_min < settings.collapse_floor_pu:
            raise VoltageCollapseError(v_min, settings.collapse_floor_pu)
        change = float(np.max(np.abs(v - v_old)))
        if change <= settings.tol_v:
            break
    else:
        raise ConvergenceError(settings.max_sweeps, change, settings.tol_v)

    if nonlinear:
        v_mid = _mid(v)
    theta = mesh.forward(-mesh.h_col * s_mid / v_mid ** 2, settings.theta_bank_rad, scale=False)
    return _assemble_profile(mesh, (mesh.x, theta, v, s, w), sweeps, change)


def _assemble_profile(mesh: _Mesh, states, sweeps: int, change: float) -> VoltageProfile:
    valid = np.arange(mesh.cells + 1) <= mesh.last[1][:, None]
    ends = mesh.segment_ends(valid)
    flat = [a[valid] for a in states]
    seg_profiles = [SegmentProfile(seg_id, *(f[a:b] for f in flat))
                    for seg_id, a, b in zip(mesh.rows, [0, *ends], ends)]
    # conservation diagnostics straight off the converged arrays
    _, _, v, s, w = states
    v_end, s_end, w_end = (a[mesh.last].tolist() for a in (v, s, w))
    v0, s0, w0 = (a[:, 0].tolist() for a in (v, s, w))
    seg_of = {e: seg_id for seg_id, rows in mesh.rows.items() for e in rows}
    terminal_v = []
    term_s = term_w = junc_s = junc_w = junc_v = 0.0
    for e, kids in enumerate(mesh.kids):
        if not kids:
            terminal_v.append((seg_of[e], v_end[e]))
            term_s = max(term_s, abs(s_end[e]))
            term_w = max(term_w, abs(w_end[e]))
        else:
            junc_s = max(junc_s, abs(s_end[e] - sum(s0[c] for c in kids)))
            junc_w = max(junc_w, abs(w_end[e] - sum(w0[c] for c in kids)))
            junc_v = max(junc_v, max(abs(v0[c] - v_end[e]) for c in kids))
    bank_residual = max(abs(v0[r] - 1.0) for r in mesh.roots)
    return VoltageProfile(
        segments=tuple(seg_profiles),
        sweeps=sweeps,
        last_change=change,
        terminal_v=tuple(terminal_v),
        bank_residual=bank_residual,
        terminal_s_max=term_s,
        terminal_w_max=term_w,
        junction_s_max=junc_s,
        junction_w_max=junc_w,
        junction_v_max=junc_v,
    )


def solve_nonlinear(grid: GridTree, density: DensityField | None = None,
                    settings: SolverSettings | None = None) -> VoltageProfile:
    """Solve the full nonlinear system on a validated grid tree."""
    return _solve(grid, density, settings or SolverSettings(), nonlinear=True)


def solve_linearized(grid: GridTree, density: DensityField | None = None,
                     settings: SolverSettings | None = None) -> VoltageProfile:
    """Solve the partially linearized system; single straight feeder only."""
    if not grid.is_single_feeder():
        raise ValueError("linearized solve is defined for a single straight feeder")
    return _solve(grid, density, settings or SolverSettings(), nonlinear=False)
