"""Backward-forward sweep solver for the continuum feeder equations.

State along each segment: voltage angle theta, amplitude v, power-transfer
variable s and gradient w = dv/dx.  s and w obey terminal conditions (both
zero at every open end), v and theta are pinned at the bank, so one sweep
integrates s, w from the terminals toward the bank (summing both across
junctions) and then v, theta from the bank outward, and the pair is
iterated to a fixed point in v.  The partially linearized system has no v
feedback, so it converges on the second sweep by construction.

Integration is the explicit second-order midpoint rule on a uniform mesh
per segment; densities are pre-sampled at mesh nodes and midpoints, in one
call per segment.  All
recurrences reduce to cumulative sums, so sweeps are plain vector ops.
"""
from __future__ import annotations

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
    against the supplied field.  scheme_order may be 1 (Euler) or 2
    (midpoint, default).
    """

    step_km: float | None = None
    tol_v: float = 1e-9
    max_sweeps: int = 100
    scheme_order: int = 2
    theta_bank_rad: float = 0.0
    collapse_floor_pu: float = 0.5

    def __post_init__(self) -> None:
        if self.step_km is not None and not self.step_km > 0.0:
            raise ValueError(f"step_km must be positive, got {self.step_km}")
        if not self.tol_v > 0.0:
            raise ValueError("tol_v must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.scheme_order not in (1, 2):
            raise ValueError(f"scheme_order must be 1 or 2, got {self.scheme_order}")


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


class _Edge:
    """Uniform-mesh integration cell chain between two junction points."""

    __slots__ = (
        "seg_id", "x0", "x1", "g", "b", "z2", "n", "h",
        "x_nodes", "p_nodes", "q_nodes", "p_mids", "q_mids",
        "children", "v", "theta", "s", "w",
    )

    def __init__(self, seg, x0: float, x1: float, step: float):
        self.seg_id = seg.id
        self.x0, self.x1 = x0, x1
        self.g, self.b, self.z2 = seg.g_pu_per_km, seg.b_pu_per_km, seg.z2
        length = x1 - x0
        self.n = max(2, int(np.ceil(length / step - 1e-12)))
        self.h = length / self.n
        self.x_nodes = x0 + self.h * np.arange(self.n + 1)
        self.children: list[_Edge] = []
        self.v = np.ones(self.n + 1)
        self.theta = np.zeros(self.n + 1)
        self.s = np.zeros(self.n + 1)
        self.w = np.zeros(self.n + 1)


def _sample_density(chain: list[_Edge], density: DensityField | None) -> None:
    """Sample one segment's density in a single call, at the nodes and
    midpoints of all its edges interleaved, and hand each edge its share."""
    pts = []
    for e in chain:
        x = np.empty(2 * e.n + 1)
        x[0::2] = e.x_nodes
        x[1::2] = e.x_nodes[:-1] + 0.5 * e.h
        pts.append(x)
    if density is None:
        p = q = np.zeros(sum(len(x) for x in pts))
    else:
        p, q = density.sample(chain[0].seg_id, np.concatenate(pts))
    k = 0
    for e, x in zip(chain, pts):
        pe, qe = p[k:k + len(x)], q[k:k + len(x)]
        e.p_nodes, e.q_nodes = pe[0::2].copy(), qe[0::2].copy()
        e.p_mids, e.q_mids = pe[1::2].copy(), qe[1::2].copy()
        k += len(x)


def _rev_cumsum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a[::-1])[::-1]


def _build_edges(grid: GridTree, settings: SolverSettings, sigma_km: float | None):
    """Split segments at interior taps and wire up the junction tree."""
    edges: list[_Edge] = []
    by_segment: dict[str, list[_Edge]] = {}
    roots: list[_Edge] = []
    # child attachment offsets per segment, local coordinates
    taps: dict[str, list[float]] = {}
    for s in grid.segments:
        taps[s.id] = []
    for s in grid.segments:
        if s.parent is not None:
            taps[s.parent].append(s.offset_km)
    for s in grid.segments:
        step = settings.step_km
        if step is None:
            step = s.length_km / 2000.0
            if sigma_km is not None:
                step = min(step, sigma_km / 2.0)
        cuts = sorted({off for off in taps[s.id] if 0.0 < off < s.length_km})
        bounds = [0.0] + cuts + [s.length_km]
        start = grid.segment_start_km(s.id)
        chain = [
            _Edge(s, start + a, start + b, step)
            for a, b in zip(bounds, bounds[1:])
        ]
        for prev, nxt in zip(chain, chain[1:]):
            prev.children.append(nxt)
        by_segment[s.id] = chain
        edges.extend(chain)
        if s.parent is None:
            roots.append(chain[0])
    # attach each child segment's first edge at the right point of the parent
    for s in grid.segments:
        if s.parent is None:
            continue
        parent_chain = by_segment[s.parent]
        x_att = grid.segment_start_km(s.parent) + s.offset_km
        host = None
        for e in parent_chain:
            if abs(e.x1 - x_att) < 1e-12:
                host = e
                break
        if host is None:
            raise ValueError(
                f"segment {s.id!r}: attachment at {x_att} km does not match a junction"
            )
        host.children.append(by_segment[s.id][0])
    # post-order: children strictly before parents
    post: list[_Edge] = []
    def visit(e: _Edge) -> None:
        for c in e.children:
            visit(c)
        post.append(e)
    for r in roots:
        visit(r)
    return edges, by_segment, roots, post


def _solve(grid: GridTree, density: DensityField | None, settings: SolverSettings,
           nonlinear: bool) -> VoltageProfile:
    grid.validated()
    sigma_km = density.sigma_km if density is not None else None
    edges, by_segment, roots, post = _build_edges(grid, settings, sigma_km)
    if sigma_km is not None:
        coarsest = max(e.h for e in edges)
        if coarsest > sigma_km / 2.0 + 1e-15:
            raise ValueError(
                f"mesh step {coarsest} km exceeds sigma/2={sigma_km / 2.0}: "
                "the density kernels would be under-resolved; lower step_km"
            )
    for chain in by_segment.values():
        _sample_density(chain, density)

    sweeps = 0
    change = np.inf
    for sweeps in range(1, settings.max_sweeps + 1):
        v_old = [e.v for e in edges]
        # terminal-to-bank: s then w, junction values are sums over children
        for e in post:
            s_end = 0.0
            w_end = 0.0
            for c in e.children:
                s_end += c.s[0]
                w_end += c.w[0]
            h, z2 = e.h, e.z2
            if settings.scheme_order == 2:
                fs = (e.b * e.p_mids - e.g * e.q_mids) / z2
                s = np.empty(e.n + 1)
                s[-1] = s_end
                s[:-1] = s_end - h * _rev_cumsum(fs)
                s_mid = 0.5 * (s[:-1] + s[1:])
                v_mid = 0.5 * (e.v[:-1] + e.v[1:])
                if nonlinear:
                    fw = s_mid ** 2 / v_mid ** 3 - (e.g * e.p_mids + e.b * e.q_mids) / (v_mid * z2)
                else:
                    fw = s_mid ** 2 - (e.g * e.p_mids + e.b * e.q_mids) / z2
            else:
                fs = (e.b * e.p_nodes[1:] - e.g * e.q_nodes[1:]) / z2
                s = np.empty(e.n + 1)
                s[-1] = s_end
                s[:-1] = s_end - h * _rev_cumsum(fs)
                sr, vr = s[1:], e.v[1:]
                if nonlinear:
                    fw = sr ** 2 / vr ** 3 - (e.g * e.p_nodes[1:] + e.b * e.q_nodes[1:]) / (vr * z2)
                else:
                    fw = sr ** 2 - (e.g * e.p_nodes[1:] + e.b * e.q_nodes[1:]) / z2
            w = np.empty(e.n + 1)
            w[-1] = w_end
            w[:-1] = w_end - h * _rev_cumsum(fw)
            e.s, e.w = s, w
        # bank-to-terminal: v then theta, continuity across junctions
        stack = [(r, 1.0, settings.theta_bank_rad) for r in roots]
        while stack:
            e, v0, th0 = stack.pop()
            h = e.h
            v = np.empty(e.n + 1)
            v[0] = v0
            if settings.scheme_order == 2:
                v[1:] = v0 + h * np.cumsum(0.5 * (e.w[:-1] + e.w[1:]))
                s_mid = 0.5 * (e.s[:-1] + e.s[1:])
                v_mid = 0.5 * (v[:-1] + v[1:])
                dth = -h * s_mid / v_mid ** 2 if nonlinear else -h * s_mid
            else:
                v[1:] = v0 + h * np.cumsum(e.w[:-1])
                dth = -h * e.s[:-1] / v[:-1] ** 2 if nonlinear else -h * e.s[:-1]
            th = np.empty(e.n + 1)
            th[0] = th0
            th[1:] = th0 + np.cumsum(dth)
            e.v, e.theta = v, th
            for c in e.children:
                stack.append((c, v[-1], th[-1]))
        v_min = min(float(e.v.min()) for e in edges)
        if v_min < settings.collapse_floor_pu:
            raise VoltageCollapseError(v_min, settings.collapse_floor_pu)
        change = max(float(np.max(np.abs(e.v - vo))) for e, vo in zip(edges, v_old))
        if change <= settings.tol_v:
            break
    else:
        raise ConvergenceError(settings.max_sweeps, change, settings.tol_v)

    return _assemble_profile(grid, by_segment, sweeps, change)


def _assemble_profile(grid: GridTree, by_segment, sweeps: int, change: float) -> VoltageProfile:
    seg_profiles = []
    terminal_v = []
    term_s = 0.0
    term_w = 0.0
    junc_s = 0.0
    junc_w = 0.0
    junc_v = 0.0
    for s in grid.segments:
        chain = by_segment[s.id]
        xs = np.concatenate([e.x_nodes for e in chain])
        th = np.concatenate([e.theta for e in chain])
        v = np.concatenate([e.v for e in chain])
        sv = np.concatenate([e.s for e in chain])
        wv = np.concatenate([e.w for e in chain])
        seg_profiles.append(SegmentProfile(s.id, xs, th, v, sv, wv))
    # conservation diagnostics straight off the converged arrays
    all_edges = [e for s in grid.segments for e in by_segment[s.id]]
    for e in all_edges:
        if not e.children:
            terminal_v.append((e.seg_id, float(e.v[-1])))
            term_s = max(term_s, abs(float(e.s[-1])))
            term_w = max(term_w, abs(float(e.w[-1])))
        else:
            junc_s = max(junc_s, abs(float(e.s[-1]) - sum(float(c.s[0]) for c in e.children)))
            junc_w = max(junc_w, abs(float(e.w[-1]) - sum(float(c.w[0]) for c in e.children)))
            junc_v = max(junc_v, max(abs(float(c.v[0]) - float(e.v[-1])) for c in e.children))
    root_edges = [by_segment[s.id][0] for s in grid.segments if s.parent is None]
    bank_residual = max(abs(float(e.v[0]) - 1.0) for e in root_edges)
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
