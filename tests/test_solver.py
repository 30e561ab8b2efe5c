import dataclasses
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feederflow.solver
from feederflow import (
    FEEDER_TREE_PREF,
    SINGLE_FEEDER_PREF,
    ConvergenceError,
    DensityField,
    Device,
    FeederSegment,
    GridTree,
    PerUnitBase,
    PointInjectionSet,
    SolverSettings,
    VoltageCollapseError,
    injections_from_grid,
    load_feeder_tree,
    load_single_feeder,
    power_density,
    solve_linearized,
    solve_nonlinear,
    synthesize,
    synthesize_tree,
    uniform_baseline,
)
from feederflow.grid import KERNEL_CUTOFF_SIGMAS


def make_single(devices, length=5.0, g=3.881, b=6.856):
    return GridTree(
        PerUnitBase(12.0e6, 6600.0),
        (FeederSegment("main", length, g, b),),
        tuple(devices),
    )


def single_injection_grid():
    return make_single([Device("load", "main", 4.5, "l0", p_pu=-0.06)])


def test_zero_density_fixed_point_in_one_sweep():
    grid = make_single([])
    prof = solve_nonlinear(grid, power_density(grid, None))
    assert prof.sweeps == 1
    seg = prof.segments[0]
    assert np.all(seg.v_pu == 1.0)
    assert np.all(seg.theta_rad == 0.0)
    assert np.all(seg.s == 0.0)
    assert np.all(seg.w == 0.0)
    assert prof.bank_residual == 0.0
    assert prof.terminal_s_max == 0.0 and prof.terminal_w_max == 0.0


def test_linearized_converges_in_exactly_two_sweeps(single_feeder):
    density = power_density(single_feeder, None)
    prof = solve_linearized(single_feeder, density)
    assert prof.sweeps == 2


def test_nonlinear_matches_closed_form_at_injection():
    grid = single_injection_grid()
    prof = solve_nonlinear(grid, power_density(grid, None))
    seg = prof.segments[0]
    k = int(np.argmin(np.abs(seg.x_km - 4.5)))
    assert seg.x_km[k] == 4.5
    assert abs(seg.v_pu[k] - 0.9827) < 1e-3


def test_boundary_conditions_hold_exactly(single_feeder):
    density = power_density(single_feeder, None)
    prof = solve_nonlinear(single_feeder, density)
    assert prof.bank_residual == 0.0
    assert prof.terminal_s_max == 0.0
    assert prof.terminal_w_max == 0.0
    seg = prof.segments[0]
    assert seg.v_pu[0] == 1.0 and seg.theta_rad[0] == 0.0
    assert seg.s[-1] == 0.0 and seg.w[-1] == 0.0


def test_junction_conservation_exact_on_tree(feeder_tree):
    density = power_density(feeder_tree, None)
    prof = solve_nonlinear(feeder_tree, density)
    assert prof.junction_s_max == 0.0
    assert prof.junction_w_max == 0.0
    assert prof.junction_v_max == 0.0
    # child profiles start exactly where the parent hands over
    fdrA = prof.by_segment("fdrA")
    fdrA1 = prof.by_segment("fdrA1")
    k = int(np.argmin(np.abs(fdrA.x_km - 3.0)))
    assert fdrA.x_km[k] == 3.0
    assert fdrA1.x_km[0] == 3.0
    assert fdrA1.v_pu[0] == fdrA.v_pu[k]


def test_theta_fully_decoupled(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    density = power_density(single_feeder, plan)
    a = solve_nonlinear(single_feeder, density)
    b = solve_nonlinear(single_feeder, density, SolverSettings(theta_bank_rad=0.7))
    sa, sb = a.segments[0], b.segments[0]
    assert np.array_equal(sa.v_pu, sb.v_pu)
    assert np.array_equal(sa.s, sb.s)
    assert np.array_equal(sa.w, sb.w)
    assert sb.theta_rad[0] == 0.7
    np.testing.assert_allclose(sb.theta_rad - sa.theta_rad, 0.7, rtol=0, atol=1e-12)


def test_convergence_error_reports_progress(single_feeder, monkeypatch):
    plan = synthesize(single_feeder, 0.1)
    density = power_density(single_feeder, plan)
    monkeypatch.setattr(feederflow.solver, "MAX_SWEEPS", 2)
    with pytest.raises(ConvergenceError) as exc:
        solve_nonlinear(single_feeder, density)
    assert exc.value.sweeps == 2
    assert exc.value.last_change > 1e-9


def test_voltage_collapse_detected():
    grid = make_single([Device("load", "main", 4.5, "l0", p_pu=-5.0)])
    with pytest.raises(VoltageCollapseError) as exc:
        solve_nonlinear(grid, power_density(grid, None))
    assert exc.value.v_min < 0.5


def test_a_nan_state_collapses_at_the_first_sweep(monkeypatch):
    # a NaN v fails every comparison: the collapse test is written so that
    # it stops the solve instead of 100 NaN sweeps and a ConvergenceError
    class NanDensity:
        sigma_km = 0.05

        def sample(self, runs, x_km):
            return np.full(x_km.shape, np.nan), np.zeros(x_km.shape)

    sweeps = []
    forward = feederflow.solver._Mesh.forward    # v's pass, once per sweep
    monkeypatch.setattr(feederflow.solver._Mesh, "forward",
                        lambda mesh, *args, **kw: sweeps.append(1) or forward(mesh, *args, **kw))
    with pytest.raises(VoltageCollapseError) as exc:
        solve_nonlinear(single_injection_grid(), NanDensity())
    assert math.isnan(exc.value.v_min)
    assert len(sweeps) == 1


def test_a_solve_leaves_nothing_behind(feeder_tree):
    # each solve sweeps in buffers of its own: solving plan A, then B, then A
    # again on one grid gives A's bits both times, and B's solve leaves A's
    # first profile as it was
    plan_a = uniform_baseline(feeder_tree, FEEDER_TREE_PREF)
    plan_b = synthesize_tree(feeder_tree, 2.0 * FEEDER_TREE_PREF, "principle")

    def bits(profile):
        columns = (profile.x_km, profile.theta_rad, profile.v_pu, profile.s, profile.w)
        return b"".join(c.tobytes() for c in columns), profile.sweeps, profile.last_change

    first = solve_nonlinear(feeder_tree, power_density(feeder_tree, plan_a))
    before = bits(first)
    other = solve_nonlinear(feeder_tree, power_density(feeder_tree, plan_b))
    again = solve_nonlinear(feeder_tree, power_density(feeder_tree, plan_a))
    assert bits(other)[0] != before[0]
    assert bits(first) == bits(again) == before


@pytest.mark.filterwarnings("ignore:sigma=")
def test_threads_sharing_one_grid_get_the_serial_profiles():
    # 200 stations and 200 loads, 12.5 m apart on a 6 km feeder: each solve
    # replays the same cached kernel pairs, and 4 threads solving at once
    # get every plan's serial bits
    grid = make_single([Device("station", "main", 0.0125 * k, f"s{k}", p_min_pu=-0.01,
                               p_max_pu=0.01) if k % 2 else
                        Device("load", "main", 0.0125 * k, f"l{k}", p_pu=-2e-4 * (1 + k % 7),
                               q_pu=-1e-4 * (k % 5)) for k in range(1, 401)], length=6.0)
    plans = [synthesize(grid, 0.3, "literal"), synthesize(grid, -0.5, "principle"),
             uniform_baseline(grid, 0.8), synthesize(grid, 1.2, "principle")]

    def solve(plan):
        return solve_nonlinear(grid, power_density(grid, plan)).v_pu.tobytes()

    serial = [solve(plan) for plan in plans]
    assert len(set(serial)) == len(plans)

    def worker(t):
        return [(k % len(plans), solve(plans[k % len(plans)])) for k in range(t, t + 15)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)    # switch threads often, inside each replay too
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [got for batch in pool.map(worker, range(4), timeout=60) for got in batch]
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 60
    assert [k for k, v_pu in runs if v_pu != serial[k]] == []
    (pairs,) = grid._cache["pairs"].values()
    assert not any(a.flags.writeable for a in (pairs.cols, pairs.kern, pairs.where))


def _freeze(value, seen) -> None:
    """Make every array that value holds read-only."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item, seen)
    if hasattr(value, "__dict__"):
        _freeze(vars(value), seen)


@pytest.mark.parametrize("load, pref", [(load_single_feeder, SINGLE_FEEDER_PREF),
                                         (load_feeder_tree, FEEDER_TREE_PREF)])
def test_no_request_writes_into_the_grid_cache(load, pref):
    # each call owns what it writes: with every array the grid has cached
    # made read-only, the same requests give the same bits
    grid = load()

    def requests():
        out = []
        for mode in ("literal", "principle"):
            plan = synthesize_tree(grid, 1.5 * pref, mode)
            out.append(solve_nonlinear(grid, power_density(grid, plan)))
        plan = uniform_baseline(grid, pref)
        out.append(solve_nonlinear(grid, DensityField(grid, plan, 0.05)))
        if grid.is_single_feeder():
            out.append(solve_linearized(grid, power_density(grid, plan)))
            out.append(injections_from_grid(grid, plan))
        return [repr(v.injections) if isinstance(v, PointInjectionSet) else
                (v.sweeps, v.x_km.tobytes(), v.v_pu.tobytes(), v.s.tobytes()) for v in out]

    first = requests()
    _freeze(grid._cache, set())
    assert requests() == first


def test_solve_refuses_a_grid_with_no_segments():
    grid = GridTree(PerUnitBase(1.0, 1.0), ())
    with pytest.raises(ValueError, match="^invalid grid: a grid needs at least one segment$"):
        solve_nonlinear(grid, DensityField(grid, None, 0.05))


def test_linearized_rejects_trees(feeder_tree):
    with pytest.raises(ValueError, match="single"):
        solve_linearized(feeder_tree, power_density(feeder_tree, None))


def test_mesh_must_resolve_kernel(single_feeder):
    density = power_density(single_feeder, None, sigma_km=0.05)
    with pytest.raises(ValueError, match="sigma|resolve|step"):
        solve_nonlinear(single_feeder, density, SolverSettings(step_km=0.05))
    # an L/2000 mesh under-resolves a very narrow kernel; the default mesh
    # refines itself to sigma/2 instead
    narrow = power_density(single_feeder, None, sigma_km=0.004)
    with pytest.raises(ValueError):
        solve_nonlinear(single_feeder, narrow, SolverSettings(step_km=5.0 / 2000))
    x = solve_nonlinear(single_feeder, narrow).segments[0].x_km
    assert len(x) == 2501  # step 5 km / 2500 = sigma/2


def test_default_mesh_resolves_kernels_on_a_long_feeder():
    # length/2000 = 0.03 km would exceed sigma/2 = 0.025 km
    grid = make_single([Device("load", "main", 45.0, "l", p_pu=-0.01)], length=60.0)
    prof = solve_nonlinear(grid, power_density(grid, None, sigma_km=0.05), SolverSettings())
    assert len(prof.segments[0].x_km) == 2401  # step 60 km / 2400 = sigma/2


def test_bundled_meshes_keep_their_size(single_feeder, feeder_tree):
    # sizes recorded before the default step learned about sigma
    for grid in (single_feeder, feeder_tree):
        prof = solve_nonlinear(grid, power_density(grid, None))
        assert [len(sp.x_km) for sp in prof.segments] == [2001] * len(grid.segments)


def test_density_sampled_once_per_solve(feeder_tree, monkeypatch):
    calls = []
    real = DensityField.sample

    def counting(self, runs, x_km):
        calls.append((list(runs), x_km.copy()))
        return real(self, runs, x_km)

    monkeypatch.setattr(DensityField, "sample", counting)
    prof = solve_nonlinear(feeder_tree, power_density(feeder_tree, None))
    # the midpoints of every segment's 2000 cells, in one call
    (runs, x_km), = calls
    assert runs == [(s.id, 2000) for s in feeder_tree.segments]
    # no bundled segment is tapped inside, so each segment is one edge,
    # of step h as the mesh computes it
    mids = []
    for seg, sp in zip(feeder_tree.segments, prof.segments):
        start = feeder_tree.segment_start_km(seg.id)
        h = (start + seg.length_km - start) / 2000
        mids.append(sp.x_km[:-1] + 0.5 * h)
    assert np.array_equal(x_km, np.concatenate(mids))


def test_trunk_with_more_edges_than_the_recursion_limit():
    # 1100 taps split the trunk into a chain of 1101 edges
    laterals = tuple(FeederSegment(f"lat{k}", 0.05, 3.881, 6.856, parent="main",
                                   offset_km=round(0.01 * (k + 1), 6)) for k in range(1100))
    grid = GridTree(PerUnitBase(1.0, 1.0), (FeederSegment("main", 12.0, 3.881, 6.856),) + laterals,
                    (Device("load", "main", 11.5, "l0", p_pu=-0.01),))
    prof = solve_nonlinear(grid, power_density(grid, None, 0.02), SolverSettings(step_km=0.01))
    assert len(prof.segments) == 1101
    assert max(prof.junction_s_max, prof.junction_w_max, prof.junction_v_max) <= 1e-9
    assert prof.v_min() < 1.0


def test_settings_validation():
    for step_km in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"^step_km must be positive and finite, got {step_km}$"):
            SolverSettings(step_km=step_km)


@pytest.mark.parametrize("value", [True, np.True_, "0.1", None, 1 + 0j, Fraction(1, 10),
                                   Decimal("0.1"), pytest.param(10**400, id="10**400"),
                                   pytest.param(-10**400, id="-10**400")], ids=repr)
def test_a_setting_that_is_no_real_number_is_refused(value):
    # True used to be accepted as a 1 km step; a str or None raised a bare
    # TypeError (None is step_km's default: the step that sigma sets), and an
    # int beyond the float range an OverflowError, or for step_km one inside
    # the mesh
    for name, message in (("step_km", "step_km must be positive and finite"),
                          ("theta_bank_rad", "theta_bank_rad must be finite")):
        if value is None and name == "step_km":
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(f'{message}, got {value!r}')}$"):
            SolverSettings(**{name: value})
    SolverSettings(step_km=np.float32(0.01), theta_bank_rad=np.int64(0))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_bank_angle_is_refused(theta):
    # a non-finite bank angle used to "converge" with a non-finite theta column
    with pytest.raises(ValueError, match=f"^theta_bank_rad must be finite, got {theta}$"):
        SolverSettings(theta_bank_rad=theta)


@pytest.mark.parametrize("sigma,step_km,message", [
    (1e-320, None, "sigma=1e-320 km needs a mesh of inf nodes"),     # the cell count overflows
    (1e-300, None, "sigma=1e-300 km needs a mesh of 1e+301 nodes"),
    (1e-6, None, "sigma=1e-06 km needs a mesh of 1e+07 nodes"),      # 10^7 cells on 5 km
    (0.05, 1e-320, "step_km=1e-320 needs a mesh of inf nodes"),
    (0.05, 1e-6, "step_km=1e-06 needs a mesh of 5e+06 nodes"),
])
def test_impossible_mesh_is_refused_before_allocation(sigma, step_km, message):
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1)])
    density = DensityField(grid, None, sigma)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message + ", more than MAX_MESH_NODES=")):
            solve_nonlinear(grid, density, SolverSettings(step_km=step_km))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_mesh_budget_counts_every_padded_node(monkeypatch):
    # 2000 cells on one edge: 2001 nodes
    grid = make_single([Device("load", "main", 2.5, "l", p_pu=-0.1)])
    monkeypatch.setattr(feederflow.solver, "MAX_MESH_NODES", 2000)
    with pytest.raises(ValueError, match="needs a mesh of 2001 nodes, more than"):
        solve_nonlinear(grid, DensityField(grid, None, 0.05))
    monkeypatch.setattr(feederflow.solver, "MAX_MESH_NODES", 2001)
    assert solve_nonlinear(grid, DensityField(grid, None, 0.05)).sweeps > 0


# a 4 km trunk tapped at 1.5 km by two laterals (one interior cut, shared)
# and at its far end by a third: 2 + 3 edges, every width exact in binary
TAPPED_TREE = GridTree(
    PerUnitBase(12.0e6, 6600.0),
    (FeederSegment("trunk", 4.0, 3.881, 6.856),
     FeederSegment("a", 1.25, 3.881, 6.856, parent="trunk", offset_km=1.5),
     FeederSegment("b", 0.75, 3.881, 6.856, parent="trunk", offset_km=1.5),
     FeederSegment("c", 2.5, 3.881, 6.856, parent="trunk", offset_km=4.0)),
    (),
)


def mesh_nodes(grid, sigma, step_km=None):
    """The mesh buffer's positions, counted from the geometry: each segment
    is cut at its children's interior offsets, an edge of width w with step
    step_km, or else min(length/2000, sigma/2), takes the fewest cells n (at
    least 2) whose width is at most the step, up to rounding, and the edges
    of each width bucket (n - 1).bit_length() take a row of the bucket's most
    cells + 1."""
    rows, widest = {}, {}
    for s in grid.segments:
        step = step_km or min(s.length_km / 2000.0, sigma / 2.0)
        taps = {c.offset_km for c in grid.segments if c.parent == s.id and c.offset_km < s.length_km}
        bounds = [0.0, *sorted(taps), s.length_km]
        for a, b in zip(bounds, bounds[1:]):
            ratio = (b - a) / step
            near = round(ratio)
            cells = max(2, near if abs(ratio - near) < 1e-9 else math.ceil(ratio))
            key = (cells - 1).bit_length()
            rows[key] = rows.get(key, 0) + 1
            widest[key] = max(widest.get(key, 0), cells)
    return sum(rows[key] * (widest[key] + 1) for key in rows)


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(1e-3, 1.0), slack=st.integers(-3, 3),
       share=st.one_of(st.none(), st.floats(0.25, 1.0)))
def test_mesh_is_refused_exactly_above_the_node_limit(sigma, slack, share):
    # a small limit around the counted size: nothing large is allocated;
    # share draws an explicit step_km <= sigma/2, or None for the default
    step = None if share is None else share * sigma / 2.0
    nodes = mesh_nodes(TAPPED_TREE, sigma, step)
    limit = nodes + slack
    original = feederflow.solver.MAX_MESH_NODES
    feederflow.solver.MAX_MESH_NODES = limit
    try:
        if nodes > limit:
            what = f"sigma={sigma} km" if step is None else f"step_km={step}"
            message = f"{what} needs a mesh of {nodes:.4g} nodes, more than MAX_MESH_NODES={limit}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                feederflow.solver._Mesh(TAPPED_TREE, SolverSettings(step), sigma)
        else:
            mesh = feederflow.solver._Mesh(TAPPED_TREE, SolverSettings(step), sigma)
            assert mesh.h_pos.size == nodes
    finally:
        feederflow.solver.MAX_MESH_NODES = original


def test_profile_accessors(feeder_tree):
    prof = solve_nonlinear(feeder_tree, power_density(feeder_tree, None))
    assert {sp.segment_id for sp in prof.segments} == {"trunk", "fdrA", "fdrB", "fdrA1", "fdrA2"}
    assert prof.by_segment("fdrB").segment_id == "fdrB"
    with pytest.raises(KeyError):
        prof.by_segment("nope")
    assert prof.v_min() == min(float(sp.v_pu.min()) for sp in prof.segments)
    assert {sid for sid, _ in prof.terminal_v} == {"fdrB", "fdrA1", "fdrA2"}


def test_interior_tap_sampled_twice_with_both_sides():
    grid = GridTree(
        PerUnitBase(12.0e6, 6600.0),
        (
            FeederSegment("main", 2.0, 3.881, 6.856),
            FeederSegment("lat", 1.0, 3.881, 6.856, parent="main", offset_km=1.0),
        ),
        (
            Device("load", "main", 1.6, "l0", p_pu=-0.05),
            Device("load", "lat", 1.5, "l1", p_pu=-0.05),
        ),
    )
    prof = solve_nonlinear(grid, power_density(grid, None))
    main = prof.by_segment("main")
    hits = np.flatnonzero(main.x_km == 1.0)
    assert hits.size == 2
    i, j = int(hits[0]), int(hits[1])
    # v and theta continuous, s drops by the lateral take-off
    assert main.v_pu[i] == main.v_pu[j]
    assert main.theta_rad[i] == main.theta_rad[j]
    assert main.s[i] != main.s[j]


def test_symmetric_branches_solve_identically():
    segs = (
        FeederSegment("trunk", 1.0, 3.881, 6.856),
        FeederSegment("latA", 1.0, 3.881, 6.856, parent="trunk", offset_km=1.0),
        FeederSegment("latB", 1.0, 3.881, 6.856, parent="trunk", offset_km=1.0),
    )
    devs = (
        Device("load", "latA", 1.5, "la", p_pu=-0.04),
        Device("load", "latB", 1.5, "lb", p_pu=-0.04),
        Device("load", "trunk", 0.5, "lt", p_pu=-0.02),
    )
    grid = GridTree(PerUnitBase(1.0, 1.0), segs, devs)
    prof = solve_nonlinear(grid, power_density(grid, None))
    a, b = prof.by_segment("latA"), prof.by_segment("latB")
    assert np.max(np.abs(a.v_pu - b.v_pu)) <= 1e-12
    assert np.max(np.abs(a.s - b.s)) <= 1e-12
    assert np.max(np.abs(a.w - b.w)) <= 1e-12


def test_mesh_halving_is_second_order(single_feeder):
    density = power_density(single_feeder, None)
    L = single_feeder.segments[0].length_km
    v = [
        solve_nonlinear(single_feeder, density, SolverSettings(step_km=L / n)).segments[0].v_pu
        for n in (1000, 2000, 4000)
    ]
    # meshes nest, so compare at shared points; halving h should shrink the
    # change by about 4x
    d12 = float(np.max(np.abs(v[0] - v[1][::2])))
    d24 = float(np.max(np.abs(v[1] - v[2][::2])))
    assert 2.5 < d12 / d24 < 6.0


def test_uniform_pattern_dips_below_synthesized_near_bank(single_feeder):
    synth = synthesize(single_feeder, 0.1)
    unif = uniform_baseline(single_feeder, 0.1)
    ps = solve_nonlinear(single_feeder, power_density(single_feeder, synth))
    pu = solve_nonlinear(single_feeder, power_density(single_feeder, unif))
    assert ps.sweeps <= 10 and pu.sweeps <= 10
    seg_s, seg_u = ps.segments[0], pu.segments[0]
    # between the bank and the first station the uniform profile sits lower
    m = (seg_s.x_km > 0.05) & (seg_s.x_km < 0.95)
    assert np.all(seg_u.v_pu[m] < seg_s.v_pu[m])


def test_device_positions_show_as_w_jumps(single_feeder):
    plan = uniform_baseline(single_feeder, 0.1)
    prof = solve_nonlinear(single_feeder, power_density(single_feeder, plan))
    seg = prof.segments[0]
    g = single_feeder.segments[0].g_pu_per_km
    b = single_feeder.segments[0].b_pu_per_km
    z2 = g * g + b * b

    def dw(center, half):
        i = int(np.argmin(np.abs(seg.x_km - (center - half))))
        j = int(np.argmin(np.abs(seg.x_km - (center + half))))
        return float(seg.w[j] - seg.w[i])

    powers = dict(plan.as_power_map())
    # crossing a device, w steps by -(g p + b q)/z^2 spread over the kernel
    for x_d, (p_d, q_d) in ((2.5, (-0.06, 0.0)), (2.0, powers["st-2"])):
        expected = -(g * p_d + b * q_d) / z2
        assert dw(x_d, 0.15) == pytest.approx(expected, rel=0.1)
    # away from any device w barely moves in comparison
    assert abs(dw(2.75, 0.05)) < abs((g * 0.06) / z2) / 20.0


def test_monotone_sag_toward_unserved_end():
    # one mid-feeder load, no support: v decreases from the bank out to the load
    grid = make_single([Device("load", "main", 3.0, "l0", p_pu=-0.08)])
    prof = solve_nonlinear(grid, power_density(grid, None))
    seg = prof.segments[0]
    inner = seg.x_km <= 2.7
    dv = np.diff(seg.v_pu[inner])
    assert np.all(dv <= 1e-15)
    assert seg.v_pu[-1] < 1.0


def test_a_profile_compares_by_identity_and_keeps_its_columns_read_only(single_feeder):
    density = power_density(single_feeder, synthesize(single_feeder, 0.1))
    a, b = (solve_nonlinear(single_feeder, density) for _ in range(2))
    # two solves of one plan: equal columns, two profiles
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
    assert a.segments is a.segments
    for name in ("x_km", "theta_rad", "v_pu", "s", "w"):
        column, row = getattr(a, name), getattr(a.segments[0], name)
        assert np.array_equal(column, getattr(b, name))
        assert np.shares_memory(row, column)
        for array in (column, row):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


# -- metamorphic properties on random single feeders -------------------------

SPLIT_STEP_KM = 0.015
SPLIT_SIGMA_KM = 0.03


@st.composite
def split_feeder(draw):
    """A random valid single feeder of whole SPLIT_STEP_KM cells; the same
    feeder cut at an interior cell boundary into a parent and a child fed
    from the parent's far end, the devices beyond the cut moved to the
    child; and station powers for both.  No device lies within a kernel
    cut-off of the cut, so no kernel is cut there."""
    cells = draw(st.integers(60, 300))
    cut = draw(st.integers(20, cells - 20))
    length, at = cells * SPLIT_STEP_KM, cut * SPLIT_STEP_KM
    g, b = draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0))
    clear = KERNEL_CUTOFF_SIGMAS * SPLIT_SIGMA_KM + SPLIT_STEP_KM
    # candidate positions more than 2 sigma apart, so no spacing warning
    spots = [x for x in np.arange(0.05, length - 0.05, 0.07).tolist() if abs(x - at) > clear]
    xis = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=6, unique=True))
    devices, power = [], {}
    for k, xi in enumerate(xis):
        if draw(st.booleans()):
            raw = draw(st.floats(0.001, 0.2))
            devices.append(Device("station", "main", xi, f"d{k}", p_min_pu=-raw, p_max_pu=raw))
            power[f"d{k}"] = (draw(st.floats(-raw, raw)), 0.0)
        else:
            devices.append(Device("load", "main", xi, f"d{k}", p_pu=-draw(st.floats(0.0, 0.3)),
                                  q_pu=draw(st.floats(-0.1, 0.1))))
    base = PerUnitBase(1.0, 1.0)
    whole = GridTree(base, (FeederSegment("main", length, g, b),), tuple(devices))
    split = GridTree(
        base,
        (FeederSegment("main", at, g, b),
         FeederSegment("tail", length - at, g, b, parent="main", offset_km=at)),
        tuple(d if d.xi_km < at else dataclasses.replace(d, segment="tail") for d in devices),
    )
    return whole, split, power


@settings(max_examples=40, deadline=None)
@given(split_feeder())
def test_property_splitting_a_feeder_keeps_its_profile(case):
    whole, split, power = case
    mesh = SolverSettings(step_km=SPLIT_STEP_KM)
    try:
        ref = solve_nonlinear(whole, DensityField(whole, power, SPLIT_SIGMA_KM), mesh)
    except (VoltageCollapseError, ConvergenceError):
        return
    got = solve_nonlinear(split, DensityField(split, power, SPLIT_SIGMA_KM), mesh)
    main, tail = got.by_segment("main"), got.by_segment("tail")
    # both meshes have the same nodes, up to rounding; the child's first
    # node repeats the parent's last, with the same state
    assert len(main.x_km) + len(tail.x_km) - 1 == len(ref.x_km)
    for name in ("x_km", "theta_rad", "v_pu", "s", "w"):
        joined = np.concatenate([getattr(main, name), getattr(tail, name)[1:]])
        assert np.max(np.abs(joined - getattr(ref, name))) <= 1e-8, name


# dyadic, so every tap offset, shifted offset and node is exact
TREE_SPLIT_STEP_KM = 2.0 ** -6
TREE_SPLIT_SIGMA_KM = 2.0 ** -5


@st.composite
def split_tapped_tree(draw):
    """A random valid tree: a main segment of whole TREE_SPLIT_STEP_KM
    cells with 2-4 laterals tapped at cell boundaries (its far end
    included), each lateral with a device or two; the same tree with main
    cut at a cell boundary between two taps, at least two cells (an edge's
    least) from each, the part beyond the cut a
    child "tail" fed from main's far end, carrying the laterals beyond the
    cut (offsets shifted by the cut) and main's devices beyond it; and
    station powers for both.  No device of main lies within a kernel
    cut-off of the cut."""
    step = TREE_SPLIT_STEP_KM
    cells = draw(st.integers(60, 200))
    taps = sorted(draw(st.lists(st.integers(8, cells), min_size=2, max_size=4, unique=True)))
    # an edge has at least two cells, so the cut leaves two on either side
    gap = draw(st.sampled_from([k for k in range(len(taps) - 1) if taps[k + 1] - taps[k] >= 4]
                               or [None]))
    if gap is None:
        taps, gap = [8, cells], 0
    cut = draw(st.integers(taps[gap] + 2, taps[gap + 1] - 2))
    length, at = cells * step, cut * step
    g, b = draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0))
    devices, power = [], {}

    def device(seg_id, xi):
        k = len(devices)
        if draw(st.booleans()):
            raw = draw(st.floats(0.001, 0.2))
            devices.append(Device("station", seg_id, xi, f"d{k}", p_min_pu=-raw, p_max_pu=raw))
            power[f"d{k}"] = (draw(st.floats(-raw, raw)), 0.0)
        else:
            devices.append(Device("load", seg_id, xi, f"d{k}", p_pu=-draw(st.floats(0.0, 0.2)),
                                  q_pu=draw(st.floats(-0.1, 0.1))))

    # main's devices sit mid-cell, five cells apart, clear of the cut
    clear = KERNEL_CUTOFF_SIGMAS * TREE_SPLIT_SIGMA_KM + step
    spots = [(j + 0.5) * step for j in range(2, cells - 2, 5)]
    for xi in draw(st.lists(st.sampled_from([x for x in spots if abs(x - at) > clear]),
                            min_size=1, max_size=4, unique=True)):
        device("main", xi)
    whole, split = [FeederSegment("main", length, g, b)], [
        FeederSegment("main", at, g, b),
        FeederSegment("tail", length - at, g, b, parent="main", offset_km=at)]
    for k, tap in enumerate(taps):
        lat_cells = draw(st.integers(20, 60))
        lat_g, lat_b = draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0))
        whole.append(FeederSegment(f"lat{k}", lat_cells * step, lat_g, lat_b,
                                   parent="main", offset_km=tap * step))
        split.append(FeederSegment(f"lat{k}", lat_cells * step, lat_g, lat_b,
                                   *(("main", tap * step) if tap < cut
                                     else ("tail", (tap - cut) * step))))
        for j in range(draw(st.integers(1, 2))):
            device(f"lat{k}", (tap + (j + 1) * lat_cells / 3.0) * step)
    base = PerUnitBase(1.0, 1.0)
    moved = tuple(dataclasses.replace(d, segment="tail") if d.segment == "main" and d.xi_km > at
                  else d for d in devices)
    return GridTree(base, tuple(whole), tuple(devices)), GridTree(base, tuple(split), moved), power


@settings(max_examples=30, deadline=None)
@given(split_tapped_tree())
def test_property_splitting_a_tapped_segment_between_its_taps_keeps_its_profile(case):
    whole, split, power = case
    mesh = SolverSettings(step_km=TREE_SPLIT_STEP_KM)
    try:
        ref = solve_nonlinear(whole, DensityField(whole, power, TREE_SPLIT_SIGMA_KM), mesh)
    except (VoltageCollapseError, ConvergenceError):
        return
    got = solve_nonlinear(split, DensityField(split, power, TREE_SPLIT_SIGMA_KM), mesh)
    # the meshes nest: main's nodes are the split main's and then the
    # tail's after its first, which repeats the cut node with the same state
    main, tail, ref_main = got.by_segment("main"), got.by_segment("tail"), ref.by_segment("main")
    assert len(main.x_km) + len(tail.x_km) - 1 == len(ref_main.x_km)
    for name in ("x_km", "theta_rad", "v_pu", "s", "w"):
        joined = np.concatenate([getattr(main, name), getattr(tail, name)[1:]])
        assert np.max(np.abs(joined - getattr(ref_main, name))) <= 1e-8, name
        for lateral in ref.segment_ids[1:]:
            want, have = (getattr(p.by_segment(lateral), name) for p in (ref, got))
            assert want.shape == have.shape
            assert np.max(np.abs(have - want)) <= 1e-8, (lateral, name)


def loadability_limit(xi_km, g, b):
    """The largest unity-power-factor load that a line of g, b per km feeds
    at xi_km from v(0) = 1, the nose of its PV curve.

    Between the bank and a point load P, s = bP/z^2 is constant and v'' =
    s^2/v^3, so v'^2 + s^2/v^2 is constant; with w(xi) = -gP/(z^2 v(xi))
    this leaves a quadratic in u = 1/v(xi)^2,
    (P^2/z^2) xi^2 u^2 - (1 - 2 xi gP/z^2) u + 1 = 0,
    which has a root while P <= 1 / (2 xi (g/z^2 + 1/|z|)): the two-bus
    limit V^2 / (2 (R + |Z|)) of the line's R + jX = xi / (g + jb)."""
    z2 = g * g + b * b
    return 1.0 / (2.0 * xi_km * (g / z2 + 1.0 / math.sqrt(z2)))


def upper_branch_v(load, xi_km, g, b):
    """v at a point load below the limit, the larger root of the quadratic."""
    z2 = g * g + b * b
    a, c = load * load / z2 * xi_km ** 2, 1.0 - 2.0 * xi_km * g * load / z2
    return math.sqrt((c + math.sqrt(c * c - 4.0 * a)) / 2.0)


LIMIT_SIGMA_KM = 0.01


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 8.0), st.floats(0.5, 8.0), st.floats(1.0, 5.0),
       st.sampled_from([0.3, 0.8, 1.02, 1.05, 1.2, 2.0, 10.0]))
def test_property_a_load_beyond_the_loadability_limit_never_solves(g, b, xi, scale):
    load = scale * loadability_limit(xi, g, b)
    grid = make_single([Device("load", "main", xi, "l0", p_pu=-load)], length=xi + 0.1, g=g, b=b)
    density = power_density(grid, None, sigma_km=LIMIT_SIGMA_KM)
    if scale > 1.0:
        with pytest.raises((VoltageCollapseError, ConvergenceError)):
            solve_nonlinear(grid, density)
        return
    # below it the sweep finds the upper branch; the kernel's spread moves
    # the terminal voltage by O(sigma)
    prof = solve_nonlinear(grid, density)
    assert abs(prof.v_pu[-1] - upper_branch_v(load, xi, g, b)) <= LIMIT_SIGMA_KM
