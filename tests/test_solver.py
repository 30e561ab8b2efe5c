import numpy as np
import pytest

from feederflow import (
    ConvergenceError,
    DensityField,
    Device,
    FeederSegment,
    GridTree,
    PerUnitBase,
    SolverSettings,
    VoltageCollapseError,
    power_density,
    solve_linearized,
    solve_nonlinear,
    synthesize,
    uniform_baseline,
)


def make_single(devices, length=5.0, g=3.881, b=6.856):
    return GridTree(
        PerUnitBase(12.0e6, 6600.0),
        (FeederSegment("main", length, g, b),),
        tuple(devices),
    )


def single_injection_grid():
    return make_single([Device("load", "main", 4.5, "l0", p_pu=-0.06)])


def test_zero_density_fixed_point_in_one_sweep(single_feeder):
    prof = solve_nonlinear(single_feeder)
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


def test_convergence_error_reports_progress(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    density = power_density(single_feeder, plan)
    with pytest.raises(ConvergenceError) as exc:
        solve_nonlinear(single_feeder, density, SolverSettings(max_sweeps=2))
    assert exc.value.sweeps == 2
    assert exc.value.last_change > 1e-9


def test_voltage_collapse_detected():
    grid = make_single([Device("load", "main", 4.5, "l0", p_pu=-5.0)])
    with pytest.raises(VoltageCollapseError) as exc:
        solve_nonlinear(grid, power_density(grid, None))
    assert exc.value.v_min < 0.5


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
        for density in (None, power_density(grid, None)):
            prof = solve_nonlinear(grid, density)
            assert [len(sp.x_km) for sp in prof.segments] == [2001] * len(grid.segments)


def test_density_sampled_once_per_solve(feeder_tree, monkeypatch):
    calls = []
    real = DensityField.sample

    def counting(self, runs, x_km):
        calls.append((list(runs), len(x_km)))
        return real(self, runs, x_km)

    monkeypatch.setattr(DensityField, "sample", counting)
    solve_nonlinear(feeder_tree, power_density(feeder_tree, None))
    # nodes and midpoints of every segment's 2000 cells, in one call
    n = len(feeder_tree.segments)
    assert calls == [([(s.id, 4001) for s in feeder_tree.segments], n * 4001)]


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
    with pytest.raises(ValueError):
        SolverSettings(step_km=0.0)
    with pytest.raises(ValueError):
        SolverSettings(tol_v=0.0)
    with pytest.raises(ValueError):
        SolverSettings(max_sweeps=0)


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
