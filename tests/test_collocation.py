"""The nonlinear sweep against an independent collocation solve.

scipy.integrate.solve_bvp (Kierzenka & Shampine 2001) solves the feeder
equations of one straight segment as a two-point boundary problem,

    theta' = -s / v^2
    v'     = w
    s'     = (B p - G q) / |z|^2
    w'     = s^2 / v^3 - (G p + B q) / (v |z|^2)

with v(0) = 1, theta(0) = theta_bank and s(L) = w(L) = 0, where p and q are
the density that the sweep also reads.  It shares nothing else with the
sweep, and unlike the closed form it holds at any loading.  The gap is the
sweep's midpoint rule, O(h^2) at h = 2.5 m: about 1e-7 on v here.
"""
import dataclasses

import numpy as np
import pytest

from feederflow import (
    SINGLE_FEEDER_PREF,
    GridTree,
    SolverSettings,
    load_single_feeder,
    power_density,
    solve_nonlinear,
    synthesize,
)

integrate = pytest.importorskip("scipy.integrate")

SIGMA_KM = 0.05
THETA_BANK = 0.0


def collocation(grid: GridTree, density):
    """solve_bvp's solution of the one segment's equations, at tol 1e-9."""
    (seg,) = grid.segments
    g, b = seg.g_pu_per_km, seg.b_pu_per_km
    z2 = g * g + b * b

    def rhs(x, y):
        theta, v, s, w = y
        p, q = density.sample(seg.id, x)
        return np.vstack([-s / v ** 2, w, (b * p - g * q) / z2,
                          s ** 2 / v ** 3 - (g * p + b * q) / (v * z2)])

    def bc(y0, y1):
        return np.array([y0[1] - 1.0, y0[0] - THETA_BANK, y1[2], y1[3]])

    x = np.linspace(0.0, seg.length_km, 2001)
    guess = np.zeros((4, x.size))
    guess[1] = 1.0    # a flat, unloaded feeder
    sol = integrate.solve_bvp(rhs, bc, x, guess, tol=1e-9, max_nodes=100_000)
    assert sol.success, sol.message
    return sol


# every bundled load at 1x (v_min 0.984, 5 sweeps) and at 3x (v_min 0.853,
# 12 sweeps, a sag at which xcheck's linearized closed form no longer holds)
@pytest.mark.parametrize("load_scale,sweeps", [(1.0, 5), (3.0, 12)])
def test_sweep_matches_an_independent_collocation_solve(load_scale, sweeps):
    bundled = load_single_feeder()
    grid = dataclasses.replace(bundled, devices=tuple(
        dataclasses.replace(d, p_pu=d.p_pu * load_scale, q_pu=d.q_pu * load_scale)
        if d.kind == "load" else d for d in bundled.devices))
    density = power_density(grid, synthesize(grid, SINGLE_FEEDER_PREF), SIGMA_KM)
    profile = solve_nonlinear(grid, density, SolverSettings(theta_bank_rad=THETA_BANK))
    assert profile.sweeps == sweeps
    theta, v, s, w = collocation(grid, density).sol(profile.x_km)
    gaps = {name: float(np.max(np.abs(ref - got))) for name, ref, got in (
        ("theta", theta, profile.theta_rad), ("v", v, profile.v_pu),
        ("s", s, profile.s), ("w", w, profile.w))}
    assert gaps["theta"] <= 1e-6 and gaps["v"] <= 1e-6, gaps
    assert gaps["s"] <= 5e-6 and gaps["w"] <= 5e-6, gaps
