"""Closed-form profile against frozen values and structural identities.

The frozen numbers were produced with the rounded line constants G = 3.881,
B = 6.856 (not the full-precision per-unit conversion) and double-checked
against an independent two-point boundary-value integration before being
frozen here; see the single-injection block.
"""
import math

import numpy as np
import pytest

from feederflow import (
    ClosedFormProfile,
    PointInjection,
    PointInjectionSet,
    injections_from_grid,
    synthesize,
)

G, B = 3.881, 6.856
Z2 = G * G + B * B


def single_injection():
    return PointInjectionSet([PointInjection(4.5, -0.06)], G, B, 5.0)


# frozen: single load of -0.06 pu at 4.5 km on a 5 km feeder
S_AT_BANK = 0.006627687541718092
W_AT_BANK = -0.003949426454527366
V_AT_LOAD = 0.9826723341564021


def test_single_injection_frozen_values():
    cf = ClosedFormProfile(single_injection())
    assert cf.transfer_density(0.0) == pytest.approx(S_AT_BANK, rel=1e-13)
    assert cf.gradient(0.0) == pytest.approx(W_AT_BANK, rel=1e-13)
    assert cf.amplitude(4.5) == pytest.approx(V_AT_LOAD, rel=1e-13)


def test_single_injection_jumps():
    cf = ClosedFormProfile(single_injection())
    assert cf.jump_s(1) == pytest.approx((B * -0.06) / Z2, rel=1e-15)
    assert cf.jump_w(1) == pytest.approx((G * -0.06) / Z2, rel=1e-15)
    # s vanishes beyond the farthest injection and jumps down crossing it
    assert cf.transfer_density(4.5, side="above") == 0.0
    assert cf.transfer_density(4.5, side="below") == pytest.approx(S_AT_BANK, rel=1e-15)
    below = cf.gradient(4.5, side="below")
    above = cf.gradient(4.5, side="above")
    assert above == 0.0
    assert below - above == pytest.approx(cf.jump_w(1), rel=1e-12)


def test_amplitude_flat_beyond_farthest_injection():
    cf = ClosedFormProfile(single_injection())
    assert cf.amplitude(5.0) == cf.amplitude(4.5)
    assert cf.amplitude(4.7) == cf.amplitude(4.5)


def test_bank_voltage_is_one():
    cf = ClosedFormProfile(single_injection())
    assert cf.amplitude(0.0) == pytest.approx(1.0, abs=1e-15)


def test_reactive_injection_enters_with_opposite_couplings():
    cf = ClosedFormProfile(PointInjectionSet([PointInjection(2.0, 0.0, 0.04)], G, B, 5.0))
    assert cf.jump_s(1) == pytest.approx(-(G * 0.04) / Z2, rel=1e-15)
    assert cf.jump_w(1) == pytest.approx((B * 0.04) / Z2, rel=1e-15)
    # leading reactive power raises voltage toward the feeder end
    assert cf.amplitude(5.0) > 1.0


def test_scaling_linear_in_s_quadratic_in_w_slope():
    base = ClosedFormProfile(PointInjectionSet([PointInjection(3.0, -0.02)], G, B, 5.0))
    twice = ClosedFormProfile(PointInjectionSet([PointInjection(3.0, -0.04)], G, B, 5.0))
    # s and both jump sizes scale with the injection
    assert twice.transfer_density(1.0) == pytest.approx(2.0 * base.transfer_density(1.0), rel=1e-14)
    assert twice.jump_s(1) == pytest.approx(2.0 * base.jump_s(1), rel=1e-14)
    assert twice.jump_w(1) == pytest.approx(2.0 * base.jump_w(1), rel=1e-14)
    # the w slope goes with the square of the transferred power
    slope = lambda cf: cf.gradient(2.0) - cf.gradient(1.0)
    assert slope(twice) == pytest.approx(4.0 * slope(base), rel=1e-12)


def test_piecewise_structure_on_bundled_loads(single_feeder):
    inj = injections_from_grid(single_feeder)  # five loads, no plan
    assert len(inj) == 5
    cf = ClosedFormProfile(inj)
    # s constant inside an interval
    assert cf.transfer_density(2.6) == cf.transfer_density(3.4)
    # w affine inside an interval: midpoint equals the mean of the ends
    w1, w2, wm = cf.gradient(2.6), cf.gradient(3.4), cf.gradient(3.0, side="below")
    assert wm == pytest.approx(0.5 * (w1 + w2), rel=1e-12)
    # v continuous across an injection
    eps = 1e-9
    assert cf.amplitude(2.5 - eps) == pytest.approx(cf.amplitude(2.5 + eps), abs=1e-10)
    # s jump at the third-farthest injection matches the declared jump
    got = cf.transfer_density(2.5, side="above") - cf.transfer_density(2.5, side="below")
    assert got == pytest.approx(cf.jump_s(3), rel=1e-12)


def test_w_slope_squares_the_running_sum():
    # two equal loads: between them the slope is (C_1)^2/Z^4, below both (C_1+C_2)^2/Z^4
    inj = PointInjectionSet([PointInjection(4.0, -0.05), PointInjection(2.0, -0.05)], G, B, 5.0)
    cf = ClosedFormProfile(inj)
    c1 = B * -0.05
    c12 = c1 + c1
    slope_mid = (cf.gradient(3.5) - cf.gradient(2.5)) / 1.0
    slope_low = (cf.gradient(1.5) - cf.gradient(0.5)) / 1.0
    assert slope_mid == pytest.approx(c1 ** 2 / Z2 ** 2, rel=1e-9)
    assert slope_low == pytest.approx(c12 ** 2 / Z2 ** 2, rel=1e-9)
    # squaring the sum, not summing squares: the ratio is 4, not 2
    assert slope_low / slope_mid == pytest.approx(4.0, rel=1e-9)


def test_opposed_couplings_cancel_s_and_w():
    # each injection carries q = (B/G) p, so every s jump is zero and s vanishes
    p = 0.01
    inj = PointInjectionSet(
        [PointInjection(4.0, p, B * p / G), PointInjection(2.0, -p, -B * p / G)],
        G, B, 5.0,
    )
    cf = ClosedFormProfile(inj)
    for x in (0.3, 1.9, 2.5, 3.0, 4.5):
        assert cf.transfer_density(x) == 0.0
    # below both injections the G p + B q terms cancel pairwise as well: w = 0
    np.testing.assert_array_equal(cf.gradient(np.array([0.3, 1.0, 1.9])), 0.0)
    # between them only one injection is outboard, so w is not zero there
    assert cf.gradient(3.0) != 0.0


def test_gradient_is_derivative_of_amplitude():
    cf = ClosedFormProfile(single_injection())
    h = 1e-3
    for x in (0.5, 2.0, 4.0):
        fd = (cf.amplitude(x + h) - cf.amplitude(x - h)) / (2.0 * h)
        assert abs(fd - float(cf.gradient(x))) < 1e-6


def test_empty_set_is_flat():
    cf = ClosedFormProfile(PointInjectionSet([], G, B, 5.0))
    assert cf.amplitude(2.0) == 1.0
    assert cf.transfer_density(2.0) == 0.0
    assert cf.gradient(2.0) == 0.0
    np.testing.assert_array_equal(cf.amplitude(np.array([0.0, 5.0])), [1.0, 1.0])


def test_vector_and_scalar_queries_agree():
    cf = ClosedFormProfile(single_injection())
    xs = np.array([0.0, 1.3, 4.5, 5.0])
    vec = cf.amplitude(xs)
    assert vec.shape == (4,)
    assert [cf.amplitude(float(x)) for x in xs] == list(vec)


def test_domain_and_input_validation(feeder_tree):
    with pytest.raises(ValueError, match="single straight feeder"):
        injections_from_grid(feeder_tree)
    cf = ClosedFormProfile(single_injection())
    with pytest.raises(ValueError, match="outside"):
        cf.amplitude(5.1)
    with pytest.raises(ValueError, match="outside"):
        cf.transfer_density(-0.1)
    with pytest.raises(ValueError, match="side"):
        cf.gradient(1.0, side="left")
    with pytest.raises(ValueError, match="outside"):
        PointInjectionSet([PointInjection(5.0, -0.1)], G, B, 5.0)
    with pytest.raises(ValueError, match="share xi"):
        PointInjectionSet([PointInjection(2.0, -0.1), PointInjection(2.0, -0.2)], G, B, 5.0)
    with pytest.raises(ValueError, match="positive"):
        PointInjectionSet([], G, B, 0.0)
    with pytest.raises(ValueError):
        PointInjectionSet([], -1.0, B, 5.0)
    # non-finite queries: NaN is outside [0, L] too, for every closed form
    for x in (math.nan, math.inf, -math.inf, [1.0, math.nan]):
        for query in (cf.transfer_density, cf.gradient, cf.amplitude):
            with pytest.raises(ValueError, match="outside"):
                query(x)
    # the side is checked on the empty set as well
    empty = ClosedFormProfile(PointInjectionSet([], G, B, 5.0))
    for query in (empty.transfer_density, empty.gradient):
        with pytest.raises(ValueError, match="side"):
            query(1.0, side="left")
    # non-finite inputs are refused by name
    one = [PointInjection(2.0, -0.1)]
    with pytest.raises(ValueError, match="length must be positive and finite, got inf"):
        PointInjectionSet(one, G, B, math.inf)
    for g, b in ((math.inf, B), (G, math.inf)):
        with pytest.raises(ValueError, match="G and B must be positive and finite"):
            PointInjectionSet(one, g, b, 5.0)
    for p, q, shown in ((math.nan, 0.0, "p_pu must be finite, got nan"),
                        (-0.1, math.inf, "q_pu must be finite, got inf"),
                        (-math.inf, 0.0, "p_pu must be finite, got -inf")):
        with pytest.raises(ValueError, match=f"xi=2.0: {shown}"):
            PointInjectionSet([PointInjection(2.0, p, q)], G, B, 5.0)


def test_injections_from_grid_includes_dispatched_stations(single_feeder):
    plan = synthesize(single_feeder, 0.1)
    inj = injections_from_grid(single_feeder, plan)
    assert len(inj) == 9
    # ordered far end first
    xs = [p.xi_km for p in inj.injections]
    assert xs == sorted(xs, reverse=True)
    by_x = {p.xi_km: p for p in inj.injections}
    assert by_x[1.0].p_pu == plan.stations[0].p_pu
    assert by_x[1.0].q_pu == plan.stations[0].q_pu
    assert by_x[0.5].p_pu == -0.06
