"""Walk the closed-form voltage profile of the bundled single feeder.

Prints the piecewise structure (jump sizes at every injection) and then
cross-checks the closed form against the full nonlinear sweep solver at a
handful of positions away from the smoothing kernels.
"""
import numpy as np

from feederflow import (
    ClosedFormProfile,
    injections_from_grid,
    load_single_feeder,
    power_density,
    solve_nonlinear,
)


def main():
    grid = load_single_feeder()
    closed = ClosedFormProfile(injections_from_grid(grid))

    print("injections (feeder end first):")
    for i, inj in enumerate(closed.inj.injections, start=1):
        print(f"  #{i}  xi={inj.xi_km:4.1f} km  P={inj.p_pu:+.3f}  Q={inj.q_pu:+.3f}  "
              f"jump_s={closed.jump_s(i):+.6f}  jump_w={closed.jump_w(i):+.6f}")

    print()
    print(f"s at the bank: {closed.transfer_density(0.0):+.6f}")
    print(f"w at the bank: {closed.gradient(0.0):+.6f}")

    profile = solve_nonlinear(grid, power_density(grid, None))    # one segment: its columns
    print()
    print("   x [km]   closed form   nonlinear     gap")
    for x in (0.25, 1.0, 2.0, 3.0, 4.0, 4.75):
        k = int(np.argmin(np.abs(profile.x_km - x)))
        va = float(closed.amplitude(profile.x_km[k]))
        vn = float(profile.v_pu[k])
        print(f"  {profile.x_km[k]:6.3f}   {va:.8f}   {vn:.8f}   {abs(va - vn):.2e}")


if __name__ == "__main__":
    main()
