"""Two routes to the gauged orbitals, and why they agree.

The gauged frame multiplies each orbital by the phase exp(i t eps (v * rho_t)).
One route evolves the plain self-consistent equations and applies the phase at
the end; the other evolves directly with the gauged generator, whose extra
force terms come from an exact continuity identity for d/dt (v * rho_t).

Both integrators are second order, so the distance between the routes must
shrink by ~4x per dt halving; the continuity identity itself is checked as a
residual that vanishes with the grid spacing.
"""

import numpy as np

from mflab.gauge import continuity_residual, gauge_orbitals, run_gauged
from mflab.grid import Grid, norm_l2
from mflab.hartree import run_hartree
from mflab.model import InitialFamily, build_potential, make_orbitals

grid = Grid(dim=1, sites_per_dim=64, box_length=10.0, kinetic_mode="spectral")
potential = build_potential(grid, "gaussian", amplitude=2.0, width=1.0)
initial = make_orbitals(InitialFamily("localized", width=0.6), 3, grid)
t_final = 1.0


def route_distance(dt: float) -> float:
    plain = run_hartree(initial, potential, t_final, dt, snapshot_every=10**9)
    via_phase = gauge_orbitals(plain.snapshots[-1], potential)
    direct = run_gauged(initial, potential, t_final, dt, snapshot_every=10**9)
    # orbital by orbital: each route's family is one (N, *grid.shape) array
    return max(norm_l2(a - b, grid) for a, b in zip(via_phase.values, direct.snapshots[-1].values))


print(f"{'dt':>8} {'route distance':>16} {'ratio':>8}")
previous = None
for dt in (4e-3, 2e-3, 1e-3):
    d = route_distance(dt)
    ratio = "" if previous is None else f"{previous / d:8.3f}"
    print(f"{dt:8.0e} {d:16.3e} {ratio:>8}")
    previous = d

print()
print("continuity-identity residual (max over interior snapshots):")
for dt, every in ((8e-3, 5), (4e-3, 5)):
    traj = run_gauged(initial, potential, t_final=0.2, dt=dt, snapshot_every=every)
    worst = float(np.max(continuity_residual(traj, potential)))
    print(f"  dt = {dt:.0e}, snapshot spacing {every * dt:.0e}:  {worst:.3e}")
print("halving both the step and the snapshot spacing cuts the residual ~4x.")
