"""Mean-field accuracy improves with the particle number.

For N = 2, 3, 4 fermions on a 16-site lattice, evolve both the exact
configuration-space state and the self-consistent orbitals to t = 1 in
rescaled units (coupling eps = N^{-2/3}), then compare one-body observables:

    comparison(M, t) = | Tr(M gamma_exact(t)) - Tr(M p_t) / N |

maximized over a fixed dictionary of box indicators plus a smooth bump.
The final-time comparison shrinks as N grows -- the mean-field trend -- while
the occupied-complement weight alpha_n stays far below 1/2.
"""

import numpy as np

from mflab.cli import observable_dictionary
from mflab.counting import alpha_number_onebody, build_projections
from mflab.grid import Grid
from mflab.hartree import run_hartree
from mflab.manybody import ConfigBasis, build_hamiltonian, observe, propagate, slater_state
from mflab.model import InitialFamily, build_potential, make_orbitals

grid = Grid(dim=1, sites_per_dim=16, box_length=8.0, kinetic_mode="lattice")
potential = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
family = InitialFamily("localized", width=1.2)
dictionary = observable_dictionary(grid, boxes=8, include_bump=True)

print(f"{'N':>3} {'eps':>8} {'final comparison':>18} {'max alpha_n':>13}")
finals = {}
for N in (2, 3, 4):
    initial = make_orbitals(family, N, grid)
    basis = ConfigBasis(grid.total_sites, N)
    hamiltonian = build_hamiltonian(basis, potential, initial.scaling)
    trajectory = run_hartree(initial, potential, t_final=1.0, dt=1e-3)

    # eps H is fixed, so one call serves every snapshot time from shared Krylov spaces
    states = propagate(slater_state(initial, basis), hamiltonian,
                       [snap.time for snap in trajectory.snapshots])
    worst_alpha = 0.0
    for snap, state in zip(trajectory.snapshots, states):
        worst_alpha = max(worst_alpha,
                          alpha_number_onebody(state, build_projections(snap)))
    final_snap = trajectory.snapshots[-1]
    finals[N] = max(observe(M, state, final_snap).comparison for _, M in dictionary)
    print(f"{N:3d} {initial.scaling.epsilon:8.4f} {finals[N]:18.6e} {worst_alpha:13.2e}")

print()
print(f"comparison(N=4) / comparison(N=2) = {finals[4] / finals[2]:.3f}  (< 1)")
print("the same pipeline is scripted as `mflab compare` with a summary JSON.")
