"""Reduced densities, observable traces, and state snapshots.

The one-particle reduced density gamma of an N-fermion state has unit trace
and spectrum inside [0, 1/N]; for a Slater state it is exactly p/N with at
most N nonzero eigenvalues.  Diagonal observables from the standard dictionary
(box indicators + smooth bump) are traced against gamma without ever building
the full one-body reduction.  States round-trip through a small binary
container for exact restarts.
"""

import tempfile
from pathlib import Path

import numpy as np

from mflab.cli import observable_dictionary
from mflab.grid import Grid
from mflab.hartree import run_hartree
from mflab.manybody import (
    ConfigBasis,
    build_hamiltonian,
    load_state,
    observe,
    propagate,
    rdm1,
    save_state,
    slater_state,
)
from mflab.model import InitialFamily, build_potential, make_orbitals

grid = Grid(dim=1, sites_per_dim=16, box_length=8.0, kinetic_mode="lattice")
potential = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
N = 3
initial = make_orbitals(InitialFamily("localized", width=1.2), N, grid)
basis = ConfigBasis(grid.total_sites, N)
hamiltonian = build_hamiltonian(basis, potential, initial.epsilon)

state = slater_state(initial, basis)
spectrum0 = np.linalg.eigvalsh(rdm1(state))[::-1]
print("gamma spectrum at t = 0 (Slater):", np.round(spectrum0[: N + 2], 9))

state = propagate(state, hamiltonian, 1.0)
spectrum1 = np.linalg.eigvalsh(rdm1(state))[::-1]
print("gamma spectrum at t = 1:         ", np.round(spectrum1[: N + 2], 9))
print(f"trace: {np.sum(spectrum1):.12f}   cap 1/N = {1 / N:.6f}")
print()

final_orbitals = run_hartree(initial, potential, t_final=1.0, dt=1e-3).snapshots[-1]
print(f"{'observable':>12} {'exact trace':>13} {'orbital trace':>14} {'difference':>12}")
names, observables = observable_dictionary(grid, boxes=4, include_bump=True)
exact, hart = observe(observables, state, final_orbitals)
for name, e, h in zip(names, exact, hart):
    print(f"{name:>12} {e:13.6f} {h:14.6f} {abs(e - h):12.2e}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "state.mbs"
    save_state(state, path)
    restored = load_state(path)
    roundtrip = np.max(np.abs(restored.amplitudes - state.amplitudes))
print()
print(f"binary snapshot round-trip error: {roundtrip:.1e} "
      "(small header + raw complex amplitudes)")
