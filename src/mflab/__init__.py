"""Desk-scale laboratory for rescaled fermionic mean-field dynamics.

Subpackages are organised bottom-up:

* ``grid``      periodic grids and spectral/lattice operators on grid values
* ``model``     interaction potentials, the coupling rule, initial orbital families
* ``hartree``   the rescaled self-consistent orbital evolution
* ``gauge``     pair-phase gauge transforms and the gauged orbital flow
* ``manybody``  exact dynamics on the antisymmetric configuration basis
* ``counting``  occupancy sectors, weight operators, their comparison lemmas
* ``auxiliary`` the projected (truncated) auxiliary dynamics and energies
* ``cli``       reproducible command-line drivers

Grid data (orbitals, densities, potentials, forces, observables) is a plain
numpy array whose trailing axes are the grid's sites, with the ``Grid`` it
lives on passed alongside; see ``grid``.
"""

from .errors import (
    ConfigError,
    ContractViolation,
    GridMismatchError,
    MflabError,
    NumericalFailure,
)
from .grid import Grid

__all__ = [
    "Grid",
    "MflabError",
    "GridMismatchError",
    "ConfigError",
    "NumericalFailure",
    "ContractViolation",
]

__version__ = "0.1.0"
