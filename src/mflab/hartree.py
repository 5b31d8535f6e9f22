"""Rescaled self-consistent orbital dynamics.

The N orbitals evolve under

    i d/dt phi_k = epsilon * ( K + v * rho_t ) phi_k,      rho_t = sum_k |phi_k|^2,

where K is the grid's kinetic operator (spectral ``|k|**2`` multiplier or the
nearest-neighbour lattice kinetic, per ``Grid.kinetic_mode``) and ``v * rho``
is the periodic convolution.  Time stepping is Strang splitting: a half step
of the kinetic phase, a full step of the (self-consistently re-evaluated)
potential phase, and another kinetic half step — second order, exactly
unitary, hence exactly orbital-norm preserving.  Consecutive steps share a
kinetic half step, so ``hartree_step`` merges them ("first same as last"):
n steps make a half kinetic phase, n potential kicks with a full kinetic
phase between each two, and a half phase, one stacked transform pair a step.
An ``OrbitalSet`` holds the family as one (N, *grid.shape) array, which
``hartree_step`` advances whole; ``density`` sums it, and v * rho is
``grid.convolve_periodic`` of the potential's cached spectrum, here and in
the energy.  ``gram_matrix`` is the one Gram formula: the diagnostics'
``orthonormality_defect`` and the orthonormality check of
``OrbitalSet.orthonormal_columns`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from .grid import Grid, apply_multiplier, convolve_periodic, inner, kinetic_multiplier, norm_l1
from .model import (
    InteractionPotential,
    d_value,
    derivative_densities,
    step_count,
    step_schedule,
)


@dataclass(frozen=True, eq=False)
class OrbitalSet:
    """An ordered family of N one-particle orbitals at a common time, evolving
    at the coupling ``epsilon`` (0 < epsilon < inf).

    The orbitals are one complex array ``values`` of shape (N, *grid.shape),
    orbital k at ``values[k]``; a complex128 array is kept as given, not
    copied, and must not change afterwards: ``kinetic_values`` is computed
    from it once.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    time: float
    epsilon: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape[1:] != self.grid.shape:
            raise GridMismatchError(
                f"orbital values shape {values.shape} does not stack grid shape {self.grid.shape}"
            )
        if not len(values):
            raise ConfigError("OrbitalSet needs at least one orbital")
        if not 0 < self.epsilon < np.inf:  # a NaN fails too
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        object.__setattr__(self, "values", values)

    @property
    def N(self) -> int:
        return len(self.values)

    def value_matrix(self) -> np.ndarray:
        """Site-value matrix, one orbital per column (flattened C order)."""
        return np.stack([phi.ravel() for phi in self.values], axis=1)

    def orthonormal_columns(self) -> np.ndarray:
        """sqrt(h) ``value_matrix()``, whose columns must be orthonormal to 1e-8."""
        defect = orthonormality_defect(self)
        if not defect <= 1e-8:  # a NaN defect fails too
            raise ContractViolation(f"orbitals are not orthonormal (defect {defect:.2e})")
        return np.sqrt(self.grid.cell_volume) * self.value_matrix()

    @cached_property
    def kinetic_values(self) -> np.ndarray:
        """K phi_k of every orbital, stacked as ``values``, from one transform pair."""
        return apply_multiplier(self.values, kinetic_multiplier(self.grid))


def density(values: np.ndarray) -> np.ndarray:
    """sum_k |phi_k|^2 of the orbitals stacked on axis 0 of ``values``, added in order."""
    squares = np.abs(values) ** 2
    rho = squares[0]  # 0 + x is x for x >= 0, so starting from the first keeps every bit
    for square in squares[1:]:
        rho += square
    return rho


def gram_matrix(state: OrbitalSet) -> np.ndarray:
    A = state.value_matrix()
    return state.grid.cell_volume * (A.conj().T @ A)


def orthonormality_defect(state: OrbitalSet) -> float:
    return float(np.max(np.abs(gram_matrix(state) - np.eye(state.N))))


def hartree_energy(state: OrbitalSet, potential: InteractionPotential) -> float:
    """Conserved energy sum_k <phi_k, K phi_k> + (1/2) <rho, v * rho>."""
    grid = state.grid
    if potential.grid != grid:
        raise GridMismatchError("potential and orbitals use different grids")
    kin = sum((grid.cell_volume * np.vdot(phi, k_phi)).real
              for phi, k_phi in zip(state.values, state.kinetic_values))
    rho = density(state.values)
    pot = 0.5 * inner(rho, convolve_periodic(potential.v_spectrum, rho, grid), grid).real
    return float(kin + pot)


def hartree_step(
    state: OrbitalSet, potential: InteractionPotential, dt: float, time: float
) -> OrbitalSet:
    """The merged Strang steps (module docstring) of dt from ``state.time`` to ``time``.

    The step count is ``step_count(time - state.time, dt)``, so a ``time``
    off the dt grid raises ``ConfigError``; callers pass their step count
    times dt, as adding dt per step drifts.  One step makes the operations
    of an unmerged Strang step.  A potential phase dt eps max|v * rho| above
    pi aliases, and a NaN one comes from non-finite orbitals or v * rho:
    either raises ``NumericalFailure`` at its step, so the orbitals returned
    are finite.
    """
    n_steps = step_count(time - state.time, dt)
    grid = state.grid
    eps = state.epsilon
    half_kin = np.exp(-0.5j * dt * eps * kinetic_multiplier(grid))
    full_kin = half_kin * half_kin if n_steps > 1 else None

    vals = apply_multiplier(state.values, half_kin)
    for step in range(1, n_steps + 1):
        u = convolve_periodic(potential.v_spectrum, density(vals), grid).real
        phase = abs(dt * eps) * np.abs(u).max()
        if not phase <= np.pi:
            where = f"at step {step} of dt = {dt} after t = {state.time}"
            if np.isfinite(phase):
                raise NumericalFailure(f"potential phase {phase:.3g} rad {where} exceeds pi")
            bad = "v * rho" if np.isfinite(vals).all() else "orbital values"
            raise NumericalFailure(f"non-finite {bad} {where}")
        pot_phase = np.exp(-1j * dt * eps * u)
        vals = apply_multiplier(pot_phase * vals, half_kin if step == n_steps else full_kin)
    return OrbitalSet(grid, vals, time, state.epsilon)


@dataclass(frozen=True)
class HartreeDiagnostics:
    """Per-snapshot health and structure measures.

    ``d_value`` is the semiclassical-structure value ``model.d_value`` of the
    derivative densities sum_k |grad phi_k|^2 and sum_k |K phi_k|^2
    (``model.derivative_densities``).
    """

    time: float
    energy: float
    orthonormality_defect: float
    d_value: float


def diagnostics(state: OrbitalSet, potential: InteractionPotential) -> HartreeDiagnostics:
    """The snapshot's measures; the energy and rho_lap share its ``kinetic_values``."""
    grad_l1, lap_l1 = (norm_l1(r, state.grid) for r in derivative_densities(state))
    return HartreeDiagnostics(
        time=state.time,
        energy=hartree_energy(state, potential),
        orthonormality_defect=orthonormality_defect(state),
        d_value=d_value(state.N, grad_l1, lap_l1),
    )


@dataclass(frozen=True)
class HartreeTrajectory:
    """Snapshots of a self-consistent run (always includes t=0 and t_final)."""

    snapshots: tuple[OrbitalSet, ...]
    diagnostics: tuple[HartreeDiagnostics, ...]


def run_hartree(
    initial: OrbitalSet,
    potential: InteractionPotential,
    t_final: float,
    dt: float,
    snapshot_every: int | None = None,
) -> HartreeTrajectory:
    """Integrate from ``initial.time`` to the time t_final with fixed step dt.

    About 100 snapshots are recorded; ``snapshot_every`` overrides the
    default cadence max(1, floor(span / (100*dt))) steps, where span =
    t_final - initial.time must be a positive multiple of dt.  Each interval
    between two recorded steps is one ``hartree_step`` call, which reads its
    step count from the times; the state after step k carries the time
    initial.time + k*dt.
    """
    if potential.grid != initial.grid:
        raise GridMismatchError("potential and orbitals use different grids")
    _, recorded = step_schedule(t_final - initial.time, dt, snapshot_every)

    snaps = [initial]
    for step in sorted(recorded)[1:]:
        snaps.append(hartree_step(snaps[-1], potential, dt, initial.time + step * dt))
    diags = tuple(diagnostics(state, potential) for state in snaps)
    return HartreeTrajectory(snapshots=tuple(snaps), diagnostics=diags)
