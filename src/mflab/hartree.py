"""Rescaled self-consistent orbital dynamics.

The N orbitals evolve under

    i d/dt phi_k = epsilon * ( K + v * rho_t ) phi_k,      rho_t = sum_k |phi_k|^2,

where K is the grid's kinetic operator (spectral ``|k|**2`` multiplier or the
nearest-neighbour lattice kinetic, per ``Grid.kinetic_mode``) and ``v * rho``
is the periodic convolution.  Time stepping is Strang splitting: a half step
of the kinetic phase, a full step of the (self-consistently re-evaluated)
potential phase, and another kinetic half step — second order, exactly
unitary, hence exactly orbital-norm preserving.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridMismatchError, NumericalFailure
from .grid import (
    Field,
    Grid,
    _fftn,
    apply_multiplier,
    convolve_periodic,
    inner,
    kinetic_multiplier,
)
from .model import (
    InteractionPotential,
    ScalingParams,
    d_value,
    derivative_densities,
    step_schedule,
)


@dataclass(frozen=True, eq=False, init=False)
class OrbitalSet:
    """An ordered family of N one-particle orbitals at a common time.

    The orbitals are held as one complex array ``values`` of shape
    (N, *grid.shape), orbital k at ``values[k]``.  ``OrbitalSet(orbitals,
    time, scaling)`` stacks the given ``Field``s once;
    ``OrbitalSet.from_values(grid, values, time, scaling)`` keeps the given
    stack as it is and makes no ``Field``.  ``orbitals`` is the tuple of
    ``Field``s, the given ones or views of the stack made on first use.
    """

    values: np.ndarray = field(repr=False)
    grid: Grid
    time: float
    scaling: ScalingParams

    def __init__(self, orbitals: Sequence[Field], time: float, scaling: ScalingParams) -> None:
        if not orbitals:
            raise ConfigError("OrbitalSet needs at least one orbital")
        grid = orbitals[0].grid
        for phi in orbitals[1:]:
            if phi.grid != grid:
                raise GridMismatchError("orbitals live on different grids")
        self._set(grid, np.stack([phi.values for phi in orbitals]), time, scaling)
        self.__dict__["orbitals"] = tuple(orbitals)

    @classmethod
    def from_values(
        cls, grid: Grid, values: np.ndarray, time: float, scaling: ScalingParams
    ) -> OrbitalSet:
        """The set whose orbital k is ``values[k]``; the array is not copied."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape[1:] != grid.shape:
            raise GridMismatchError(
                f"orbital values shape {values.shape} does not stack grid shape {grid.shape}"
            )
        if not len(values):
            raise ConfigError("OrbitalSet needs at least one orbital")
        state = cls.__new__(cls)
        state._set(grid, values, time, scaling)
        return state

    def _set(self, grid: Grid, values: np.ndarray, time: float, scaling: ScalingParams) -> None:
        if scaling.N != len(values):
            raise ConfigError(f"scaling.N = {scaling.N} but {len(values)} orbitals supplied")
        if scaling.epsilon is None:
            raise ConfigError("OrbitalSet requires a resolved (concrete) epsilon")
        for name, val in (("values", values), ("grid", grid), ("time", time),
                          ("scaling", scaling)):
            object.__setattr__(self, name, val)

    @cached_property
    def orbitals(self) -> tuple[Field, ...]:
        return tuple(Field(self.grid, phi) for phi in self.values)

    @property
    def N(self) -> int:
        return len(self.values)

    def value_matrix(self) -> np.ndarray:
        """Site-value matrix, one orbital per column (flattened C order)."""
        return np.stack([phi.ravel() for phi in self.values], axis=1)


def density(state: OrbitalSet) -> Field:
    rho = np.zeros(state.grid.shape)
    for phi in state.values:
        rho += np.abs(phi) ** 2
    return Field(state.grid, rho)


def gram_matrix(state: OrbitalSet) -> np.ndarray:
    A = state.value_matrix()
    return state.grid.cell_volume * (A.conj().T @ A)


def orthonormality_defect(state: OrbitalSet) -> float:
    G = gram_matrix(state)
    return float(np.max(np.abs(G - np.eye(state.N))))


def kinetic_apply(phi: Field) -> Field:
    """Apply the grid's kinetic operator K = -Laplace."""
    return apply_multiplier(phi, kinetic_multiplier(phi.grid))


def hartree_energy(state: OrbitalSet, potential: InteractionPotential) -> float:
    """Conserved energy sum_k <phi_k, K phi_k> + (1/2) <rho, v * rho>."""
    if potential.grid != state.grid:
        raise GridMismatchError("potential and orbitals use different grids")
    kin = sum(inner(phi, kinetic_apply(phi)).real for phi in state.orbitals)
    rho = density(state)
    pot = 0.5 * inner(rho, convolve_periodic(potential.v, rho)).real
    return float(kin + pot)


def hartree_step(
    state: OrbitalSet, potential: InteractionPotential, dt: float, time: float
) -> OrbitalSet:
    """One Strang step of the self-consistent evolution, to the given ``time``.

    Callers pass their step count times dt: ``state.time + dt`` would drift
    by a rounding error per step.

    A potential phase dt eps max|v * rho| above pi per step aliases, so it
    raises ``NumericalFailure`` instead of returning an unresolved step.
    The orbitals are stepped as the stack ``state.values``, and v * rho is
    formed with the operations of ``convolve_periodic``.
    """
    grid = state.grid
    eps = state.scaling.epsilon
    half_kin = np.exp(-0.5j * dt * eps * kinetic_multiplier(grid))
    space = range(grid.dim)
    axes = tuple(range(1, grid.dim + 1))  # the orbitals are stacked on axis 0

    mids = _fftn(half_kin * _fftn(state.values, axes), axes, inverse=True)
    rho_mid = np.zeros(grid.shape)
    for m in mids:
        rho_mid += np.abs(m) ** 2
    rho_hat = _fftn(rho_mid.astype(np.complex128), space)
    u = (grid.cell_volume * _fftn(potential.v.spectrum * rho_hat, space, inverse=True)).real
    phase = abs(dt * eps) * np.max(np.abs(u))
    if phase > np.pi:
        raise NumericalFailure(
            f"potential phase {phase:.3g} rad per step exceeds pi: dt = {dt} "
            "does not resolve v * rho"
        )
    pot_phase = np.exp(-1j * dt * eps * u)
    new = _fftn(half_kin * _fftn(pot_phase * mids, axes), axes, inverse=True)
    return OrbitalSet.from_values(grid, new, time, state.scaling)


@dataclass(frozen=True)
class HartreeDiagnostics:
    """Per-snapshot health and structure measures.

    rho_grad = sum_k |grad phi_k|^2 and rho_lap = sum_k |K phi_k|^2 are the
    derivative densities (``model.derivative_densities``) entering the
    semiclassical-structure value ``model.d_value``.
    """

    time: float
    energy: float
    orthonormality_defect: float
    rho: Field
    rho_grad: Field
    rho_lap: Field
    d_value: float


def diagnostics(state: OrbitalSet, potential: InteractionPotential) -> HartreeDiagnostics:
    rho_grad, rho_lap = derivative_densities(state)
    return HartreeDiagnostics(
        time=state.time,
        energy=hartree_energy(state, potential),
        orthonormality_defect=orthonormality_defect(state),
        rho=density(state),
        rho_grad=rho_grad,
        rho_lap=rho_lap,
        d_value=d_value(state.N, rho_grad, rho_lap),
    )


@dataclass(frozen=True)
class HartreeTrajectory:
    """Snapshots of a self-consistent run (always includes t=0 and t_final)."""

    snapshots: tuple[OrbitalSet, ...]
    diagnostics: tuple[HartreeDiagnostics, ...]
    dt: float
    potential: InteractionPotential

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


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
    t_final - initial.time must be a positive multiple of dt.  Each step is
    one ``hartree_step`` call; the state after step k carries the time
    initial.time + k*dt.
    """
    if potential.grid != initial.grid:
        raise GridMismatchError("potential and orbitals use different grids")
    n_steps, recorded = step_schedule(t_final - initial.time, dt, snapshot_every)

    state = initial
    snaps = [state]
    diags = [diagnostics(state, potential)]
    for step in range(1, n_steps + 1):
        state = hartree_step(state, potential, dt, initial.time + step * dt)
        if not np.isfinite(state.values).all():
            raise NumericalFailure(f"non-finite orbital values at step {step}")
        if step in recorded:
            snaps.append(state)
            diags.append(diagnostics(state, potential))
    return HartreeTrajectory(
        snapshots=tuple(snaps), diagnostics=tuple(diags), dt=dt, potential=potential
    )
