"""Pair-phase gauge transform of the orbital dynamics.

Gauging multiplies each orbital by exp(+i*t*epsilon*(v * rho_t)).  The gauged
orbitals then satisfy  i d/dt psi_k = epsilon * h_g(t) psi_k  with

    h_g(t) = (i grad + t*eps*F_bar)^2 + t*eps*(A + B + 2*t*eps*C),

where, with the pair force F = grad v and density rho of the gauged family,

    F_bar_a = F_a * rho                       (mean force field),
    G_a     = sum_j conj(psi_j) d_a psi_j     (momentum-flux density),
    B       = -i * sum_a F_a * G_a,           A = conj(B),
    C       = -sum_a F_a * (F_bar_a rho).

(* is the periodic convolution.)  A + B = 2 Re B, so h_g is hermitian.  These
definitions make the elimination of the time derivative of the Hartree
potential exact:  -d/dt (v * rho_t) = epsilon * (A + B + 2*t*eps*C), which is
checked numerically by ``continuity_residual``.

Expanding the covariant square gives the equivalent form

    h_g = K + t*eps*R + (t*eps)^2 * W,
    R   = i grad . F_bar + F_bar . i grad + A + B,    W = F_bar.F_bar + 2C,

which is the production route: ``run_gauged`` steps with it, and with the
R and W terms weighted by (1/2, 1/3) it is the auxiliary generator
h~ = K + 1/2 t eps R + 1/3 (t eps)^2 W of the direct energy E_g.  The
covariant form is the oracle; both must agree to roundoff.  The kinetic K
and the gradients follow ``Grid.kinetic_mode`` (in lattice mode the time
stepper pairs the nearest-neighbour kinetic with centred-difference force
couplings, mirroring the many-body lift exactly).

``cauchy_schwarz_report`` is an oracle for the paper's explicit-constant
bound on the momentum coupling B; only tests call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lanczos import expm_multiply_hermitian
from .errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from .grid import (
    Field,
    Grid,
    convolve_periodic,
    gradient,
    gradient_multipliers,
    kinetic_multiplier,
    norm_l2,
    norm_sup,
)
from .hartree import OrbitalSet, density
from .model import InteractionPotential, step_schedule


def gauge_orbitals(state: OrbitalSet, potential: InteractionPotential) -> OrbitalSet:
    """Multiply each orbital by the pair phase exp(+i t eps (v * rho_t))."""
    if potential.grid != state.grid:
        raise GridMismatchError("potential and orbitals use different grids")
    u = convolve_periodic(potential.v, density(state)).values.real
    phase = np.exp(1j * state.time * state.scaling.epsilon * u)
    orbitals = tuple(Field(state.grid, phase * phi.values) for phi in state.orbitals)
    return OrbitalSet(orbitals=orbitals, time=state.time, scaling=state.scaling)


@dataclass(frozen=True)
class MeanFieldForces:
    """Density-averaged force data of a gauged orbital family at one time."""

    time: float
    f_bar: tuple[Field, ...]
    momentum_coupling: Field  # B above; A is its pointwise conjugate
    quad_correction: Field  # C above, real

    @property
    def mixed_real(self) -> np.ndarray:
        """A + B = 2 Re B as a real array."""
        return 2.0 * self.momentum_coupling.values.real


def mean_field_forces(state: OrbitalSet, potential: InteractionPotential) -> MeanFieldForces:
    if potential.grid != state.grid:
        raise GridMismatchError("potential and orbitals use different grids")
    grid = state.grid
    rho = density(state)
    f_bar = tuple(
        Field(grid, convolve_periodic(F, rho).values.real) for F in potential.force
    )
    G = [np.zeros(grid.shape, dtype=np.complex128) for _ in range(grid.dim)]
    for psi in state.orbitals:
        for a, dpsi in enumerate(gradient(psi)):
            G[a] += np.conj(psi.values) * dpsi.values
    B = np.zeros(grid.shape, dtype=np.complex128)
    Cvals = np.zeros(grid.shape)
    for a in range(grid.dim):
        B += -1j * convolve_periodic(potential.force[a], Field(grid, G[a])).values
        Cvals -= convolve_periodic(
            potential.force[a], Field(grid, f_bar[a].values.real * rho.values.real)
        ).values.real
    return MeanFieldForces(
        time=state.time,
        f_bar=f_bar,
        momentum_coupling=Field(grid, B),
        quad_correction=Field(grid, Cvals),
    )


def _broadcast(mult: np.ndarray, vals: np.ndarray, grid: Grid) -> np.ndarray:
    """Align a grid-shaped multiplier with values carrying extra trailing axes."""
    extra = vals.ndim - grid.dim
    return mult.reshape(mult.shape + (1,) * extra) if extra else mult


def _mult_apply(vals: np.ndarray, mult: np.ndarray, grid: Grid) -> np.ndarray:
    axes = tuple(range(grid.dim))
    spec = np.fft.fftn(vals, axes=axes)
    return np.fft.ifftn(_broadcast(mult, vals, grid) * spec, axes=axes)


def _grad_apply(vals: np.ndarray, grid: Grid) -> list[np.ndarray]:
    axes = tuple(range(grid.dim))
    spec = np.fft.fftn(vals, axes=axes)
    return [
        np.fft.ifftn(_broadcast(m, vals, grid) * spec, axes=axes)
        for m in gradient_multipliers(grid)
    ]


def _hg_apply_values(
    vals: np.ndarray,
    forces: MeanFieldForces,
    t: float,
    epsilon: float,
    grid: Grid,
    form: str,
    kinetic: np.ndarray | None = None,
    weights: tuple[float, float] = (1.0, 1.0),
) -> np.ndarray:
    """Apply h_g to raw values (any trailing stack axes).

    ``kinetic`` overrides the (i grad)^2 default of the expanded form, and
    ``weights`` = (wR, wW) scales its R and W terms: (1/2, 1/3) gives the
    auxiliary h~ = K + 1/2 t eps R + 1/3 (t eps)^2 W.
    """
    te = t * epsilon
    wR, wW = weights
    scalar = _broadcast(
        te * (wR * forces.mixed_real + 2.0 * te * wW * forces.quad_correction.values.real),
        vals,
        grid,
    )
    fbar = [_broadcast(f.values.real, vals, grid) for f in forces.f_bar]
    if form == "covariant":
        if kinetic is not None or weights != (1.0, 1.0):
            raise ConfigError("the covariant form fixes its kinetic and weights to h_g's")
        out = scalar * vals
        grads = _grad_apply(vals, grid)
        for a in range(grid.dim):
            w = 1j * grads[a] + te * fbar[a] * vals
            gw = _grad_apply(w, grid)[a]
            out = out + 1j * gw + te * fbar[a] * w
        return out
    if form == "expanded":
        mults = gradient_multipliers(grid)
        if kinetic is None:
            kinetic = sum(np.abs(m) ** 2 for m in mults)
        out = _mult_apply(vals, kinetic, grid)
        out = out + (scalar + wW * te**2 * sum(f**2 for f in fbar)) * vals
        grads = _grad_apply(vals, grid)
        for a in range(grid.dim):
            out = out + wR * te * (
                1j * _grad_apply(fbar[a] * vals, grid)[a] + fbar[a] * 1j * grads[a]
            )
        return out
    raise ConfigError(f"unknown form {form!r}")


def apply_h_gauged(
    psi: Field,
    forces: MeanFieldForces,
    t: float,
    epsilon: float,
    form: str = "covariant",
) -> Field:
    """Apply the gauged one-body generator in either algebraic form.

    The two forms are the same operator written differently and must agree
    to roundoff; the kinetic term here is (i grad)^2 with the grid's
    gradient.  Rejects force data computed at a different time.
    """
    if abs(forces.time - t) > 1e-12 * max(1.0, abs(t)):
        raise ContractViolation(
            f"stale forces: computed at t={forces.time}, requested t={t}"
        )
    out = _hg_apply_values(psi.values, forces, t, epsilon, psi.grid, form)
    return Field(psi.grid, out)


def cauchy_schwarz_report(
    state: OrbitalSet, potential: InteractionPotential
) -> dict[str, float]:
    """Explicit-constant bound on the momentum coupling.

    sup |B| <= sup|F| * sqrt(N) * (sum_k |grad psi_k|_2^2)^(1/2),
    with |F| the pointwise Euclidean magnitude of the force components.
    """
    forces = mean_field_forces(state, potential)
    lhs = norm_sup(forces.momentum_coupling)
    f_mag = np.sqrt(sum(F.values.real**2 for F in potential.force))
    grad_sq = 0.0
    for psi in state.orbitals:
        for g in gradient(psi):
            grad_sq += norm_l2(g) ** 2
    rhs = float(np.max(f_mag)) * np.sqrt(state.N) * np.sqrt(grad_sq)
    return {"lhs": lhs, "rhs": float(rhs)}


@dataclass(frozen=True)
class GaugedTrajectory:
    snapshots: tuple[OrbitalSet, ...]
    dt: float
    potential: InteractionPotential

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])


def run_gauged(
    initial: OrbitalSet,
    potential: InteractionPotential,
    t_final: float,
    dt: float,
    snapshot_every: int | None = None,
) -> GaugedTrajectory:
    """Integrate the gauged orbital flow with midpoint-frozen exponentials.

    Each step freezes the self-consistent force data at the midpoint (one
    predictor half-step supplies the midpoint orbitals) and applies the
    resulting frozen hermitian generator exactly via Krylov exponentials —
    second order in dt, exactly norm preserving.

    The generator's kinetic term follows ``grid.kinetic_mode``: the spectral
    multiplier, or the nearest-neighbour lattice kinetic paired with
    centred-difference couplings (matching the many-body lift).
    """
    grid = initial.grid
    eps = initial.scaling.epsilon
    n_steps, recorded = step_schedule(t_final - initial.time, dt, snapshot_every)

    kin = kinetic_multiplier(grid)

    def stack(state: OrbitalSet) -> np.ndarray:
        return np.stack([phi.values for phi in state.orbitals], axis=-1)

    def unstack(vals: np.ndarray, time: float) -> OrbitalSet:
        orbs = tuple(Field(grid, vals[..., j]) for j in range(vals.shape[-1]))
        return OrbitalSet(orbitals=orbs, time=time, scaling=initial.scaling)

    def generator(forces: MeanFieldForces, t: float):
        def matvec(stacked: np.ndarray) -> np.ndarray:
            return _hg_apply_values(
                stacked, forces, t, eps, grid, "expanded", kinetic=kin
            )

        return matvec

    state = initial
    vals = stack(state)
    snaps = [state]
    for step in range(1, n_steps + 1):
        t0 = initial.time + (step - 1) * dt
        t_mid = t0 + 0.5 * dt
        forces_now = mean_field_forces(unstack(vals, t0), potential)
        half = expm_multiply_hermitian(generator(forces_now, t0), vals, -0.5j * dt * eps)
        forces_mid = mean_field_forces(unstack(half, t_mid), potential)
        vals = expm_multiply_hermitian(generator(forces_mid, t_mid), vals, -1j * dt * eps)
        if not np.all(np.isfinite(vals)):
            raise NumericalFailure(f"non-finite gauged orbitals at step {step}")
        if step in recorded:
            snaps.append(unstack(vals, initial.time + step * dt))
    return GaugedTrajectory(snapshots=tuple(snaps), dt=dt, potential=potential)


def continuity_residual(traj: GaugedTrajectory, potential: InteractionPotential) -> np.ndarray:
    """Relative defect of d/dt (v * rho_t) + eps*(A + B + 2 t eps C) at interior snapshots.

    The time derivative is a centred difference over the snapshot spacing,
    so the residual is O(spacing^2) + O(dt^2) and must shrink by about 4x
    (at least 3x) when both dt and the snapshot spacing are halved.
    """
    if len(traj.snapshots) < 3:
        raise ConfigError("continuity residual needs at least 3 snapshots")
    eps = traj.snapshots[0].scaling.epsilon
    times = traj.times
    u = [
        convolve_periodic(potential.v, density(s)).values.real for s in traj.snapshots
    ]
    out = []
    for i in range(1, len(traj.snapshots) - 1):
        du = (u[i + 1] - u[i - 1]) / (times[i + 1] - times[i - 1])
        forces = mean_field_forces(traj.snapshots[i], potential)
        rhs = eps * (
            forces.mixed_real + 2.0 * times[i] * eps * forces.quad_correction.values.real
        )
        defect = np.max(np.abs(du + rhs))
        scale = max(np.max(np.abs(du)), np.max(np.abs(rhs)), 1e-300)
        out.append(defect / scale)
    return np.array(out)
