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
from functools import lru_cache

import numpy as np

from ._lanczos import expm_multiply_hermitian
from .errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from .grid import (
    Field,
    Grid,
    _fftn,
    _gradient_values,
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
    return OrbitalSet.from_values(state.grid, phase * state.values, state.time, state.scaling)


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
    """F_bar, B and C of the module docstring at the state's time."""
    grid = state.grid
    if potential.grid != grid:
        raise GridMismatchError("potential and orbitals use different grids")
    f_bar, B, C = _force_values(state.values, potential)
    return MeanFieldForces(
        time=state.time,
        f_bar=tuple(Field(grid, f) for f in f_bar),
        momentum_coupling=Field(grid, B),
        quad_correction=Field(grid, C),
    )


def _force_values(
    psi: np.ndarray, potential: InteractionPotential
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F_bar stacked on axis 0, B, C) of the orbitals stacked on axis 0 of ``psi`` (any layout).

    rho is summed orbital by orbital and transformed as complex, as
    ``density`` and ``Field.spectrum`` do.  The 3 d convolutions with the
    force components F_a run as two stacked transform stages, F_a^ rho^
    first and then [G_a, F_bar_a rho]; each product keeps the operand order
    of ``convolve_periodic``, so the result is bit-identical to convolving
    one pair at a time.
    """
    grid = potential.grid
    d = grid.dim
    force_hat = potential.force_spectrum
    rho = np.zeros(grid.shape)
    for phi in psi:
        rho += np.abs(phi) ** 2
    axes = tuple(range(1, d + 1))
    rho_hat = _fftn(rho.astype(np.complex128), range(d))
    f_bar = (grid.cell_volume * _fftn(force_hat * rho_hat, axes, inverse=True)).real

    conj_psi = np.conj(psi)
    flux = np.zeros((2, d) + grid.shape, dtype=np.complex128)  # [G_a], [F_bar_a rho]
    for a, grad in enumerate(_gradient_values(psi, grid)):
        for term in conj_psi * grad:  # summed orbital by orbital
            flux[0, a] += term
    flux[1] = f_bar * rho
    flux_axes = tuple(range(2, d + 2))
    conv = grid.cell_volume * _fftn(force_hat * _fftn(flux, flux_axes), flux_axes, inverse=True)
    B = np.zeros(grid.shape, dtype=np.complex128)
    C = np.zeros(grid.shape)
    for a in range(d):
        B += -1j * conv[0, a]
        C -= conv[1, a].real
    return f_bar, B, C


@lru_cache(maxsize=None)
def _generator_multipliers(grid: Grid) -> np.ndarray:
    """[K, d_1, ..., d_d] multipliers stacked, with a trailing orbital axis.

    The frozen generator multiplies psi^ by all of them and F_bar_a psi^ by
    d_a, which is entry 1 + a.
    """
    mults = np.stack([kinetic_multiplier(grid), *gradient_multipliers(grid)])
    return mults.reshape(mults.shape + (1,))


def _frozen_generator(
    forces: MeanFieldForces,
    t: float,
    epsilon: float,
    grid: Grid,
    weights: tuple[float, float] = (1.0, 1.0),
):
    """``_generator`` of the force data in ``forces``."""
    f_bar = np.stack([f.values.real for f in forces.f_bar])
    return _generator(f_bar, forces.momentum_coupling.values, forces.quad_correction.values.real,
                      t, epsilon, grid, weights)


def _generator(
    f_bar: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    t: float,
    epsilon: float,
    grid: Grid,
    weights: tuple[float, float] = (1.0, 1.0),
):
    """Matvec of the expanded generator K + wR t eps R + wW (t eps)^2 W, frozen at (F_bar, B, C, t).

    ``f_bar`` holds the real F_bar_a stacked on axis 0 and ``B``, ``C`` the
    grid values of the module docstring, as ``_force_values`` returns them.
    ``weights`` = (wR, wW); (1/2, 1/3) gives the auxiliary h~.  The matvec
    acts on grid-shaped values with one trailing orbital axis.  Everything
    that depends only on (F_bar, B, C, t) is computed here once; each call
    makes one ``fftn`` over the stack [psi, F_bar_1 psi, ..., F_bar_d psi]
    and one ``ifftn`` over [K psi^, d_a psi^, d_a (F_bar_a psi)^].  Batched
    FFT lines and the kept operand order make it bit-identical to
    transforming and combining each term on its own.
    """
    te = t * epsilon
    wR, wW = weights
    d = grid.dim
    col = grid.shape + (1,)
    scalar = te * (wR * (2.0 * B.real) + 2.0 * te * wW * C)
    fbar = f_bar.reshape((d,) + col)
    diag = scalar.reshape(col) + wW * te**2 * sum(f**2 for f in fbar)
    i_fbar = fbar * 1j
    coupling = wR * te
    mults = _generator_multipliers(grid)
    axes = tuple(range(1, d + 1))

    def matvec(vals: np.ndarray) -> np.ndarray:
        stack = np.empty((1 + d,) + vals.shape, dtype=np.complex128)
        stack[0] = vals
        np.multiply(fbar, vals, out=stack[1:])
        spec = _fftn(stack, axes)
        prods = np.empty((1 + 2 * d,) + vals.shape, dtype=np.complex128)
        np.multiply(mults, spec[0], out=prods[: 1 + d])
        np.multiply(mults[1:], spec[1:], out=prods[1 + d :])
        back = _fftn(prods, axes, inverse=True)
        out = back[0] + diag * vals
        for a in range(d):
            out += coupling * (1j * back[1 + d + a] + i_fbar[a] * back[1 + a])
        return out

    return matvec


def _covariant_apply(
    vals: np.ndarray, forces: MeanFieldForces, t: float, epsilon: float, grid: Grid
) -> np.ndarray:
    """The oracle form (i grad + t eps F_bar)^2 + t eps (A + B + 2 t eps C) on grid values.

    The square's kinetic part is sum_a |gradient multiplier|^2, so the
    multiplier K - sum_a |m_a|^2 is added to make it the grid's K: zero up
    to roundoff in spectral mode, the lattice kinetic's difference from the
    squared centred difference in lattice mode.
    """
    te = t * epsilon
    mults = gradient_multipliers(grid)

    def deriv(u: np.ndarray, a: int) -> np.ndarray:
        return np.fft.ifftn(mults[a] * np.fft.fftn(u))

    kin_defect = kinetic_multiplier(grid) - sum(np.abs(m) ** 2 for m in mults)
    out = np.fft.ifftn(kin_defect * np.fft.fftn(vals))
    out = out + te * (forces.mixed_real + 2.0 * te * forces.quad_correction.values.real) * vals
    for a, f in enumerate(forces.f_bar):
        w = 1j * deriv(vals, a) + te * f.values.real * vals
        out = out + 1j * deriv(w, a) + te * f.values.real * w
    return out


def apply_h_gauged(
    psi: Field,
    forces: MeanFieldForces,
    t: float,
    epsilon: float,
    form: str = "covariant",
) -> Field:
    """Apply the gauged one-body generator in either algebraic form.

    The two forms are the same operator written differently and must agree
    to roundoff; both use the grid's kinetic K, so "expanded" is exactly the
    operator ``run_gauged`` steps with.  Rejects force data computed at a
    different time.
    """
    if abs(forces.time - t) > 1e-12 * max(1.0, abs(t)):
        raise ContractViolation(
            f"stale forces: computed at t={forces.time}, requested t={t}"
        )
    if form == "covariant":
        out = _covariant_apply(psi.values, forces, t, epsilon, psi.grid)
    elif form == "expanded":
        out = _frozen_generator(forces, t, epsilon, psi.grid)(psi.values[..., None])[..., 0]
    else:
        raise ConfigError(f"unknown form {form!r}")
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

    The orbitals are stepped as one ``(*grid.shape, N)`` array, orbital axis
    last as the frozen generator takes them, and the forces read its
    orbital-first transpose; a recorded snapshot is an ``OrbitalSet`` of that
    transpose.
    """
    grid = initial.grid
    if potential.grid != grid:
        raise GridMismatchError("potential and orbitals use different grids")
    eps = initial.scaling.epsilon
    n_steps, recorded = step_schedule(t_final - initial.time, dt, snapshot_every)
    to_last = (*range(1, grid.dim + 1), 0)  # orbital axis last, and back
    to_first = (grid.dim, *range(grid.dim))
    vals = np.ascontiguousarray(initial.values.transpose(to_last))
    snaps = [initial]
    for step in range(1, n_steps + 1):
        t0 = initial.time + (step - 1) * dt
        t_mid = t0 + 0.5 * dt
        gen = _generator(*_force_values(vals.transpose(to_first), potential), t0, eps, grid)
        half = expm_multiply_hermitian(gen, vals, -0.5j * dt * eps)
        gen = _generator(*_force_values(half.transpose(to_first), potential), t_mid, eps, grid)
        vals = expm_multiply_hermitian(gen, vals, -1j * dt * eps)
        if not np.isfinite(vals).all():
            raise NumericalFailure(f"non-finite gauged orbitals at step {step}")
        if step in recorded:
            snaps.append(OrbitalSet.from_values(
                grid, vals.transpose(to_first), initial.time + step * dt, initial.scaling))
    return GaugedTrajectory(snapshots=tuple(snaps), dt=dt, potential=potential)


def require_continuity_snapshots(count: int) -> None:
    """Raise ``ConfigError`` unless ``count`` snapshots leave an interior one."""
    if count < 3:
        raise ConfigError("continuity residual needs at least 3 snapshots")


def continuity_residual(traj: GaugedTrajectory, potential: InteractionPotential) -> np.ndarray:
    """Relative defect of d/dt (v * rho_t) + eps*(A + B + 2 t eps C) at interior snapshots.

    The time derivative is a centred difference over the snapshot spacing,
    three-point where a short last interval makes the two gaps differ.
    The residual has a time part, O(spacing^2) + O(dt^2), which shrinks about
    4x when both dt and the snapshot spacing are halved, and a space part,
    O(h^2) in the grid spacing h, from the mismatch between the continuum A,
    B, C formulas and the grid's own kinetic K.  At the default configuration
    the space part dominates: the value is flat in t (0.376 at N=2) and
    shrinks about 4x per grid doubling.  There v * rho hardly moves over the
    snapshot spacing, so the centred difference keeps only 7-9 significant
    digits.
    """
    require_continuity_snapshots(len(traj.snapshots))
    eps = traj.snapshots[0].scaling.epsilon
    times = traj.times
    u = [
        convolve_periodic(potential.v, density(s)).values.real for s in traj.snapshots
    ]
    out = []
    for i in range(1, len(traj.snapshots) - 1):
        h1, h2 = times[i] - times[i - 1], times[i + 1] - times[i]
        if round(h1 / traj.dt) == round(h2 / traj.dt):
            du = (u[i + 1] - u[i - 1]) / (times[i + 1] - times[i - 1])
        else:  # three-point formula for unequal gaps
            du = (h1**2 * u[i + 1] - h2**2 * u[i - 1] + (h2**2 - h1**2) * u[i]) / (
                h1 * h2 * (h1 + h2))
        forces = mean_field_forces(traj.snapshots[i], potential)
        rhs = eps * (
            forces.mixed_real + 2.0 * times[i] * eps * forces.quad_correction.values.real
        )
        defect = np.max(np.abs(du + rhs))
        scale = max(np.max(np.abs(du)), np.max(np.abs(rhs)), 1e-300)
        out.append(defect / scale)
    return np.array(out)
