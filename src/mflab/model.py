"""Interaction potentials, the coupling rule, time schedules, and initial orbital families.

Sign convention: the pair force stored on an :class:`InteractionPotential`
is ``force = +grad v``.  Every gauged generator in this package is written
in terms of that force field, and the convolution identities relating the
mean-field force to the time derivative of the Hartree potential hold with
this sign (see the gauge module tests).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from numbers import Integral

import numpy as np
from scipy.linalg import eigh

from .errors import ConfigError, ContractViolation, NumericalFailure
from .grid import Grid, _fftn, gradient, inner, norm_l1, norm_l2

EPSILON_RULES = ("standard", "dimension_adapted")
# steps one time loop may take (1000x the default run)
MAX_STEPS = 10**6


def epsilon_for(N: int, rule: str = "standard", dim: int = 3) -> float:
    """N**(-2/3) by rule "standard", in any dimension; N**(1/dim - 1) by "dimension_adapted"."""
    if rule == "standard":
        return float(N) ** (-2.0 / 3.0)
    if rule == "dimension_adapted":
        return float(N) ** (1.0 / dim - 1.0)
    raise ConfigError(f"epsilon_rule must be one of {EPSILON_RULES}, got {rule!r}")


def step_count(span: float, dt: float) -> int:
    """The number of steps dt in ``span``, a positive integer multiple of ``dt``."""
    if dt <= 0 or span <= 0:
        raise ConfigError("time span and dt must be positive")
    if not span / dt <= MAX_STEPS:  # also an overflowing quotient
        raise ConfigError(
            f"time span {span} takes {span / dt:.3g} steps of dt = {dt}, "
            f"over the {MAX_STEPS}-step budget"
        )
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, span):
        raise ConfigError(f"time span {span} is not an integer multiple of dt = {dt}")
    return n_steps


def step_schedule(span: float, dt: float, every: int | None = None) -> tuple[int, frozenset[int]]:
    """``step_count(span, dt)`` and the recorded step indices: every ``every`` steps
    (default max(1, floor(span / (100*dt))), about 100 snapshots) and always
    steps 0 and n_steps.  ``every`` is None or an integer >= 1."""
    n_steps = step_count(span, dt)
    if every is not None and not (isinstance(every, Integral) and every >= 1):
        raise ConfigError(f"snapshot_every must be an integer >= 1, got {every!r}")
    every = every or max(1, math.floor(span / (100.0 * dt)))
    return n_steps, frozenset({0, n_steps, *range(every, n_steps, every)})


# ---------------------------------------------------------------------------
# interaction potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InteractionPotential:
    """Even periodic pair potential v and its force field ``force = grad v``.

    ``v`` is real on the grid; ``force`` stacks its real components on axis
    0, shape (dim, *grid.shape).  Their spectra are computed on first use
    and kept, as ``grid.convolve_periodic`` takes them.  ``_pair_diagonals``
    caches, per (L, N), the configuration-space diagonal of the pair sum
    (``manybody.pairwise_potential_vector``).
    """

    grid: Grid
    v: np.ndarray = field(repr=False)
    force: np.ndarray = field(repr=False)
    _pair_diagonals: dict = field(default_factory=dict, repr=False)

    @cached_property
    def v_spectrum(self) -> np.ndarray:
        return _fftn(self.v, range(self.grid.dim))

    @cached_property
    def force_spectrum(self) -> np.ndarray:
        return _fftn(self.force, range(1, self.grid.dim + 1))


def _reflect(vals: np.ndarray) -> np.ndarray:
    """u(-x) of periodic grid values u(x): each axis flipped and rolled by one site."""
    for axis in range(vals.ndim):
        vals = np.roll(np.flip(vals, axis=axis), 1, axis=axis)
    return vals


def build_potential(grid: Grid, kind: str, *, amplitude: float = 1.0, width: float = 1.0,
                    amplitudes: Sequence[float] = (), offset: float = 0.0
                    ) -> InteractionPotential:
    """Construct an even periodic pair potential.

    kinds:
      "gaussian":   amplitude * sum over periodic images of exp(-|x|^2/(2 width^2));
                    requires width >= 3*spacing so the profile is resolved.
      "cosine_sum": offset + sum_axes sum_j amplitudes[j-1]*cos(2*pi*j*x_a/L);
                    band-limited, harmonics must stay below the Nyquist mode.
    Each kind ignores the other's parameters.  A ``v`` or force that is not
    finite (an overflowing amplitude, say) raises NumericalFailure.
    """
    disp = grid.displacement_mesh()
    if kind == "gaussian":
        amplitude, width = float(amplitude), float(width)
        if width < 3.0 * grid.spacing:
            raise ConfigError(
                f"gaussian width {width} under-resolved: need >= 3*spacing = {3*grid.spacing}"
            )
        width_sq = np.float64(width) ** 2  # inf, not OverflowError, for a huge width
        vvals = np.zeros(grid.shape)
        fvals = [np.zeros(grid.shape) for _ in range(grid.dim)]
        for image in product((-1.0, 0.0, 1.0), repeat=grid.dim):
            shifted = [disp[a] + image[a] * grid.box_length for a in range(grid.dim)]
            r2 = sum(s**2 for s in shifted)
            bump = amplitude * np.exp(-r2 / (2.0 * width_sq))
            vvals += bump
            for a in range(grid.dim):
                fvals[a] += bump * (-shifted[a] / width_sq)
    elif kind == "cosine_sum":
        amplitudes = [float(a) for a in amplitudes]
        if len(amplitudes) >= grid.sites_per_dim // 2:
            raise ConfigError("cosine_sum harmonics reach the Nyquist mode")
        vvals = np.full(grid.shape, float(offset))
        fvals = [np.zeros(grid.shape) for _ in range(grid.dim)]
        for a in range(grid.dim):
            for j, amp in enumerate(amplitudes, start=1):
                kj = 2.0 * np.pi * j / grid.box_length
                vvals += amp * np.cos(kj * disp[a])
                fvals[a] += -amp * kj * np.sin(kj * disp[a])
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")

    # Enforce exact odd parity of the sampled force under the grid's negation
    # map.  Truncated image sums leave a tiny parity defect at the half-box
    # seam, and downstream algebra (antisymmetric difference matrices,
    # exchange-symmetric pair kernels) needs the sampled force exactly odd.
    force = np.stack([0.5 * (f - _reflect(f)) for f in fvals])
    if not (np.all(np.isfinite(vvals)) and np.all(np.isfinite(force))):
        raise NumericalFailure(f"{kind} potential or its force is not finite")
    defect = float(np.max(np.abs(vvals - _reflect(vvals))))
    if not defect <= 1e-12 * max(1.0, float(np.max(np.abs(vvals)))):
        raise ContractViolation(f"potential is not even: defect {defect}")
    return InteractionPotential(grid=grid, v=vvals, force=force)


# ---------------------------------------------------------------------------
# initial orbital families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialFamily:
    """Recipe for the t=0 orbitals.

    kind "delocalized": the N lowest plane waves (constant total density).
    kind "localized":   N periodic Gaussian bumps of the given width at
    equally spaced centres along axis 0, orthonormalised symmetrically
    (inverse square root of the overlap matrix), which perturbs each bump
    as little as possible.
    """

    kind: str
    width: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("delocalized", "localized"):
            raise ConfigError(f"unknown initial family {self.kind!r}")


def _plane_wave_modes(N: int, dim: int) -> list[tuple[int, ...]]:
    reach = 1
    while (2 * reach + 1) ** dim < 2 * N + 1:
        reach += 1

    def key(m: tuple[int, ...]):
        parts = tuple((abs(c), 0 if c >= 0 else 1) for c in m)
        return (sum(c * c for c in m),) + parts

    modes = sorted(product(range(-reach, reach + 1), repeat=dim), key=key)
    return modes[:N]


def _periodic_bump(coord: np.ndarray, centre: float, width: float, box: float) -> np.ndarray:
    """exp(-x^2 / (2 width^2)) summed over the periodic images of x = coord - centre.

    The images -1, 0, 1 come first, then the pairs -k, k for k = 2, 3, ...
    until the next pair changes no value of the sum.  A narrow bump thus keeps
    the bits of its three-image sum (at width 1.2 on box 8 the pair +-2 is
    below e^-44 of it), and a wide one takes every image above roundoff.
    """
    if width >= 2.0 * box:
        # flat to roundoff: by Poisson summation the sum's first Fourier mode
        # is exp(-2 pi^2 width^2 / box^2) < 1e-34 of its mean
        return np.ones_like(coord)
    off = np.mod(coord - centre + 0.5 * box, box) - 0.5 * box
    width_sq = np.float64(width) ** 2

    def image(k: float) -> np.ndarray:
        return np.exp(-((off + k * box) ** 2) / (2.0 * width_sq))

    total = np.zeros_like(off)
    for k in (-1.0, 0.0, 1.0):
        total += image(k)
    k = 2.0
    while not np.array_equal(total + (pair := image(-k) + image(k)), total):
        total += pair
        k += 1.0
    return total


def make_orbitals(family: InitialFamily, N: int, grid: Grid, epsilon: float | None = None):
    """Build the initial orthonormal orbitals for the given family, at coupling
    ``epsilon`` (default ``epsilon_for(N)``)."""
    from .hartree import OrbitalSet  # local import keeps module layering acyclic

    if not 1 <= N <= grid.total_sites:
        raise ConfigError(f"cannot place {N} orthonormal orbitals on {grid.total_sites} sites")

    if family.kind == "delocalized":
        xs = grid.coordinate_mesh()
        amp = grid.box_length ** (-grid.dim / 2.0)
        values = np.stack([
            amp * np.exp(1j * sum(
                (2.0 * np.pi * m[a] / grid.box_length) * xs[a] for a in range(grid.dim)))
            for m in _plane_wave_modes(N, grid.dim)
        ])
    else:
        if family.width < grid.spacing:
            raise ConfigError(
                f"localized width {family.width} under-resolved: need >= spacing {grid.spacing}"
            )
        xs = grid.coordinate_mesh()
        L = grid.box_length
        raw = []
        for j in range(N):
            centre = (j + 0.5) * L / N
            g = _periodic_bump(xs[0], centre, family.width, L)
            for a in range(1, grid.dim):
                g = g * _periodic_bump(xs[a], 0.5 * L, family.width, L)
            # the norm of the complex orbital: BLAS sums a real array in another order
            norm = norm_l2(g.astype(np.complex128), grid)
            raw.append((g / norm).astype(np.complex128))
        S = np.array([[inner(a, b, grid) for b in raw] for a in raw])
        evals, evecs = eigh(S)
        if evals.min() <= 0 or evals.max() / evals.min() > 1e8:
            raise NumericalFailure(
                f"bump overlap matrix ill-conditioned (cond {evals.max()/max(evals.min(), 1e-300):.2e})"
            )
        S_inv_half = (evecs * evals**-0.5) @ evecs.conj().T
        stack = np.stack(raw, axis=-1)
        values = np.ascontiguousarray(np.moveaxis(stack @ S_inv_half, -1, 0))

    return OrbitalSet(grid, values, 0.0, epsilon_for(N) if epsilon is None else epsilon)


# ---------------------------------------------------------------------------
# semiclassical-structure diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Scaled kinetic moments of an orbital family and the derived D value.

    kin_grad_scaled = N^(-5/3) * sum_k |grad phi_k|_2^2
    kin_lap_scaled  = N^(-7/3) * sum_k |Lap  phi_k|_2^2
    grad_rho_l1     = L1 norm of |grad rho| (pointwise Euclidean magnitude)
    d_value         = max(sqrt-scaled kinetic moments, 1)
    """

    kin_grad_scaled: float
    kin_lap_scaled: float
    grad_rho_l1: float
    d_value: float


def derivative_densities(orbital_set) -> tuple[np.ndarray, np.ndarray]:
    """rho_grad = sum_k |grad phi_k|^2 and rho_lap = sum_k |Lap phi_k|^2.

    Gradient and Laplacian follow the grid's kinetic mode (the Laplacian is
    -K, and |-K phi|^2 = |K phi|^2 of the family's ``kinetic_values``), so
    lattice runs are judged by the operators that actually generate their
    dynamics.  The gradients of all orbitals come from one stacked call and
    are summed orbital by orbital, axis by axis.
    """
    grid = orbital_set.grid
    grads = gradient(orbital_set.values, grid)
    rho_grad = np.zeros(grid.shape)
    rho_lap = np.zeros(grid.shape)
    for k, k_phi in enumerate(orbital_set.kinetic_values):
        for g in grads:
            rho_grad += np.abs(g[k]) ** 2
        rho_lap += np.abs(k_phi) ** 2
    return rho_grad, rho_lap


def d_value(N: int, grad_l1: float, lap_l1: float) -> float:
    """max(N^(-5/6) grad_l1^(1/2), N^(-7/6) lap_l1^(1/2), 1) of the L1 norms of the
    derivative densities rho_grad and rho_lap."""
    return float(
        max(
            float(N) ** (-5.0 / 6.0) * np.sqrt(grad_l1),
            float(N) ** (-7.0 / 6.0) * np.sqrt(lap_l1),
            1.0,
        )
    )


def assumption_diagnostics(orbital_set) -> AssumptionReport:
    """Diagnose how the orbital family sits relative to the mean-field scaling."""
    from .hartree import density  # local import keeps module layering acyclic

    grid = orbital_set.grid
    N = orbital_set.N
    grad_l1, lap_l1 = (norm_l1(r, grid) for r in derivative_densities(orbital_set))
    grad_mag = np.sqrt(sum(np.abs(g) ** 2 for g in gradient(density(orbital_set.values), grid)))

    return AssumptionReport(
        kin_grad_scaled=float(N) ** (-5.0 / 3.0) * grad_l1,
        kin_lap_scaled=float(N) ** (-7.0 / 3.0) * lap_l1,
        grad_rho_l1=norm_l1(grad_mag, grid),
        d_value=d_value(N, grad_l1, lap_l1),
    )
