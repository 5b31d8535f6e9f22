"""Periodic grids and spectral/lattice kinetic operators.

Conventions used throughout the package:

* The torus [0, box_length)^dim is sampled on ``sites_per_dim`` points per
  axis, spacing ``h = box_length / sites_per_dim``.  Site values are stored
  in C order, axis 0 slowest.
* Grid data is a plain numpy array whose trailing ``dim`` axes are the
  grid's sites; leading axes stack several functions (the orbitals of a
  family, the components of a force), and the operations here act on every
  stacked function at once.  The ``Grid`` is passed alongside.  Real
  functions (potentials, forces, densities, observables) are real arrays.
* The momentum lattice per axis is ``2*pi/box_length * {-n/2, ..., n/2-1}``
  in FFT ordering (``numpy.fft.fftfreq`` convention).  A spectrum is the
  ``fftn`` over the grid axes of the complex128 cast of the values.
* ``Grid.kinetic_mode`` is the only switch between the two kinetic
  operators: "spectral" (multipliers ``|k|**2`` and ``i*k_axis``) or
  "lattice" (nearest-neighbour kinetic and centred-difference gradient).
  ``kinetic_multiplier``, ``gradient_multipliers``, ``gradient``,
  ``dense_kinetic`` and ``dense_gradient`` all read it from the grid.
* All inner products and norms carry the measure weight ``h**dim``, so that
  an orthonormal family of sampled continuum functions has unit L2 norm.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import ConfigError

KINETIC_MODES = ("spectral", "lattice")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, box_length)^dim.

    ``kinetic_mode`` selects which kinetic operator Hamiltonians built on
    this grid use: "spectral" (multiplier ``|k|**2``) or "lattice" (nearest
    neighbour ``(2*dim*I - sum of shifts)/h**2``).
    """

    dim: int
    sites_per_dim: int
    box_length: float
    kinetic_mode: str = "spectral"

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.sites_per_dim < 2 or self.sites_per_dim % 2 != 0:
            raise ConfigError(
                f"sites_per_dim must be even and >= 2, got {self.sites_per_dim}"
            )
        if not 1e-100 <= self.spacing <= 1e100:
            # keeps h**dim and 1/h**2 finite and normal
            raise ConfigError(
                f"box_length {self.box_length} gives grid spacing {self.spacing}, "
                "outside [1e-100, 1e100]"
            )
        if self.kinetic_mode not in KINETIC_MODES:
            raise ConfigError(
                f"kinetic_mode must be one of {KINETIC_MODES}, got {self.kinetic_mode!r}"
            )

    @property
    def spacing(self) -> float:
        return self.box_length / self.sites_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.sites_per_dim,) * self.dim

    @property
    def total_sites(self) -> int:
        return self.sites_per_dim**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Sample points along one axis (all axes are identical)."""
        return self.spacing * np.arange(self.sites_per_dim)

    def axis_wavenumbers(self) -> np.ndarray:
        """Momentum lattice along one axis, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.sites_per_dim, d=self.spacing)

    def coordinate_mesh(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coordinates()
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def displacement_mesh(self) -> tuple[np.ndarray, ...]:
        """Signed minimal-image displacement from the origin, per axis.

        Values lie in [-box_length/2, box_length/2); useful for sampling
        even periodic functions of the separation.
        """
        L = self.box_length
        out = []
        for x in self.coordinate_mesh():
            out.append(np.mod(x + 0.5 * L, L) - 0.5 * L)
        return tuple(out)

    def wavenumber_mesh(self) -> tuple[np.ndarray, ...]:
        k = self.axis_wavenumbers()
        return tuple(np.meshgrid(*([k] * self.dim), indexing="ij"))


def _fftn(vals: np.ndarray, axes: Sequence[int], inverse: bool = False) -> np.ndarray:
    """``np.fft.fftn(vals, axes=axes)`` (``ifftn`` if ``inverse``), one axis at a time.

    fftn applies ``fft`` to the axes from the last to the first, and ``fft``
    calls numpy's pocketfft gufunc with the factor 1 forward and 1.0/n inverse
    (numpy's "backward" normalisation).  This loop makes the same gufunc calls
    in the same order, so the result is bit-identical, but skips the argument
    handling of fftn and fft, which on small grids costs more than the
    transforms.  Each axis writes a fresh C-ordered complex array, so any
    input layout works, and a stacked array transforms each line as on its own.
    The gufunc has complex loops only, so real values are transformed as
    their complex128 cast.
    """
    ufunc = _pocketfft.ifft if inverse else _pocketfft.fft
    for axis in reversed(axes):
        fct = 1.0 / vals.shape[axis] if inverse else 1
        vals = ufunc(vals, fct, axes=[(axis,), (), (axis,)], out=np.empty(vals.shape, complex))
    return vals


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def kinetic_multiplier(grid: Grid) -> np.ndarray:
    """Fourier multiplier of the grid's kinetic operator K = -Laplace.

    spectral: sum_a k_a**2.
    lattice:  sum_a 4*sin(k_a*h/2)**2 / h**2, which is exactly the Fourier
    diagonalisation of (2*dim*I - sum of nearest-neighbour shifts)/h**2.
    """
    ks = grid.wavenumber_mesh()
    h = grid.spacing
    if grid.kinetic_mode == "lattice":
        return sum(4.0 * np.sin(0.5 * k * h) ** 2 / h**2 for k in ks)
    return sum(k**2 for k in ks)


@lru_cache(maxsize=None)
def gradient_multipliers(grid: Grid) -> tuple[np.ndarray, ...]:
    """Fourier multipliers of the grid's d/dx_a (one per axis), i included.

    spectral: i*k_a.  lattice: i*sin(k_a*h)/h, the diagonalisation of the
    centred difference (u(x+h) - u(x-h)) / (2h).
    """
    ks = grid.wavenumber_mesh()
    h = grid.spacing
    if grid.kinetic_mode == "lattice":
        return tuple(1j * np.sin(k * h) / h for k in ks)
    return tuple(1j * k for k in ks)


# ---------------------------------------------------------------------------
# operations on grid values (leading stack axes allowed)
# ---------------------------------------------------------------------------


def apply_multiplier(vals: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """The Fourier multiplier applied to grid values that may carry leading stack axes."""
    axes = range(vals.ndim - multiplier.ndim, vals.ndim)
    return _fftn(multiplier * _fftn(vals, axes), axes, inverse=True)


@lru_cache(maxsize=None)
def _shift_index(n: int, step: int) -> np.ndarray:
    """Sites of u(x + step*h) on a periodic axis of n sites: ``take`` of these is ``np.roll(u, -step)``."""
    return (np.arange(n) + step) % n


def gradient(vals: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """Gradient components, one per axis, of grid values that may carry leading stack axes.

    spectral: the multipliers i*k_a.  lattice: the centred difference,
    evaluated by periodic shifts (exactly antisymmetric).  Each stacked
    function's components equal those of the function on its own.
    """
    axes = range(vals.ndim - grid.dim, vals.ndim)
    if grid.kinetic_mode == "lattice":
        h = grid.spacing
        up, down = _shift_index(grid.sites_per_dim, 1), _shift_index(grid.sites_per_dim, -1)
        return tuple((vals.take(up, axis=a) - vals.take(down, axis=a)) / (2.0 * h) for a in axes)
    spectrum = _fftn(vals, axes)
    return tuple(_fftn(m * spectrum, axes, inverse=True) for m in gradient_multipliers(grid))


def convolve_periodic(kernel_spectrum: np.ndarray, vals: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic convolution (a * b)(x) = h^dim * sum_y a(x-y) b(y) of kernels a with values b.

    ``kernel_spectrum`` is the spectrum of the kernels a, which
    ``InteractionPotential`` caches for its v and force, so each is
    transformed once.  Kernels and
    values may carry leading stack axes, which broadcast; each stacked
    convolution equals the one of its pair on its own.  The result is
    complex; for real a and b its imaginary part is roundoff, and callers
    take ``.real``.
    """
    product = kernel_spectrum * _fftn(vals, range(vals.ndim - grid.dim, vals.ndim))
    axes = range(product.ndim - grid.dim, product.ndim)
    return grid.cell_volume * _fftn(product, axes, inverse=True)


def inner(a: np.ndarray, b: np.ndarray, grid: Grid) -> complex:
    """L2 inner product of grid values with measure weight, conjugate-linear in ``a``."""
    return complex(grid.cell_volume * np.vdot(a, b))


def norm_l2(vals: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.cell_volume) * np.linalg.norm(vals))


def norm_l1(vals: np.ndarray, grid: Grid) -> float:
    return float(grid.cell_volume * np.sum(np.abs(vals)))


# ---------------------------------------------------------------------------
# dense one-body matrices (small grids only; used by the many-body side)
# ---------------------------------------------------------------------------


def _dense_1d_shift(n: int, step: int) -> np.ndarray:
    """(S u)(x) = u(x + step*h) as a matrix on site values."""
    return np.roll(np.eye(n), -step, axis=0)


def _on_each_axis(grid: Grid, one: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 1-D matrix ``one`` on each axis in turn, by kron with the identity."""
    eye = np.eye(grid.sites_per_dim, dtype=one.dtype)
    terms = []
    for axis in range(grid.dim):
        mats = [one if a == axis else eye for a in range(grid.dim)]
        terms.append(np.ascontiguousarray(reduce(np.kron, mats)))
    return tuple(terms)


@lru_cache(maxsize=None)
def dense_kinetic(grid: Grid) -> np.ndarray:
    """Dense matrix of the grid's K = -Laplace on flattened site values (C order)."""
    n = grid.sites_per_dim
    if grid.kinetic_mode == "lattice":
        one = (2.0 * np.eye(n) - _dense_1d_shift(n, 1) - _dense_1d_shift(n, -1)) / grid.spacing**2
    else:
        k = grid.axis_wavenumbers()
        one = np.fft.ifft(k[:, None] ** 2 * np.fft.fft(np.eye(n), axis=0), axis=0)
    return sum(_on_each_axis(grid, one))


def difference_matrix(vals: np.ndarray) -> np.ndarray:
    """Matrix M[x, y] = f(x - y) over flattened sites (periodic differences) of grid values f.

    Only meaningful for values sampled from periodic functions of the
    separation (interaction potentials, force components).
    """
    multi = np.unravel_index(np.arange(vals.size), vals.shape)
    diffs = tuple(np.mod(m[:, None] - m[None, :], n) for m, n in zip(multi, vals.shape))
    return vals[diffs]


@lru_cache(maxsize=None)
def dense_gradient(grid: Grid) -> tuple[np.ndarray, ...]:
    """Dense matrices of the grid's d/dx_a on flattened site values, one per axis."""
    n = grid.sites_per_dim
    if grid.kinetic_mode == "lattice":
        one = (_dense_1d_shift(n, 1) - _dense_1d_shift(n, -1)) / (2.0 * grid.spacing)
    else:
        k = grid.axis_wavenumbers()
        one = np.fft.ifft(1j * k[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    return _on_each_axis(grid, one)
