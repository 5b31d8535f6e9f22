"""Grid conventions and the operators on grid values."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import ConfigError
from mflab.grid import (
    Grid,
    _fftn,
    convolve_periodic,
    apply_multiplier,
    dense_gradient,
    dense_kinetic,
    gradient,
    gradient_multipliers,
    inner,
    kinetic_multiplier,
    norm_l1,
    norm_l2,
)


def random_values(grid: Grid, rng: np.random.Generator, stack: tuple[int, ...] = ()) -> np.ndarray:
    shape = stack + grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(dim=4, sites_per_dim=8, box_length=1.0)
    with pytest.raises(ConfigError):
        Grid(dim=1, sites_per_dim=7, box_length=1.0)
    with pytest.raises(ConfigError):
        Grid(dim=1, sites_per_dim=8, box_length=-1.0)
    with pytest.raises(ConfigError):  # the spacing would underflow h**dim
        Grid(dim=1, sites_per_dim=8, box_length=1e-320)
    with pytest.raises(ConfigError):
        Grid(dim=1, sites_per_dim=8, box_length=1.0, kinetic_mode="exact")


def test_plane_wave_is_laplacian_eigenfunction():
    grid = Grid(dim=2, sites_per_dim=16, box_length=5.0)
    xs = grid.coordinate_mesh()
    kvec = 2.0 * np.pi / grid.box_length * np.array([3.0, -2.0])
    wave = np.exp(1j * (kvec[0] * xs[0] + kvec[1] * xs[1]))
    out = apply_multiplier(wave, -kinetic_multiplier(grid))
    np.testing.assert_allclose(out, -np.dot(kvec, kvec) * wave, atol=1e-10)


def test_laplacian_equals_div_grad():
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        grid = Grid(dim=dim, sites_per_dim=12, box_length=3.0)
        f = random_values(grid, rng)
        lhs = apply_multiplier(f, -kinetic_multiplier(grid))
        rhs = sum(gradient(g, grid)[a] for a, g in enumerate(gradient(f, grid)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_lattice_kinetic_multiplier_matches_matrix():
    grid = Grid(dim=2, sites_per_dim=6, box_length=2.5, kinetic_mode="lattice")
    rng = np.random.default_rng(3)
    f = random_values(grid, rng)
    via_mult = np.fft.ifftn(kinetic_multiplier(grid) * np.fft.fftn(f))
    mat = dense_kinetic(grid)
    via_mat = (mat @ f.ravel()).reshape(grid.shape)
    np.testing.assert_allclose(via_mult, via_mat, atol=1e-11)


def test_lattice_gradient_matches_rolls_and_multiplier():
    grid = Grid(dim=1, sites_per_dim=10, box_length=4.0, kinetic_mode="lattice")
    rng = np.random.default_rng(5)
    f = random_values(grid, rng)
    (g_roll,) = gradient(f, grid)
    mult = gradient_multipliers(grid)[0]
    g_mult = np.fft.ifft(mult * np.fft.fft(f))
    np.testing.assert_allclose(g_roll, g_mult, atol=1e-12)


def test_gradients_are_antisymmetric():
    rng = np.random.default_rng(11)
    spectral = Grid(dim=1, sites_per_dim=16, box_length=2.0)
    u, v = random_values(spectral, rng), random_values(spectral, rng)
    for mode in ("spectral", "lattice"):
        grid = replace(spectral, kinetic_mode=mode)
        (gu,) = gradient(u, grid)
        (gv,) = gradient(v, grid)
        assert abs(inner(u, gv, grid) + inner(gu, v, grid)) < 1e-12


def test_dense_matrices_hermitian_and_consistent():
    for mode in ("spectral", "lattice"):
        grid = Grid(dim=1, sites_per_dim=12, box_length=3.0, kinetic_mode=mode)
        T = dense_kinetic(grid)
        assert np.max(np.abs(T - T.conj().T)) < 1e-12
        G = dense_gradient(grid)[0]
        assert np.max(np.abs(G + G.conj().T)) < 1e-12
        rng = np.random.default_rng(1)
        f = random_values(grid, rng)
        via_mult = np.fft.ifftn(kinetic_multiplier(grid) * np.fft.fftn(f))
        np.testing.assert_allclose((T @ f.ravel()), via_mult.ravel(), atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_lattice_grid_operators_all_follow_its_mode(dim):
    # every operator reads the mode from the grid: centred differences and
    # the nearest-neighbour kinetic, whichever route computes them
    grid = Grid(dim=dim, sites_per_dim=8, box_length=3.0, kinetic_mode="lattice")
    h = grid.spacing
    f = random_values(grid, np.random.default_rng(17 + dim))
    flat = f.ravel()
    shift = [(np.roll(f, -1, axis=a), np.roll(f, 1, axis=a)) for a in range(dim)]
    stencil = (2 * dim * f - sum(up + down for up, down in shift)) / h**2
    K = kinetic_multiplier(grid)
    np.testing.assert_allclose(np.fft.ifftn(K * np.fft.fftn(f)), stencil, atol=1e-11)
    np.testing.assert_allclose(dense_kinetic(grid) @ flat, stencil.ravel(), atol=1e-11)
    routes = zip(gradient(f, grid), dense_gradient(grid), gradient_multipliers(grid))
    for a, (g, G, m) in enumerate(routes):
        rolls = (shift[a][0] - shift[a][1]) / (2.0 * h)
        assert np.array_equal(g, rolls)
        np.testing.assert_allclose(G @ flat, rolls.ravel(), atol=1e-12)
        np.testing.assert_allclose(np.fft.ifftn(m * np.fft.fftn(f)), rolls, atol=1e-12)


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_gradient_rows_equal_single_calls(dim, mode):
    grid = Grid(dim=dim, sites_per_dim=8, box_length=3.0, kinetic_mode=mode)
    rng = np.random.default_rng(60 + dim)
    stack = random_values(grid, rng, (2, 3))
    real = rng.standard_normal((3,) + grid.shape)
    orbitals_last = random_values(grid, rng, (3,)).transpose(*range(1, dim + 1), 0).copy()
    for vals in (stack, real, np.moveaxis(orbitals_last, -1, 0)):  # the last is a strided view
        together = gradient(vals, grid)
        assert len(together) == dim
        for index in np.ndindex(vals.shape[: vals.ndim - dim]):
            alone = gradient(np.ascontiguousarray(vals[index]), grid)
            assert all(np.array_equal(g[index], a) for g, a in zip(together, alone))


def convolve(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """``convolve_periodic`` of the kernel values ``a`` with ``b``."""
    return convolve_periodic(np.fft.fftn(a, axes=range(a.ndim - grid.dim, a.ndim)), b, grid)


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_convolution_of_a_stack_equals_each_row_alone(dim, mode):
    grid = Grid(dim=dim, sites_per_dim=8, box_length=3.0, kinetic_mode=mode)
    rng = np.random.default_rng(70 + dim)
    kernels = rng.standard_normal((dim,) + grid.shape)  # a force's components
    kernel_hat = np.fft.fftn(kernels, axes=range(1, dim + 1))
    rho = rng.standard_normal(grid.shape)
    stack = random_values(grid, rng, (2, dim))
    together = convolve_periodic(kernel_hat, rho, grid)
    for a in range(dim):
        assert np.array_equal(together[a], convolve_periodic(kernel_hat[a], rho, grid))
    together = convolve_periodic(kernel_hat, stack, grid)
    for j, a in np.ndindex(2, dim):
        alone = convolve_periodic(kernel_hat[a], np.ascontiguousarray(stack[j, a]), grid)
        assert np.array_equal(together[j, a], alone)
    # the spectrum of the real kernel is the spectrum of its complex128 cast
    assert np.array_equal(convolve(kernels, rho, grid),
                          convolve(kernels.astype(np.complex128), rho, grid))


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([4, 8, 12]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_convolution_symmetric_and_translation_equivariant(n, seed):
    grid = Grid(dim=1, sites_per_dim=n, box_length=2.0)
    rng = np.random.default_rng(seed)
    a, b = random_values(grid, rng), random_values(grid, rng)
    ab = convolve(a, b, grid)
    ba = convolve(b, a, grid)
    np.testing.assert_allclose(ab, ba, atol=1e-12)
    shift = int(rng.integers(0, n))
    conv_shift = convolve(np.roll(a, shift), b, grid)
    np.testing.assert_allclose(conv_shift, np.roll(ab, shift), atol=1e-12)


def test_convolution_with_delta_translates():
    grid = Grid(dim=1, sites_per_dim=16, box_length=4.0)
    rng = np.random.default_rng(2)
    f = random_values(grid, rng)
    delta = np.zeros(grid.shape)
    delta[3] = 1.0 / grid.cell_volume  # lattice delta with unit mass
    shifted = convolve(f, delta, grid)
    np.testing.assert_allclose(shifted, np.roll(f, 3), atol=1e-12)


def test_gaussian_convolution_closed_form():
    # periodic Gaussians convolve to a Gaussian of summed variance
    grid = Grid(dim=1, sites_per_dim=128, box_length=20.0)
    (d,) = grid.displacement_mesh()
    s1, s2 = 0.5, 0.7

    def periodic_gaussian(sigma):
        total = np.zeros_like(d)
        for image in (-1, 0, 1):
            total += np.exp(-((d + image * grid.box_length) ** 2) / (2 * sigma**2))
        return total / (np.sqrt(2 * np.pi) * sigma)

    expected = periodic_gaussian(np.sqrt(s1**2 + s2**2))
    got = convolve(periodic_gaussian(s1), periodic_gaussian(s2), grid)
    np.testing.assert_allclose(got.real, expected, atol=1e-8)
    assert np.max(np.abs(got.imag)) < 1e-12


def test_parseval():
    grid = Grid(dim=2, sites_per_dim=8, box_length=3.0)
    rng = np.random.default_rng(13)
    f = random_values(grid, rng)
    spectral = np.sum(np.abs(np.fft.fftn(f)) ** 2) / grid.total_sites
    assert abs(norm_l2(f, grid) ** 2 - grid.cell_volume * spectral) < 1e-10


def test_norms_scale_with_measure():
    grid = Grid(dim=1, sites_per_dim=8, box_length=2.0)
    f = np.ones(grid.shape)
    assert abs(norm_l2(f, grid) - np.sqrt(2.0)) < 1e-14
    assert abs(norm_l1(f, grid) - 2.0) < 1e-14


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_per_axis_transform_is_bit_identical_to_fftn(dim, inverse):
    rng = np.random.default_rng(40 + dim)
    n = 6
    grid_axes = tuple(range(dim))
    fftn = np.fft.ifftn if inverse else np.fft.fftn
    stacked = tuple(a + 1 for a in grid_axes)

    def check(vals, axes):
        out = _fftn(vals, axes, inverse)
        assert np.array_equal(out, fftn(vals, axes=axes))
        assert not np.shares_memory(out, vals)

    # plain grid values, a leading stack axis, and a trailing orbital axis too
    for shape, axes in (
        ((n,) * dim, grid_axes),
        ((3,) + (n,) * dim, stacked),
        ((3,) + (n,) * dim + (4,), stacked),
    ):
        check(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), axes)
    check(rng.standard_normal((n,) * dim), grid_axes)
    # non-contiguous views: orbitals moved from last to first, reversed strides
    shape = (n,) * dim + (3,)
    trailing = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    check(np.moveaxis(trailing, -1, 0), stacked)
    check(trailing[..., ::-1, :], grid_axes)
