"""Grid, field and operator conventions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import ConfigError, GridMismatchError
from mflab.grid import (
    Field,
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


def random_field(grid: Grid, rng: np.random.Generator) -> Field:
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


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


def test_field_shape_checked():
    grid = Grid(dim=2, sites_per_dim=4, box_length=1.0)
    with pytest.raises(GridMismatchError):
        Field(grid, np.zeros(7))


def test_mixed_grids_rejected():
    a = Field(Grid(dim=1, sites_per_dim=8, box_length=1.0), np.zeros(8))
    b = Field(Grid(dim=1, sites_per_dim=8, box_length=2.0), np.zeros(8))
    with pytest.raises(GridMismatchError):
        inner(a, b)


def test_plane_wave_is_laplacian_eigenfunction():
    grid = Grid(dim=2, sites_per_dim=16, box_length=5.0)
    xs = grid.coordinate_mesh()
    kvec = 2.0 * np.pi / grid.box_length * np.array([3.0, -2.0])
    wave = Field(grid, np.exp(1j * (kvec[0] * xs[0] + kvec[1] * xs[1])))
    out = apply_multiplier(wave.values, -kinetic_multiplier(grid))
    np.testing.assert_allclose(out, -np.dot(kvec, kvec) * wave.values, atol=1e-10)


def test_laplacian_equals_div_grad():
    rng = np.random.default_rng(7)
    for dim in (1, 2):
        grid = Grid(dim=dim, sites_per_dim=12, box_length=3.0)
        f = random_field(grid, rng)
        lhs = apply_multiplier(f.values, -kinetic_multiplier(grid))
        rhs = sum(gradient(g)[a].values for a, g in enumerate(gradient(f)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_lattice_kinetic_multiplier_matches_matrix():
    grid = Grid(dim=2, sites_per_dim=6, box_length=2.5, kinetic_mode="lattice")
    rng = np.random.default_rng(3)
    f = random_field(grid, rng)
    via_mult = np.fft.ifftn(kinetic_multiplier(grid) * np.fft.fftn(f.values))
    mat = dense_kinetic(grid)
    via_mat = (mat @ f.values.ravel()).reshape(grid.shape)
    np.testing.assert_allclose(via_mult, via_mat, atol=1e-11)


def test_lattice_gradient_matches_rolls_and_multiplier():
    grid = Grid(dim=1, sites_per_dim=10, box_length=4.0, kinetic_mode="lattice")
    rng = np.random.default_rng(5)
    f = random_field(grid, rng)
    (g_roll,) = gradient(f)
    mult = gradient_multipliers(grid)[0]
    g_mult = np.fft.ifft(mult * np.fft.fft(f.values))
    np.testing.assert_allclose(g_roll.values, g_mult, atol=1e-12)


def test_gradients_are_antisymmetric():
    rng = np.random.default_rng(11)
    spectral = Grid(dim=1, sites_per_dim=16, box_length=2.0)
    u, v = random_field(spectral, rng).values, random_field(spectral, rng).values
    for mode in ("spectral", "lattice"):
        grid = replace(spectral, kinetic_mode=mode)
        fu, fv = Field(grid, u), Field(grid, v)
        (gu,) = gradient(fu)
        (gv,) = gradient(fv)
        assert abs(inner(fu, gv) + inner(gu, fv)) < 1e-12


def test_dense_matrices_hermitian_and_consistent():
    for mode in ("spectral", "lattice"):
        grid = Grid(dim=1, sites_per_dim=12, box_length=3.0, kinetic_mode=mode)
        T = dense_kinetic(grid)
        assert np.max(np.abs(T - T.conj().T)) < 1e-12
        G = dense_gradient(grid)[0]
        assert np.max(np.abs(G + G.conj().T)) < 1e-12
        rng = np.random.default_rng(1)
        f = random_field(grid, rng)
        via_mult = np.fft.ifftn(kinetic_multiplier(grid) * np.fft.fftn(f.values))
        np.testing.assert_allclose((T @ f.values.ravel()), via_mult.ravel(), atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_lattice_grid_operators_all_follow_its_mode(dim):
    # every operator reads the mode from the grid: centred differences and
    # the nearest-neighbour kinetic, whichever route computes them
    grid = Grid(dim=dim, sites_per_dim=8, box_length=3.0, kinetic_mode="lattice")
    h = grid.spacing
    f = random_field(grid, np.random.default_rng(17 + dim))
    flat = f.values.ravel()
    shift = [(np.roll(f.values, -1, axis=a), np.roll(f.values, 1, axis=a)) for a in range(dim)]
    stencil = (2 * dim * f.values - sum(up + down for up, down in shift)) / h**2
    K = kinetic_multiplier(grid)
    np.testing.assert_allclose(np.fft.ifftn(K * np.fft.fftn(f.values)), stencil, atol=1e-11)
    np.testing.assert_allclose(dense_kinetic(grid) @ flat, stencil.ravel(), atol=1e-11)
    routes = zip(gradient(f), dense_gradient(grid), gradient_multipliers(grid))
    for a, (g, G, m) in enumerate(routes):
        rolls = (shift[a][0] - shift[a][1]) / (2.0 * h)
        assert np.array_equal(g.values, rolls)
        np.testing.assert_allclose(G @ flat, rolls.ravel(), atol=1e-12)
        np.testing.assert_allclose(np.fft.ifftn(m * np.fft.fftn(f.values)), rolls, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([4, 8, 12]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_convolution_symmetric_and_translation_equivariant(n, seed):
    grid = Grid(dim=1, sites_per_dim=n, box_length=2.0)
    rng = np.random.default_rng(seed)
    a, b = random_field(grid, rng), random_field(grid, rng)
    ab = convolve_periodic(a, b)
    ba = convolve_periodic(b, a)
    np.testing.assert_allclose(ab.values, ba.values, atol=1e-12)
    shift = int(rng.integers(0, n))
    a_shift = Field(grid, np.roll(a.values, shift))
    conv_shift = convolve_periodic(a_shift, b)
    np.testing.assert_allclose(conv_shift.values, np.roll(ab.values, shift), atol=1e-12)


def test_convolution_with_delta_translates():
    grid = Grid(dim=1, sites_per_dim=16, box_length=4.0)
    rng = np.random.default_rng(2)
    f = random_field(grid, rng)
    delta = np.zeros(grid.shape)
    delta[3] = 1.0 / grid.cell_volume  # lattice delta with unit mass
    shifted = convolve_periodic(f, Field(grid, delta))
    np.testing.assert_allclose(shifted.values, np.roll(f.values, 3), atol=1e-12)


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

    g1 = Field(grid, periodic_gaussian(s1))
    g2 = Field(grid, periodic_gaussian(s2))
    expected = periodic_gaussian(np.sqrt(s1**2 + s2**2))
    got = convolve_periodic(g1, g2)
    np.testing.assert_allclose(got.values.real, expected, atol=1e-8)
    assert np.max(np.abs(got.values.imag)) < 1e-12


def test_parseval():
    grid = Grid(dim=2, sites_per_dim=8, box_length=3.0)
    rng = np.random.default_rng(13)
    f = random_field(grid, rng)
    spectral = np.sum(np.abs(np.fft.fftn(f.values)) ** 2) / grid.total_sites
    assert abs(norm_l2(f) ** 2 - grid.cell_volume * spectral) < 1e-10


def test_norms_scale_with_measure():
    grid = Grid(dim=1, sites_per_dim=8, box_length=2.0)
    f = Field(grid, np.ones(grid.shape))
    assert abs(norm_l2(f) - np.sqrt(2.0)) < 1e-14
    assert abs(norm_l1(f) - 2.0) < 1e-14


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
