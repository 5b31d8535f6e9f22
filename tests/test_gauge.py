"""Gauge transform, gauged generator forms, and the gauged orbital flow."""

from dataclasses import replace

import numpy as np
import pytest

from mflab._lanczos import expm_multiply_hermitian
from mflab.errors import ConfigError
from mflab.gauge import (
    _forces,
    _generator,
    cauchy_schwarz_report,
    continuity_residual,
    covariant_apply,
    gauge_orbitals,
    mean_field_forces,
    run_gauged,
)
from mflab.grid import (
    Grid,
    gradient_multipliers,
    inner,
    kinetic_multiplier,
    norm_l2,
)
from mflab.hartree import OrbitalSet, run_hartree
from mflab.model import InitialFamily, build_potential, make_orbitals


def random_orbital_set(grid, N, rng, time=0.0, epsilon=0.5):
    cols = rng.standard_normal((grid.total_sites, N)) + 1j * rng.standard_normal(
        (grid.total_sites, N)
    )
    Q, _ = np.linalg.qr(cols)
    values = (Q.T / np.sqrt(grid.cell_volume)).reshape((N,) + grid.shape)
    return OrbitalSet(grid, values, time, epsilon)


def setup(n=32, box=8.0, N=2, mode="spectral"):
    grid = Grid(dim=1, sites_per_dim=n, box_length=box, kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=2.0, width=max(1.0, 3 * grid.spacing))
    state = make_orbitals(InitialFamily("localized", width=0.6), N, grid)
    return grid, pot, state


def test_gauge_preserves_moduli():
    grid, pot, state = setup()
    moved = replace(state, time=0.7)
    gauged = gauge_orbitals(moved, pot)
    np.testing.assert_allclose(np.abs(gauged.values), np.abs(moved.values), atol=1e-13)


def test_gauge_at_time_zero_is_identity():
    _, pot, state = setup()
    gauged = gauge_orbitals(state, pot)
    np.testing.assert_allclose(gauged.values, state.values, atol=1e-15)


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_generator_forms_agree(mode, dim):
    rng = np.random.default_rng(9)
    grid = Grid(dim=dim, sites_per_dim=12, box_length=6.0, kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=1.6)
    state = random_orbital_set(grid, 3, rng, time=0.8)
    forces = mean_field_forces(state, pot)
    probe = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    a = covariant_apply(probe, forces, 0.5, grid)
    b = _generator(forces, 0.5, grid)(probe[..., None])[..., 0]
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(a - b)) / scale < 1e-12


def _expanded_per_term(vals, forces, epsilon, grid, weights):
    """The expanded generator with every term transformed and combined on its own."""
    axes = tuple(range(grid.dim))

    def col(m):
        return m.reshape(m.shape + (1,) * (vals.ndim - grid.dim))

    def mult_apply(u, m):
        return np.fft.ifftn(col(m) * np.fft.fftn(u, axes=axes), axes=axes)

    def grad_apply(u):
        spec = np.fft.fftn(u, axes=axes)
        return [np.fft.ifftn(col(m) * spec, axes=axes) for m in gradient_multipliers(grid)]

    te = forces.time * epsilon
    wR, wW = weights
    scalar = col(te * (wR * forces.mixed_real + 2.0 * te * wW * forces.quad_correction))
    fbar = [col(f) for f in forces.f_bar]
    out = mult_apply(vals, kinetic_multiplier(grid))
    out = out + (scalar + wW * te**2 * sum(f**2 for f in fbar)) * vals
    grads = grad_apply(vals)
    for a in range(grid.dim):
        out = out + wR * te * (
            1j * grad_apply(fbar[a] * vals)[a] + fbar[a] * 1j * grads[a]
        )
    return out


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 1.0 / 3.0)])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_frozen_generator_is_bit_identical_to_per_term_body(dim, mode, N, weights):
    rng = np.random.default_rng(17 + N)
    grid = Grid(dim=dim, sites_per_dim=16 if dim == 1 else 12, box_length=6.0,
                kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=3.0, width=1.6)
    state = random_orbital_set(grid, N, rng, time=2.5)
    forces = mean_field_forces(state, pot)
    vals = rng.standard_normal(grid.shape + (N,)) + 1j * rng.standard_normal(grid.shape + (N,))
    got = _generator(forces, 0.3, grid, weights)(vals)
    assert np.array_equal(got, _expanded_per_term(vals, forces, 0.3, grid, weights))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_mean_field_forces_bit_identical_to_convolution_formulas(dim, mode, N):
    rng = np.random.default_rng(23 + N)
    grid = Grid(dim=dim, sites_per_dim=16 if dim == 1 else 12, box_length=6.0,
                kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=1.6)
    state = random_orbital_set(grid, N, rng, time=0.8)

    def conv(a, b):
        return grid.cell_volume * np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))

    def grad(u):
        if mode == "lattice":
            h = grid.spacing
            return [(np.roll(u, -1, axis=a) - np.roll(u, 1, axis=a)) / (2.0 * h)
                    for a in range(dim)]
        spec = np.fft.fftn(u)
        return [np.fft.ifftn(m * spec) for m in gradient_multipliers(grid)]

    rho = np.zeros(grid.shape)
    for psi in state.values:
        rho += np.abs(psi) ** 2
    f_bar = [conv(F, rho).real for F in pot.force]
    G = [np.zeros(grid.shape, dtype=np.complex128) for _ in range(dim)]
    for psi in state.values:
        for a, dpsi in enumerate(grad(psi)):
            G[a] += np.conj(psi) * dpsi
    B = np.zeros(grid.shape, dtype=np.complex128)
    C = np.zeros(grid.shape)
    for a in range(dim):
        B += -1j * conv(pot.force[a], G[a])
        C -= conv(pot.force[a], f_bar[a] * rho).real

    for _ in range(2):  # the second call reads the cached kernel spectra
        forces = mean_field_forces(state, pot)
        assert np.array_equal(forces.f_bar, f_bar)
        assert np.array_equal(forces.momentum_coupling, B)
        assert np.array_equal(forces.quad_correction, C)


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
def test_generator_hermitian(mode):
    rng = np.random.default_rng(3)
    grid = Grid(dim=1, sites_per_dim=24, box_length=6.0, kinetic_mode=mode)
    pot = build_potential(grid, "cosine_sum", amplitudes=[0.8, 0.3])
    state = random_orbital_set(grid, 2, rng, time=1.3)
    forces = mean_field_forces(state, pot)
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    hu = covariant_apply(u, forces, 0.4, grid)
    hw = covariant_apply(w, forces, 0.4, grid)
    assert abs(inner(u, hw, grid) - np.conj(inner(w, hu, grid))) < 1e-10


def test_forces_vanish_without_interaction():
    grid, _, state = setup()
    free = build_potential(grid, "cosine_sum", amplitudes=[], offset=0.9)
    forces = mean_field_forces(state, free)
    assert np.max(np.abs(forces.f_bar)) < 1e-14
    assert np.max(np.abs(forces.momentum_coupling)) < 1e-14
    assert np.max(np.abs(forces.quad_correction)) < 1e-14


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
def test_zero_force_flow_matches_free_flow(mode):
    grid, _, state = setup(n=16, mode=mode)
    free = build_potential(grid, "cosine_sum", amplitudes=[], offset=0.0)
    traj_g = run_gauged(state, free, t_final=0.3, dt=0.01)
    traj_h = run_hartree(state, free, t_final=0.3, dt=0.01)
    np.testing.assert_allclose(traj_g.snapshots[-1].values, traj_h.snapshots[-1].values,
                               atol=1e-11)


def test_two_route_consistency_and_order():
    _, pot, state = setup(n=64, box=10.0, N=2)
    t_final = 0.2

    def route_gap(dt):
        hart = run_hartree(state, pot, t_final, dt, snapshot_every=10**9)
        via_gauge = gauge_orbitals(hart.snapshots[-1], pot)
        direct = run_gauged(state, pot, t_final, dt, snapshot_every=10**9)
        return max(
            norm_l2(a - b, state.grid)
            for a, b in zip(via_gauge.values, direct.snapshots[-1].values)
        )

    g1, g2 = route_gap(8e-3), route_gap(4e-3)
    assert g1 < 1e-4
    assert g1 > 1e-12  # above roundoff so the ratio is informative
    assert 3.0 < g1 / g2 < 5.5


def test_continuity_residual_refines():
    _, pot, state = setup(n=32, N=2)

    def worst(dt, every):
        traj = run_gauged(state, pot, t_final=0.2, dt=dt, snapshot_every=every)
        return float(np.max(continuity_residual(traj, pot)))

    coarse = worst(8e-3, 5)
    fine = worst(4e-3, 5)  # same snapshot count, half the spacing
    assert coarse / fine >= 3.0


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("N", [1, 3])
def test_run_gauged_matches_public_route_bit_for_bit(mode, dim, N):
    """run_gauged's array loop takes the same steps as one built from public pieces."""
    grid = Grid(dim=dim, sites_per_dim=8, box_length=6.0, kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=2.5)
    state = make_orbitals(InitialFamily("localized", width=0.8), N, grid)
    dt, n_steps = 0.01, 4
    traj = run_gauged(state, pot, n_steps * dt, dt, snapshot_every=1)
    eps = state.epsilon

    def at(vals, t):
        return OrbitalSet(grid, np.ascontiguousarray(np.moveaxis(vals, -1, 0)), t, state.epsilon)

    vals = np.stack(list(state.values), axis=-1)
    for step in range(1, n_steps + 1):
        t0 = (step - 1) * dt
        t_mid = t0 + 0.5 * dt
        gen = _generator(mean_field_forces(at(vals, t0), pot), eps, grid)
        half = expm_multiply_hermitian(gen, vals, -0.5j * dt * eps)
        gen = _generator(mean_field_forces(at(half, t_mid), pot), eps, grid)
        vals = expm_multiply_hermitian(gen, vals, -1j * dt * eps)
        snap = traj.snapshots[step]
        assert snap.time == step * dt
        for j, phi in enumerate(snap.values):
            assert np.array_equal(phi, vals[..., j])


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 1.0 / 3.0)])
@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_array_generator_matches_the_forces_route_bit_for_bit(dim, mode, weights):
    """A transposed stack has the forces of a contiguous one, bit for bit, and so the generator."""
    grid = Grid(dim=dim, sites_per_dim=8, box_length=6.0, kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=2.5)
    state = random_orbital_set(grid, 3, np.random.default_rng(dim), time=0.4)
    eps = state.epsilon
    vals = np.stack(list(state.values), axis=-1)
    got = _forces(vals.transpose(dim, *range(dim)), pot, state.time)
    want = mean_field_forces(state, pot)  # from a contiguous stack
    assert got.time == want.time
    assert np.array_equal(got.f_bar, want.f_bar)
    assert np.array_equal(got.momentum_coupling, want.momentum_coupling)
    assert np.array_equal(got.quad_correction, want.quad_correction)
    assert np.array_equal(_generator(got, eps, grid, weights)(vals),
                          _generator(want, eps, grid, weights)(vals))


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
def test_continuity_residual_on_a_short_last_interval(mode):
    """With snapshot_every = 30 of 100 steps the last gap is 10 steps; no jump there."""
    grid = Grid(dim=1, sites_per_dim=64, box_length=8.0, kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
    state = make_orbitals(InitialFamily("localized", width=1.2), 2, grid)
    traj = run_gauged(state, pot, t_final=0.1, dt=1e-3, snapshot_every=30)
    np.testing.assert_allclose(np.diff(traj.times), [0.03, 0.03, 0.03, 0.01])
    residuals = continuity_residual(traj, pot)
    assert abs(residuals[-1] / residuals[-2] - 1.0) < 0.05


def test_continuity_needs_three_snapshots():
    _, pot, state = setup(n=16)
    traj = run_gauged(state, pot, t_final=0.05, dt=0.025, snapshot_every=10**9)
    with pytest.raises(ConfigError):
        continuity_residual(traj, pot)


def test_cauchy_schwarz_bound_holds():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.choice([12, 16, 24]))
        N = int(rng.integers(1, 4))
        grid = Grid(dim=1, sites_per_dim=n, box_length=6.0)
        pot = build_potential(
            grid,
            "gaussian",
            amplitude=float(rng.uniform(-3, 3)),
            width=float(rng.uniform(3 * grid.spacing, 2.0)),
        )
        state = random_orbital_set(grid, N, rng, time=float(rng.uniform(0, 2)))
        rep = cauchy_schwarz_report(state, pot)
        assert rep["lhs"] <= rep["rhs"] * (1 + 1e-12) + 1e-13
