"""Self-consistent orbital evolution: exactness, conservation, convergence."""

import numpy as np
import pytest

from mflab import hartree
from mflab.errors import ConfigError, GridMismatchError, NumericalFailure
from mflab.gauge import run_gauged
from mflab.grid import Grid, kinetic_multiplier, norm_l2
from mflab.hartree import (
    OrbitalSet,
    diagnostics,
    hartree_energy,
    hartree_step,
    orthonormality_defect,
    run_hartree,
)
from mflab.model import InitialFamily, ScalingParams, build_potential, make_orbitals


def localized_setup(n=32, box=8.0, N=2, mode="spectral"):
    grid = Grid(dim=1, sites_per_dim=n, box_length=box, kinetic_mode=mode)
    width = max(1.0, 3.0 * grid.spacing)
    pot = build_potential(grid, "gaussian", amplitude=2.0, width=width)
    state = make_orbitals(InitialFamily("localized", width=0.6), N, grid)
    return grid, pot, state


def test_free_evolution_of_plane_waves_is_exact():
    grid = Grid(dim=1, sites_per_dim=16, box_length=5.0)
    pot = build_potential(grid, "cosine_sum", amplitudes=[], offset=0.0)
    state = make_orbitals(InitialFamily("delocalized"), 3, grid)
    eps = state.scaling.epsilon
    traj = run_hartree(state, pot, t_final=0.5, dt=0.01)
    final = traj.snapshots[-1]
    k = grid.axis_wavenumbers()
    for phi0, phiT in zip(state.orbitals, final.orbitals):
        spec0 = np.fft.fft(phi0.values)
        expected = np.fft.ifft(np.exp(-1j * 0.5 * eps * k**2) * spec0)
        np.testing.assert_allclose(phiT.values, expected, atol=1e-12)


def test_constant_potential_adds_global_phase():
    grid = Grid(dim=1, sites_per_dim=16, box_length=5.0)
    c = 0.7
    free = build_potential(grid, "cosine_sum", amplitudes=[], offset=0.0)
    const = build_potential(grid, "cosine_sum", amplitudes=[], offset=c)
    state = make_orbitals(InitialFamily("delocalized"), 2, grid)
    eps = state.scaling.epsilon
    t_final = 0.3
    a = run_hartree(state, free, t_final, 0.01).snapshots[-1]
    b = run_hartree(state, const, t_final, 0.01).snapshots[-1]
    # v * rho = c * N when v is constant, a pure global phase
    phase = np.exp(-1j * t_final * eps * c * state.N)
    for pa, pb in zip(a.orbitals, b.orbitals):
        np.testing.assert_allclose(pb.values, phase * pa.values, atol=1e-12)


def test_step_beyond_phase_resolution_fails():
    """dt eps max|v * rho| > pi raises; v * rho = c N for a constant v = c."""
    grid = Grid(dim=1, sites_per_dim=16, box_length=5.0)
    state = make_orbitals(InitialFamily("delocalized"), 2, grid)
    dt = 0.01
    at_pi = np.pi / (dt * state.scaling.epsilon * state.N)
    below = build_potential(grid, "cosine_sum", amplitudes=[], offset=0.99 * at_pi)
    above = build_potential(grid, "cosine_sum", amplitudes=[], offset=-1.01 * at_pi)
    assert hartree_step(state, below, dt, dt).time == dt
    with pytest.raises(NumericalFailure, match="exceeds pi"):
        hartree_step(state, above, dt, dt)


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
def test_orthonormality_preserved_exactly(mode):
    _, pot, state = localized_setup(mode=mode)
    traj = run_hartree(state, pot, t_final=0.5, dt=5e-3)
    for snap in traj.snapshots:
        assert orthonormality_defect(snap) < 1e-12


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
def test_energy_drift_is_second_order(mode):
    _, pot, state = localized_setup(mode=mode)
    e0 = hartree_energy(state, pot)

    def drift(dt):
        final = run_hartree(state, pot, t_final=0.5, dt=dt).snapshots[-1]
        return abs(hartree_energy(final, pot) - e0)

    d1, d2 = drift(4e-3), drift(2e-3)
    assert d1 > 1e-13  # not already at roundoff, so the ratio is meaningful
    assert 3.0 < d1 / d2 < 5.0


def test_self_convergence_order_two():
    _, pot, state = localized_setup()

    def final(dt):
        return run_hartree(state, pot, t_final=0.25, dt=dt).snapshots[-1]

    ref = final(6.25e-4)

    def dist(a, b):
        return max(
            norm_l2(_diff(pa, pb)) for pa, pb in zip(a.orbitals, b.orbitals)
        )

    from mflab.grid import Field

    def _diff(pa, pb):
        return Field(pa.grid, pa.values - pb.values)

    d1 = dist(final(5e-3), ref)
    d2 = dist(final(2.5e-3), ref)
    assert 3.5 < d1 / d2 < 4.5


def test_energy_matches_direct_formula():
    grid, pot, state = localized_setup(n=24)
    from mflab.grid import convolve_periodic, dense_kinetic, inner

    A = state.value_matrix()
    T = dense_kinetic(grid)  # a spectral grid
    kin = grid.cell_volume * np.real(np.trace(A.conj().T @ (T @ A)))
    from mflab.hartree import density

    rho = density(state)
    potE = 0.5 * inner(rho, convolve_periodic(pot.v, rho)).real
    assert hartree_energy(state, pot) == pytest.approx(kin + potE, rel=1e-12)


def test_snapshot_cadence_and_endpoints():
    _, pot, state = localized_setup(n=16)
    traj = run_hartree(state, pot, t_final=1.0, dt=1e-2)
    # every = max(1, floor(1.0 / (100 * 0.01))) = 1 -> all 101 states kept
    assert len(traj.snapshots) == 101
    assert traj.snapshots[0].time == 0.0
    assert traj.snapshots[-1].time == pytest.approx(1.0, abs=1e-12)
    sparse = run_hartree(state, pot, t_final=1.0, dt=1e-2, snapshot_every=40)
    times = [s.time for s in sparse.snapshots]
    assert times == pytest.approx([0.0, 0.4, 0.8, 1.0], abs=1e-12)


def test_time_grid_mismatch_rejected():
    _, pot, state = localized_setup(n=16)
    with pytest.raises(ConfigError):
        run_hartree(state, pot, t_final=1.0, dt=3e-3)


def test_diagnostics_density_consistency():
    grid, pot, state = localized_setup(n=24)
    rep = diagnostics(state, pot)
    assert rep.orthonormality_defect < 1e-12
    assert abs(grid.cell_volume * np.sum(rep.rho.values.real) - state.N) < 1e-12
    assert rep.d_value >= 1.0


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_hartree_step_bit_identical_to_per_orbital_loop(dim, mode, N):
    grid = Grid(dim=dim, sites_per_dim=16 if dim == 1 else 12, box_length=6.0,
                kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=1.6)
    state = make_orbitals(InitialFamily("localized", width=0.6), N, grid,
                          ScalingParams(N=N, epsilon=0.3))
    orbitals = state.orbitals
    dt = 0.01

    half_kin = np.exp(-0.5j * dt * 0.3 * kinetic_multiplier(grid))
    mids = [np.fft.ifftn(half_kin * np.fft.fftn(phi.values)) for phi in orbitals]
    rho_mid = np.zeros(grid.shape)
    for m in mids:
        rho_mid += np.abs(m) ** 2
    u = (grid.cell_volume * np.fft.ifftn(np.fft.fftn(pot.v.values) * np.fft.fftn(rho_mid))).real
    pot_phase = np.exp(-1j * dt * 0.3 * u)
    want = [np.fft.ifftn(half_kin * np.fft.fftn(pot_phase * m)) for m in mids]

    got = hartree_step(state, pot, dt, dt)
    assert got.time == dt
    assert all(np.array_equal(phi.values, w) for phi, w in zip(got.orbitals, want))


def test_non_finite_orbital_fails_at_the_first_step():
    _, pot, state = localized_setup(n=16)
    vals = state.values.copy()
    vals[1, 3] = np.nan
    bad = OrbitalSet.from_values(state.grid, vals, state.time, state.scaling)
    with pytest.raises(NumericalFailure, match="non-finite orbital values at step 1"):
        run_hartree(bad, pot, t_final=0.05, dt=0.01)


def test_run_hartree_rejects_a_potential_on_another_grid():
    _, _, state = localized_setup(n=16)
    _, other, _ = localized_setup(n=32)
    with pytest.raises(GridMismatchError):
        run_hartree(state, other, t_final=0.05, dt=0.01)


def test_run_hartree_takes_one_hartree_step_per_step(monkeypatch):
    """The module-level step is what run_hartree calls, so wrapping it sees every step."""
    _, pot, state = localized_setup(n=16)
    calls = []

    def counted(*args):
        calls.append(args[0].time)
        return hartree_step(*args)

    monkeypatch.setattr(hartree, "hartree_step", counted)
    traj = run_hartree(state, pot, t_final=0.2, dt=0.01, snapshot_every=5)
    assert len(calls) == 20
    assert traj.snapshots[-1].time == pytest.approx(0.2, abs=1e-12)


def test_snapshot_times_are_the_step_count_times_dt():
    """A snapshot after k steps carries initial.time + k*dt exactly, in the
    trajectory and its diagnostics; adding dt per step drifts (t = 1 read
    1.0000000000000007 after 100 steps of 0.01)."""
    _, pot, state = localized_setup(n=16)
    dt = 0.01
    for start in (0.0, 0.5):
        initial = OrbitalSet(orbitals=state.orbitals, time=start, scaling=state.scaling)
        traj = run_hartree(initial, pot, t_final=start + 1.0, dt=dt, snapshot_every=10)
        expected = [start + k * dt for k in range(0, 101, 10)]
        assert traj.times.tolist() == expected
        assert [d.time for d in traj.diagnostics] == expected
    assert traj.snapshots[-1].time == 1.5


@pytest.mark.parametrize("route", [run_hartree, run_gauged])
def test_both_routes_end_at_t_final_from_a_later_start(route):
    _, pot, state = localized_setup(n=16)
    later = OrbitalSet(orbitals=state.orbitals, time=0.5, scaling=state.scaling)
    traj = route(later, pot, t_final=1.0, dt=0.01)
    assert traj.snapshots[0].time == 0.5
    assert len(traj.snapshots) == 51
    assert traj.snapshots[-1].time == pytest.approx(1.0, abs=1e-12)
    for t_final in (0.5, 0.3):
        with pytest.raises(ConfigError):
            route(later, pot, t_final=t_final, dt=0.01)


@pytest.mark.parametrize("dim", [1, 2])
def test_orbital_set_from_values_matches_the_field_built_set(dim):
    grid = Grid(dim=dim, sites_per_dim=16 if dim == 1 else 8, box_length=6.0)
    state = make_orbitals(InitialFamily("localized", width=0.8), 3, grid)
    stack = np.stack([phi.values for phi in state.orbitals])
    built = OrbitalSet.from_values(grid, stack, state.time, state.scaling)
    assert built.values is stack  # no copy, no Field until asked for
    assert "orbitals" not in vars(built)
    assert np.array_equal(built.values, state.values)
    assert built.N == state.N == 3 and built.grid == grid
    for a, b in zip(built.orbitals, state.orbitals):
        assert a.grid == grid and np.array_equal(a.values, b.values)
    assert np.array_equal(built.value_matrix(), state.value_matrix())


def test_orbital_set_rejects_the_same_inputs_from_either_constructor():
    grid = Grid(dim=1, sites_per_dim=16, box_length=6.0)
    state = make_orbitals(InitialFamily("localized", width=0.8), 2, grid)
    fields, vals = state.orbitals, state.values
    resolved = state.scaling
    cases = [
        ((), vals[:0], resolved, "at least one orbital"),
        (fields, vals, ScalingParams(N=3, epsilon=0.5), "scaling.N = 3 but 2"),
        (fields, vals, ScalingParams(N=2), "resolved"),
    ]
    for orbitals, stack, scaling, message in cases:
        with pytest.raises(ConfigError, match=message):
            OrbitalSet(orbitals=orbitals, time=0.0, scaling=scaling)
        with pytest.raises(ConfigError, match=message):
            OrbitalSet.from_values(grid, stack, 0.0, scaling)
    with pytest.raises(GridMismatchError):
        OrbitalSet.from_values(Grid(dim=1, sites_per_dim=8, box_length=6.0), vals, 0.0,
                               resolved)
