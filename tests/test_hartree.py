"""Self-consistent orbital evolution: exactness, conservation, convergence."""

from dataclasses import replace

import numpy as np
import pytest

from mflab import hartree, model
from mflab.counting import build_projections
from mflab.errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from mflab.gauge import run_gauged
from mflab.grid import (
    Grid,
    _fftn,
    apply_multiplier,
    convolve_periodic,
    dense_kinetic,
    gradient,
    inner,
    kinetic_multiplier,
    norm_l1,
    norm_l2,
)
from mflab.hartree import (
    HartreeDiagnostics,
    OrbitalSet,
    density,
    diagnostics,
    hartree_energy,
    hartree_step,
    orthonormality_defect,
    run_hartree,
)
from mflab.manybody import ConfigBasis, slater_state
from mflab.model import (
    InitialFamily,
    build_potential,
    d_value,
    derivative_densities,
    make_orbitals,
)


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
    eps = state.epsilon
    traj = run_hartree(state, pot, t_final=0.5, dt=0.01)
    final = traj.snapshots[-1]
    k = grid.axis_wavenumbers()
    for phi0, phiT in zip(state.values, final.values):
        expected = np.fft.ifft(np.exp(-1j * 0.5 * eps * k**2) * np.fft.fft(phi0))
        np.testing.assert_allclose(phiT, expected, atol=1e-12)


def test_constant_potential_adds_global_phase():
    grid = Grid(dim=1, sites_per_dim=16, box_length=5.0)
    c = 0.7
    free = build_potential(grid, "cosine_sum", amplitudes=[], offset=0.0)
    const = build_potential(grid, "cosine_sum", amplitudes=[], offset=c)
    state = make_orbitals(InitialFamily("delocalized"), 2, grid)
    eps = state.epsilon
    t_final = 0.3
    a = run_hartree(state, free, t_final, 0.01).snapshots[-1]
    b = run_hartree(state, const, t_final, 0.01).snapshots[-1]
    # v * rho = c * N when v is constant, a pure global phase
    phase = np.exp(-1j * t_final * eps * c * state.N)
    np.testing.assert_allclose(b.values, phase * a.values, atol=1e-12)


def test_step_beyond_phase_resolution_fails():
    """dt eps max|v * rho| > pi raises; v * rho = c N for a constant v = c."""
    grid = Grid(dim=1, sites_per_dim=16, box_length=5.0)
    state = make_orbitals(InitialFamily("delocalized"), 2, grid)
    dt = 0.01
    at_pi = np.pi / (dt * state.epsilon * state.N)
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
        return max(norm_l2(pa - pb, a.grid) for pa, pb in zip(a.values, b.values))

    d1 = dist(final(5e-3), ref)
    d2 = dist(final(2.5e-3), ref)
    assert 3.5 < d1 / d2 < 4.5


def test_energy_matches_direct_formula():
    grid, pot, state = localized_setup(n=24)
    A = state.value_matrix()
    T = dense_kinetic(grid)  # a spectral grid
    kin = grid.cell_volume * np.real(np.trace(A.conj().T @ (T @ A)))
    rho = density(state.values)
    potE = 0.5 * inner(rho, convolve_periodic(pot.v_spectrum, rho, grid), grid).real
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
    assert abs(grid.cell_volume * np.sum(density(state.values)) - state.N) < 1e-12
    assert rep.d_value >= 1.0


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_hartree_step_bit_identical_to_per_orbital_loop(dim, mode, N):
    grid = Grid(dim=dim, sites_per_dim=16 if dim == 1 else 12, box_length=6.0,
                kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=1.6)
    state = make_orbitals(InitialFamily("localized", width=0.6), N, grid, 0.3)
    dt = 0.01

    half_kin = np.exp(-0.5j * dt * 0.3 * kinetic_multiplier(grid))
    mids = [np.fft.ifftn(half_kin * np.fft.fftn(phi)) for phi in state.values]
    rho_mid = np.zeros(grid.shape)
    for m in mids:
        rho_mid += np.abs(m) ** 2
    u = (grid.cell_volume * np.fft.ifftn(np.fft.fftn(pot.v) * np.fft.fftn(rho_mid))).real
    # the kick's v * rho is convolve_periodic's, on its own
    assert np.array_equal(convolve_periodic(pot.v_spectrum, rho_mid, grid).real, u)
    pot_phase = np.exp(-1j * dt * 0.3 * u)
    want = [np.fft.ifftn(half_kin * np.fft.fftn(pot_phase * m)) for m in mids]

    got = hartree_step(state, pot, dt, dt)
    assert got.time == dt
    assert all(np.array_equal(phi, w) for phi, w in zip(got.values, want))


def test_non_finite_orbital_fails_at_the_first_step():
    _, pot, state = localized_setup(n=16)
    vals = state.values.copy()
    vals[1, 3] = np.nan
    bad = OrbitalSet(state.grid, vals, state.time, state.epsilon)
    with pytest.raises(NumericalFailure, match="non-finite orbital values at step 1"):
        run_hartree(bad, pot, t_final=0.05, dt=0.01)


def test_a_nan_family_fails_the_orthonormality_check_of_every_user():
    """A NaN defect compares false against any tolerance, so it is tested as not <= tol."""
    grid = Grid(dim=1, sites_per_dim=8, box_length=8.0)
    state = make_orbitals(InitialFamily("localized", width=1.2), 2, grid)
    vals = state.values.copy()
    vals[0, 2] = np.nan
    bad = OrbitalSet(grid, vals, 0.0, state.epsilon)
    users = (OrbitalSet.orthonormal_columns, build_projections,
             lambda s: slater_state(s, ConfigBasis(8, 2)))
    for use in users:
        with pytest.raises(ContractViolation, match="not orthonormal"):
            use(bad)


def test_run_hartree_rejects_a_potential_on_another_grid():
    _, _, state = localized_setup(n=16)
    _, other, _ = localized_setup(n=32)
    with pytest.raises(GridMismatchError):
        run_hartree(state, other, t_final=0.05, dt=0.01)


def test_run_hartree_takes_one_hartree_step_per_recorded_interval(monkeypatch):
    """The module-level step is what run_hartree calls, so wrapping it sees every
    interval; the step counts it reads from the times sum to the run's steps."""
    _, pot, state = localized_setup(n=16)
    steps = []

    def counted(state, potential, dt, time):
        steps.append(round((time - state.time) / dt))
        return hartree_step(state, potential, dt, time)

    monkeypatch.setattr(hartree, "hartree_step", counted)
    traj = run_hartree(state, pot, t_final=0.23, dt=0.01, snapshot_every=5)
    assert steps == [5, 5, 5, 5, 3]
    assert traj.snapshots[-1].time == pytest.approx(0.23, abs=1e-12)


def stepping_setup(dim, mode, N):
    grid = Grid(dim=dim, sites_per_dim=16 if dim == 1 else 12, box_length=6.0,
                kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=1.6)
    state = make_orbitals(InitialFamily("localized", width=0.6), N, grid, 0.3)
    return grid, pot, state


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_merged_steps_match_repeated_single_steps(dim, mode, N):
    _, pot, state = stepping_setup(dim, mode, N)
    dt = 0.01
    merged = hartree_step(state, pot, dt, 7 * dt)
    single = state
    for step in range(1, 8):
        single = hartree_step(single, pot, dt, step * dt)
    assert merged.time == single.time == 7 * dt
    assert np.max(np.abs(merged.values - single.values)) <= 1e-12


def test_step_count_off_the_dt_grid_is_rejected():
    _, pot, state = localized_setup(n=16)
    dt = 0.01
    for time in (0.025, 0.0, -0.01, np.nan):
        with pytest.raises(ConfigError):
            hartree_step(state, pot, dt, time)


def _inject_at_call(monkeypatch, call, edit):
    """Let hartree_step's density see ``edit(orbital stack)`` at its ``call``-th step."""
    seen = []

    def patched(vals):
        seen.append(None)
        return density(edit(vals) if len(seen) == call else vals)

    monkeypatch.setattr(hartree, "density", patched)


def test_aliasing_check_fires_inside_a_merged_call(monkeypatch):
    _, pot, state = localized_setup(n=16)
    _inject_at_call(monkeypatch, 3, lambda vals: 1e4 * vals)
    with pytest.raises(NumericalFailure, match="at step 3 of .* exceeds pi"):
        hartree_step(state, pot, 0.01, 0.05)


def test_non_finite_orbital_fails_at_its_step_inside_a_merged_call(monkeypatch):
    _, pot, state = localized_setup(n=16)

    def poison(vals):
        vals[1, 3] = np.nan  # the orbitals the step goes on with
        return vals

    _inject_at_call(monkeypatch, 4, poison)
    with pytest.raises(NumericalFailure, match="non-finite orbital values at step 4 "):
        hartree_step(state, pot, 0.01, 0.05)


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("dim", [1, 2])
def test_diagnostics_equal_the_per_orbital_formulas(dim, mode):
    """The one stacked K phi of the energy and the Laplacian density, and the
    stacked gradients of the gradient density, change no bit."""
    grid, pot, state = stepping_setup(dim, mode, 3)
    state = hartree_step(state, pot, 0.01, 0.05)
    space = range(grid.dim)
    k_mult = kinetic_multiplier(grid)
    kin, rho_grad, rho_lap = 0, np.zeros(grid.shape), np.zeros(grid.shape)
    for phi in state.values:
        k_phi = _fftn(k_mult * _fftn(phi, space), space, inverse=True)
        kin += inner(phi, k_phi, grid).real
        for g in gradient(phi, grid):
            rho_grad += np.abs(g) ** 2
        lap = _fftn(-k_mult * _fftn(phi, space), space, inverse=True)
        rho_lap += np.abs(lap) ** 2
    rho = density(state.values)
    pot_energy = 0.5 * inner(rho, convolve_periodic(pot.v_spectrum, rho, grid), grid).real
    want = HartreeDiagnostics(
        time=0.05,
        energy=float(kin + pot_energy),
        orthonormality_defect=orthonormality_defect(state),
        d_value=d_value(state.N, norm_l1(rho_grad, grid), norm_l1(rho_lap, grid)),
    )
    assert diagnostics(state, pot) == want
    got_grad, got_lap = derivative_densities(state)
    assert np.array_equal(got_grad, rho_grad) and np.array_equal(got_lap, rho_lap)


def test_diagnostics_transform_the_orbitals_once(monkeypatch):
    """The energy and the Laplacian density share one stacked K phi."""
    grid, pot, state = stepping_setup(1, "lattice", 3)
    calls = []

    def counted(vals, multiplier):
        calls.append(vals.shape)
        return apply_multiplier(vals, multiplier)

    monkeypatch.setattr(hartree, "apply_multiplier", counted)
    monkeypatch.setattr(model, "apply_multiplier", counted, raising=False)
    diagnostics(state, pot)
    assert calls == [state.values.shape]


def test_snapshot_times_are_the_step_count_times_dt():
    """A snapshot after k steps carries initial.time + k*dt exactly, in the
    trajectory and its diagnostics; adding dt per step drifts (t = 1 read
    1.0000000000000007 after 100 steps of 0.01)."""
    _, pot, state = localized_setup(n=16)
    dt = 0.01
    for start in (0.0, 0.5):
        initial = replace(state, time=start)
        traj = run_hartree(initial, pot, t_final=start + 1.0, dt=dt, snapshot_every=10)
        expected = [start + k * dt for k in range(0, 101, 10)]
        assert traj.times.tolist() == expected
        assert [d.time for d in traj.diagnostics] == expected
    assert traj.snapshots[-1].time == 1.5


@pytest.mark.parametrize("route", [run_hartree, run_gauged])
def test_both_routes_end_at_t_final_from_a_later_start(route):
    _, pot, state = localized_setup(n=16)
    later = replace(state, time=0.5)
    traj = route(later, pot, t_final=1.0, dt=0.01)
    assert traj.snapshots[0].time == 0.5
    assert len(traj.snapshots) == 51
    assert traj.snapshots[-1].time == pytest.approx(1.0, abs=1e-12)
    for t_final in (0.5, 0.3):
        with pytest.raises(ConfigError):
            route(later, pot, t_final=t_final, dt=0.01)


@pytest.mark.parametrize("dim", [1, 2])
def test_orbital_set_keeps_its_stack_and_rejects_bad_ones(dim):
    grid = Grid(dim=dim, sites_per_dim=16 if dim == 1 else 8, box_length=6.0)
    state = make_orbitals(InitialFamily("localized", width=0.8), 3, grid)
    stack = state.values.copy()
    built = OrbitalSet(grid, stack, state.time, state.epsilon)
    assert built.values is stack  # kept as given, not copied
    assert built.N == 3 and built.grid == grid
    with pytest.raises(ConfigError, match="at least one orbital"):
        OrbitalSet(grid, stack[:0], 0.0, state.epsilon)
    for epsilon in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            OrbitalSet(grid, stack, 0.0, epsilon)
    with pytest.raises(GridMismatchError):
        OrbitalSet(Grid(dim=dim, sites_per_dim=4, box_length=6.0), stack, 0.0, state.epsilon)
