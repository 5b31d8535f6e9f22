"""Interaction kernels, truncation algebra, and the co-evolved auxiliary run."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mflab.auxiliary as auxiliary
from mflab.auxiliary import (
    _kept_mask,
    base_interactions,
    build_aux_generator,
    complement_kinetic,
    csv_header,
    direct_energy,
    gauge_frame_residual,
    gamma_suffix,
    kept_interaction,
    mean_field_rw,
    observable_localization_bound,
    run_auxiliary,
    rw_crosscheck,
    slot_sector_projectors,
    trace_formula_rw,
    truncate_interaction,
    write_records_csv,
)
from mflab.counting import _random_projections, build_projections
from mflab.errors import ConfigError
from mflab.gauge import gauge_orbitals
from mflab.grid import Grid, dense_kinetic
from mflab.hartree import OrbitalSet
from mflab.manybody import (
    ConfigBasis,
    ManyBodyState,
    lift_one_body,
    lift_three_body,
    lift_two_body,
    random_state,
)
from mflab.model import InitialFamily, build_potential, make_orbitals


def random_orbital_set(grid, N, rng, epsilon=0.5, time=0.0):
    L = grid.total_sites
    M = rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))
    Q, _ = np.linalg.qr(M)
    values = (Q.T / math.sqrt(grid.cell_volume)).reshape((N,) + grid.shape)
    return OrbitalSet(grid, values, time, epsilon)


def make_system(n=8, box=8.0, N=2, mode="lattice", amplitude=1.0):
    grid = Grid(dim=1, sites_per_dim=n, box_length=box, kinetic_mode=mode)
    pot = build_potential(
        grid, "gaussian", amplitude=amplitude, width=max(1.0, 3 * grid.spacing)
    )
    orbitals = make_orbitals(
        InitialFamily(kind="localized", width=max(1.2, 1.2 * grid.spacing)), N, grid
    )
    return grid, pot, orbitals


def test_pair_kernel_hermitian_and_exchange_symmetric():
    grid, pot, _ = make_system()
    base = base_interactions(pot)
    W2 = base.pair_momentum
    np.testing.assert_allclose(W2, W2.conj().T, atol=1e-12)
    L = grid.total_sites
    swap = np.zeros((L * L, L * L))
    for x in range(L):
        for y in range(L):
            swap[y * L + x, x * L + y] = 1.0
    np.testing.assert_allclose(swap @ W2 @ swap, W2, atol=1e-12)
    # diagonal kernels are manifestly symmetric; check positivity of the square
    assert np.all(base.pair_diag >= 0)


def test_rw_trace_formulas_match_mean_field():
    rng = np.random.default_rng(4)
    for mode in ("lattice", "spectral"):
        for dim, n in ((1, 8), (2, 4)):
            grid = Grid(dim=dim, sites_per_dim=n, box_length=6.0, kinetic_mode=mode)
            pot = build_potential(
                grid, "gaussian", amplitude=0.8, width=max(1.0, 3 * grid.spacing)
            )
            state = random_orbital_set(grid, 3, rng)
            report = rw_crosscheck(state, pot)
            assert report["R_defect"] < 1e-10, (mode, dim, report)
            assert report["W_defect"] < 1e-10, (mode, dim, report)


def test_trace_formula_scales_with_density():
    # doubling the orbital family roughly doubles R's convolved data; exactness
    # of the contraction is what test_rw_trace_formulas checks, here we make
    # sure the two orbital counts give genuinely different couplings.
    rng = np.random.default_rng(9)
    grid, pot, _ = make_system()
    base = base_interactions(pot)
    R2, _ = trace_formula_rw(base, random_orbital_set(grid, 2, rng))
    R4, _ = trace_formula_rw(base, random_orbital_set(grid, 4, rng))
    assert np.max(np.abs(R4 - R2)) > 1e-3


def test_slot_sector_projectors_complete_and_orthogonal():
    rng = np.random.default_rng(12)
    proj = _random_projections(4, 2, rng)
    for r in (2, 3):
        Ps = slot_sector_projectors(proj.p, proj.q, r)
        total = sum(Ps)
        np.testing.assert_allclose(total, np.eye(4**r), atol=1e-12)
        for b, P in enumerate(Ps):
            np.testing.assert_allclose(P @ P, P, atol=1e-12)
            for c in range(b + 1, r + 1):
                assert np.max(np.abs(P @ Ps[c])) < 1e-12


def test_truncation_reconstructs_every_kernel():
    rng = np.random.default_rng(21)
    grid, pot, _ = make_system()
    base = base_interactions(pot)
    proj = _random_projections(grid.total_sites, 2, rng)
    for w, r in ((base.pair_momentum, 2), (base.pair_diag, 2)):
        tr = truncate_interaction(w, proj.p, proj.q, r)
        assert tr.reconstruction_defect < 1e-10
        kept = tr.kept
        np.testing.assert_allclose(kept, kept.conj().T, atol=1e-10)
        # kept and discarded blocks are disjoint in the sector decomposition
        assert np.max(np.abs(tr.kept @ np.zeros_like(kept))) == 0  # shape sanity


def test_truncation_triple_reconstructs():
    rng = np.random.default_rng(22)
    grid = Grid(dim=1, sites_per_dim=6, box_length=6.0, kinetic_mode="lattice")
    pot = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
    base = base_interactions(pot)
    proj = _random_projections(6, 2, rng)
    tr = truncate_interaction(base.triple_diag, proj.p, proj.q, 3)
    assert tr.reconstruction_defect < 1e-10


def to_adapted(kernel, U, r):
    """(U^dag)^(x r) kernel U^(x r) with the dense kron product."""
    Ur = U
    for _ in range(r - 1):
        Ur = np.kron(Ur, U)
    return Ur.conj().T @ kernel @ Ur


def test_kept_interaction_matches_truncation_oracle():
    rng = np.random.default_rng(23)
    grid, pot, orbitals = make_system(N=3)
    base = base_interactions(pot)
    moved = replace(orbitals, time=0.6)
    projections = (
        _random_projections(grid.total_sites, 3, rng),
        build_projections(gauge_orbitals(moved, pot)),
    )
    kernels = (
        (base.pair_momentum, 2),
        (base.pair_diag, 2),
        (np.diag(base.pair_diag), 2),
        (base.triple_diag, 3),
    )
    for proj in projections:
        for w, r in kernels:
            oracle = truncate_interaction(w, proj.p, proj.q, r).kept
            oracle = to_adapted(oracle, proj.basis_matrix, r)
            got = kept_interaction(w, proj, r)
            assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(w)), (r, w.ndim)

    # triple kernels built on their kept blocks: one complement mode at N = 5,
    # none at N = L (every block with a q mode is empty)
    for L, N in ((6, 1), (6, 5), (6, 6), (8, 3), (10, 4)):
        grid = Grid(dim=1, sites_per_dim=L, box_length=float(L), kinetic_mode="lattice")
        pot = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
        w = base_interactions(pot).triple_diag
        proj = _random_projections(L, N, rng)
        oracle = truncate_interaction(w, proj.p, proj.q, 3).kept
        oracle = to_adapted(oracle, proj.basis_matrix, 3)
        got = kept_interaction(w, proj, 3)
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(w)), (L, N)


@pytest.mark.parametrize("mode", ["lattice", "spectral"])
@pytest.mark.parametrize("t", [0.3, 0.7])
@pytest.mark.parametrize("L,N", [(6, 2), (6, 3), (6, 4), (8, 3)])
def test_aux_generator_matches_lifted_truncation_oracle(L, N, t, mode):
    """The adapted-basis route equals the site-basis lifts of the literal truncation."""
    grid, pot, orbitals = make_system(n=L, N=N, mode=mode, amplitude=2.0)
    moved = replace(orbitals, time=t)
    psi = gauge_orbitals(moved, pot)
    base = base_interactions(pot)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    te = t * psi.epsilon
    proj = build_projections(psi)

    w2 = te * base.pair_momentum + te**2 * np.diag(base.pair_diag)
    oracle = lift_one_body(basis, dense_kinetic(grid)) + lift_two_body(
        basis, truncate_interaction(w2, proj.p, proj.q, 2).kept
    )
    if N >= 3:
        w3 = truncate_interaction(te**2 * base.triple_diag, proj.p, proj.q, 3).kept
        oracle = oracle + lift_three_body(basis, w3)
    oracle = oracle.toarray()

    kinetic = lift_one_body(basis, dense_kinetic(grid)).toarray()
    got = build_aux_generator(base, psi, t, basis, proj, kinetic).matrix
    assert isinstance(got, np.ndarray) and got.shape == (basis.dim, basis.dim)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_kept_mask_is_cached_per_shape():
    _kept_mask.cache_clear()
    first = _kept_mask(6, 2, 3)
    assert _kept_mask(6, 2, 3) is first
    assert _kept_mask.cache_info().hits == 1
    assert _kept_mask(6, 3, 3) is not first
    assert not first.flags.writeable
    # b + c <= 2 sector blocks: row/column multi-indices count complement modes
    exc = (np.indices((6,) * 3) >= 2).sum(axis=0).ravel()
    np.testing.assert_array_equal(first, exc[:, None] + exc[None, :] <= 2)


def test_triple_kernel_leaves_no_kept_mask():
    """The triple kernel is built on its kept blocks: only the pair mask is cached."""
    grid, pot, orbitals = make_system(N=3)
    basis = ConfigBasis(n_modes=grid.total_sites, n_particles=3)
    kinetic = lift_one_body(basis, dense_kinetic(grid)).toarray()
    _kept_mask.cache_clear()
    build_aux_generator(
        base_interactions(pot), orbitals, 0.4, basis, build_projections(orbitals), kinetic
    )
    assert _kept_mask.cache_info().currsize == 1
    _kept_mask(grid.total_sites, 3, 2)
    assert _kept_mask.cache_info().hits == 1


def aux_builds(L, N, times):
    """One generator build per time, from orbitals gauged at that time: the
    fixed arguments of a run and the per-build arguments of each build."""
    grid, pot, orbitals = make_system(n=L, N=N)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    kinetic = lift_one_body(basis, dense_kinetic(grid)).toarray()
    fixed = (base_interactions(pot), basis, kinetic)
    per_build = []
    for t in times:
        psi = gauge_orbitals(replace(orbitals, time=t), pot)
        per_build.append((psi, t, build_projections(psi)))
    return fixed, per_build


def test_reused_triple_kernel_gives_fresh_builds_bit_for_bit():
    """Consecutive builds sharing one triple kernel equal builds with their own."""
    (base, basis, kinetic), builds = aux_builds(8, 3, (0.3, 0.7))
    L = basis.n_modes
    shared = np.zeros((L**3, L**3), dtype=np.complex128)
    for psi, t, proj in builds:
        reused = build_aux_generator(base, psi, t, basis, proj, kinetic, shared).matrix
        fresh = build_aux_generator(base, psi, t, basis, proj, kinetic).matrix
        np.testing.assert_array_equal(reused, fresh)
    psi, _, proj = builds[0]
    for w, r in ((base.triple_diag, 3), (base.pair_momentum, 2)):
        first, second = kept_interaction(w, proj, r), kept_interaction(w, proj, r)
        assert first is not second and not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)


def test_second_build_of_a_run_allocates_no_triple_kernel():
    """At L = 12, N = 3 a build with the run's triple kernel (48 MB) peaks below 8 MB."""
    (base, basis, kinetic), builds = aux_builds(12, 3, (0.3, 0.7))
    L = basis.n_modes
    shared = np.zeros((L**3, L**3), dtype=np.complex128)
    (psi, t, proj), (psi2, t2, proj2) = builds
    build_aux_generator(base, psi, t, basis, proj, kinetic, shared)
    tracemalloc.start()
    try:
        build_aux_generator(base, psi2, t2, basis, proj2, kinetic, shared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_sector_projector_calls_do_not_grow_with_steps(monkeypatch):
    grid, pot, orbitals = make_system(N=3)
    calls = []
    original = auxiliary.slot_sector_projectors

    def counted(p, q, r):
        calls.append(r)
        return original(p, q, r)

    monkeypatch.setattr(auxiliary, "slot_sector_projectors", counted)
    counts = []
    for t_final in (0.1, 0.3):
        _kept_mask.cache_clear()
        calls.clear()
        run_auxiliary(orbitals, pot, t_final=t_final, dt=0.05)
        counts.append(sorted(calls))
    # the pair mask only: triple kernels are built on their kept blocks
    assert counts == [[2], [2]]


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
@pytest.mark.parametrize("t", [0.0, 0.7])
def test_direct_energy_matches_dense_h_tilde(t, mode):
    """E_g = tr(A^dag (K + 1/2 t eps R + 1/3 (t eps)^2 W) A), just the kinetic at t = 0."""
    grid, pot, _ = make_system(N=3, mode=mode, amplitude=3.0)
    # complex orbitals: real ones carry no current, so tr(p R) would vanish
    orbitals = random_orbital_set(grid, 3, np.random.default_rng(4), time=t)
    R, W = mean_field_rw(orbitals, pot)
    te = t * orbitals.epsilon
    h_tilde = dense_kinetic(grid) + 0.5 * te * R + te**2 / 3.0 * W
    A = math.sqrt(grid.cell_volume) * orbitals.value_matrix()
    expected = float(np.trace(A.conj().T @ h_tilde @ A).real)
    got = direct_energy(orbitals, pot)
    assert abs(got - expected) < 1e-10


def test_generator_reduces_to_kinetic_at_time_zero():
    grid, pot, orbitals = make_system(N=2)
    basis = ConfigBasis(n_modes=grid.total_sites, n_particles=2)
    base = base_interactions(pot)
    K = lift_one_body(basis, dense_kinetic(grid))
    gen = build_aux_generator(base, orbitals, 0.0, basis, build_projections(orbitals), K.toarray())
    assert abs(gen.matrix - K).max() < 1e-12


def test_complement_kinetic_matches_lift_oracle():
    grid, _, _ = make_system(N=3)
    rng = np.random.default_rng(31)
    orbitals = random_orbital_set(grid, 3, rng, epsilon=0.7)
    basis = ConfigBasis(n_modes=grid.total_sites, n_particles=3)
    proj = build_projections(orbitals)
    Q = lift_one_body(basis, proj.q @ dense_kinetic(grid) @ proj.q)
    for _ in range(3):
        c = random_state(basis, rng).amplitudes
        expected = 0.7 / 3 * np.vdot(c, Q @ c).real
        got = complement_kinetic(ManyBodyState(basis, c, 0.0), orbitals, proj)
        assert expected > 1e-3
        assert abs(got - expected) < 1e-13


def test_run_auxiliary_structure_and_start_values():
    grid, pot, orbitals = make_system(N=2, amplitude=2.0)
    run = run_auxiliary(orbitals, pot, t_final=0.2, dt=0.02, snapshot_every=2)
    rec0 = run.records[0]
    assert rec0.time == 0.0
    assert abs(rec0.alpha_n) < 1e-12
    assert all(abs(a) < 1e-12 for a in rec0.alpha_m)
    assert abs(rec0.beta) < 1e-10
    assert abs(rec0.bad_kinetic) < 1e-12
    assert rec0.norm_diff_aux_gauged < 1e-13
    # the truncated state stays normalized and the records move
    final = run.aux_snapshots[-1]
    assert abs(np.linalg.norm(final.amplitudes) - 1.0) < 1e-8
    assert run.records[-1].alpha_n > 1e-8
    assert run.records[-1].alpha_n < 0.5
    times = [r.time for r in run.records]
    assert times[0] == 0.0 and abs(times[-1] - 0.2) < 1e-12
    assert np.all(np.diff(times) > 0)


def test_run_auxiliary_orbital_times_are_step_counts_times_dt(monkeypatch):
    """Step k's two Hartree half steps carry (k - 1/2) dt and k dt exactly."""
    grid, pot, orbitals = make_system(N=2)
    dt = 0.02
    times = []
    step = auxiliary.hartree_step

    def recorded(*args):
        out = step(*args)
        times.append(out.time)
        return out

    monkeypatch.setattr(auxiliary, "hartree_step", recorded)
    run = run_auxiliary(orbitals, pot, t_final=0.2, dt=dt, snapshot_every=5)
    assert times == [t for k in range(1, 11) for t in ((k - 0.5) * dt, k * dt)]
    assert [r.time for r in run.records] == [0.0, 5 * dt, 10 * dt]


def test_run_auxiliary_free_case_matches_exact():
    # amplitude zero: the force vanishes, the gauge phase is a global constant,
    # and the truncated dynamics must ride the exact one to solver tolerance.
    grid = Grid(dim=1, sites_per_dim=8, box_length=8.0, kinetic_mode="lattice")
    pot = build_potential(grid, "cosine_sum", amplitudes=(0.0,), offset=0.7)
    orbitals = make_orbitals(InitialFamily(kind="localized", width=1.2), 2, grid)
    run = run_auxiliary(orbitals, pot, t_final=0.3, dt=0.05)
    for rec in run.records:
        assert rec.norm_diff_aux_gauged < 1e-9, rec
        assert abs(rec.beta) < 1e-9


def test_gauge_frame_residual_shrinks_under_refinement():
    resids = []
    for n in (8, 16):
        grid = Grid(dim=1, sites_per_dim=n, box_length=8.0, kinetic_mode="lattice")
        pot = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
        orbitals = make_orbitals(InitialFamily(kind="delocalized"), 2, grid)
        resids.append(gauge_frame_residual(orbitals, pot, t=0.4, dt=1e-4))
    assert resids[0] < 0.2, resids
    assert resids[1] < 0.6 * resids[0], resids


def test_observable_localization_bound_holds():
    rng = np.random.default_rng(33)
    basis = ConfigBasis(n_modes=6, n_particles=3)
    proj = _random_projections(6, 3, rng)
    for _ in range(30):
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        M = M + M.conj().T
        amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        state = ManyBodyState(basis, amps / np.linalg.norm(amps), 0.0)
        report = observable_localization_bound(M, state, proj)
        assert report["lhs"] <= report["rhs"] * (1 + 1e-9)


def test_csv_layout_and_roundtrip(tmp_path):
    gammas = (1.0 / 6.0, 0.5, 1.0)
    assert gamma_suffix(1.0 / 6.0) == "0p167"
    assert gamma_suffix(0.5) == "0p5"
    assert gamma_suffix(1.0) == "1"
    header = csv_header(gammas)
    assert header == [
        "t", "alpha_n", "alpha_m_g0p167", "alpha_m_g0p5", "alpha_m_g1",
        "beta", "Eg", "bad_kinetic", "norm_diff_aux_gauged",
    ]
    grid, pot, orbitals = make_system(N=2)
    run = run_auxiliary(orbitals, pot, t_final=0.1, dt=0.05, gammas=gammas)
    path = tmp_path / "aux.csv"
    write_records_csv(run.records, gammas, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == header
    for line, rec in zip(lines[1:], run.records):
        vals = [float(tok) for tok in line.split(",")]
        assert vals[0] == rec.time and vals[1] == rec.alpha_n
        assert vals[5] == rec.beta and vals[8] == rec.norm_diff_aux_gauged


def test_run_auxiliary_guards():
    grid, pot, orbitals = make_system(N=2)
    with pytest.raises(ConfigError):
        run_auxiliary(orbitals, pot, t_final=0.1, dt=-0.01)
    with pytest.raises(ConfigError):
        run_auxiliary(orbitals, pot, t_final=0.1, dt=0.03)
    shifted = replace(orbitals, time=0.5)
    with pytest.raises(ConfigError):
        run_auxiliary(shifted, pot, t_final=1.0, dt=0.1)
