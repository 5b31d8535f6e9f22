"""Configuration basis, fermionic lifts, exact propagation.

The lift tables are checked against an independent oracle: embed the
configuration amplitudes into the full N-fold tensor space with explicit
permutation signs, apply slot-wise operators there, and read the matrix
elements back.
"""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.sparse as sp

from mflab.errors import ConfigError, ContractViolation, GridMismatchError
from mflab.grid import Field, Grid
from mflab.hartree import density
from mflab.manybody import (
    ConfigBasis,
    ManyBodyState,
    annihilated,
    build_hamiltonian,
    gauge_manybody,
    lift_one_body,
    lift_three_body,
    lift_two_body,
    load_state,
    observe,
    occupation_density,
    one_body_expectation,
    pairwise_potential_vector,
    propagate,
    propagate_dense,
    random_state,
    rdm1,
    save_state,
    slater_state,
)
from mflab.model import InitialFamily, ScalingParams, build_potential, make_orbitals


# ---------------------------------------------------------------------------
# tensor-space oracle
# ---------------------------------------------------------------------------


def embed(basis: ConfigBasis, idx: int) -> np.ndarray:
    """Antisymmetric tensor of one configuration, unit norm."""
    L, N = basis.n_modes, basis.n_particles
    full = np.zeros((L,) * N, dtype=complex)
    config = basis.configs[idx]
    for perm in permutations(range(N)):
        inv = sum(1 for i in range(N) for j in range(i + 1, N) if perm[i] > perm[j])
        full[tuple(config[p] for p in perm)] = (-1.0) ** inv
    return full / np.sqrt(math.factorial(N))


def slotwise_matrix(basis: ConfigBasis, apply_full) -> np.ndarray:
    """Matrix elements <embed(J), Op embed(I)> of a tensor-space operator."""
    dim = basis.dim
    out = np.zeros((dim, dim), dtype=complex)
    embeds = [embed(basis, i) for i in range(dim)]
    for i in range(dim):
        acted = apply_full(embeds[i])
        for j in range(dim):
            out[j, i] = np.vdot(embeds[j], acted)
    return out


@pytest.mark.parametrize("L,N", [(4, 2), (4, 3), (5, 2), (4, 4)])
def test_lift_one_body_against_tensor_oracle(L, N):
    rng = np.random.default_rng(L * 10 + N)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    A = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))

    def apply_full(T):
        out = np.zeros_like(T)
        for slot in range(N):
            out += np.moveaxis(np.tensordot(A, T, axes=([1], [slot])), 0, slot)
        return out

    want = slotwise_matrix(basis, apply_full)
    got = lift_one_body(basis, A).toarray()
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("L,N", [(4, 2), (4, 3), (5, 3)])
def test_lift_two_body_against_tensor_oracle(L, N):
    rng = np.random.default_rng(L * 100 + N)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    W = rng.standard_normal((L * L, L * L)) + 1j * rng.standard_normal((L * L, L * L))
    # symmetrise under simultaneous slot exchange
    W4 = W.reshape(L, L, L, L)
    W4 = 0.5 * (W4 + W4.transpose(1, 0, 3, 2))
    W = W4.reshape(L * L, L * L)

    def apply_full(T):
        out = np.zeros_like(T)
        for i in range(N):
            for j in range(i + 1, N):
                # contract slots (i, j) with W4[p, q, r, s] (slot1, slot2)
                acted = np.tensordot(W4, T, axes=([2, 3], [i, j]))
                acted = np.moveaxis(acted, (0, 1), (i, j))
                out += acted
        return out

    want = slotwise_matrix(basis, apply_full)
    got = lift_two_body(basis, W).toarray()
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("L,N", [(4, 3), (5, 3), (5, 4)])
def test_lift_three_body_against_tensor_oracle(L, N):
    rng = np.random.default_rng(7)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    W = rng.standard_normal((L**3, L**3)) + 1j * rng.standard_normal((L**3, L**3))
    W6 = W.reshape(L, L, L, L, L, L)
    # symmetrise over simultaneous slot permutations
    acc = np.zeros_like(W6)
    for perm in permutations(range(3)):
        acc += W6.transpose(tuple(perm) + tuple(p + 3 for p in perm))
    W6 = acc / 6.0
    W = W6.reshape(L**3, L**3)

    def apply_full(T):
        out = np.zeros_like(T)
        for slots in combinations(range(N), 3):
            acted = np.tensordot(W6, T, axes=([3, 4, 5], list(slots)))
            out += np.moveaxis(acted, (0, 1, 2), slots)
        return out

    want = slotwise_matrix(basis, apply_full)
    got = lift_three_body(basis, W).toarray()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_lift_three_body_vanishes_for_pairs():
    basis = ConfigBasis(n_modes=4, n_particles=2)
    W = np.eye(4**3)
    assert lift_three_body(basis, W).nnz == 0


@pytest.mark.parametrize("L,N", [(4, 2), (5, 3), (6, 4), (8, 3), (12, 3)])
def test_table_lengths_and_created_mode_order(L, N):
    """dim * N!/(N-r)! * C(L-N+r, r) entries: ordered annihilated, increasing created modes."""
    basis = ConfigBasis(n_modes=L, n_particles=N)
    tables = {1: basis.one_body_table, 2: basis.two_body_table, 3: basis.three_body_table}
    for r, (rows, cols, row_slot, col_slot, signs) in tables.items():
        expected = basis.dim * math.perm(N, r) * math.comb(L - N + r, r)
        assert len(rows) == expected, r
        assert all(a.dtype == np.int32 for a in (rows, cols, row_slot, col_slot))
        assert signs.dtype == np.int8
        created = np.stack(np.unravel_index(row_slot, (L,) * r))
        assert np.all(np.diff(created, axis=0) > 0)


def test_lift_diagonal_matches_one_body():
    rng = np.random.default_rng(2)
    basis = ConfigBasis(n_modes=6, n_particles=3)
    vals = rng.standard_normal(6)
    via_table = lift_one_body(basis, np.diag(vals)).toarray()
    via_occ = np.diag(basis.occupancy @ vals)
    np.testing.assert_allclose(via_table, via_occ, atol=1e-13)


def test_lift_stores_no_explicit_zeros():
    """Duplicate entries are summed before zeros are dropped: diag(1, -1, 0, 0) on 2 of 4."""
    basis = ConfigBasis(n_modes=4, n_particles=2)
    M = lift_one_body(basis, np.diag([1.0, -1.0, 0.0, 0.0]))
    assert M.nnz == 4
    assert np.all(M.data != 0)
    np.testing.assert_array_equal(M.diagonal(), basis.occupancy @ [1.0, -1.0, 0.0, 0.0])


def exchange_symmetric(W, L, r):
    """The average of W over the r! simultaneous slot permutations."""
    T = W.reshape((L,) * (2 * r))
    out = np.zeros_like(T)
    for perm in permutations(range(r)):
        out += T.transpose(list(perm) + [r + s for s in perm])
    return (out / math.factorial(r)).reshape(L**r, L**r)


@pytest.mark.parametrize("r,L,N", [(1, 7, 3), (2, 6, 3), (2, 7, 4), (3, 6, 3), (3, 7, 4)])
def test_cached_pattern_lift_matches_coo_lift(r, L, N):
    """One gather and run sum on the cached CSR pattern equals a COO -> CSR lift.

    Two kernels in turn, so a lift that altered the cached pattern would show.
    """
    basis = ConfigBasis(n_modes=L, n_particles=N)
    table = ("one_body_table", "two_body_table", "three_body_table")[r - 1]
    lift = (lift_one_body, lift_two_body, lift_three_body)[r - 1]
    rows, cols, row_slot, col_slot, signs = getattr(basis, table)
    rng = np.random.default_rng(10 * r + L)
    for _ in range(2):
        W = rng.standard_normal((L**r, L**r)) + 1j * rng.standard_normal((L**r, L**r))
        W = exchange_symmetric(W * (rng.random(W.shape) < 0.5), L, r)
        want = sp.coo_matrix(
            (signs * W[row_slot, col_slot], (rows, cols)), shape=(basis.dim, basis.dim)
        ).tocsr()
        want.eliminate_zeros()
        got = lift(basis, W)
        assert got.has_canonical_format
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-14, atol=1e-15)


# ---------------------------------------------------------------------------
# Hamiltonian, Slater embedding, reduced density matrix
# ---------------------------------------------------------------------------


def small_system(n=8, box=8.0, N=2, width=3.2, mode="lattice"):
    grid = Grid(dim=1, sites_per_dim=n, box_length=box, kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=width)
    basis = ConfigBasis(n_modes=grid.total_sites, n_particles=N)
    return grid, pot, basis


def test_pairwise_vector_matches_direct_sum():
    grid, pot, basis = small_system()
    from mflab.grid import difference_matrix

    V = difference_matrix(pot.v).real
    vec = pairwise_potential_vector(basis, pot)
    for idx in (0, 5, len(basis.configs) - 1):
        config = basis.configs[idx]
        direct = sum(
            V[config[i], config[j]]
            for i in range(len(config))
            for j in range(i + 1, len(config))
        )
        assert vec[idx] == pytest.approx(direct, rel=1e-13)


def test_hamiltonian_hermitian_and_norm_preserving():
    grid, pot, basis = small_system()
    H = build_hamiltonian(basis, pot, ScalingParams(N=2))
    dense = H.matrix.toarray()
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-11
    rng = np.random.default_rng(0)
    state = random_state(basis, rng)
    out = propagate(state, H, t_final=1.0)
    assert abs(out.norm - 1.0) < 1e-12
    e0 = np.vdot(state.amplitudes, H.matrix @ state.amplitudes).real
    e1 = np.vdot(out.amplitudes, H.matrix @ out.amplitudes).real
    assert abs(e1 - e0) < 1e-11


def test_krylov_matches_dense_exponential():
    grid, pot, basis = small_system(N=3)
    H = build_hamiltonian(basis, pot, ScalingParams(N=3))
    rng = np.random.default_rng(4)
    state = random_state(basis, rng)
    a = propagate(state, H, t_final=0.9)
    b = propagate_dense(state, H, t_final=0.9)
    assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-11


def test_time_dependent_midpoint_propagation():
    grid, pot, basis = small_system(N=2)
    H = build_hamiltonian(basis, pot, ScalingParams(N=2))

    def gen(t):
        return H  # constant in time: midpoint stepping must agree with one shot

    rng = np.random.default_rng(9)
    state = random_state(basis, rng)
    a = propagate(state, gen, t_final=0.5, dt=0.05)
    b = propagate(state, H, t_final=0.5)
    assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-11


def test_slater_state_norm_and_rdm():
    grid, pot, basis = small_system(N=3)
    orbs = make_orbitals(InitialFamily("localized", width=1.2), 3, grid)
    psi = slater_state(orbs, basis)
    assert abs(psi.norm - 1.0) < 1e-12
    gamma = rdm1(psi).matrix
    A = np.sqrt(grid.cell_volume) * orbs.value_matrix()
    p = A @ A.conj().T
    np.testing.assert_allclose(gamma, p / 3.0, atol=1e-12)
    # gamma spectrum within [0, 1/N]; trace one
    evals = np.linalg.eigvalsh(gamma)
    assert evals.min() > -1e-12
    assert evals.max() < 1.0 / 3.0 + 1e-12
    assert abs(np.trace(gamma).real - 1.0) < 1e-12


def rdm1_table_oracle(state):
    """gamma from the one-body table: np.add.at over every table entry."""
    basis = state.basis
    rows, cols, bs, as_, signs = basis.one_body_table
    c = state.amplitudes
    M = np.zeros((basis.n_modes, basis.n_modes), dtype=complex)
    np.add.at(M, (bs, as_), signs * np.conj(c[rows]) * c[cols])
    return M.T / basis.n_particles


@pytest.mark.parametrize("L,N", [(5, 1), (6, 3), (6, 6), (8, 3), (20, 4)])
def test_rdm1_matches_one_body_table_oracle(L, N):
    rng = np.random.default_rng(100 * L + N)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    state = random_state(basis, rng)
    gamma = rdm1(state).matrix
    assert "one_body_table" not in basis.__dict__
    np.testing.assert_allclose(gamma, rdm1_table_oracle(state), rtol=0, atol=1e-14)


@pytest.mark.parametrize("L,N", [(5, 1), (6, 3), (6, 6)])
def test_one_body_expectation_matches_lift(L, N):
    rng = np.random.default_rng(7 * L + N)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    c = random_state(basis, rng).amplitudes
    A = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    Phi = annihilated(ManyBodyState(basis, c, 0.0))
    assert Phi.shape == (math.comb(L, N - 1), L)
    expected = np.vdot(c, lift_one_body(basis, A) @ c)
    assert abs(one_body_expectation(Phi, A) - expected) < 1e-13


def test_occupation_density_matches_orbital_density():
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    psi = slater_state(orbs, basis)
    occ = occupation_density(psi)
    rho = density(orbs).values.real.ravel()
    np.testing.assert_allclose(occ, grid.cell_volume * rho, atol=1e-12)


def test_slater_rejects_nonorthonormal():
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    skewed = type(orbs)(
        orbitals=(orbs.orbitals[0], orbs.orbitals[0]),  # repeated orbital
        time=0.0,
        scaling=orbs.scaling,
    )
    with pytest.raises(ContractViolation):
        slater_state(skewed, basis)


def test_gauge_manybody_preserves_moduli_and_observables():
    grid, pot, basis = small_system(N=2)
    rng = np.random.default_rng(3)
    state = ManyBodyState(basis, random_state(basis, rng).amplitudes, time=0.8)
    gauged = gauge_manybody(state, 0.8, 0.5, pot)
    np.testing.assert_allclose(
        np.abs(gauged.amplitudes), np.abs(state.amplitudes), atol=1e-13
    )
    at_zero = gauge_manybody(state, 0.0, 0.5, pot)
    np.testing.assert_allclose(at_zero.amplitudes, state.amplitudes, atol=1e-15)
    m = Field(grid, rng.standard_normal(grid.shape))
    occ_a = np.dot(m.values.ravel(), occupation_density(state))
    occ_b = np.dot(m.values.ravel(), occupation_density(gauged))
    assert abs(occ_a - occ_b) < 1e-13


def test_observe_slater_sides_agree():
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    psi = slater_state(orbs, basis)
    box = np.zeros(grid.shape)
    box[2:5] = 1.0
    res = observe(Field(grid, box), psi, orbs)
    assert res.comparison < 1e-13


def test_observe_sequence_matches_per_observable_traces():
    """One call over a sequence gives, per observable, the traces summed
    observable by observable (einsum over the orbitals), as a single-Field call does."""
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    rng = np.random.default_rng(5)
    psi = random_state(basis, rng)
    fields = [Field(grid, rng.standard_normal(grid.shape)) for _ in range(4)]
    together = observe(fields, psi, orbs)
    assert len(together) == len(fields)
    A = orbs.value_matrix()
    for M, res in zip(fields, together):
        m = M.values.real.ravel()
        exact = float(np.dot(m, occupation_density(psi))) / 2
        hart = grid.cell_volume * float(np.einsum("x,xk,xk->", m, A.conj(), A).real) / 2
        assert res.trace_exact == pytest.approx(exact, rel=1e-13)
        assert res.trace_hartree == pytest.approx(hart, rel=1e-13)
        assert res.comparison == abs(res.trace_exact - res.trace_hartree)
        assert observe(M, psi, orbs).trace_exact == pytest.approx(exact, rel=1e-13)


def test_observe_rejects_complex_observable():
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    psi = slater_state(orbs, basis)
    with pytest.raises(ConfigError):
        observe(Field(grid, 1j * np.ones(grid.shape)), psi, orbs)
    with pytest.raises(ConfigError):
        observe([Field(grid, np.ones(grid.shape)), Field(grid, 1j * np.ones(grid.shape))],
                psi, orbs)


def test_basis_mismatch_rejected():
    grid, pot, basis = small_system(N=2)
    other = ConfigBasis(n_modes=basis.n_modes, n_particles=3)
    H = build_hamiltonian(basis, pot, ScalingParams(N=2))
    rng = np.random.default_rng(1)
    with pytest.raises(GridMismatchError):
        propagate(random_state(other, rng), H, t_final=0.1)
    # same dimension, different particle number: only the basis check catches it
    twin = ConfigBasis(n_modes=basis.n_modes, n_particles=basis.n_modes - 2)
    assert twin.dim == basis.dim
    with pytest.raises(GridMismatchError):
        propagate(random_state(twin, rng), lambda t: H, t_final=0.1, dt=0.05)


def _oracle_systems():
    """The bases of dim <= 400 that acceptance 08 checks Krylov against dense on."""
    for sites in (4, 6, 8, 10, 12, 14, 16):
        grid = Grid(dim=1, sites_per_dim=sites, box_length=8.0, kinetic_mode="lattice")
        pot = build_potential(grid, "cosine_sum", amplitudes=[0.8], offset=0.3)
        for N in range(1, 6):
            if N > sites or math.comb(sites, N) > 400:
                continue
            basis = ConfigBasis(sites, N)
            state = slater_state(make_orbitals(InitialFamily("delocalized"), N, grid), basis)
            yield state, build_hamiltonian(basis, pot, ScalingParams(N=N))


def test_time_sequence_matches_dense_at_every_snapshot():
    times = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5]
    bases = 0
    for state, H in _oracle_systems():
        dense = state
        served = list(propagate(state, H, times))
        assert [s.time for s in served] == times
        for got in served:
            dense = propagate_dense(dense, H, got.time)
            assert np.linalg.norm(got.amplitudes - dense.amplitudes) < 1e-10
        bases += 1
    assert bases >= 20


def test_time_sequence_matches_sequential_single_time_calls():
    grid, pot, basis = small_system(N=3)
    H = build_hamiltonian(basis, pot, ScalingParams(N=3))
    state = random_state(basis, np.random.default_rng(21), time=0.25)
    times = state.time + 0.01 * np.arange(0, 301, 3)
    single = state
    served = list(propagate(state, H, times))
    assert [s.time for s in served] == list(times)
    for got in served:
        single = propagate(single, H, got.time)
        assert np.linalg.norm(got.amplitudes - single.amplitudes) < 1e-12


def test_time_sequence_at_the_state_time_returns_its_amplitudes():
    grid, pot, basis = small_system(N=2)
    H = build_hamiltonian(basis, pot, ScalingParams(N=2))
    state = random_state(basis, np.random.default_rng(22), time=0.4)
    first, again, later = propagate(state, H, [0.4, 0.4, 0.9])
    assert first.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert again.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert first.time == again.time == 0.4 and later.time == 0.9
    assert propagate(state, H, 0.4).amplitudes.tobytes() == state.amplitudes.tobytes()
    assert list(propagate(state, H, [])) == []


def test_time_sequence_rejects_bad_requests():
    grid, pot, basis = small_system(N=2)
    H = build_hamiltonian(basis, pot, ScalingParams(N=2))
    rng = np.random.default_rng(23)
    state = random_state(basis, rng, time=0.1)
    with pytest.raises(ConfigError):
        propagate(state, H, [0.2, 0.5, 0.3])
    with pytest.raises(ConfigError):
        propagate(state, H, [0.05, 0.2])
    with pytest.raises(ConfigError):
        propagate(state, lambda t: H, [0.2, 0.3], dt=0.05)
    other = ConfigBasis(n_modes=basis.n_modes, n_particles=3)
    with pytest.raises(GridMismatchError):
        propagate(random_state(other, rng), H, [0.1, 0.2])


def test_serialization_round_trips(tmp_path):
    grid, pot, basis = small_system(N=3)
    rng = np.random.default_rng(12)
    state = ManyBodyState(basis, random_state(basis, rng).amplitudes, time=0.37)

    binary = tmp_path / "state.mbs"
    save_state(state, binary)
    back = load_state(binary)
    assert back.basis == state.basis
    assert back.time == state.time
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)

    with pytest.raises(ConfigError):
        bad = tmp_path / "bad.mbs"
        bad.write_bytes(b"NOTASTATE" + b"\0" * 32)
        load_state(bad)
