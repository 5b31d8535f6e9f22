"""Configuration basis, fermionic lifts, exact propagation.

The lift tables are checked against two independent oracles: embed the
configuration amplitudes into the full N-fold tensor space with explicit
permutation signs, apply slot-wise operators there, and read the matrix
elements back; and ``reference_table``, which finds every table row by a
search over the configuration bitmasks instead of composing the
annihilation and creation maps.
"""

import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.sparse as sp

from mflab import _lanczos, manybody
from mflab.errors import ConfigError, ContractViolation, GridMismatchError
from mflab.grid import Grid, dense_kinetic
from mflab.hartree import density
from mflab.manybody import (
    ConfigBasis,
    ManyBodyState,
    _lift,
    annihilated,
    build_hamiltonian,
    exact_traces,
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
from mflab.model import InitialFamily, build_potential, epsilon_for, make_orbitals


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


def _parity(masks: np.ndarray) -> np.ndarray:
    """+1/-1 for an even/odd number of set bits in each mask."""
    return 1 - 2 * (np.bitwise_count(masks) & 1).astype(np.int64)


def reference_table(basis: ConfigBasis, r: int) -> tuple[np.ndarray, ...]:
    """``decoded(basis._table(r), basis.n_modes, r)`` by bit operations on
    configuration bitmasks: int32 ``(rows, cols, row_slot, col_slot)`` and int8
    ``signs`` per entry.

    Builds an int64 occupation bitmask per configuration (L <= 62), then
    annihilates and creates on the masks, with signs from bit parities below
    each mode, in the generation order of the module docstring, ranks each
    final mask by ``searchsorted`` and stable-sorts by row.
    """
    L = basis.n_modes
    configs = np.array(list(combinations(range(L), basis.n_particles)), dtype=np.int64)
    all_masks = (np.int64(1) << configs).sum(axis=1)
    slots = np.array(list(permutations(range(basis.n_particles), r)), dtype=np.int64)
    c = configs[:, slots.reshape(-1, r)].reshape(-1, r)
    cols = np.repeat(np.arange(basis.dim, dtype=np.int64), len(slots))
    masks = all_masks[cols]
    signs = np.ones(len(cols), dtype=np.int64)
    for k in range(r):  # a_{c1} acts first
        bit = np.int64(1) << c[:, k]
        signs *= _parity(masks & (bit - 1))
        masks ^= bit
    weights = L ** np.arange(r - 1, -1, -1, dtype=np.int64)
    col_slot = c @ weights
    row_slot = np.zeros(len(cols), dtype=np.int64)
    modes = np.arange(L, dtype=np.int64)
    bits = np.int64(1) << modes
    bound = np.full(len(cols), L)
    for k in reversed(range(r)):  # a^dag_{dr} acts first
        free = ((masks[:, None] & bits) == 0) & (modes < bound[:, None])
        entry, d = np.nonzero(free)
        signs = signs[entry] * _parity(masks[entry] & (bits[d] - 1))
        masks = masks[entry] | bits[d]
        cols, col_slot = cols[entry], col_slot[entry]
        row_slot = row_slot[entry] + d * weights[k]
        bound = d
    order = np.argsort(all_masks)
    rows = order[np.searchsorted(all_masks, masks, sorter=order)]
    entry = np.argsort(rows, kind="stable")
    index = (rows, cols, row_slot, col_slot)
    return (*(a.astype(np.int32)[entry] for a in index), signs.astype(np.int8)[entry])


def decoded(table, L: int, r: int) -> tuple[np.ndarray, ...]:
    """``(rows, cols, row_slot, col_slot, signs)`` per entry of a lift table.

    The slots are the base-L^r digits of ``flat``; each run of entries lies
    in the row whose ``indptr`` range holds it and in its run's column.
    """
    flat, signs, starts, indices, indptr = table
    row_slot, col_slot = np.divmod(flat, np.int32(L**r))
    lengths = np.diff(starts, append=len(flat))
    run_rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int32), np.diff(indptr))
    rows, cols = np.repeat(run_rows, lengths), np.repeat(indices, lengths)
    return rows, cols, row_slot, col_slot, signs


@pytest.mark.parametrize(
    "L,N,rs",
    [
        (5, 1, (1, 2, 3)),  # N = 1; r > N is empty
        (4, 2, (1, 2, 3)),
        (6, 6, (1, 2, 3)),  # N = L
        (3, 3, (3,)),  # r = N = L
        (8, 2, (1, 2)),
        (8, 3, (1, 2, 3)),
        (12, 3, (1, 2, 3)),
        (12, 4, (1, 2, 3)),
        (20, 4, (1,)),
    ],
)
def test_table_matches_mask_search_reference(L, N, rs):
    """The composed tables decode to the bitmask builder's entries, element and
    dtype, and hold one run per distinct (row, column), each run's first entry
    at ``starts``."""
    for r in rs:
        table = ConfigBasis(n_modes=L, n_particles=N)._table(r)
        flat, signs, starts, indices, indptr = table
        assert flat.dtype == starts.dtype == indices.dtype == indptr.dtype == np.int32
        assert signs.dtype == np.int8
        assert len(indptr) == math.comb(L, N) + 1 and indptr[0] == 0
        assert indptr[-1] == len(starts) == len(indices)
        want = reference_table(ConfigBasis(n_modes=L, n_particles=N), r)
        rows, cols = want[:2]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        np.testing.assert_array_equal(starts, np.flatnonzero(new))
        for g, w in zip(decoded(table, L, r), want):
            assert g.dtype == w.dtype, (r, g.dtype, w.dtype)
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("L,N", [(5, 1), (6, 6), (20, 6), (64, 2), (64, 3)])
def test_configs_are_the_lexicographic_combinations_read_only(L, N):
    configs = ConfigBasis(n_modes=L, n_particles=N).configs
    assert configs.dtype == np.int64 and configs.shape == (math.comb(L, N), N)
    np.testing.assert_array_equal(configs, list(combinations(range(L), N)))
    assert not configs.flags.writeable
    with pytest.raises(ValueError):
        configs[0, 0] = 1


@pytest.mark.parametrize("L,N", [(64, 2), (64, 3)])
def test_annihilation_ranks_match_a_dict_lookup(L, N):
    """Past 62 modes, the closed-form rank of J minus a is its lexicographic index."""
    basis = ConfigBasis(n_modes=L, n_particles=N)
    flat, _, dim_less = basis.annihilation_table
    rank = {c: i for i, c in enumerate(combinations(range(L), N - 1))}
    want = [[rank[c[:k] + c[k + 1:]] * L + c[k] for k in range(N)]
            for c in combinations(range(L), N)]
    assert flat.dtype == np.int32 and dim_less == len(rank)
    np.testing.assert_array_equal(flat, want)


@pytest.mark.parametrize("L,N", [(5, 1), (6, 3), (6, 6)])
def test_creation_table_inverts_annihilation_table(L, N):
    """a^dag_d |K> lands on J exactly when a_d |J> lands on K, with the same sign."""
    basis = ConfigBasis(n_modes=L, n_particles=N)
    flat, signs, dim_less = basis.annihilation_table
    index, created = basis.creation_table
    assert index.shape == created.shape == (dim_less, L)
    assert index.dtype == np.int32 and created.dtype == np.int8
    K, d = np.divmod(flat, L)
    configs = np.broadcast_to(np.arange(basis.dim)[:, None], K.shape)
    np.testing.assert_array_equal(index[K, d], configs)
    np.testing.assert_array_equal(created[K, d], np.broadcast_to(signs, K.shape))
    free = index >= 0
    assert free.sum() == basis.dim * N  # every other (K, d) has d in K
    assert np.all(created[~free] == 0)


@pytest.mark.parametrize("L,N", [(4, 2), (5, 3), (6, 4), (8, 3), (12, 3)])
def test_table_lengths_and_created_mode_order(L, N):
    """dim * N!/(N-r)! * C(L-N+r, r) entries: ordered annihilated, increasing created modes."""
    basis = ConfigBasis(n_modes=L, n_particles=N)
    tables = {1: basis.one_body_table, 2: basis.two_body_table, 3: basis.three_body_table}
    for r, table in tables.items():
        assert basis.lift_pattern(r) is table
        rows, cols, row_slot, col_slot, signs = decoded(table, L, r)
        expected = basis.dim * math.perm(N, r) * math.comb(L - N + r, r)
        assert len(table[0]) == len(rows) == expected, r
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
    lift = (lift_one_body, lift_two_body, lift_three_body)[r - 1]
    rows, cols, row_slot, col_slot, signs = decoded(basis.lift_pattern(r), L, r)
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


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("L,N", [(6, 2), (8, 3), (10, 4)])
def test_kept_lift_equals_the_full_lift_bit_for_bit(r, L, N):
    """A kernel zeroed outside exc(row) + exc(col) <= 2 (exc = modes >= N of a
    slot tuple) lifts the same through the kept runs as through every entry."""
    basis = ConfigBasis(n_modes=L, n_particles=N)
    lift = (lift_two_body, lift_three_body)[r - 2]
    exc = (np.indices((L,) * r) >= N).sum(axis=0).ravel()
    kept = exc[:, None] + exc[None, :] <= 2
    rng = np.random.default_rng(100 * r + L)
    for _ in range(2):
        W = rng.standard_normal(kept.shape) + 1j * rng.standard_normal(kept.shape)
        W *= kept
        full, capped = lift(basis, W), lift(basis, W, 2)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(capped, name), getattr(full, name))
    pattern = basis.lift_pattern(r, 2)
    assert basis.lift_pattern(r, 2) is pattern  # computed once per cap
    assert [a.dtype for a in pattern] == [np.int32, np.int8, np.int32, np.int32, np.int32]
    # the kept pattern is the whole runs of the full table that hold a kept entry
    full = basis.lift_pattern(r)
    entries = decoded(full, L, r)
    exc = sum((np.stack(np.unravel_index(slot, (L,) * r)) >= N).sum(axis=0)
              for slot in entries[2:4])
    run = np.repeat(np.arange(len(full[2])), np.diff(full[2], append=len(full[0])))
    keep = np.isin(run, run[exc <= 2])
    assert r > N or keep.sum() < len(keep)
    for got, want in zip(decoded(pattern, L, r), entries):
        np.testing.assert_array_equal(got, want[keep])


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("L,N", [(6, 2), (8, 3)])
def test_cap_of_every_slot_keeps_every_run(r, L, N):
    """A cap of 2r complement modes excludes no entry: the capped pattern is
    the whole table and lifts any kernel bit for bit like the uncapped lift."""
    basis = ConfigBasis(n_modes=L, n_particles=N)
    lift = (lift_two_body, lift_three_body)[r - 2]
    for got, want in zip(basis.lift_pattern(r, 2 * r), basis.lift_pattern(r)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    rng = np.random.default_rng(10 * r + L)
    W = rng.standard_normal((L**r, L**r)) + 1j * rng.standard_normal((L**r, L**r))
    W = exchange_symmetric(W, L, r)
    full, capped = lift(basis, W), lift(basis, W, 2 * r)
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(capped, name), getattr(full, name))


def one_shot_lift(basis, W, r, cap=None):
    """``_lift`` in one pass over the whole pattern: one gather, one run sum and
    one zero drop, each as long as the pattern."""
    flat, signs, starts, indices, indptr = basis.lift_pattern(r, cap)
    data = np.add.reduceat(signs * W.ravel().take(flat), starts)
    nz = data != 0
    kept_before = np.concatenate(([0], np.cumsum(nz)))
    return sp.csr_matrix(
        (data[nz], indices[nz], kept_before[indptr]), shape=(basis.dim, basis.dim)
    )


@pytest.mark.parametrize("block", [1, 11, 10**9])
@pytest.mark.parametrize(
    "r,L,N,cap",
    [
        (1, 7, 3, None),
        (1, 7, 3, 1),
        (2, 7, 3, None),
        (2, 7, 3, 2),
        (3, 7, 3, None),
        (3, 7, 3, 2),
        (3, 6, 2, None),  # r > N: the empty table
        (3, 6, 2, 2),
    ],
)
def test_blocked_lift_matches_the_one_shot_oracle(monkeypatch, block, r, L, N, cap):
    """One run per block, 11 runs (a non-divisor of every run count here) and
    one block for the whole pattern give the one-shot CSR arrays, bit for bit
    and dtype for dtype, for a real and a complex kernel with zeros."""
    monkeypatch.setattr(manybody, "_LIFT_BLOCK", block)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    n_runs = len(basis.lift_pattern(r, cap)[2])
    assert n_runs == 0 if r > N else n_runs % 11 and n_runs > 11
    rng = np.random.default_rng(100 * r + L)
    real = rng.standard_normal((L**r, L**r)) * (rng.random((L**r, L**r)) < 0.5)
    for W in (real, real + 1j * rng.standard_normal(real.shape) * (real != 0)):
        got, want = _lift(basis, W, r, cap), one_shot_lift(basis, W, r, cap)
        assert r > N or got.nnz < n_runs  # some runs sum to zero and are dropped
        for name in ("data", "indices", "indptr"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, (name, g.dtype, w.dtype)
            assert g.tobytes() == w.tobytes(), name


def test_table_sizes_past_int32_are_refused_before_any_build():
    """Entry counts and flat indices are checked from (L, N, r) alone: the
    4096-mode pair basis would need 6.9e10 one-body entries, the annihilation
    map of its triples 3.4e10 flat indices, and a 216-mode two-body kernel
    216^4 > 2^31 elements; none of them builds its configurations."""
    cases = [
        (ConfigBasis(4096, 2), "one_body_table"),
        (ConfigBasis(4096, 3), "annihilation_table"),
        (ConfigBasis(216, 2), "two_body_table"),
    ]
    for basis, name in cases:
        with pytest.raises(ConfigError, match="int32"):
            getattr(basis, name)
        assert "configs" not in basis.__dict__


def test_lift_and_hamiltonian_peaks_are_bounded_by_the_table():
    """tracemalloc at L = 20, N = 4: the one-body lift of the lattice K peaks
    at most 1 MB above what the table build keeps (so no temporary as long as
    the table's 329,460 entries), and ``build_hamiltonian`` on a new basis
    peaks no higher than that basis's table build, give or take 64 kB for
    the kernel and the Python objects it holds."""
    grid = Grid(dim=1, sites_per_dim=20, box_length=20.0, kinetic_mode="lattice")
    pot = build_potential(grid, "gaussian", amplitude=1.5, width=3.2)
    K = dense_kinetic(grid)
    tracemalloc.start()
    try:
        basis = ConfigBasis(n_modes=20, n_particles=4)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        basis.one_body_table
        kept, build_peak = (m - base for m in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        H = lift_one_body(basis, K)
        lift_peak = tracemalloc.get_traced_memory()[1] - base
        del H, basis
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build_hamiltonian(ConfigBasis(n_modes=20, n_particles=4), pot, epsilon_for(4))
        hamiltonian_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kept > 4e6
    assert lift_peak - kept <= 1e6, (lift_peak, kept)
    assert hamiltonian_peak <= build_peak + 2**16, (hamiltonian_peak, build_peak)


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

    V = difference_matrix(pot.v)
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
    H = build_hamiltonian(basis, pot, epsilon_for(2))
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
    H = build_hamiltonian(basis, pot, epsilon_for(3))
    rng = np.random.default_rng(4)
    state = random_state(basis, rng)
    a = propagate(state, H, t_final=0.9)
    b = propagate_dense(state, H, t_final=0.9)
    assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-11


def test_slater_state_norm_and_rdm():
    grid, pot, basis = small_system(N=3)
    orbs = make_orbitals(InitialFamily("localized", width=1.2), 3, grid)
    psi = slater_state(orbs, basis)
    assert abs(psi.norm - 1.0) < 1e-12
    gamma = rdm1(psi)
    A = np.sqrt(grid.cell_volume) * orbs.value_matrix()
    p = A @ A.conj().T
    np.testing.assert_allclose(gamma, p / 3.0, atol=1e-12)
    # gamma spectrum within [0, 1/N]; trace one
    evals = np.linalg.eigvalsh(gamma)
    assert evals.min() > -1e-12
    assert evals.max() < 1.0 / 3.0 + 1e-12
    assert abs(np.trace(gamma).real - 1.0) < 1e-12


def rdm1_table_oracle(state):
    """gamma from the bitmask one-body table: np.add.at over every table entry."""
    basis = state.basis
    rows, cols, bs, as_, signs = reference_table(basis, 1)
    c = state.amplitudes
    M = np.zeros((basis.n_modes, basis.n_modes), dtype=complex)
    np.add.at(M, (bs, as_), signs * np.conj(c[rows]) * c[cols])
    return M.T / basis.n_particles


@pytest.mark.parametrize("L,N", [(5, 1), (6, 3), (6, 6), (8, 3), (20, 4)])
def test_rdm1_matches_one_body_table_oracle(L, N):
    rng = np.random.default_rng(100 * L + N)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    state = random_state(basis, rng)
    gamma = rdm1(state)
    assert "one_body_table" not in basis.__dict__
    np.testing.assert_allclose(gamma, rdm1_table_oracle(state), rtol=0, atol=1e-14)


@pytest.mark.parametrize("L,N", [(5, 1), (6, 3), (6, 6), (20, 4)])
def test_annihilated_is_bit_identical_to_integer_sign_scatter(L, N):
    """The float-sign scatter gives the bits of (-1)^k as integers times psi
    written through ``Phi.flat``, signed zeros included (a complex, a real
    and an imaginary state, and a unit vector)."""
    basis = ConfigBasis(n_modes=L, n_particles=N)
    flat, _, dim_less = basis.annihilation_table
    int_signs = 1 - 2 * (np.arange(N) & 1)
    c = random_state(basis, np.random.default_rng(L + N)).amplitudes
    unit = np.zeros(basis.dim, dtype=complex)
    unit[-1] = 1.0
    for c in (c, c.real + 0j, 1j * c.imag, unit):
        want = np.zeros((dim_less, L), dtype=np.complex128)
        want.flat[flat] = int_signs * c[:, None]
        got = annihilated(ManyBodyState(basis, c, 0.0))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("L,N", [(5, 1), (6, 3), (6, 6), (20, 4)])
def test_occupancy_is_bit_identical_to_per_configuration_fill(L, N):
    basis = ConfigBasis(n_modes=L, n_particles=N)
    want = np.zeros((basis.dim, L))
    for i, config in enumerate(basis.configs):
        want[i, list(config)] = 1.0
    got = basis.occupancy
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
    rho = density(orbs.values).ravel()
    np.testing.assert_allclose(occ, grid.cell_volume * rho, atol=1e-12)


def test_slater_rejects_nonorthonormal():
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    skewed = type(orbs)(grid, orbs.values[[0, 0]], 0.0, orbs.epsilon)  # repeated orbital
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
    m = rng.standard_normal(grid.shape)
    occ_a = np.dot(m.ravel(), occupation_density(state))
    occ_b = np.dot(m.ravel(), occupation_density(gauged))
    assert abs(occ_a - occ_b) < 1e-13


def test_observe_slater_sides_agree():
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    psi = slater_state(orbs, basis)
    box = np.zeros(grid.shape)
    box[2:5] = 1.0
    (exact,), (hart,) = observe(box[None], psi, orbs)
    assert abs(exact - hart) < 1e-13


def test_observe_sequence_matches_per_observable_traces():
    """One call over a stack gives, per observable, the traces summed
    observable by observable (einsum over the orbitals), as a one-row stack does,
    and its exact traces are ``exact_traces``."""
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    rng = np.random.default_rng(5)
    psi = random_state(basis, rng)
    observables = rng.standard_normal((4,) + grid.shape)
    exact_all, hart_all = observe(observables, psi, orbs)
    assert exact_all.shape == hart_all.shape == (len(observables),)
    assert np.array_equal(exact_all, exact_traces(observables, psi))
    A = orbs.value_matrix()
    for M, e, h in zip(observables, exact_all, hart_all):
        m = M.ravel()
        exact = float(np.dot(m, occupation_density(psi))) / 2
        hart = grid.cell_volume * float(np.einsum("x,xk,xk->", m, A.conj(), A).real) / 2
        assert e == pytest.approx(exact, rel=1e-13)
        assert h == pytest.approx(hart, rel=1e-13)
        assert observe(M[None], psi, orbs)[0][0] == pytest.approx(exact, rel=1e-13)


def test_observe_rejects_complex_observable():
    grid, pot, basis = small_system(N=2)
    orbs = make_orbitals(InitialFamily("localized", width=1.0), 2, grid)
    psi = slater_state(orbs, basis)
    with pytest.raises(ConfigError):
        observe(1j * np.ones((1,) + grid.shape), psi, orbs)
    with pytest.raises(ConfigError):
        observe(np.stack([np.ones(grid.shape), 1j * np.ones(grid.shape)]), psi, orbs)


def test_basis_mismatch_rejected():
    grid, pot, basis = small_system(N=2)
    other = ConfigBasis(n_modes=basis.n_modes, n_particles=3)
    H = build_hamiltonian(basis, pot, epsilon_for(2))
    rng = np.random.default_rng(1)
    with pytest.raises(GridMismatchError):
        propagate(random_state(other, rng), H, t_final=0.1)
    # same dimension, different particle number: only the basis check catches it
    twin = ConfigBasis(n_modes=basis.n_modes, n_particles=basis.n_modes - 2)
    assert twin.dim == basis.dim
    with pytest.raises(GridMismatchError):
        propagate(random_state(twin, rng), H, t_final=0.1)


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
            yield state, build_hamiltonian(basis, pot, epsilon_for(N))


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


def _many_short_gaps():
    grid, pot, basis = small_system(N=3)
    state = random_state(basis, np.random.default_rng(21), time=0.25)
    times = state.time + 0.01 * np.arange(0, 301, 3)
    return state, build_hamiltonian(basis, pot, epsilon_for(3)), times, 1e-12, 0


def _one_long_step():
    """20 sites, N = 3: the exponential to t = 7.3 halves its Krylov step twice."""
    grid = Grid(1, 20, 8.0, "lattice")
    pot = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
    state = random_state(ConfigBasis(20, 3), np.random.default_rng(60), time=0.1)
    return state, build_hamiltonian(state.basis, pot, epsilon_for(3)), [7.3], 1e-13, 2


def test_time_sequence_matches_sequential_single_time_calls(monkeypatch):
    halvings = []
    halved = _lanczos._halved
    monkeypatch.setattr(_lanczos, "_halved", lambda *args: halvings.append(args) or halved(*args))
    for system in (_many_short_gaps, _one_long_step):
        state, H, times, tol, min_halvings = system()
        served = list(propagate(state, H, times))
        assert [s.time for s in served] == list(times)
        halvings.clear()  # count the single-time calls' halvings only
        single = state
        for got in served:
            single = propagate(single, H, got.time)
            assert np.linalg.norm(got.amplitudes - single.amplitudes) < tol
        assert len(halvings) >= min_halvings


def test_time_sequence_at_the_state_time_returns_its_amplitudes():
    grid, pot, basis = small_system(N=2)
    H = build_hamiltonian(basis, pot, epsilon_for(2))
    state = random_state(basis, np.random.default_rng(22), time=0.4)
    first, again, later = propagate(state, H, [0.4, 0.4, 0.9])
    assert first.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert again.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert first.time == again.time == 0.4 and later.time == 0.9
    assert propagate(state, H, 0.4).amplitudes.tobytes() == state.amplitudes.tobytes()
    assert list(propagate(state, H, [])) == []


def test_time_sequence_rejects_bad_requests():
    grid, pot, basis = small_system(N=2)
    H = build_hamiltonian(basis, pot, epsilon_for(2))
    rng = np.random.default_rng(23)
    state = random_state(basis, rng, time=0.1)
    with pytest.raises(ConfigError):
        propagate(state, H, [0.2, 0.5, 0.3])
    with pytest.raises(ConfigError):
        propagate(state, H, [0.05, 0.2])
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


@pytest.mark.parametrize("cut", [12, -3, -16], ids=["in-header", "3-bytes", "16-bytes"])
def test_a_cut_state_container_is_a_config_error_naming_it(tmp_path, cut):
    basis = ConfigBasis(n_modes=6, n_particles=2)
    binary = tmp_path / "state.mbs"
    save_state(random_state(basis, np.random.default_rng(3)), binary)
    binary.write_bytes(binary.read_bytes()[:cut])
    with pytest.raises(ConfigError, match="state.mbs is cut"):
        load_state(binary)
