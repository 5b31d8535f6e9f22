"""Sector projectors, weight operators, and the comparison-lemma suite."""

import math
from functools import reduce
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.linalg import qr

from mflab import counting
from mflab.counting import (
    Projections,
    SlotSpace,
    alpha,
    alpha_number_onebody,
    apply_weight,
    build_projections,
    lemma_suite,
    sector_masses,
    sector_project,
    shifted,
    weight_complement,
    weight_inverse_sqrt,
    weight_number,
    weight_sqrt,
    weight_threshold,
    _block_product,
    _count_blocks,
    _gaussian_operator,
    _mask_table,
    _random_projections,
    _record,
    _rotate,
    _row_dots,
    _size_weights,
    _slot_counts,
    _threshold_differences,
)
from mflab.errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from mflab.grid import Grid
from mflab.hartree import OrbitalSet
from mflab.manybody import (
    ConfigBasis,
    ManyBodyState,
    lift_one_body,
    random_state,
    slater_state,
)


def random_orbital_set(grid, N, rng, epsilon=0.5):
    L = grid.total_sites
    M = rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))
    Q, _ = np.linalg.qr(M)
    values = (Q.T / math.sqrt(grid.cell_volume)).reshape((N,) + grid.shape)
    return OrbitalSet(grid, values, 0.0, epsilon)


def adapted_space(L, N):
    """The literal SlotSpace on the adapted projections p = diag(1_N, 0), the
    first N modes spanning Ran p: its sectors, q-products and weights of an
    adapted slot tensor are exactly the masks on complement counts."""
    return SlotSpace(Projections(np.eye(L), N), N)


def test_weight_tables():
    N = 4
    n = weight_number(N)
    ell = weight_sqrt(N)
    assert n.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    np.testing.assert_allclose(ell**2, n, atol=1e-15)
    m = weight_threshold(N, 0.5)
    np.testing.assert_allclose(m, [min(1.0, k / 2.0) for k in range(5)])
    w = weight_complement(N, 0.5)
    np.testing.assert_allclose(m + w, np.ones(5))
    linv = weight_inverse_sqrt(N)
    np.testing.assert_allclose(ell * linv, [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-15)
    # shifts: f_d(k) = f(k+d) inside 0..N, zero outside
    assert shifted(n, 2).tolist() == [0.5, 0.75, 1.0, 0.0, 0.0]
    assert shifted(n, -1).tolist() == [0.0, 0.0, 0.25, 0.5, 0.75]


def test_weight_values_are_one_read_only_array():
    """Every weight, shifted ones included, is one read-only float array
    f(0..N); a shift by N + 1 either way leaves only zeros."""
    N = 4
    past = [shifted(weight_sqrt(N), d) for d in (N + 1, -(N + 1))]
    for w in (weight_number(N), weight_sqrt(N), weight_inverse_sqrt(N), weight_threshold(N, 0.5),
              weight_complement(N, 0.5), shifted(weight_number(N), 1), *past):
        assert w.dtype == np.float64 and w.shape == (N + 1,)
        with pytest.raises(ValueError):
            w[0] = 1.0
    assert not np.any(past)


def test_slater_sits_in_sector_zero():
    grid = Grid(dim=1, sites_per_dim=8, box_length=8.0)
    rng = np.random.default_rng(3)
    orbitals = random_orbital_set(grid, 3, rng)
    proj = build_projections(orbitals)
    basis = ConfigBasis(n_modes=8, n_particles=3)
    psi = slater_state(orbitals, basis)
    masses = sector_masses(psi, proj)
    np.testing.assert_allclose(masses[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(masses[1:], 0.0, atol=1e-12)
    for w in (weight_number(3), weight_sqrt(3), weight_threshold(3, 0.5)):
        assert abs(alpha(w, psi, proj) - w[0]) < 1e-13


def test_masses_sum_to_one_and_projector_idempotent():
    rng = np.random.default_rng(11)
    basis = ConfigBasis(n_modes=6, n_particles=3)
    proj = _random_projections(6, 3, rng)
    psi = random_state(basis, rng)
    masses = sector_masses(psi, proj)
    np.testing.assert_allclose(masses.sum(), 1.0, atol=1e-12)
    for k in range(4):
        pk = sector_project(psi, k, proj)
        assert abs(np.vdot(pk.amplitudes, pk.amplitudes).real - masses[k]) < 1e-12
        twice = sector_project(pk, k, proj)
        np.testing.assert_allclose(twice.amplitudes, pk.amplitudes, atol=1e-12)
        for j in range(4):
            if j != k:
                crossed = sector_project(pk, j, proj)
                assert np.max(np.abs(crossed.amplitudes)) < 1e-12


def test_literal_versus_production_sectors():
    rng = np.random.default_rng(5)
    basis = ConfigBasis(n_modes=4, n_particles=2)
    proj = _random_projections(4, 2, rng)
    space = SlotSpace(proj, 2)
    psi = random_state(basis, rng)
    T = space.embed(psi)
    # embedding is isometric
    assert abs(space.norm_sq(T) - 1.0) < 1e-12
    for k in range(3):
        literal = space.extract(space.sector(T, k), basis)
        production = sector_project(psi, k, proj)
        np.testing.assert_allclose(
            literal.amplitudes, production.amplitudes, atol=1e-12
        )
    w = weight_threshold(2, 0.5)
    literal_w = space.extract(space.weight(T, w), basis)
    production_w = apply_weight(psi, w, proj)
    np.testing.assert_allclose(literal_w.amplitudes, production_w.amplitudes, atol=1e-12)


def embed_by_permutation_loop(state, N, L):
    """Reference embedding: one signed entry per configuration and permutation."""
    T = np.zeros((L,) * N, dtype=np.complex128)
    root = 1.0 / math.sqrt(math.factorial(N))
    for c_I, config in zip(state.amplitudes, state.basis.configs):
        if c_I == 0:
            continue
        for perm in permutations(range(N)):
            inv = sum(1 for i in range(N) for j in range(i + 1, N) if perm[i] > perm[j])
            T[tuple(config[s] for s in perm)] += (-1.0) ** inv * c_I * root
    return T


@pytest.mark.parametrize("N, L", [(1, 4), (2, 6), (3, 8), (4, 8), (3, 12)])
def test_embed_matches_permutation_loop_and_round_trips(N, L):
    rng = np.random.default_rng(41 + 10 * N + L)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    space = SlotSpace(_random_projections(L, N, rng), N)
    psi = random_state(basis, rng)
    T = space.embed(psi)
    assert np.array_equal(T, embed_by_permutation_loop(psi, N, L))
    np.testing.assert_allclose(space.extract(T, basis).amplitudes, psi.amplitudes,
                               rtol=0, atol=1e-15)


def subset_sums(space, T, slots):
    """P^(k) T over ``slots`` for k = 0..|slots|: each k-subset's p/q chain built
    on its own, summed in ``combinations`` order."""
    sums = []
    for k in range(len(slots) + 1):
        out = np.zeros_like(T)
        for S in combinations(slots, k):
            term = T
            for slot in slots:
                term = space.apply_one(term, space.q if slot in S else space.p, slot)
            out += term
        sums.append(out)
    return sums


@pytest.mark.parametrize(
    "N, L, slots",
    [(2, 6, None), (3, 8, None), (4, 8, None), (3, 12, None),
     (1, 1, None), (3, 3, None), (1, 5, None), (4, 8, (3, 1))],
)
def test_sector_walk_equals_subset_sums(N, L, slots, monkeypatch):
    """The one-walk sectors are bit for bit the subset-by-subset sums, they sum
    to T, an out-of-range count gives zeros, and the walk over n slots makes
    2^(n+1) - 2 slot applications.  (1, 1) and (3, 3) have q = 0."""
    rng = np.random.default_rng(61 + 10 * N + L)
    space = SlotSpace(_random_projections(L, N, rng), N)
    T = space.embed(random_state(ConfigBasis(n_modes=L, n_particles=N), rng))
    walked_slots = tuple(range(N)) if slots is None else slots
    expected = subset_sums(space, T, walked_slots)

    calls = []
    apply_one = SlotSpace.apply_one

    def counted(self, *args):
        calls.append(args[-1])
        return apply_one(self, *args)

    monkeypatch.setattr(SlotSpace, "apply_one", counted)
    parts = space.sector(T, None, slots)
    assert len(calls) == 2 ** (len(walked_slots) + 1) - 2
    assert len(parts) == len(walked_slots) + 1
    for k, part in enumerate(parts):
        assert np.array_equal(part, expected[k])
        assert np.array_equal(space.sector(T, k, slots), expected[k])
    assert np.max(np.abs(sum(parts) - T)) < 1e-12
    for k in (-1, len(walked_slots) + 1):
        out = space.sector(T, k, slots)
        assert out.shape == T.shape and not out.any()


@pytest.mark.parametrize("N, L", [(1, 5), (2, 6), (3, 8), (4, 8)])
def test_apply_one_matches_the_slot_contraction(N, L):
    """apply_one on every slot, the last one (a single product) included, is
    the one-slot tensor contraction."""
    rng = np.random.default_rng(67 + 10 * N + L)
    space = SlotSpace(_random_projections(L, N, rng), N)
    T = rng.standard_normal((L,) * N) + 1j * rng.standard_normal((L,) * N)
    M = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    for slot in range(N):
        full = space.apply_on_slots(T, M, (slot,))
        assert np.max(np.abs(space.apply_one(T, M, slot) - full)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("N, L", [(1, 4), (3, 3), (2, 6), (3, 8), (4, 8), (3, 12)])
def test_adapted_slots_match_literal_slot_space(N, L):
    """R = (U^dagger)^(x N) T keeps the norm; over the adapted projections the
    literal sectors, q-products and weights of R are exactly the masks on the
    complement counts, and rotated back by U they are the site-basis ones."""
    rng = np.random.default_rng(43 + 10 * N + L)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    proj = _random_projections(L, N, rng)  # (3, 3): q = 0, no complement modes
    space = SlotSpace(proj, N)
    adapted = adapted_space(L, N)
    T = space.embed(random_state(basis, rng))
    R = _rotate(T, proj.basis_matrix)
    assert abs(adapted.norm_sq(R) - space.norm_sq(T)) < 1e-12

    def count(slots):
        return _slot_counts(L, N, N, tuple(slots))

    def close(masked, mask, literal):
        assert np.array_equal(masked, R * mask)
        # back to the site basis through the literal route: U on every slot
        for slot in range(N):
            masked = space.apply_one(masked, proj.basis_matrix, slot)
        assert np.max(np.abs(masked - literal)) < 1e-12

    close(R, 1.0, T)
    for k in range(-1, N + 2):
        close(adapted.sector(R, k), count(range(N)) == k, space.sector(T, k))
    for n0 in range(N + 1):
        close(adapted.product_q(R, n0), count(range(n0)) == n0, space.product_q(T, n0))
    for w in (weight_number(N), weight_inverse_sqrt(N), shifted(weight_threshold(N, 0.5), -1)):
        close(adapted.weight(R, w), w[count(range(N))], space.weight(T, w))
    for r in range(1, min(3, N) + 1):
        slot_sets = list(combinations(range(N), r))
        slots = slot_sets[int(rng.integers(len(slot_sets)))]
        for k in range(-1, r + 2):
            close(adapted.sector(R, k, slots), count(slots) == k, space.sector(T, k, slots))
        A = rng.standard_normal((L**r, L**r)) + 1j * rng.standard_normal((L**r, L**r))
        # (U^dagger)^(x r) A U^(x r) on the adapted slots is A on the site-basis slots
        Ur = reduce(np.kron, [proj.basis_matrix] * r)
        rotated = adapted.apply_on_slots(R, Ur.conj().T @ A @ Ur, slots)
        for slot in range(N):
            rotated = space.apply_one(rotated, proj.basis_matrix, slot)
        literal = space.apply_on_slots(T, A, slots)
        assert np.max(np.abs(rotated - literal)) < 1e-12


def test_count_tables_are_shared_read_only_arrays():
    """Each count table is built once per shape and slot subset and shared,
    read-only; it is the literal sector index over the adapted projections;
    and the count blocks over the first r slots partition the rows by count,
    each with one total-count row shared by all of its rows."""
    N, L = 3, 8
    ones = np.ones((L,) * N)
    adapted = adapted_space(L, N)
    for slots in ((0,), (1, 2), (0, 1, 2)):
        table = _slot_counts(L, N, N, slots)
        assert _slot_counts(L, N, N, slots) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
        for k, part in enumerate(adapted.sector(ones, None, slots)):
            assert np.array_equal(part, np.broadcast_to(table == k, ones.shape))
    total = _slot_counts(L, N, N, (0, 1, 2)).reshape(L**2, -1)
    over_C = _slot_counts(L, N, N, (0, 1)).reshape(-1)
    blocks = _count_blocks(L, N, 2)
    assert _count_blocks(L, N, 2) is blocks
    assert np.array_equal(np.sort(np.concatenate([rows for rows, _, _ in blocks])), np.arange(L**2))
    stop = 0
    for k, (rows, span, at_rows) in enumerate(blocks):
        assert np.array_equal(rows, np.flatnonzero(over_C == k))
        assert (span.start, span.stop - span.start) == (stop, len(rows))
        stop = span.stop
        assert at_rows.shape == (L ** (N - 2),)
        assert np.array_equal(np.broadcast_to(at_rows, (len(rows), L ** (N - 2))), total[rows])
        assert not rows.flags.writeable and not at_rows.flags.writeable
    assert stop == L**2


@pytest.mark.parametrize(
    "N, L", [(2, 6), (3, 8), (4, 8), (3, 12), (1, 1), (3, 3), (1, 5), (1, 12), (4, 12)]
)
def test_block_products_match_the_full_slot_contraction(N, L):
    """The view G[span_a, span_b] on the count-b rows of R is P^(a) A P^(b) R
    on the count-a rows, and zero elsewhere, for every (b, a), where A =
    Pi^T G Pi is the operator G in count order taken back to the slots' own
    order, with the literal sectors and weights over the adapted
    projections; a weight read at the gathered count table is the literal
    weight on those rows.  (1, 1) and (3, 3) have no complement rows, and
    N = 1 acts on a single slot."""
    rng = np.random.default_rng(53 + 10 * N + L)
    proj = _random_projections(L, N, rng)
    adapted = adapted_space(L, N)
    state = random_state(ConfigBasis(n_modes=L, n_particles=N), rng)
    R = _rotate(SlotSpace(proj, N).embed(state), proj.basis_matrix)
    r = min(3, N) if L**3 <= 1024 else min(2, N)
    C = tuple(range(r))
    G = rng.standard_normal((L**r, L**r)) + 1j * rng.standard_normal((L**r, L**r))
    blocks = _count_blocks(L, N, r)
    # Pi takes multi-index order[i] to position i of the count order
    order = np.concatenate([rows for rows, _, _ in blocks])
    A = np.empty_like(G)
    A[np.ix_(order, order)] = G
    R_rows = R.reshape(L**r, -1)
    _, _, E_w = _threshold_differences(weight_threshold(N, 0.5), 1)
    for w in (weight_number(N), E_w):
        weighted = adapted.weight(R, w).reshape(L**r, -1)
        for rows, _, total in blocks:
            assert np.array_equal(w[total] * R_rows[rows], weighted[rows])
    inputs = {"sector": adapted.sector(R, None, C),
              "weighted": adapted.sector(adapted.weight(R, E_w), None, C)}
    for b, (rows_b, span_b, total_b) in enumerate(blocks):
        slabs = {"sector": R_rows[rows_b], "weighted": E_w[total_b] * R_rows[rows_b]}
        for a, (rows_a, span_a, _) in enumerate(blocks):
            out = _block_product(G, span_a, span_b, slabs)
            for key, full_inputs in inputs.items():
                applied = adapted.apply_on_slots(full_inputs[b], A, C)
                full = adapted.sector(applied, a, C).reshape(L**r, -1)
                scale = np.max(np.abs(full), initial=0.0)
                assert out[key].shape == (len(rows_a), R_rows.shape[1])
                assert np.max(np.abs(out[key] - full[rows_a]), initial=0.0) <= 1e-12 * scale
                assert not np.delete(full, rows_a, axis=0).any()


@pytest.mark.parametrize("N, L", [(1, 4), (2, 6), (4, 8), (4, 12)])
def test_mask_table_matches_masked_and_literal_norms(N, L):
    """sum_k f(k)^2 M[n0, k] = |f_hat prod_{i<=n0} q_i psi|^2 over the adapted
    and the site-basis projections."""
    rng = np.random.default_rng(47 + 10 * N + L)
    proj = _random_projections(L, N, rng)
    space = SlotSpace(proj, N)
    adapted = adapted_space(L, N)
    T = space.embed(random_state(ConfigBasis(n_modes=L, n_particles=N), rng))
    R = _rotate(T, proj.basis_matrix)
    table = _mask_table(R, N)
    assert table.shape == (N + 1, N + 1)
    _, D_w, E_w = _threshold_differences(weight_threshold(N, 0.5), 1)
    weights = [
        np.ones(N + 1),
        weight_number(N),
        weight_inverse_sqrt(N),
        shifted(weight_complement(N, 0.5), -1),
        D_w,
        E_w,
    ]
    for w in weights:
        literal = space.weight(T, w)
        for n0 in range(N + 1):
            from_table = float(np.dot(w**2, table[n0]))
            masked = adapted.norm_sq(adapted.weight(adapted.product_q(R, n0), w))
            direct = space.norm_sq(space.product_q(literal, n0))
            assert from_table == pytest.approx(masked, rel=1e-13), (w, n0)
            assert from_table == pytest.approx(direct, rel=1e-13), (w, n0)


@pytest.mark.parametrize(
    "N,L", [(1, 4), (2, 6), (3, 8), (4, 8), (5, 7), (3, 12), (6, 8), (3, 3)]
)
def test_rotation_matches_determinant_oracle(N, L):
    """Rot[K, I] = conj(det U[sites(I), modes(K)]), each minor by np.linalg.det."""
    proj = _random_projections(L, N, np.random.default_rng(10 * N + L))
    basis = ConfigBasis(n_modes=L, n_particles=N)
    Rot, exc = proj.rotation(basis)
    configs = np.array(basis.configs)
    U = proj.basis_matrix
    minors = U[configs[None, :, :, None], configs[:, None, None, :]]  # [K, I, i, j]
    np.testing.assert_allclose(Rot, np.conj(np.linalg.det(minors)), rtol=0, atol=1e-13)
    np.testing.assert_allclose(Rot @ Rot.conj().T, np.eye(basis.dim), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(exc, (configs >= N).sum(axis=1))


def test_rotation_is_unitary_at_five_of_twelve():
    """The (792 x 792) table of N = 5 on 12 modes, too large for the det oracle."""
    proj = _random_projections(12, 5, np.random.default_rng(62))
    basis = ConfigBasis(n_modes=12, n_particles=5)
    Rot, _ = proj.rotation(basis)
    assert Rot.shape == (792, 792)
    np.testing.assert_allclose(Rot @ Rot.conj().T, np.eye(792), rtol=0, atol=1e-13)


def test_alpha_number_two_routes_agree():
    grid = Grid(dim=1, sites_per_dim=10, box_length=5.0)
    rng = np.random.default_rng(17)
    orbitals = random_orbital_set(grid, 3, rng)
    proj = build_projections(orbitals)
    basis = ConfigBasis(n_modes=10, n_particles=3)
    for _ in range(5):
        psi = random_state(basis, rng)
        a1 = alpha(weight_number(3), psi, proj)
        a2 = alpha_number_onebody(psi, proj)
        assert abs(a1 - a2) < 1e-12


def test_adapted_basis_is_built_at_first_use():
    """p and q alone need no QR: the complement columns come from a pivoted
    QR of q, checked for unitarity, when ``basis_matrix`` is first read."""
    grid = Grid(dim=1, sites_per_dim=8, box_length=4.0)
    rng = np.random.default_rng(41)
    orbitals = random_orbital_set(grid, 3, rng)
    proj = build_projections(orbitals)
    alpha_number_onebody(random_state(ConfigBasis(n_modes=8, n_particles=3), rng), proj)
    assert "basis_matrix" not in vars(proj)
    A = np.sqrt(grid.cell_volume) * orbitals.value_matrix()
    Qfull, _, _ = qr(proj.q, pivoting=True)
    U = proj.basis_matrix
    assert U.tobytes() == np.hstack([A, Qfull[:, :5]]).tobytes()
    assert proj.basis_matrix is U
    skewed = counting.Projections(2 * A, 3)
    with pytest.raises(ContractViolation, match="unitary"):
        skewed.basis_matrix
    given = _random_projections(8, 3, rng)
    assert given.basis_matrix is given.columns


def test_alpha_number_onebody_matches_lift_oracle():
    grid = Grid(dim=1, sites_per_dim=10, box_length=5.0)
    rng = np.random.default_rng(29)
    basis = ConfigBasis(n_modes=10, n_particles=4)
    for _ in range(3):
        proj = build_projections(random_orbital_set(grid, 4, rng))
        assert np.max(np.abs(proj.q @ proj.q - proj.q)) < 1e-14
        Q = lift_one_body(basis, proj.q)
        c = random_state(basis, rng).amplitudes
        expected = np.vdot(c, Q @ c).real / 4
        got = alpha_number_onebody(ManyBodyState(basis, c, 0.0), proj)
        assert abs(got - expected) < 1e-13


def test_alpha_number_onebody_nonnegative_on_slater_state():
    grid = Grid(dim=1, sites_per_dim=10, box_length=5.0)
    rng = np.random.default_rng(37)
    for N in (1, 3, 5):
        orbitals = random_orbital_set(grid, N, rng)
        psi = slater_state(orbitals, ConfigBasis(n_modes=10, n_particles=N))
        a = alpha_number_onebody(psi, build_projections(orbitals))
        assert 0.0 <= a < 1e-25


def test_falling_factorial_identity():
    # <psi, q_1 ... q_j psi> = sum_k  k(k-1)...(k-j+1) / (N(N-1)...(N-j+1)) |P^k psi|^2
    rng = np.random.default_rng(23)
    N, L = 3, 6
    basis = ConfigBasis(n_modes=L, n_particles=N)
    proj = _random_projections(L, N, rng)
    space = SlotSpace(proj, N)
    psi = random_state(basis, rng)
    T = space.embed(psi)
    masses = sector_masses(psi, proj)
    for j in range(1, N + 1):
        lhs = np.vdot(T, space.product_q(T, j)).real
        falling = np.array(
            [math.prod(range(k, k - j, -1)) / math.prod(range(N, N - j, -1)) for k in range(N + 1)]
        )
        rhs = float(np.dot(falling, masses))
        assert abs(lhs - rhs) < 1e-12


def test_weight_operator_algebra():
    rng = np.random.default_rng(29)
    basis = ConfigBasis(n_modes=6, n_particles=2)
    proj = _random_projections(6, 2, rng)
    psi, phi = random_state(basis, rng), random_state(basis, rng)
    f = weight_threshold(2, 0.5)
    g = weight_number(2)
    # self-adjointness
    lhs = np.vdot(psi.amplitudes, apply_weight(phi, f, proj).amplitudes)
    rhs = np.vdot(apply_weight(psi, f, proj).amplitudes, phi.amplitudes)
    assert abs(lhs - rhs) < 1e-13
    # f_hat g_hat = (fg)_hat
    seq = apply_weight(apply_weight(psi, g, proj), f, proj)
    joint = apply_weight(psi, f * g, proj)
    np.testing.assert_allclose(seq.amplitudes, joint.amplitudes, atol=1e-13)
    # powers
    twice = apply_weight(apply_weight(psi, g, proj), g, proj)
    power = apply_weight(psi, g**2, proj)
    np.testing.assert_allclose(twice.amplitudes, power.amplitudes, atol=1e-13)


def test_guards():
    rng = np.random.default_rng(31)
    grid = Grid(dim=1, sites_per_dim=6, box_length=6.0)
    good = random_orbital_set(grid, 2, rng)
    bad = OrbitalSet(grid, good.values[[0, 0]], 0.0, 0.5)
    with pytest.raises(ContractViolation):
        build_projections(bad)
    proj = build_projections(good)
    basis = ConfigBasis(n_modes=6, n_particles=2)
    psi = random_state(basis, rng)
    with pytest.raises(ConfigError):
        apply_weight(psi, weight_number(3), proj)
    other = ManyBodyState(ConfigBasis(n_modes=4, n_particles=2), np.ones(6) / np.sqrt(6), 0.0)
    with pytest.raises(GridMismatchError):
        sector_masses(other, proj)


def test_lemma_suite_clean_and_serializable(tmp_path):
    report = lemma_suite(seed=7, trials=12, sizes=((2, 4), (3, 6)), gammas=(0.5, 1.0))
    report.to_json(tmp_path / "report.json")
    assert report.violation_count == 0, report.asserted
    for name in (
        "q_conversion",
        "sqrt_conversion",
        "shifted_complement",
        "diff_D_plain",
        "diff_E_plain",
        "diff_D_q1",
        "diff_E_q1",
        "diff_D_q1q2",
        "diff_E_q1q2",
        "difference_factorisation",
        "shift_identity",
        "sector_completeness",
        "mass_route_agreement",
    ):
        assert name in report.asserted, name
        assert report.asserted[name]["trials"] > 0
    # conversion bounds are saturated at no more than the stated constants
    assert report.asserted["q_conversion"]["max_ratio"] <= 1.0 + 1e-12
    import json

    with open(tmp_path / "report.json") as fh:
        data = json.load(fh)
    assert data["seed"] == 7 and data["trials"] == 12


def _loop_order_checks(N, gammas):
    """(name, asserted, context) of each check of a trial, written as the
    suite's nested loops over n0, gamma, d and the shift sign."""
    span = min(3, N)
    rows = [(name, True, {}) for name in
            ("sector_completeness", "projector_orthogonality", "mass_route_agreement")]
    rows += [("q_conversion", True, {"n0": n0}) for n0 in range(0, min(3, N - 1) + 1)]
    rows += [("sqrt_conversion", True, {"n0": n0}) for n0 in range(1, min(3, N - 1) + 1)]
    rows.append(("shift_identity", True, {}))
    for gamma in gammas:
        for d in range(0, span + 1):
            for sign in (+1, -1) if d else (+1,):
                for n0 in range(1, span + 1):
                    rows.append(("shifted_complement", d <= N**gamma + 1e-9,
                                 {"gamma": gamma, "d": sign * d, "n0": n0}))
        for d in range(1, span + 1):
            names = ["diff_D_plain", "diff_E_plain", "diff_D_q1", "diff_E_q1"]
            names += ["diff_D_q1q2", "diff_E_q1q2"] if N >= 2 else []
            for name in names + ["difference_factorisation"]:
                rows.append((name, True, {"gamma": gamma, "d": d}))
    return rows


@pytest.mark.parametrize("N", [1, 2, 4, 5])
def test_check_plan_rows_follow_the_loop_order_and_keep_np_dot_bits(N):
    """One row per check in the order of the suite's loops, each recorded
    under its name and table; the stacked products of the plan give every
    mask norm and alpha with the bits of one ``np.dot`` per check."""
    gammas = (1.0 / 6.0, 0.5, 1.0)
    plan, _, _ = _size_weights(N, gammas)
    got = [(*plan.checks[c], context) for c, context in zip(plan.check_of, plan.contexts)]
    assert got == _loop_order_checks(N, gammas)
    rng = np.random.default_rng(70 + N)
    table, masses = rng.random((N + 1, N + 1)), rng.random(N + 1)
    lhs = _row_dots(plan.squared, table[plan.n0])
    alphas = _row_dots(plan.alphas, masses)
    for j in range(len(plan.masked)):
        assert lhs[j] == float(np.dot(plan.squared[j], table[plan.n0[j]]))
    for j, weight in enumerate(plan.alphas):
        assert alphas[j] == float(np.dot(weight, masses))


def test_record_reports_violating_rows_with_context_and_refuses_non_finite_ones():
    """A violating row is recorded with lhs, rhs and its full context (the
    trial's, the plan's and the trial's extra), violations in loop order; an
    inactive row is not counted, even when non-finite, and a check enters
    its table at its first active row, as in the suite's loops; a
    non-finite side of an active row raises NumericalFailure naming the
    check."""
    N, gammas = 4, (1.0 / 6.0, 0.5, 1.0)
    plan, _, _ = _size_weights(N, gammas)
    checks = _loop_order_checks(N, gammas)

    def row_of(name, **context):
        return next(i for i, (n, _, c) in enumerate(checks) if n == name and c == context)

    planted = [row_of("shifted_complement", gamma=0.5, d=-1, n0=2),
               row_of("shifted_complement", gamma=1.0, d=1, n0=1)]
    shift = row_of("shift_identity")
    lhs, rhs = np.zeros(len(checks)), np.ones(len(checks))
    lhs[planted] = 3.0, 2.5
    lhs[shift] = 4.0
    active = np.ones(len(checks), dtype=bool)
    # diff_D_q1 of the first gamma is skipped, so the check enters after the
    # first factorisation, at the second gamma
    q1 = [row_of("diff_D_q1", gamma=gammas[0], d=d) for d in (1, 2, 3)]
    active[q1] = False
    lhs[q1] = np.nan
    asserted, reported = {}, {}
    context = {"trial": 7, "N": N, "L": 8, "seed": 3}
    _record(asserted, reported, plan, lhs, rhs, active, context, {shift: {"a": 1, "b": 2}})
    violations = asserted["shifted_complement"]["violations"]
    assert [list(v.items()) for v in violations] == [
        [("lhs", 3.0), ("rhs", 1.0), ("trial", 7), ("N", N), ("L", 8), ("seed", 3),
         ("gamma", 0.5), ("d", -1), ("n0", 2)],
        [("lhs", 2.5), ("rhs", 1.0), ("trial", 7), ("N", N), ("L", 8), ("seed", 3),
         ("gamma", 1.0), ("d", 1), ("n0", 1)],
    ]
    assert asserted["shifted_complement"]["max_ratio"] == 3.0
    assert asserted["shift_identity"] == {
        "trials": 1, "max_ratio": 4.0,
        "violations": [{"lhs": 4.0, "rhs": 1.0, **context, "a": 1, "b": 2}],
    }
    assert asserted["diff_D_q1"]["trials"] == 6
    entered = list(dict.fromkeys(
        name for (name, in_asserted, _), on in zip(checks, active) if in_asserted and on))
    assert entered.index("diff_D_q1") > entered.index("difference_factorisation")
    assert list(asserted) == entered
    assert reported["shifted_complement"]["violations"] == []
    assert sum(rec["trials"] for rec in [*asserted.values(), *reported.values()]) \
        == len(checks) - len(q1)

    lhs[row_of("diff_E_q1", gamma=1.0, d=2)] = np.inf
    with pytest.raises(NumericalFailure, match="lemma check diff_E_q1 has a non-finite side"):
        _record({}, {}, plan, lhs, rhs, active, context, {})


def test_lemma_report_structure_is_pinned(tmp_path):
    """Reruns write the same bytes; check names, order and trial counts follow
    from the default sizes (2x6, 3x8, 4x8, 3x12) and gammas (1/6, 1/2, 1).

    Eight trials run each size twice.  Per trial of N particles on L modes,
    with m = min(3, N): q-conversion has min(4, N) checks, sqrt-conversion
    min(3, N - 1); per gamma each diff_* check has m, the factorisation
    size_C (3 if L^3 <= 1024, else 2, capped at N: 2, 3, 3, 2), and the
    shifted complement (2m + 1) m, asserted for shifts d <= N^gamma: d <= 1
    at gamma 1/6, d <= 1 (N = 2, 3) or 2 (N = 4) at gamma 1/2, all at gamma 1.
    That is 2 (22 + 39 + 45 + 39) = 290 asserted, 2 (8 + 24 + 18 + 24) = 148
    reported, one twenty-fifth of the 200-trial default.
    """
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        report = lemma_suite(seed=11, trials=8)
        assert report.violation_count == 0, report.asserted
        report.to_json(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    import json

    data = json.loads(paths[0].read_text())
    diff = 2 * 3 * (2 + 3 + 3 + 3)
    assert [(name, rec["trials"]) for name, rec in data["asserted"].items()] == [
        ("sector_completeness", 8),
        ("projector_orthogonality", 8),
        ("mass_route_agreement", 8),
        ("q_conversion", 2 * (2 + 3 + 4 + 3)),
        ("sqrt_conversion", 2 * (1 + 2 + 3 + 2)),
        ("shift_identity", 8),
        ("shifted_complement", 290),
        ("diff_D_plain", diff),
        ("diff_E_plain", diff),
        ("diff_D_q1", diff),
        ("diff_E_q1", diff),
        ("diff_D_q1q2", diff),
        ("diff_E_q1q2", diff),
        ("difference_factorisation", 2 * 3 * (2 + 3 + 3 + 2)),
    ]
    assert [(name, rec["trials"]) for name, rec in data["reported"].items()] == [
        ("shifted_complement", 148),
    ]


def test_gaussian_operator_is_drawn_once_per_size():
    """One read-only array per n: the two-draw operator re + 1j * im of the
    generator state at its first use, bit for bit, leaving the generator
    where the two draws leave it; later calls for n return it and draw
    nothing."""
    fresh, shared = np.random.default_rng(3), np.random.default_rng(3)
    operators: dict = {}
    first: dict = {}
    for n in (36, 512, 36, 512):
        A = _gaussian_operator(shared, n, operators)
        if n not in first:
            re, im = fresh.standard_normal((n, n)), fresh.standard_normal((n, n))
            assert A.tobytes() == (re + 1j * im).tobytes()
            first[n] = A
        assert A is first[n]
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 0.0
    assert set(operators) == {36, 512}
    assert fresh.bit_generator.state == shared.bit_generator.state


@pytest.mark.parametrize(
    "check, planted",
    [
        # the shift identity's shifted-weight input
        ("shift_identity", lambda key: key == "shift"),
        # the factorisation's E-weighted inputs
        ("difference_factorisation", lambda key: key.startswith("E")),
    ],
)
def test_sandwich_checks_catch_an_operator_dependent_defect(monkeypatch, check, planted):
    """The shared A_C still has teeth: applying A_C^T in place of A_C to the
    weighted side of a sandwich identity is recorded as violations, while the
    unplanted suite records none.  The block product keys its inputs: the
    sector P^(b) R is "sector", the shift identity's shifted-weight input
    "shift" and each factorisation's E-weighted input "E<j>"."""
    gammas = (1.0 / 6.0, 0.5, 1.0)
    clean = lemma_suite(seed=5, trials=8, gammas=gammas)
    for name in ("shift_identity", "difference_factorisation"):
        assert clean.asserted[name]["violations"] == []

    product = counting._block_product

    def transposed(A, rows_out, rows_in, slabs):
        out = product(A, rows_out, rows_in, slabs)
        wrong = {key: slab for key, slab in slabs.items() if planted(key)}
        if wrong:
            out.update(product(A.T, rows_out, rows_in, wrong))
        return out

    monkeypatch.setattr(counting, "_block_product", transposed)
    broken = lemma_suite(seed=5, trials=8, gammas=gammas)
    assert broken.asserted[check]["violations"]
    other = ({"shift_identity", "difference_factorisation"} - {check}).pop()
    assert broken.asserted[other]["violations"] == []
