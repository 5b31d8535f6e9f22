"""Sector projectors, weight operators, and the comparison-lemma suite."""

import math
from functools import reduce
from itertools import combinations, permutations

import numpy as np
import pytest

from mflab import counting
from mflab.counting import (
    AdaptedSlots,
    SlotSpace,
    WeightFunction,
    alpha,
    alpha_number_onebody,
    apply_weight,
    build_projections,
    lemma_suite,
    sector_masses,
    sector_project,
    weight_complement,
    weight_inverse_sqrt,
    weight_number,
    weight_power,
    weight_sqrt,
    weight_threshold,
    _apply_on_slots,
    _block_product,
    _count_blocks,
    _gaussian_operator,
    _random_projections,
    _threshold_differences,
)
from mflab.errors import ConfigError, ContractViolation, GridMismatchError
from mflab.grid import Grid, make_field
from mflab.hartree import OrbitalSet
from mflab.manybody import (
    ConfigBasis,
    ManyBodyState,
    lift_one_body,
    random_state,
    slater_state,
)
from mflab.model import ScalingParams


def random_orbital_set(grid, N, rng, epsilon=0.5):
    L = grid.total_sites
    M = rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))
    Q, _ = np.linalg.qr(M)
    fields = tuple(
        make_field(grid, (Q[:, k] / math.sqrt(grid.cell_volume)).reshape(grid.shape))
        for k in range(N)
    )
    return OrbitalSet(orbitals=fields, time=0.0, scaling=ScalingParams(N=N, epsilon=epsilon))


def test_weight_tables():
    N = 4
    n = weight_number(N)
    ell = weight_sqrt(N)
    assert n.table == (0.0, 0.25, 0.5, 0.75, 1.0)
    np.testing.assert_allclose([v**2 for v in ell.table], n.table, atol=1e-15)
    m = weight_threshold(N, 0.5)
    np.testing.assert_allclose(m.table, [min(1.0, k / 2.0) for k in range(5)])
    w = weight_complement(N, 0.5)
    np.testing.assert_allclose([a + b for a, b in zip(m.table, w.table)], np.ones(5))
    linv = weight_inverse_sqrt(N)
    prod = [a * b for a, b in zip(ell.table, linv.table)]
    np.testing.assert_allclose(prod, [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-15)
    # shifts: f_d(k) = f(k+d) inside 0..N, zero outside
    sh = n.shifted(2)
    assert sh.table == (0.5, 0.75, 1.0, 0.0, 0.0)
    sh = n.shifted(-1)
    assert sh.table == (0.0, 0.0, 0.25, 0.5, 0.75)


def test_weight_values_are_one_read_only_array():
    w = weight_threshold(4, 0.5)
    values = w.values()
    assert values is w.values()
    assert np.array_equal(values, np.array(w.table))
    with pytest.raises(ValueError):
        values[0] = 1.0
    assert w == weight_threshold(4, 0.5) and hash(w) == hash(weight_threshold(4, 0.5))


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
        assert abs(alpha(w, psi, proj) - w.table[0]) < 1e-13


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


@pytest.mark.parametrize("N, L", [(1, 4), (3, 3), (2, 6), (3, 8), (4, 8), (3, 12)])
def test_adapted_slots_match_literal_slot_space(N, L):
    rng = np.random.default_rng(43 + 10 * N + L)
    basis = ConfigBasis(n_modes=L, n_particles=N)
    proj = _random_projections(L, N, rng)  # (3, 3): q = 0, no complement modes
    space = SlotSpace(proj, N)
    view = AdaptedSlots(proj, N)
    T = space.embed(random_state(basis, rng))
    R = view.rotate(T)
    assert abs(view.norm_sq(R) - space.norm_sq(T)) < 1e-12

    def close(adapted, literal):
        # back to the site basis through the literal route: U on every slot
        for slot in range(N):
            adapted = space.apply_one(adapted, proj.basis_matrix, slot)
        assert np.max(np.abs(adapted - literal)) < 1e-12

    close(R, T)
    for k in range(-1, N + 2):
        close(view.sector(R, k), space.sector(T, k))
    for n0 in range(N + 1):
        close(view.product_q(R, n0), space.product_q(T, n0))
    for w in (weight_number(N), weight_inverse_sqrt(N), weight_threshold(N, 0.5).shifted(-1)):
        close(view.weight(R, w), space.weight(T, w))
    for r in range(1, min(3, N) + 1):
        slot_sets = list(combinations(range(N), r))
        slots = slot_sets[int(rng.integers(len(slot_sets)))]
        for k in range(-1, r + 2):
            close(view.sector(R, k, slots), space.sector(T, k, slots))
        A = rng.standard_normal((L**r, L**r)) + 1j * rng.standard_normal((L**r, L**r))
        # (U^dagger)^(x r) A U^(x r) on the adapted slots is A on the site-basis slots
        Ur = reduce(np.kron, [proj.basis_matrix] * r)
        close(_apply_on_slots(R, Ur.conj().T @ A @ Ur, slots), space.apply_on_slots(T, A, slots))


def test_count_tables_are_shared_read_only_arrays():
    """Every instance of one shape reads the same read-only count tables, and
    the count blocks over the first r slots partition the rows by count, each
    with one total-count row shared by all of its rows."""
    rng = np.random.default_rng(7)
    N, L = 3, 8
    first = AdaptedSlots(_random_projections(L, N, rng), N)
    second = AdaptedSlots(_random_projections(L, N, rng), N)
    for slots in ((0,), (1, 2), (0, 1, 2)):
        table = first.count(slots)
        assert second.count(slots) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
    total = first.count((0, 1, 2)).reshape(L**2, -1)
    over_C = first.count((0, 1)).reshape(-1)
    blocks = _count_blocks(L, N, 2)
    assert _count_blocks(L, N, 2) is blocks
    assert np.array_equal(np.sort(np.concatenate([rows for rows, _ in blocks])), np.arange(L**2))
    for k, (rows, at_rows) in enumerate(blocks):
        assert np.all(over_C[rows] == k)
        assert at_rows.shape == (L ** (N - 2),)
        assert np.array_equal(np.broadcast_to(at_rows, (len(rows), L ** (N - 2))), total[rows])
        assert not rows.flags.writeable and not at_rows.flags.writeable


@pytest.mark.parametrize(
    "N, L", [(2, 6), (3, 8), (4, 8), (3, 12), (1, 1), (3, 3), (1, 5), (1, 12), (4, 12)]
)
def test_block_products_match_the_full_slot_contraction(N, L):
    """A_C[rows_a, rows_b] on the count-b rows of R is P^(a) A_C P^(b) R on the
    count-a rows, and zero elsewhere, for every (b, a); a weight read at the
    gathered count table is the masked weight on those rows.  (1, 1) and
    (3, 3) have no complement rows, and N = 1 acts on a single slot."""
    rng = np.random.default_rng(53 + 10 * N + L)
    proj = _random_projections(L, N, rng)
    view = AdaptedSlots(proj, N)
    state = random_state(ConfigBasis(n_modes=L, n_particles=N), rng)
    R = view.rotate(SlotSpace(proj, N).embed(state))
    r = min(3, N) if L**3 <= 1024 else min(2, N)
    C = tuple(range(r))
    A = rng.standard_normal((L**r, L**r)) + 1j * rng.standard_normal((L**r, L**r))
    blocks = _count_blocks(L, N, r)
    R_rows = R.reshape(L**r, -1)
    _, _, E_w = _threshold_differences(weight_threshold(N, 0.5), 1)
    for w in (weight_number(N), E_w):
        weighted = view.weight(R, w).reshape(L**r, -1)
        for rows, total in blocks:
            assert np.array_equal(w.values()[total] * R_rows[rows], weighted[rows])
    inputs = {"sector": lambda b: view.sector(R, b, C),
              "weighted": lambda b: view.sector(view.weight(R, E_w), b, C)}
    for b, (rows_b, total_b) in enumerate(blocks):
        slabs = {"sector": R_rows[rows_b], "weighted": E_w.values()[total_b] * R_rows[rows_b]}
        for a, (rows_a, _) in enumerate(blocks):
            out = _block_product(A, rows_a, rows_b, slabs)
            for key, full_input in inputs.items():
                full = view.sector(_apply_on_slots(full_input(b), A, C), a, C).reshape(L**r, -1)
                scale = np.max(np.abs(full), initial=0.0)
                assert out[key].shape == (len(rows_a), R_rows.shape[1])
                assert np.max(np.abs(out[key] - full[rows_a]), initial=0.0) <= 1e-12 * scale
                assert not np.delete(full, rows_a, axis=0).any()


@pytest.mark.parametrize("N, L", [(1, 4), (2, 6), (4, 8), (4, 12)])
def test_mask_table_matches_masked_and_literal_norms(N, L):
    """sum_k f(k)^2 M[n0, k] = |f_hat prod_{i<=n0} q_i psi|^2 on both tensor routes."""
    rng = np.random.default_rng(47 + 10 * N + L)
    proj = _random_projections(L, N, rng)
    space = SlotSpace(proj, N)
    view = AdaptedSlots(proj, N)
    T = space.embed(random_state(ConfigBasis(n_modes=L, n_particles=N), rng))
    R = view.rotate(T)
    table = view.mask_table(R)
    assert table.shape == (N + 1, N + 1)
    _, D_w, E_w = _threshold_differences(weight_threshold(N, 0.5), 1)
    weights = [
        WeightFunction((1.0,) * (N + 1)),
        weight_number(N),
        weight_inverse_sqrt(N),
        weight_complement(N, 0.5).shifted(-1),
        D_w,
        E_w,
    ]
    for w in weights:
        literal = space.weight(T, w)
        for n0 in range(N + 1):
            from_table = float(np.dot(w.values() ** 2, table[n0]))
            masked = view.norm_sq(view.weight(view.product_q(R, n0), w))
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
        lhs = space.inner(T, space.product_q(T, j)).real
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
    fg = WeightFunction(tuple(a * b for a, b in zip(f.table, g.table)))
    joint = apply_weight(psi, fg, proj)
    np.testing.assert_allclose(seq.amplitudes, joint.amplitudes, atol=1e-13)
    # powers
    twice = apply_weight(apply_weight(psi, g, proj), g, proj)
    power = apply_weight(psi, weight_power(g, 2), proj)
    np.testing.assert_allclose(twice.amplitudes, power.amplitudes, atol=1e-13)


def test_guards():
    rng = np.random.default_rng(31)
    grid = Grid(dim=1, sites_per_dim=6, box_length=6.0)
    good = random_orbital_set(grid, 2, rng)
    bad = OrbitalSet(
        orbitals=(good.orbitals[0], good.orbitals[0]),
        time=0.0,
        scaling=ScalingParams(N=2, epsilon=0.5),
    )
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
    report = lemma_suite(
        seed=7, trials=12, sizes=((2, 4), (3, 6)), gammas=(0.5, 1.0),
        out_path=tmp_path / "report.json",
    )
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
        report = lemma_suite(seed=11, trials=8, out_path=path)
        assert report.violation_count == 0, report.asserted
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
    """One read-only array per n: the two-draw operator of the generator state
    at its first use; later calls for n return it and draw nothing."""
    fresh, shared = np.random.default_rng(3), np.random.default_rng(3)
    operators: dict = {}
    first: dict = {}
    for n in (36, 512, 36, 512):
        A = _gaussian_operator(shared, n, operators)
        if n not in first:
            expected = fresh.standard_normal((n, n)) + 1j * fresh.standard_normal((n, n))
            assert np.array_equal(A, expected)
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
