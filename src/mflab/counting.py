"""Occupancy counting: sector projectors, weight operators, comparison lemmas.

Given an orthonormal orbital family with projector p (and complement
q = 1 - p), an antisymmetric N-particle state decomposes into sectors by how
many particles sit outside Ran p.  The sector projector P^(k) is, literally,

    P^(k) = sum over k-subsets S of {1..N} of  prod_{i in S} q_i prod_{i not in S} p_i,

and a weight function f: {0..N} -> R lifts to the operator
f_hat = sum_k f(k) P^(k).  Three implementations are kept deliberately:

* a production route on the configuration basis: rotate to an orbital-adapted
  mode basis (first n columns span Ran p), where the sector index is just the
  count of occupied complement modes and every weight operator is diagonal.
  The rotation ``Projections.rotation`` holds the N x N minors of the basis
  matrix for every pair of configurations: the N-th compound matrix of
  U^dagger, built level by level over lexicographic r-subsets by Laplace
  expansion along the first row (``_compound``);
  ``np.linalg.det`` of each minor is its test oracle;
* the same adapted basis on the N-fold tensor space (:class:`AdaptedSlots`):
  a slot tensor is rotated once, slot by slot, after which every sector,
  weight and q-product is an elementwise mask on complement counts, and the
  norm of any weighted q-product is read from one small table of masses
  (``AdaptedSlots.mask_table``); the lemma suite runs here.  The masked
  tensors ``AdaptedSlots.product_q`` and ``AdaptedSlots.norm_sq`` are the
  table's test oracle.  The suite's sandwich checks apply a local operator
  only to count blocks, the rows of one complement count over its slots
  (``_block_product``); the masked ``AdaptedSlots.sector`` and
  ``AdaptedSlots.weight`` around the full slot contraction
  ``_apply_on_slots`` are that route's test oracle;
* a literal route (:class:`SlotSpace`) on the full N-fold tensor space, the
  oracle for both: products of slot projectors and subset sums exactly as
  written above.

Shifted weights are f_d(k) = f(k+d) when 0 <= k+d <= N and 0 otherwise.
``lemma_suite`` exercises the comparison lemmas on random antisymmetric
states and reports defects; the shifted-complement bound is asserted only
for shifts d <= N^gamma, where it provably holds — outside that range it is
recorded without assertion (small-N counterexamples exist).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations

import numpy as np
from scipy.linalg import qr

from .errors import ConfigError, ContractViolation, GridMismatchError
from .manybody import ConfigBasis, ManyBodyState, annihilated, random_state


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFunction:
    """A weight f on occupancy sectors 0..N (table of N+1 values)."""

    table: tuple[float, ...]

    @property
    def n_particles(self) -> int:
        return len(self.table) - 1

    def values(self) -> np.ndarray:
        """The table as one read-only array, built at the first call."""
        return self._values

    @cached_property
    def _values(self) -> np.ndarray:
        values = np.array(self.table)
        values.flags.writeable = False
        return values

    def shifted(self, d: int) -> "WeightFunction":
        """f_d(k) = f(k+d) restricted to 0 <= k+d <= N, else 0."""
        N = self.n_particles
        table = tuple(
            self.table[k + d] if 0 <= k + d <= N else 0.0 for k in range(N + 1)
        )
        return WeightFunction(table)


def weight_number(N: int) -> WeightFunction:
    return WeightFunction(tuple(k / N for k in range(N + 1)))


def weight_sqrt(N: int) -> WeightFunction:
    return WeightFunction(tuple(math.sqrt(k / N) for k in range(N + 1)))


def weight_inverse_sqrt(N: int) -> WeightFunction:
    """Inverse of the sqrt weight on the complement of sector zero."""
    table = (0.0,) + tuple(math.sqrt(N / k) for k in range(1, N + 1))
    return WeightFunction(table)


def weight_threshold(N: int, gamma: float) -> WeightFunction:
    table = tuple(min(1.0, k / N**gamma) for k in range(N + 1))
    return WeightFunction(table)


def weight_complement(N: int, gamma: float) -> WeightFunction:
    table = tuple(1.0 - min(1.0, k / N**gamma) for k in range(N + 1))
    return WeightFunction(table)


def weight_power(base: WeightFunction, power: int) -> WeightFunction:
    table = tuple(v**power for v in base.table)
    return WeightFunction(table)


# ---------------------------------------------------------------------------
# projections and the occupancy rotation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Projections:
    """Orbital projector p, complement q, and an adapted unitary mode basis.

    ``basis_matrix`` is unitary with the first ``n_occupied`` columns spanning
    Ran p; in that mode basis the sector decomposition is by occupation count.
    """

    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    basis_matrix: np.ndarray = field(repr=False)
    n_occupied: int
    _rotations: dict = field(default_factory=dict, repr=False)

    @property
    def n_modes(self) -> int:
        return self.p.shape[0]

    def rotation(self, basis: ConfigBasis) -> tuple[np.ndarray, np.ndarray]:
        """(Rot, exc): amplitudes in the adapted mode basis and sector index.

        Rot[K, I] = conj(det(basis_matrix[sites(I), modes(K)])), the N-th
        compound of basis_matrix^dagger; a state's adapted amplitudes are
        d = Rot @ c, and exc[K] counts the occupied complement modes of
        configuration K.
        """
        if basis.n_modes != self.n_modes:
            raise GridMismatchError(
                f"basis has {basis.n_modes} modes, projections {self.n_modes}"
            )
        key = (basis.n_modes, basis.n_particles)
        if key not in self._rotations:
            configs = np.array(basis.configs)
            exc = (configs >= self.n_occupied).sum(axis=1)
            self._rotations[key] = (_compound(self.basis_matrix.conj().T, basis.n_particles), exc)
        return self._rotations[key]


@lru_cache(maxsize=None)
def _compound_indices(L: int, N: int) -> tuple:
    """Index arrays of ``_compound`` for the N x N minors of an L x L matrix.

    Level r = 1..N holds the r x r minors D_r[S, R] whose rows S are the
    r-subsets of {N-r, ..., L-1} (the tails of N-subsets) and whose columns R
    are all r-subsets of {0, ..., L-1}, both in lexicographic order.  Per
    level the entry is ``(blocks, n_rows, entries, ranks)``:

    * ``blocks``: one (s, start, stop, offset) per first row element s; rows
      start:stop are those with S_0 = s, and their S minus S_0 are the rows
      offset: of level r-1, in the same order;
    * ``entries[pos]``: R_pos for every column R;
    * ``ranks[pos]``: the column of R minus R_pos at level r-1.
    """
    levels = []
    previous = {(): 0}
    for r in range(1, N + 1):
        cols = list(combinations(range(L), r))
        entries = np.array(cols, dtype=np.intp).T
        ranks = np.array(
            [[previous[c[:pos] + c[pos + 1:]] for c in cols] for pos in range(r)],
            dtype=np.intp,
        )
        n_previous = math.comb(L - N + r - 1, r - 1)
        blocks, start = [], 0
        for s in range(N - r, L - r + 1):
            size = math.comb(L - 1 - s, r - 1)
            blocks.append((s, start, start + size, n_previous - size))
            start += size
        entries.flags.writeable = ranks.flags.writeable = False
        levels.append((tuple(blocks), start, entries, ranks))
        previous = {c: i for i, c in enumerate(cols)}
    return tuple(levels)


def _compound(M: np.ndarray, N: int) -> np.ndarray:
    """The N-th compound matrix: D[S, R] = det M[S, R] over lex-ordered N-subsets.

    Built level by level by Laplace expansion along the first row,

        D_r[S, R] = sum_pos (-1)^pos M[S_0, R_pos] D_{r-1}[S minus S_0, R minus R_pos],

    with D_0 = 1.  The rows with one first element S_0 read a contiguous
    suffix of the previous level (``_compound_indices``), so each block is
    r products of a row of M against gathered columns, N(N+1)/2 products in
    all.  ``np.linalg.det`` of each minor is the test oracle.
    """
    D = np.ones((1, 1), dtype=np.complex128)
    for blocks, n_rows, entries, ranks in _compound_indices(M.shape[0], N):
        minors = [D[:, rank] for rank in ranks]
        picked = M[:, entries]  # picked[s, pos, R] = M[s, R_pos]
        D = np.empty((n_rows, entries.shape[1]), dtype=np.complex128)
        term = np.empty((blocks[0][2], entries.shape[1]), dtype=np.complex128)
        for s, start, stop, offset in blocks:
            block, scratch = D[start:stop], term[: stop - start]
            np.multiply(picked[s, 0], minors[0][offset:], out=block)
            for pos in range(1, len(minors)):
                np.multiply(picked[s, pos], minors[pos][offset:], out=scratch)
                if pos % 2:
                    block -= scratch
                else:
                    block += scratch
    return D


def build_projections(orbital_set) -> Projections:
    """Projections onto the span of an orthonormal orbital family."""
    grid = orbital_set.grid
    A = np.sqrt(grid.cell_volume) * orbital_set.value_matrix()
    N = A.shape[1]
    defect = np.max(np.abs(A.conj().T @ A - np.eye(N)))
    if defect > 1e-8:
        raise ContractViolation(f"orbitals not orthonormal (defect {defect:.2e})")
    L = A.shape[0]
    p = A @ A.conj().T
    q = np.eye(L) - p
    Qfull, _, _ = qr(q, pivoting=True)
    U = np.hstack([A, Qfull[:, : L - N]])
    unitarity = np.max(np.abs(U.conj().T @ U - np.eye(L)))
    if unitarity > 1e-10:
        raise ContractViolation(
            f"adapted mode basis failed to be unitary (defect {unitarity:.2e})"
        )
    return Projections(p=p, q=q, basis_matrix=U, n_occupied=N)


def sector_masses(state: ManyBodyState, projections: Projections) -> np.ndarray:
    """|P^(k) psi|^2 for k = 0..N (sums to |psi|^2)."""
    Rot, exc = projections.rotation(state.basis)
    d = Rot @ state.amplitudes
    masses = np.zeros(state.basis.n_particles + 1)
    np.add.at(masses, exc, np.abs(d) ** 2)
    return masses


def sector_project(state: ManyBodyState, k: int, projections: Projections) -> ManyBodyState:
    Rot, exc = projections.rotation(state.basis)
    d = Rot @ state.amplitudes
    d = np.where(exc == k, d, 0.0)
    return ManyBodyState(state.basis, Rot.conj().T @ d, state.time)


def apply_weight(
    state: ManyBodyState, weight: WeightFunction, projections: Projections
) -> ManyBodyState:
    if weight.n_particles != state.basis.n_particles:
        raise ConfigError(
            f"weight is for N={weight.n_particles}, state has N={state.basis.n_particles}"
        )
    Rot, exc = projections.rotation(state.basis)
    d = Rot @ state.amplitudes
    d = weight.values()[exc] * d
    return ManyBodyState(state.basis, Rot.conj().T @ d, state.time)


def alpha(weight: WeightFunction, state: ManyBodyState, projections: Projections) -> float:
    """<psi, f_hat psi> = sum_k f(k) |P^(k) psi|^2."""
    masses = sector_masses(state, projections)
    return float(np.dot(weight.values(), masses))


def alpha_number_onebody(state: ManyBodyState, projections: Projections) -> float:
    """Independent route to alpha_n = <psi, q_1 psi> through the annihilation map.

    With Phi = ``annihilated(psi)``, <psi, lift1(q) psi> = ||Phi q^T||_F^2 for
    an orthogonal projector q, so alpha_n = ||Phi q^T||^2 / N is a norm and
    never negative.  The lift expectation <psi, lift1(q) psi>/N is its test
    oracle.
    """
    Phi = annihilated(state)
    return float(np.linalg.norm(Phi @ projections.q.T) ** 2 / state.basis.n_particles)


# ---------------------------------------------------------------------------
# tensor-space laboratory: literal oracle and adapted-basis masks
# ---------------------------------------------------------------------------


def _apply_on_slots(T: np.ndarray, mat: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """Apply a |slots|-particle operator (flat C-order matrix) to the slots of T.

    Axes past the N slots are a batch: a stack of tensors on a trailing axis
    is carried through in one contraction.
    """
    L = T.shape[0]
    r = len(slots)
    tens = mat.reshape((L,) * (2 * r))
    out = np.tensordot(tens, T, axes=(list(range(r, 2 * r)), list(slots)))
    return np.moveaxis(out, list(range(r)), list(slots))


@lru_cache(maxsize=None)
def _slot_counts(L: int, n_occupied: int, N: int, slots: tuple[int, ...]) -> np.ndarray:
    """Complement indices among ``slots`` of an N-slot tensor over L modes (read-only).

    Mode x is a complement mode when x >= n_occupied.  The table broadcasts
    against an (L,) * N slot tensor: its axis is L long on each listed slot
    and 1 on the others.
    """
    outside = (np.arange(L) >= n_occupied).astype(np.int64)
    count = np.zeros((1,) * N, dtype=np.int64)
    for slot in slots:
        shape = [1] * N
        shape[slot] = -1
        count = count + outside.reshape(shape)
    count.flags.writeable = False
    return count


@lru_cache(maxsize=None)
def _count_blocks(L: int, N: int, r: int) -> tuple:
    """Count blocks over the first r slots of an N-slot tensor, one per count k = 0..r.

    The first N of the L modes span Ran p, as in the lemma suite.  Viewed as
    an (L**r, L**(N-r)) matrix, each row of a slot tensor is one multi-index
    of slots 0..r-1, so the sector P^(k) over those slots keeps the rows
    whose complement count over them is k.  Entry k is ``(rows, total)``:
    those rows, and the complement count over all N slots on each of them,
    the (L**(N-r),) vector a weight is read at.  On a row of count k over
    the first r slots that total is k plus the count over the other slots,
    the same for every such row, so a weighted input multiplies its rows by
    one broadcast row.  Both are read-only and derived from ``_slot_counts``.
    """
    over_C = _slot_counts(L, N, N, tuple(range(r))).reshape(-1)
    others = _slot_counts(L, N, N, tuple(range(r, N))).reshape(-1)
    blocks = []
    for k in range(r + 1):
        rows = np.flatnonzero(over_C == k)
        total = k + others
        rows.flags.writeable = total.flags.writeable = False
        blocks.append((rows, total))
    return tuple(blocks)


def _block_product(A: np.ndarray, rows_out: np.ndarray, rows_in: np.ndarray, slabs: dict) -> dict:
    """A[rows_out, rows_in] times each (len(rows_in), rest) slab, in one matmul.

    The block is gathered on every call (blocks are not kept).  Returns the
    products, each (len(rows_out), rest), under the keys of ``slabs``.
    """
    stacked = np.concatenate(list(slabs.values()), axis=1)
    out = A[np.ix_(rows_out, rows_in)] @ stacked
    rest = stacked.shape[1] // len(slabs)
    return {key: out[:, j * rest:(j + 1) * rest] for j, key in enumerate(slabs)}


class SlotSpace:
    """Distinguishable N-slot tensor space over the mode basis.

    Implements the counting operators literally — slot-wise p/q products,
    subset sums, weights as sector sums — as the oracle for the production
    route and for :class:`AdaptedSlots`, and embeds configuration amplitudes
    as honest antisymmetric tensors (with permutation signs).
    """

    def __init__(self, projections: Projections, n_particles: int):
        self.p = projections.p
        self.q = projections.q
        self.n_modes = projections.n_modes
        self.n_particles = n_particles

    # -- embedding ---------------------------------------------------------

    def embed(self, state: ManyBodyState) -> np.ndarray:
        """T[config[perm]] = sign(perm) c_config / sqrt(N!) over all permutations."""
        N, L = self.n_particles, self.n_modes
        if state.basis.n_particles != N or state.basis.n_modes != L:
            raise GridMismatchError("state does not match this slot space")
        perms = np.array(list(permutations(range(N))), dtype=np.int64).reshape(-1, N)
        inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
        signs = (-1.0) ** inversions
        idx = np.array(state.basis.configs, dtype=np.int64)[:, perms]
        T = np.zeros((L,) * N, dtype=np.complex128)
        root = 1.0 / math.sqrt(math.factorial(N))
        T[tuple(idx[..., s] for s in range(N))] = (
            signs[None, :] * state.amplitudes[:, None] * root
        )
        return T

    def extract(self, T: np.ndarray, basis: ConfigBasis) -> ManyBodyState:
        root = math.sqrt(math.factorial(self.n_particles))
        idx = tuple(np.array([c[i] for c in basis.configs]) for i in range(self.n_particles))
        return ManyBodyState(basis, root * T[idx], 0.0)

    # -- slot operators ------------------------------------------------------

    def apply_one(self, T: np.ndarray, M: np.ndarray, slot: int) -> np.ndarray:
        L = self.n_modes
        return np.matmul(M, T.reshape(L**slot, L, -1)).reshape(T.shape)

    def apply_on_slots(self, T: np.ndarray, mat: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
        """Apply a |slots|-particle operator (flat C-order matrix) to the slots."""
        return _apply_on_slots(T, mat, slots)

    def product_q(self, T: np.ndarray, n0: int) -> np.ndarray:
        out = T
        for slot in range(n0):
            out = self.apply_one(out, self.q, slot)
        return out

    def sector(self, T: np.ndarray, k: int, slots: tuple[int, ...] | None = None) -> np.ndarray:
        """P^(k) over the given slots (all slots by default): literal subset sum."""
        slots = tuple(range(self.n_particles)) if slots is None else slots
        if not 0 <= k <= len(slots):
            return np.zeros_like(T)
        out = np.zeros_like(T)
        for S in combinations(slots, k):
            term = T
            for slot in slots:
                term = self.apply_one(term, self.q if slot in S else self.p, slot)
            out += term
        return out

    def weight(self, T: np.ndarray, weight: WeightFunction) -> np.ndarray:
        out = np.zeros_like(T)
        for k, f_k in enumerate(weight.table):
            if f_k != 0.0:
                out += f_k * self.sector(T, k)
        return out

    def inner(self, A: np.ndarray, B: np.ndarray) -> complex:
        return complex(np.vdot(A, B))

    def norm_sq(self, T: np.ndarray) -> float:
        return float(np.vdot(T, T).real)


class AdaptedSlots:
    """The N-slot tensor space in the orbital-adapted mode basis U.

    ``rotate`` applies U^dagger to every slot once.  There p is diag(1_n, 0)
    on each slot, so a sector over a slot subset is T times the 0/1 mask
    "complement indices among the slots == k", a q-product is the sector with
    every listed slot outside Ran p, and a weight is T times its table at the
    complement count over all slots.  The count tables are kept per shape
    and slot subset, read-only and shared by every instance
    (``_slot_counts``).  A local operator A applied to a rotated tensor with
    ``_apply_on_slots`` acts in the site basis as U^(x r) A (U^dagger)^(x r),
    still on its own slots alone.  Method names follow :class:`SlotSpace`,
    the literal oracle.
    """

    def __init__(self, projections: Projections, n_particles: int):
        self.U = projections.basis_matrix
        self.n_modes = projections.n_modes
        self.n_occupied = projections.n_occupied
        self.n_particles = n_particles

    def rotate(self, T: np.ndarray) -> np.ndarray:
        """Site-basis slot tensor -> adapted basis: U^dagger on every slot in turn."""
        M = self.U.conj().T
        L = M.shape[0]
        for slot in range(self.n_particles):
            T = np.matmul(M, T.reshape(L**slot, L, -1)).reshape(T.shape)
        return T

    def count(self, slots: tuple[int, ...]) -> np.ndarray:
        """Complement indices among ``slots``, broadcastable against a slot tensor."""
        return _slot_counts(self.n_modes, self.n_occupied, self.n_particles, tuple(slots))

    def mask_table(self, T: np.ndarray) -> np.ndarray:
        """M[n0, k] = sum of |T|^2 over the entries whose first n0 slots are all
        outside Ran p and whose complement count over all slots is k (n0, k = 0..N).

        Every mask norm is read from it:
        |f_hat prod_{i<=n0} q_i T|^2 = sum_k f(k)^2 M[n0, k].
        """
        N = self.n_particles
        total = np.broadcast_to(self.count(tuple(range(N))), T.shape)
        mass = T.real**2 + T.imag**2
        table = np.empty((N + 1, N + 1))
        for n0 in range(N + 1):
            kept = np.broadcast_to(self.count(tuple(range(n0))) == n0, T.shape)
            table[n0] = np.bincount(total[kept], weights=mass[kept], minlength=N + 1)
        return table

    def product_q(self, T: np.ndarray, n0: int) -> np.ndarray:
        return self.sector(T, n0, tuple(range(n0)))

    def sector(self, T: np.ndarray, k: int, slots: tuple[int, ...] | None = None) -> np.ndarray:
        slots = tuple(range(self.n_particles)) if slots is None else tuple(slots)
        return T * (self.count(slots) == k)

    def weight(self, T: np.ndarray, weight: WeightFunction) -> np.ndarray:
        return T * weight.values()[self.count(tuple(range(self.n_particles)))]

    def norm_sq(self, T: np.ndarray) -> float:
        return float(np.vdot(T, T).real)


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    trials: int = 0
    max_ratio: float = 0.0  # lhs / rhs, > 1 is a violation
    violations: list = field(default_factory=list)


@dataclass
class LemmaReport:
    seed: int
    trials: int
    sizes: list
    gammas: list
    asserted: dict
    reported: dict

    @property
    def violation_count(self) -> int:
        return sum(len(rec["violations"]) for rec in self.asserted.values())

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)


def _record(table: dict, name: str, lhs: float, rhs: float, context: dict) -> None:
    rec = table.setdefault(name, {"trials": 0, "max_ratio": 0.0, "violations": []})
    rec["trials"] += 1
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs <= 1e-15 else np.inf)
    rec["max_ratio"] = max(rec["max_ratio"], ratio)
    if lhs > rhs * (1 + 1e-9) + 1e-12:
        rec["violations"].append({"lhs": lhs, "rhs": rhs, **context})


def _random_projections(L: int, N: int, rng: np.random.Generator) -> Projections:
    M = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    U, _ = np.linalg.qr(M)
    A = U[:, :N]
    p = A @ A.conj().T
    return Projections(p=p, q=np.eye(L) - p, basis_matrix=U, n_occupied=N)


def _gaussian_operator(rng: np.random.Generator, n: int, operators: dict) -> np.ndarray:
    """The n x n complex Gaussian operator, drawn once per n and then shared.

    The first call for n draws ``rng.standard_normal((n, n)) + 1j *
    rng.standard_normal((n, n))`` (real part first) and keeps it, read-only,
    in ``operators``; later calls for n return that array and draw nothing.
    """
    if n not in operators:
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A.flags.writeable = False
        operators[n] = A
    return operators[n]


def _threshold_differences(
    m_w: WeightFunction, d: int
) -> tuple[WeightFunction, WeightFunction, WeightFunction]:
    """m - m_{-d}, D = sqrt(m - m_{-d}) and E = sqrt(m_{+d} - m) for a threshold weight m."""
    m_minus = m_w.shifted(-d)
    m_plus = m_w.shifted(+d)
    diff = tuple(x - y for x, y in zip(m_w.table, m_minus.table))
    D_w = WeightFunction(tuple(math.sqrt(max(x, 0.0)) for x in diff))
    E_w = WeightFunction(
        tuple(math.sqrt(max(x - y, 0.0)) for x, y in zip(m_plus.table, m_w.table))
    )
    return WeightFunction(diff), D_w, E_w


def _size_weights(N: int, gammas: tuple[float, ...]) -> tuple:
    """The lemma suite's weight tables for N particles, which depend on N and gamma only.

    Returns ``(n_w, linv_sq, per_gamma)``: the number weight, the squared
    inverse-sqrt weight and, per gamma, ``(m_w, shifted_sq, differences)``
    with m_w the threshold weight, ``shifted_sq[s]`` the squared complement
    weight shifted by s for |s| <= min(3, N) and ``differences[d]`` the
    three weights of ``_threshold_differences(m_w, d)`` followed by the
    squares of D and E, for 1 <= d <= min(3, N).  A mask norm reads only
    the squared tables, so each weight is squared here, once per N.
    """
    span = min(3, N)
    per_gamma = []
    for gamma in gammas:
        m_w = weight_threshold(N, gamma)
        w_w = weight_complement(N, gamma)
        shifted_sq = {s: w_w.shifted(s).values() ** 2 for s in range(-span, span + 1)}
        differences = {}
        for d in range(1, span + 1):
            diff_w, D_w, E_w = _threshold_differences(m_w, d)
            differences[d] = (diff_w, D_w, E_w, D_w.values() ** 2, E_w.values() ** 2)
        per_gamma.append((m_w, shifted_sq, differences))
    return weight_number(N), weight_inverse_sqrt(N).values() ** 2, per_gamma


def lemma_suite(
    seed: int = 0,
    trials: int = 200,
    sizes: tuple[tuple[int, int], ...] = ((2, 6), (3, 8), (4, 8), (3, 12)),
    gammas: tuple[float, ...] = (1.0 / 6.0, 0.5, 1.0),
    out_path=None,
) -> LemmaReport:
    """Exercise the conversion and shifted-weight lemmas on random states.

    Asserted (recorded under ``asserted``, any violation is a bug):
      q-conversion      |prod_{i<=n0+1} q_i psi|^2 <= 2 <psi, n_hat^(n0+1) psi>
      sqrt-conversion   |l_inv_hat prod_{i<=n0} q_i psi|^2 <= 2 <psi, n_hat^(n0-1) psi>
      shifted-complement |prod q_i w_hat^gamma_{+-d} psi|^2
                          <= 2 N^(n0(gamma-1)) <psi, m_hat^gamma psi>   (for d <= N^gamma)
      threshold-difference operator bounds and their sandwich factorisation.

    The shifted-complement bound for d > N^gamma is recorded under
    ``reported`` without assertion — it provably fails there at small N.

    Each trial embeds its state literally (``SlotSpace.embed``) and takes the
    N+1 literal ``SlotSpace.sector`` components, which feed the sector masses,
    ``sector_completeness`` and ``mass_route_agreement`` (against the
    determinant route of ``sector_masses``).  Every other check runs on the
    tensor R rotated once into the adapted basis (:class:`AdaptedSlots`).
    The q-conversion, sqrt-conversion, shifted-complement and ``diff_*``
    norms all read the trial's mask table M[n0, k], the mass of R with its
    first n0 slots outside Ran p and complement count k: a weighted
    q-product norm is sum_k f(k)^2 M[n0, k].  The two sandwich identities
    apply the local operator A_C, on count blocks only.  C is the first |C|
    slots, so viewed as an (L^|C|, rest) matrix each row of R is one slot-C
    multi-index, and the sector P^(b) over C is the rows whose complement
    count over C is b (``_count_blocks``).  Every input fed to A_C (the
    sector P^(b) R, the shift identity's shifted-weight input, each
    factorisation's E-weighted input) is built on those rows alone, times a
    weight read at their total complement count, one broadcast row per
    count b.  The inputs are
    grouped by (b, a), and each group is one matmul of the gathered block
    A_C[a, b] against its stacked inputs (``_block_product``), which yields
    exactly the count-a rows the check reads.  Both sides of an identity,
    each still from its own input, and its scale are compared on those rows:
    outside them both sides are zero.

    A_C is one dense complex Gaussian operator per operator size L^|C|,
    drawn at the first trial of that size and shared, read-only, by the
    later ones.  Applied on adapted slots it is, in the site basis, the
    operator U^(x|C|) A_C (U^dagger)^(x|C|) of the trial's U:
    * both sandwich identities hold for any operator that acts on the
      slots C alone, so this one satisfies them as A_C itself would;
    * conjugating by a fixed unitary maps the complex Gaussian law to
      itself, and A_C is drawn independently of every trial's projections
      and state, so the operator each trial sees is again a complex
      Gaussian independent of that trial;
    * both checks are linear in the operator: a coding error leaves a
      defect D(A) with D linear, and a nonzero D vanishes only on a proper
      subspace, a null set of the Gaussian.
    So one draw per size catches the error with probability one, as a
    fresh draw per trial in the site basis would.

    A_C (at first use), the shift sectors and the factorisation sectors are
    drawn first, in the order the checks read them, and checks are recorded
    in a fixed order, so a seed fixes the report byte for byte.  The weight
    tables depend only on N and gamma and are built once per N
    (``_size_weights``).
    """
    rng = np.random.default_rng(seed)
    asserted: dict = {}
    reported: dict = {}
    operators: dict = {}
    weights: dict = {}

    for trial in range(trials):
        N, L = sizes[trial % len(sizes)]
        basis = ConfigBasis(n_modes=L, n_particles=N)
        proj = _random_projections(L, N, rng)
        space = SlotSpace(proj, N)
        state = random_state(basis, rng)
        T = space.embed(state)
        ctx_base = {"trial": trial, "N": N, "L": L, "seed": seed}

        # literal sector components of T: the masses every alpha is read from
        comps = [space.sector(T, k) for k in range(N + 1)]
        masses = np.array([space.norm_sq(c) for c in comps])

        def alpha_of(weight: WeightFunction) -> float:
            return float(np.dot(weight.values(), masses))

        # algebra sanity: completeness and agreement with the production route
        completeness = float(np.max(np.abs(sum(comps) - T)))
        _record(asserted, "sector_completeness", completeness, 1e-12, ctx_base)
        cross = float(np.max(np.abs(space.p @ space.q)))
        _record(asserted, "projector_orthogonality", cross, 1e-12, ctx_base)
        prod_masses = sector_masses(state, proj)
        _record(
            asserted,
            "mass_route_agreement",
            float(np.max(np.abs(prod_masses - masses))),
            1e-12,
            ctx_base,
        )

        if N not in weights:
            weights[N] = _size_weights(N, gammas)
        n_w, linv_sq, per_gamma = weights[N]
        norm_T = space.norm_sq(T)
        view = AdaptedSlots(proj, N)
        R = view.rotate(T)
        table = view.mask_table(R)

        def mask_norm(squared: np.ndarray, n0: int) -> float:
            """|f_hat prod_{i<=n0} q_i psi|^2 from the squared table of f and the mask table."""
            return float(np.dot(squared, table[n0]))

        # q-conversion: n0 such that n0 + 1 <= N
        for n0 in range(0, min(3, N - 1) + 1):
            lhs = float(table[n0 + 1].sum())
            rhs = 2.0 * alpha_of(weight_power(n_w, n0 + 1))
            _record(asserted, "q_conversion", lhs, rhs, {**ctx_base, "n0": n0})

        # sqrt-conversion: 1 <= n0 < N
        for n0 in range(1, min(3, N - 1) + 1):
            lhs = mask_norm(linv_sq, n0)
            rhs = 2.0 * (norm_T if n0 == 1 else alpha_of(weight_power(n_w, n0 - 1)))
            _record(asserted, "sqrt_conversion", lhs, rhs, {**ctx_base, "n0": n0})

        # one random local operator per operator size for the sandwich
        # identities; keep the acting slot set small when the mode count is large.
        size_C = min(3, N) if L**3 <= 1024 else min(2, N)
        A_C = _gaussian_operator(rng, L**size_C, operators)
        # shift identity sectors, then the factorisation's lower sector a per
        # (gamma, d <= size_C) in the order the loops below read them
        a_sh = int(rng.integers(0, size_C + 1))
        b_sh = int(rng.integers(0, size_C + 1))
        lower = [
            (d, differences[d][2], int(rng.integers(0, size_C - d + 1)))
            for _, _, differences in per_gamma
            for d in range(1, size_C + 1)
        ]

        # every sandwich input of the trial, on its own count-b rows of R viewed
        # as an (L^|C|, rest) matrix and grouped by (b, a) so that each block
        # A_C[a, b] acts once: the sector P^(b) R, the shift identity's
        # shifted-weight input and each factorisation's E-weighted input
        blocks = _count_blocks(L, N, size_C)
        R_rows = R.reshape(L**size_C, -1)
        sectors = {b: R_rows[blocks[b][0]] for b in {b_sh, *(a for _, _, a in lower)}}
        groups: dict[tuple[int, int], dict] = {
            (b_sh, a_sh): {
                "sector": sectors[b_sh],
                "shift": n_w.shifted(a_sh - b_sh).values()[blocks[b_sh][1]] * sectors[b_sh],
            }
        }
        for j, (d, E_w, a) in enumerate(lower):
            group = groups.setdefault((a, a + d), {"sector": sectors[a]})
            group[f"E{j}"] = E_w.values()[blocks[a][1]] * sectors[a]
        applied = {
            (b, a): _block_product(A_C, blocks[a][0], blocks[b][0], slabs)
            for (b, a), slabs in groups.items()
        }
        factorised = iter(enumerate(a for _, _, a in lower))

        # shift identity: f_hat (P^(a) A_C P^(b)) = (P^(a) A_C P^(b)) f_hat_{a-b},
        # both sides zero off the count-a rows
        out = applied[(b_sh, a_sh)]
        sandwich_sh = out["sector"]
        lhs_vec = n_w.values()[blocks[a_sh][1]] * sandwich_sh
        defect = float(np.max(np.abs(lhs_vec - out["shift"]), initial=0.0))
        scale = max(float(np.max(np.abs(sandwich_sh), initial=0.0)), 1e-6)
        _record(
            asserted,
            "shift_identity",
            defect,
            1e-11 * scale,
            {**ctx_base, "a": a_sh, "b": b_sh},
        )

        for gamma, (m_w, shifted_sq, differences) in zip(gammas, per_gamma):
            alpha_m = alpha_of(m_w)

            # shifted-complement bound
            for d in range(0, min(3, N) + 1):
                for sign in (+1, -1):
                    if d == 0 and sign == -1:
                        continue
                    for n0 in range(1, min(3, N) + 1):
                        lhs = mask_norm(shifted_sq[sign * d], n0)
                        rhs = 2.0 * N ** (n0 * (gamma - 1.0)) * alpha_m
                        ctx = {**ctx_base, "gamma": gamma, "d": sign * d, "n0": n0}
                        target = asserted if d <= N**gamma + 1e-9 else reported
                        _record(target, "shifted_complement", lhs, rhs, ctx)

            # threshold-difference operators and factorisation
            for d in range(1, min(3, N) + 1):
                diff_w, D_w, _, D_sq, E_sq = differences[d]
                ctx = {**ctx_base, "gamma": gamma, "d": d}

                _record(asserted, "diff_D_plain", mask_norm(D_sq, 0), d * N**-gamma * norm_T, ctx)
                _record(asserted, "diff_E_plain", mask_norm(E_sq, 0), d * N**-gamma * norm_T, ctx)
                if alpha_m > 1e-14:
                    _record(asserted, "diff_D_q1", mask_norm(D_sq, 1),
                            d * (d + 1) * N**-1.0 * alpha_m, ctx)
                    _record(asserted, "diff_E_q1", mask_norm(E_sq, 1),
                            d * N**-1.0 * alpha_m, ctx)
                    if N >= 2:
                        _record(asserted, "diff_D_q1q2", mask_norm(D_sq, 2),
                                d * (d + 1) ** 2 * N ** (gamma - 2.0) * alpha_m, ctx)
                        _record(asserted, "diff_E_q1q2", mask_norm(E_sq, 2),
                                d * N ** (gamma - 2.0) * alpha_m, ctx)

                # factorisation through a sandwiched local operator
                if d <= size_C:
                    j, a = next(factorised)
                    out = applied[(a, a + d)]
                    total = blocks[a + d][1]
                    sandwich = out["sector"]
                    lhs_vec = diff_w.values()[total] * sandwich
                    rhs_vec = D_w.values()[total] * out[f"E{j}"]
                    defect = float(np.max(np.abs(lhs_vec - rhs_vec), initial=0.0))
                    scale = max(float(np.max(np.abs(sandwich), initial=0.0)), 1e-6)
                    _record(
                        asserted,
                        "difference_factorisation",
                        defect,
                        1e-11 * scale,
                        {**ctx, "a": a},
                    )

    report = LemmaReport(
        seed=seed,
        trials=trials,
        sizes=[list(s) for s in sizes],
        gammas=list(gammas),
        asserted=asserted,
        reported=reported,
    )
    if out_path is not None:
        report.to_json(out_path)
    return report
