"""Occupancy counting: sector projectors, weight operators, comparison lemmas.

Given an orthonormal orbital family with projector p (and complement
q = 1 - p), an antisymmetric N-particle state decomposes into sectors by how
many particles sit outside Ran p.  The sector projector P^(k) is, literally,

    P^(k) = sum over k-subsets S of {1..N} of  prod_{i in S} q_i prod_{i not in S} p_i,

and a weight f: {0..N} -> R, one read-only array f(0..N), lifts to the
operator f_hat = sum_k f(k) P^(k); P^(k) is the weight of the 0/1 indicator
of k.  Both production routes work in an orbital-adapted mode basis U (its
first n columns span Ran p), where the sector index is the count of
complement modes:

* the configuration-basis route: every weight operator is diagonal on the
  adapted configurations (``apply_weight``, ``sector_masses``).  The rotation
  ``Projections.rotation`` holds the N x N minors of the basis matrix for
  every pair of configurations: the N-th compound matrix of U^dagger, built
  level by level over lexicographic r-subsets by Laplace expansion along the
  first row (``_compound``), whose subsets and the ranks of their
  (r-1)-subsets are read off the r-particle ``ConfigBasis`` (its ``configs``
  and ``annihilation_table``); ``np.linalg.det`` of each minor is its test
  oracle;
* the slot-tensor route, where the lemma suite runs: a slot tensor is
  rotated once, slot by slot (``_rotate``), after which every sector, weight
  and q-product is an elementwise mask on complement counts
  (``_slot_counts``), the norm of any weighted q-product is read from one
  small table of masses (``_mask_table``), and a local operator acts only on
  count blocks, the rows of one complement count over its slots
  (``_count_blocks``, ``_block_product``).

The literal :class:`SlotSpace` on the full N-fold tensor space is the oracle
in both bases: products of slot projectors and subset sums exactly as
written above, every sector's chains taken in one walk over the slots that
applies each shared chain prefix once.  Over the site basis it checks the
configuration route; built on the adapted projections p = diag(1_n, 0), its
walk gives exactly the masks of the slot-tensor route.

Shifted weights ``shifted(f, d)`` are f_d(k) = f(k+d) when 0 <= k+d <= N and 0
otherwise.
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
from itertools import permutations

import numpy as np
from scipy.linalg import qr

from .errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from .manybody import ConfigBasis, ManyBodyState, annihilated, random_state

# the exponents gamma of the threshold weights that the auxiliary records and
# the lemma suite read, and the lemma suite's default trials and NxL sizes
DEFAULT_GAMMAS = (1.0 / 6.0, 0.5, 1.0)
LEMMA_TRIALS = 200
LEMMA_SIZES = ((2, 6), (3, 8), (4, 8), (3, 12))


def gamma_suffix(gamma: float) -> str:
    """The CSV column suffix of exponent ``gamma`` (three significant digits)."""
    return f"{gamma:.3g}".replace(".", "p").replace("-", "m")


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _weight(values) -> np.ndarray:
    """A weight f on occupancy sectors 0..N: one read-only array of N+1 floats."""
    f = np.array(values, dtype=np.float64)
    f.flags.writeable = False
    return f


def shifted(f: np.ndarray, d: int) -> np.ndarray:
    """f_d(k) = f(k+d) restricted to 0 <= k+d <= N, else 0."""
    N = len(f) - 1
    return _weight([f[k + d] if 0 <= k + d <= N else 0.0 for k in range(N + 1)])


def weight_number(N: int) -> np.ndarray:
    return _weight([k / N for k in range(N + 1)])


def weight_sqrt(N: int) -> np.ndarray:
    return _weight([math.sqrt(k / N) for k in range(N + 1)])


def weight_inverse_sqrt(N: int) -> np.ndarray:
    """Inverse of the sqrt weight on the complement of sector zero."""
    return _weight([0.0] + [math.sqrt(N / k) for k in range(1, N + 1)])


def weight_threshold(N: int, gamma: float) -> np.ndarray:
    return _weight([min(1.0, k / N**gamma) for k in range(N + 1)])


def weight_complement(N: int, gamma: float) -> np.ndarray:
    return _weight([1.0 - min(1.0, k / N**gamma) for k in range(N + 1)])


# ---------------------------------------------------------------------------
# projections and the occupancy rotation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Projections:
    """Orbital projector p, complement q, and an adapted unitary mode basis.

    p = A A^H and q = 1 - p of the first ``n_occupied`` columns A of
    ``columns``, computed on first use.  ``basis_matrix`` is unitary with
    the first ``n_occupied`` columns spanning Ran p; in that mode basis the
    sector decomposition is by occupation count.  ``columns`` is either the
    whole L x L basis, used as given, or its first ``n_occupied`` columns
    (the orthonormal orbitals); then the complement columns come from a
    pivoted QR of q, and the unitarity of the result is checked, at the
    first use of ``basis_matrix`` or ``rotation``.  Readers of p and q alone
    never pay for the QR.
    """

    columns: np.ndarray = field(repr=False)
    n_occupied: int
    _rotations: dict = field(default_factory=dict, repr=False)

    @cached_property
    def p(self) -> np.ndarray:
        A = self.columns[:, : self.n_occupied]
        return A @ A.conj().T

    @cached_property
    def q(self) -> np.ndarray:
        return np.eye(self.n_modes) - self.p

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        L, N = self.columns.shape
        if N > self.n_occupied:
            return self.columns
        Qfull, _, _ = qr(self.q, pivoting=True)
        U = np.hstack([self.columns, Qfull[:, : L - N]])
        unitarity = np.max(np.abs(U.conj().T @ U - np.eye(L)))
        if unitarity > 1e-10:
            raise ContractViolation(
                f"adapted mode basis failed to be unitary (defect {unitarity:.2e})"
            )
        return U

    @property
    def n_modes(self) -> int:
        return self.columns.shape[0]

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
            exc = (basis.configs >= self.n_occupied).sum(axis=1)
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
    * ``entries[pos]``: R_pos for every column R, the ``configs`` of the
      r-particle ``ConfigBasis``;
    * ``ranks[pos]``: the column of R minus R_pos at level r-1, read off
      that basis's ``annihilation_table``.
    """
    levels = []
    for r in range(1, N + 1):
        basis = ConfigBasis(L, r)
        entries = basis.configs.T
        ranks = (basis.annihilation_table[0] // L).T
        n_previous = math.comb(L - N + r - 1, r - 1)
        blocks, start = [], 0
        for s in range(N - r, L - r + 1):
            size = math.comb(L - 1 - s, r - 1)
            blocks.append((s, start, start + size, n_previous - size))
            start += size
        ranks.flags.writeable = False
        levels.append((tuple(blocks), start, entries, ranks))
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
    A = orbital_set.orthonormal_columns()
    return Projections(A, A.shape[1])


def sector_masses(state: ManyBodyState, projections: Projections) -> np.ndarray:
    """|P^(k) psi|^2 for k = 0..N (sums to |psi|^2)."""
    Rot, exc = projections.rotation(state.basis)
    d = Rot @ state.amplitudes
    return np.bincount(exc, weights=np.abs(d) ** 2, minlength=state.basis.n_particles + 1)


def sector_project(state: ManyBodyState, k: int, projections: Projections) -> ManyBodyState:
    """P^(k) psi: ``apply_weight`` of the 0/1 indicator of sector k."""
    return apply_weight(state, np.arange(state.basis.n_particles + 1) == k, projections)


def apply_weight(
    state: ManyBodyState, weight: np.ndarray, projections: Projections
) -> ManyBodyState:
    """f_hat psi for a weight f(0..N): diagonal in the adapted configurations."""
    if len(weight) != state.basis.n_particles + 1:
        raise ConfigError(
            f"weight is for N={len(weight) - 1}, state has N={state.basis.n_particles}"
        )
    Rot, exc = projections.rotation(state.basis)
    d = Rot @ state.amplitudes
    d = weight[exc] * d
    return ManyBodyState(state.basis, Rot.conj().T @ d, state.time)


def alpha(weight: np.ndarray, state: ManyBodyState, projections: Projections) -> float:
    """<psi, f_hat psi> = sum_k f(k) |P^(k) psi|^2."""
    return float(np.dot(weight, sector_masses(state, projections)))


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
    whose complement count over them is k.  Entry k is ``(rows, span,
    total)``: those rows, in increasing order; the slice of the same length
    that count k takes in the count order, the rows of count 0, then of
    count 1, and so on; and the complement count over all N slots on each
    row, the (L**(N-r),) vector a weight is read at.  On a row of count k
    over the first r slots that total is k plus the count over the other
    slots, the same for every such row, so a weighted input multiplies its
    rows by one broadcast row.  The arrays are read-only and derived from
    ``_slot_counts``.

    An operator G on the L**r multi-indices, given in the count order, acts
    on the slots in their own order as Pi^T G Pi, where Pi is the
    permutation that takes the multi-indices into the count order (the rows
    of every block, one block after the other).  Its block from count b to
    count a is the view G[span_a, span_b] (``_block_product``); Pi depends
    on (L, N, r) alone.
    """
    over_C = _slot_counts(L, N, N, tuple(range(r))).reshape(-1)
    others = _slot_counts(L, N, N, tuple(range(r, N))).reshape(-1)
    order = np.argsort(over_C, kind="stable")
    bounds = np.searchsorted(over_C[order], np.arange(r + 2))
    blocks = []
    for k in range(r + 1):
        rows = order[bounds[k]:bounds[k + 1]]
        total = k + others
        rows.flags.writeable = total.flags.writeable = False
        blocks.append((rows, slice(int(bounds[k]), int(bounds[k + 1])), total))
    return tuple(blocks)


def _block_product(A: np.ndarray, span_out: slice, span_in: slice, slabs: dict) -> dict:
    """The view A[span_out, span_in] times each (span_in length, rest) slab, in one matmul.

    A is in the count order of ``_count_blocks``, so each block is a
    contiguous view and nothing is gathered.  Returns the products, each
    (span_out length, rest), under the keys of ``slabs``.
    """
    stacked = np.concatenate(list(slabs.values()), axis=1)
    out = A[span_out, span_in] @ stacked
    rest = stacked.shape[1] // len(slabs)
    return {key: out[:, j * rest:(j + 1) * rest] for j, key in enumerate(slabs)}


def _apply_one(T: np.ndarray, M: np.ndarray, slot: int) -> np.ndarray:
    """The L x L matrix M on one slot of the slot tensor T.

    Before the last slot it is L^slot batched (L, L) products; on the last
    slot it is one (L^(N-1), L) @ M^T product.
    """
    L = M.shape[0]
    if slot == T.ndim - 1:
        return (T.reshape(-1, L) @ M.T).reshape(T.shape)
    return np.matmul(M, T.reshape(L**slot, L, -1)).reshape(T.shape)


def _rotate(T: np.ndarray, U: np.ndarray) -> np.ndarray:
    """A site-basis slot tensor in the adapted mode basis U: U^dagger on every slot in turn."""
    M = U.conj().T
    for slot in range(T.ndim):
        T = _apply_one(T, M, slot)
    return T


def _mask_table(R: np.ndarray, n_occupied: int) -> np.ndarray:
    """M[n0, k] = sum of |R|^2 over the entries of the adapted slot tensor R
    whose first n0 slots are all outside Ran p and whose complement count over
    all slots is k (n0, k = 0..N).

    Every mask norm is read from it:
    |f_hat prod_{i<=n0} q_i psi|^2 = sum_k f(k)^2 M[n0, k].
    """
    N, L = R.ndim, R.shape[0]
    total = np.broadcast_to(_slot_counts(L, n_occupied, N, tuple(range(N))), R.shape)
    mass = R.real**2 + R.imag**2
    table = np.empty((N + 1, N + 1))
    for n0 in range(N + 1):
        kept = np.broadcast_to(_slot_counts(L, n_occupied, N, tuple(range(n0))) == n0, R.shape)
        table[n0] = np.bincount(total[kept], weights=mass[kept], minlength=N + 1)
    return table


@lru_cache(maxsize=None)
def _permutation_signs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of N slots, (N!, N) in ``permutations`` order, and its sign (read-only)."""
    perms = np.array(list(permutations(range(N))), dtype=np.int64).reshape(-1, N)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    signs = (-1.0) ** inversions
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


class SlotSpace:
    """Distinguishable N-slot tensor space over the mode basis.

    Implements the counting operators literally — slot-wise p/q products,
    subset sums, weights as sector sums — as the oracle for both production
    routes (on the adapted projections p = diag(1_n, 0) for the slot-tensor
    masks), and embeds configuration amplitudes as honest antisymmetric
    tensors (with permutation signs).
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
        perms, signs = _permutation_signs(N)
        idx = state.basis.configs[:, perms]
        T = np.zeros((L,) * N, dtype=np.complex128)
        root = 1.0 / math.sqrt(math.factorial(N))
        T[tuple(idx[..., s] for s in range(N))] = (
            signs[None, :] * state.amplitudes[:, None] * root
        )
        return T

    def extract(self, T: np.ndarray, basis: ConfigBasis) -> ManyBodyState:
        root = math.sqrt(math.factorial(self.n_particles))
        return ManyBodyState(basis, root * T[tuple(basis.configs.T)], 0.0)

    # -- slot operators ------------------------------------------------------

    def apply_one(self, T: np.ndarray, M: np.ndarray, slot: int) -> np.ndarray:
        return _apply_one(T, M, slot)

    def apply_on_slots(self, T: np.ndarray, mat: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
        """Apply a |slots|-particle operator (flat C-order matrix) to the slots of T."""
        r = len(slots)
        tens = mat.reshape((T.shape[0],) * (2 * r))
        out = np.tensordot(tens, T, axes=(list(range(r, 2 * r)), list(slots)))
        return np.moveaxis(out, list(range(r)), list(slots))

    def product_q(self, T: np.ndarray, n0: int) -> np.ndarray:
        out = T
        for slot in range(n0):
            out = self.apply_one(out, self.q, slot)
        return out

    def sector(
        self, T: np.ndarray, k: int | None = None, slots: tuple[int, ...] | None = None
    ) -> np.ndarray | list[np.ndarray]:
        """P^(k) over the given slots (all slots by default): literal subset sum.

        ``k=None`` gives the list [P^(0) T, ..., P^(n) T] over the n slots.  One
        depth-first walk, q branch before p branch, reaches the subsets' p/q
        chains in ``combinations`` order and applies each shared prefix once,
        2^(n+1) - 2 ``apply_one`` calls in all; each term and each count's sum
        is bit for bit that of the chain-by-chain sum.  An integer k outside
        0..n gives zeros.
        """
        slots = tuple(range(self.n_particles)) if slots is None else tuple(slots)
        n = len(slots)
        if k is not None and not 0 <= k <= n:
            return np.zeros_like(T)
        parts = [np.zeros_like(T) for _ in range(n + 1)]
        # an explicit stack: a recursive closure would keep a trial's tensors
        # alive until the cyclic garbage collector ran
        stack = [(T, 0, 0)]
        while stack:
            term, depth, count = stack.pop()
            if depth == n:
                parts[count] += term
                continue
            slot = slots[depth]
            stack.append((self.apply_one(term, self.p, slot), depth + 1, count))
            stack.append((self.apply_one(term, self.q, slot), depth + 1, count + 1))
        return parts if k is None else parts[k]

    def weight(self, T: np.ndarray, weight: np.ndarray) -> np.ndarray:
        out = np.zeros_like(T)
        for f_k, part in zip(weight, self.sector(T)):
            if f_k != 0.0:
                out += f_k * part
        return out

    def norm_sq(self, T: np.ndarray) -> float:
        return float(np.vdot(T, T).real)


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True, eq=False)
class _CheckPlan:
    """Every check of one lemma-suite trial of N particles, one row each, in loop order.

    Row i checks lhs <= rhs under ``checks[check_of[i]]``, a (name,
    whether asserted) pair, and ``contexts[i]`` holds its gamma, d and n0,
    those it has.  The pairs are in the order of their first rows; only the
    shifted complement is both asserted and reported.

    The rows ``masked`` read the trial's mask table M: row ``masked[j]``
    has lhs = squared[j] . M[n0[j]] and rhs = coef[j] * bases[base[j]],
    where bases = (|psi|^2, then <psi, f_hat psi> for each row f of
    ``alphas``).  A row with gate[i] >= 0 is checked only when
    bases[gate[i]] > 1e-14.  The trial fills in the other rows: ``direct``
    holds sector completeness, projector orthogonality, mass route
    agreement and the shift identity, and ``factorised[g, d - 1]`` the
    difference factorisation of gamma number g and shift d.
    """

    contexts: tuple
    checks: tuple
    check_of: np.ndarray
    masked: np.ndarray
    squared: np.ndarray
    n0: np.ndarray
    coef: np.ndarray
    base: np.ndarray
    alphas: np.ndarray
    gate: np.ndarray
    direct: np.ndarray
    factorised: np.ndarray


def _row_dots(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """W[i] . X[i] for every row i (X[i] = X when X is one vector), in one stacked matmul.

    numpy takes each (1, n) @ (n, 1) product with the dot of ``np.dot``, so
    every entry has np.dot's bits; ``np.einsum`` sums in another order and
    differs from it in the last bit.
    """
    return np.matmul(W[:, None, :], X[..., None])[:, 0, 0]


def _record(
    asserted: dict,
    reported: dict,
    plan: _CheckPlan,
    lhs: np.ndarray,
    rhs: np.ndarray,
    active: np.ndarray,
    context: dict,
    extra: dict,
) -> None:
    """Count the active rows of one trial's checks of lhs <= rhs, arrays over ``plan``'s rows.

    A NaN or infinite side of an active row is a NumericalFailure (a NaN
    compares False both ways, so it would pass unseen).  A check's entry is
    made in its table at its first active row, and keeps the number of
    checks, the largest ratio lhs / rhs and, per violating row, lhs, rhs
    and the row's context: the trial's ``context``, the plan's and
    ``extra.get(row)``.  That dict is built only for a violating row.
    """

    def row_context(row: int) -> dict:
        return {**context, **plan.contexts[row], **extra.get(row, {})}

    broken = np.flatnonzero(active & ~(np.isfinite(lhs) & np.isfinite(rhs)))
    if broken.size:
        row = broken[0]
        raise NumericalFailure(
            f"lemma check {plan.checks[plan.check_of[row]][0]} has a non-finite side"
            f" (lhs {float(lhs[row])}, rhs {float(rhs[row])}) at {row_context(row)}"
        )
    ratio = np.where(lhs <= 1e-15, 0.0, np.inf)
    np.divide(lhs, rhs, out=ratio, where=rhs > 0)
    violated = lhs > rhs * (1 + 1e-9) + 1e-12
    rows = np.flatnonzero(active)
    label = plan.check_of[rows]
    counts = np.bincount(label, minlength=len(plan.checks)).tolist()
    largest = np.full(len(plan.checks), -np.inf)
    np.maximum.at(largest, label, ratio[rows])
    largest = largest.tolist()
    present, first = np.unique(label, return_index=True)
    records = {}
    for c in present[np.argsort(first)].tolist():
        name, in_asserted = plan.checks[c]
        table = asserted if in_asserted else reported
        rec = records[c] = table.setdefault(name, {"trials": 0, "max_ratio": 0.0, "violations": []})
        rec["trials"] += counts[c]
        rec["max_ratio"] = max(rec["max_ratio"], largest[c])
    for row in rows[violated[rows]]:
        records[int(plan.check_of[row])]["violations"].append(
            {"lhs": float(lhs[row]), "rhs": float(rhs[row]), **row_context(row)}
        )


def _random_projections(L: int, N: int, rng: np.random.Generator) -> Projections:
    M = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    U, _ = np.linalg.qr(M)
    return Projections(U, N)


def _gaussian_operator(rng: np.random.Generator, n: int, operators: dict) -> np.ndarray:
    """The n x n complex Gaussian operator, drawn once per n and then shared.

    The first call for n draws the real part and then the imaginary part,
    each ``rng.standard_normal((n, n))``, through one real buffer into one
    complex array, and keeps it, read-only, in ``operators``: the array and
    the generator state of ``re + 1j * im`` without its temporaries.  Later
    calls for n return that array and draw nothing.
    """
    if n not in operators:
        A = np.empty((n, n), dtype=np.complex128)
        part = np.empty((n, n))
        A.real = rng.standard_normal(out=part)
        A.imag = rng.standard_normal(out=part)
        A.flags.writeable = False
        operators[n] = A
    return operators[n]


def _threshold_differences(m: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m - m_{-d}, D = sqrt(m - m_{-d}) and E = sqrt(m_{+d} - m) for a threshold weight m."""
    diff = _weight(m - shifted(m, -d))
    D = _weight(np.sqrt(np.maximum(diff, 0.0)))
    E = _weight(np.sqrt(np.maximum(shifted(m, d) - m, 0.0)))
    return diff, D, E


def _size_weights(N: int, gammas: tuple[float, ...]) -> tuple:
    """The lemma suite's check plan and weights for N particles, which depend on N and gamma only.

    Returns ``(plan, n_w, differences)``: the ``_CheckPlan`` of a trial, the
    number weight n_w and, per gamma, ``differences[d]`` the three weights
    of ``_threshold_differences(m_w, d)`` of the threshold weight m_w, for
    1 <= d <= min(3, N).  A mask norm reads only squared weights, so each
    weight is squared here, once per N.  The number weight's powers
    (k/N)**j are Python float powers (numpy's array power differs from them
    in the last bit at N = 5, 6), and each bound's coefficient is the same
    Python expression as in the check it belongs to.
    """
    span = min(3, N)
    n_pow = [_weight([(k / N) ** j for k in range(N + 1)]) for j in range(min(4, N) + 1)]
    m_ws = [weight_threshold(N, gamma) for gamma in gammas]
    # bases[0] is |psi|^2, bases[1 + j] alpha of n_pow[j], bases[m_base + g] alpha of m_ws[g]
    m_base = 1 + len(n_pow)
    checks: dict = {}  # (name, asserted) -> its index, in the order of its first row
    check_of, contexts, gates = [], [], []
    masked, terms = [], []  # the mask rows and their (squared, n0, coef, base)

    def check(name, context=None, term=None, gate=-1, asserted=True) -> int:
        row = len(check_of)
        check_of.append(checks.setdefault((name, asserted), len(checks)))
        contexts.append(context or {})
        gates.append(gate)
        if term is not None:
            masked.append(row)
            terms.append(term)
        return row

    direct = [check(name) for name in
              ("sector_completeness", "projector_orthogonality", "mass_route_agreement")]
    # q-conversion |prod_{i<=n0+1} q_i psi|^2 <= 2 alpha(n^(n0+1)) for n0 + 1 <= N
    for n0 in range(0, min(3, N - 1) + 1):
        check("q_conversion", {"n0": n0}, (np.ones(N + 1), n0 + 1, 2.0, 1 + n0 + 1))
    # sqrt-conversion for 1 <= n0 < N; its bound at n0 = 1 is 2 |psi|^2
    linv_sq = weight_inverse_sqrt(N) ** 2
    for n0 in range(1, min(3, N - 1) + 1):
        check("sqrt_conversion", {"n0": n0}, (linv_sq, n0, 2.0, 0 if n0 == 1 else n0))
    direct.append(check("shift_identity"))
    factorised = np.empty((len(gammas), span), dtype=np.intp)
    differences = []
    for g, gamma in enumerate(gammas):
        m = m_base + g
        w_w = weight_complement(N, gamma)
        for d in range(0, span + 1):
            for sign in (+1, -1):
                if d == 0 and sign == -1:
                    continue
                squared = shifted(w_w, sign * d) ** 2
                for n0 in range(1, span + 1):
                    check("shifted_complement", {"gamma": gamma, "d": sign * d, "n0": n0},
                          (squared, n0, 2.0 * N ** (n0 * (gamma - 1.0)), m),
                          asserted=d <= N**gamma + 1e-9)
        by_shift = {}
        for d in range(1, span + 1):
            by_shift[d] = _threshold_differences(m_ws[g], d)
            D_sq, E_sq = by_shift[d][1] ** 2, by_shift[d][2] ** 2
            ctx = {"gamma": gamma, "d": d}
            check("diff_D_plain", ctx, (D_sq, 0, d * N**-gamma, 0))
            check("diff_E_plain", ctx, (E_sq, 0, d * N**-gamma, 0))
            check("diff_D_q1", ctx, (D_sq, 1, d * (d + 1) * N**-1.0, m), gate=m)
            check("diff_E_q1", ctx, (E_sq, 1, d * N**-1.0, m), gate=m)
            if N >= 2:
                check("diff_D_q1q2", ctx, (D_sq, 2, d * (d + 1) ** 2 * N ** (gamma - 2.0), m),
                      gate=m)
                check("diff_E_q1q2", ctx, (E_sq, 2, d * N ** (gamma - 2.0), m), gate=m)
            factorised[g, d - 1] = check("difference_factorisation", ctx)
        differences.append(by_shift)

    squared, n0, coef, base = zip(*terms)
    plan = _CheckPlan(
        contexts=tuple(contexts),
        checks=tuple(checks),
        check_of=np.array(check_of),
        masked=np.array(masked),
        squared=np.array(squared),
        n0=np.array(n0),
        coef=np.array(coef),
        base=np.array(base),
        alphas=np.array([*n_pow, *m_ws]),
        gate=np.array(gates),
        direct=np.array(direct),
        factorised=factorised,
    )
    return plan, n_pow[1], differences


def lemma_suite(
    seed: int = 0,
    trials: int = LEMMA_TRIALS,
    sizes: tuple[tuple[int, int], ...] = LEMMA_SIZES,
    gammas: tuple[float, ...] = DEFAULT_GAMMAS,
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

    Each trial embeds its state literally (``SlotSpace.embed``) and takes its
    N+1 literal sector components from one ``SlotSpace.sector`` walk, 2^(N+1) - 2
    slot applications; they feed the sector masses,
    ``sector_completeness`` and ``mass_route_agreement`` (against the
    determinant route of ``sector_masses``).  Every other check runs on the
    tensor R rotated once into the adapted basis (``_rotate``).

    A trial's checks are the rows of one plan per N (``_CheckPlan``, built
    by ``_size_weights``), in the order of the loops over n0, gamma, d and
    the shift sign.  The q-conversion, sqrt-conversion, shifted-complement
    and ``diff_*`` rows all read the trial's mask table M[n0, k]
    (``_mask_table``), the mass of R with its first n0 slots outside Ran p
    and complement count k: a weighted q-product norm is
    sum_k f(k)^2 M[n0, k].  They are scored at once, every lhs in one
    stacked product of the squared weights with their rows of M, every
    alpha in one more against the sector masses (``_row_dots``, the bits
    of ``np.dot``), and one ``_record`` call takes the whole trial, ratios
    and violations as array operations.

    The two sandwich identities apply the local operator A_C, on count
    blocks only.  C is the first |C| slots, so viewed as an (L^|C|, rest)
    matrix each row of R is one slot-C multi-index, and the sector P^(b)
    over C is the rows whose complement count over C is b
    (``_count_blocks``).  Every input fed to A_C (the sector P^(b) R, the
    shift identity's shifted-weight input, each factorisation's E-weighted
    input) is built on those rows alone, times a weight read at their total
    complement count, one broadcast row per count b.  The inputs are
    grouped by (b, a), and each group is one matmul of the view
    A_C[span_a, span_b] against its stacked inputs (``_block_product``),
    which yields exactly the count-a rows the check reads.  Both sides of
    an identity, each still from its own input, and its scale are compared
    on those rows: outside them both sides are zero.

    A_C is one dense complex Gaussian operator per operator size L^|C|,
    drawn at the first trial of that size and shared, read-only, by the
    later ones, and read in the count order of ``_count_blocks``.  On the
    slot-C multi-indices in their own order a trial applies Pi^T A_C Pi,
    with Pi the permutation into that order, fixed by (L, N, |C|); on
    adapted slots it is, in the site basis, U^(x|C|) Pi^T A_C Pi
    (U^dagger)^(x|C|) of the trial's U:
    * both sandwich identities hold for any operator that acts on the
      slots C alone, so this one satisfies them as A_C itself would;
    * permuting the indices by a fixed Pi and conjugating by a fixed
      unitary each map the complex Gaussian law to itself, and A_C is
      drawn independently of every trial's projections and state, so the
      operator each trial sees is again a complex Gaussian independent of
      that trial;
    * both checks are linear in the operator: a coding error leaves a
      defect D(A) with D linear, and a nonzero D vanishes only on a proper
      subspace, a null set of the Gaussian.
    So one draw per size catches the error with probability one, as a
    fresh draw per trial in the site basis would.

    A_C (at first use), the shift sectors and the factorisation sectors are
    drawn first, in the order the checks read them, and checks are recorded
    in plan order, so a seed fixes the report byte for byte.  A check with
    a NaN or infinite side raises ``NumericalFailure`` (``_record``).
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

        # literal sector components of T: the masses every alpha is read from
        comps = space.sector(T)
        masses = np.array([space.norm_sq(c) for c in comps])
        # algebra sanity: completeness and agreement with the production route
        completeness = float(np.max(np.abs(sum(comps) - T)))
        cross = float(np.max(np.abs(space.p @ space.q)))
        mass_gap = float(np.max(np.abs(sector_masses(state, proj) - masses)))

        if N not in weights:
            weights[N] = _size_weights(N, gammas)
        plan, n_w, differences = weights[N]
        bases = np.concatenate(([space.norm_sq(T)], _row_dots(plan.alphas, masses)))
        R = _rotate(T, proj.basis_matrix)
        table = _mask_table(R, N)
        lhs = np.zeros(len(plan.check_of))
        rhs = np.zeros(len(plan.check_of))
        lhs[plan.masked] = _row_dots(plan.squared, table[plan.n0])
        rhs[plan.masked] = plan.coef * bases[plan.base]
        active = (plan.gate < 0) | (bases[plan.gate] > 1e-14)

        # one random local operator per operator size for the sandwich
        # identities; keep the acting slot set small when the mode count is large.
        size_C = min(3, N) if L**3 <= 1024 else min(2, N)
        A_C = _gaussian_operator(rng, L**size_C, operators)
        # shift identity sectors, then the factorisation's lower sector a per
        # (gamma, d <= size_C) in the order the plan's rows read them
        a_sh = int(rng.integers(0, size_C + 1))
        b_sh = int(rng.integers(0, size_C + 1))
        lower = [
            (g, d, int(rng.integers(0, size_C - d + 1)))
            for g in range(len(gammas))
            for d in range(1, size_C + 1)
        ]

        # every sandwich input of the trial, on its own count-b rows of R viewed
        # as an (L^|C|, rest) matrix and grouped by (b, a) so that each block
        # A_C[span_a, span_b] acts once: the sector P^(b) R, the shift
        # identity's shifted-weight input and each factorisation's E-weighted input
        blocks = _count_blocks(L, N, size_C)
        R_rows = R.reshape(L**size_C, -1)
        sectors = {b: R_rows[blocks[b][0]] for b in {b_sh, *(a for _, _, a in lower)}}
        groups: dict[tuple[int, int], dict] = {
            (b_sh, a_sh): {
                "sector": sectors[b_sh],
                "shift": shifted(n_w, a_sh - b_sh)[blocks[b_sh][2]] * sectors[b_sh],
            }
        }
        for j, (g, d, a) in enumerate(lower):
            group = groups.setdefault((a, a + d), {"sector": sectors[a]})
            group[f"E{j}"] = differences[g][d][2][blocks[a][2]] * sectors[a]
        applied = {
            (b, a): _block_product(A_C, blocks[a][1], blocks[b][1], slabs)
            for (b, a), slabs in groups.items()
        }

        # shift identity: f_hat (P^(a) A_C P^(b)) = (P^(a) A_C P^(b)) f_hat_{a-b},
        # both sides zero off the count-a rows
        out = applied[(b_sh, a_sh)]
        defect = float(np.max(np.abs(n_w[blocks[a_sh][2]] * out["sector"] - out["shift"]),
                              initial=0.0))
        scale = max(float(np.max(np.abs(out["sector"]), initial=0.0)), 1e-6)
        lhs[plan.direct] = completeness, cross, mass_gap, defect
        rhs[plan.direct] = 1e-12, 1e-12, 1e-12, 1e-11 * scale
        extra = {int(plan.direct[-1]): {"a": a_sh, "b": b_sh}}

        # factorisation of the threshold difference through the sandwiched operator
        for j, (g, d, a) in enumerate(lower):
            diff_w, D_w, _ = differences[g][d]
            out = applied[(a, a + d)]
            total = blocks[a + d][2]
            sandwich = out["sector"]
            defect = float(np.max(np.abs(diff_w[total] * sandwich - D_w[total] * out[f"E{j}"]),
                                  initial=0.0))
            scale = max(float(np.max(np.abs(sandwich), initial=0.0)), 1e-6)
            row = int(plan.factorised[g, d - 1])
            lhs[row], rhs[row], extra[row] = defect, 1e-11 * scale, {"a": a}
        active[plan.factorised[:, size_C:]] = False

        _record(asserted, reported, plan, lhs, rhs, active,
                {"trial": trial, "N": N, "L": L, "seed": seed}, extra)

    return LemmaReport(
        seed=seed,
        trials=trials,
        sizes=[list(s) for s in sizes],
        gammas=list(gammas),
        asserted=asserted,
        reported=reported,
    )
