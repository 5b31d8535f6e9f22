"""Exact fermionic dynamics on the antisymmetric configuration basis.

States live on ordered N-site configurations of the L = total_sites grid
modes (occupation-number basis, configurations sorted lexicographically in
one integer array and ranked in closed form, with no mode limit).
The rescaled generator is

    i d/dt Psi = epsilon * H Psi,    H = lift1(K) + sum_{i<j} v(x_i - x_j),

with K the grid's kinetic matrix in its kinetic mode.  ``lift_one_body``/
``lift_two_body``/``lift_three_body`` raise r-body mode-space operators
(r = 1, 2, 3) to the configuration basis through precomputed tables, so
lifting a new operator is a vectorised gather, taken a fixed block of runs
at a time.  The one-body table is dropped once its lift exists (a basis
lifts one kinetic matrix); the two- and three-body tables stay cached, since
the auxiliary generator lifts new kernels through them at every step.
One r-body builder (``ConfigBasis._table``) makes every table from the
annihilation map of each basis N, N-1, ..., N-r+1 and its inverse, the
creation map (``ConfigBasis.annihilation_table``/``creation_table``): a
row's r created modes walk down through the first, the r annihilated modes
back up through the second, so every entry is a gather and nothing is
searched.  Each entry is a nonzero matrix element of a^dag_{d1}...a^dag_{dr}
a_{cr}...a_{c1} (a_{c1} acts first, a^dag_{d1} last).  Entries are
generated over columns, then ordered tuples of distinct occupied modes (c1
slowest), then increasing created modes d1 < ... < dr (dr slowest), and
stored sorted by (row, column), the generation order kept among entries of
one matrix element, so that a lift sums each element's run of entries
without sorting (CSR order; each table carries its run starts, run
columns and row pointer over runs).  Every row holds C(N, r) * P(L-N+r, r)
entries in sum_{j<=r} C(N, j) * C(L-N, j) runs, so the build writes a
block of rows at a time into arrays of known length.  Every index is int32
(``_table`` refuses a basis whose counts would not fit), so a table keeps 5
bytes per entry (kernel index and int8 sign), 8 per run (start and column)
and 4 per row, and the temporaries of a build (``_table``) and of a lift
(``_lift``) are bounded by one block, not by the table.  Every r-body operator
a lift receives is exchange symmetric, W[(d_s), (c_s)] = W[(d), (c)] for
each simultaneous slot permutation s, so the r! orderings of the created
modes give equal terms: the increasing one with every ordering of the
annihilated modes counts each term once, and the lift needs no 1/r!.  (A
kernel that is not exchange symmetric would be lifted wrongly.)  One-body
tables have a single created mode and are unaffected.  A lift stores no
explicit zeros.  Every lift reads ``ConfigBasis.lift_pattern``: the whole
table, or for a complement cap only the runs a truncated adapted-basis
kernel can reach.
These tables serve the lifts only.  Reduced densities and
one-body expectations come from the annihilation map itself:
``annihilated`` scatters psi into the (dim_{N-1} x L) matrix Phi whose
column a is a_a psi, through ``ConfigBasis.annihilation_table`` (dim * N
entries against the one-body table's dim * N * (L - N + 1)), and
<a^dag_b a_a> = (Phi^H Phi)[b, a].

``propagate`` evolves a state under a fixed operator eps H, to one time or
through a whole sequence of times at once; a time-dependent generator steps
in its own loop (``auxiliary.run_auxiliary``).  Since eps H does not depend
on time, one Krylov space serves every snapshot time it has converged for,
read from one tridiagonal matrix; a space keeps growing for the next pending
time only while that lowers the work per served time (the stop rule of
``_lanczos``), and the next space starts from the last state it served.

Conventions:
* |I> = a^dag_{i1} ... a^dag_{iN} |0> with i1 < ... < iN (flattened C-order
  site indices).
* Pair/triple operators are matrices on the tensor product of site-value
  spaces with C-order flattening ((x1, x2) -> x1*L + x2), slot 1 slowest.
* The Slater amplitude of an orbital family is the determinant of the
  measure-weighted value matrix, c_I = h^(dim N/2) det Phi[I, :], which makes
  the embedded state exactly unit-norm for orthonormal orbitals.
* ``rdm1`` returns gamma[x, y] = <a^dag_y a_x>/N, normalised to unit trace,
  from the annihilation map; for a Slater state gamma = p/N with p the
  orbital projector matrix.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, permutations

import numpy as np
import scipy.sparse as sp

from ._lanczos import expm_multiply_hermitian, expm_multiply_hermitian_times
from .errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from .grid import dense_kinetic, difference_matrix
from .hartree import density
from .model import InteractionPotential

_INT32_LIMIT = 2**31  # every table count and index stays below it, so int32 holds it
_TABLE_BYTES = 2**32  # largest lift table built (N=7 on 20 sites needs 0.1 GB)
MAX_DENSE_DIM = 400  # largest basis the dense oracle (``propagate_dense``) takes
_LIFT_BLOCK = 1 << 13  # runs a lift gathers and sums at a time
_TABLE_BLOCK = 1 << 13  # entries a table build makes at a time (one row at least)


@dataclass(frozen=True)
class ConfigBasis:
    """All N-of-L fermionic configurations, lexicographically ordered: ``configs``,
    one read-only (dim, N) int64 array, ranked in closed form (``annihilation_table``)."""

    n_modes: int
    n_particles: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_particles <= self.n_modes:
            raise ConfigError(
                f"need 1 <= N <= L, got N={self.n_particles}, L={self.n_modes}"
            )

    @cached_property
    def configs(self) -> np.ndarray:
        flat = chain.from_iterable(combinations(range(self.n_modes), self.n_particles))
        configs = np.fromiter(flat, np.int64, self.dim * self.n_particles).reshape(self.dim, -1)
        configs.flags.writeable = False
        return configs

    @property
    def dim(self) -> int:
        return math.comb(self.n_modes, self.n_particles)

    @cached_property
    def occupancy(self) -> np.ndarray:
        """(dim, L) 0/1 array of mode occupations, ones scattered at ``configs``."""
        occupancy = np.zeros((self.dim, self.n_modes))
        np.put_along_axis(occupancy, self.configs, 1.0, axis=1)
        return occupancy

    # ---- lift tables (one-body: built for its lift and dropped; two-, three-body: cached) ----

    @cached_property
    def one_body_table(self) -> tuple[np.ndarray, ...]:
        return self._table(1)

    @cached_property
    def two_body_table(self) -> tuple[np.ndarray, ...]:
        return self._table(2)

    @cached_property
    def three_body_table(self) -> tuple[np.ndarray, ...]:
        if self.n_modes > 12:
            raise ConfigError("three-body lifts are desk-scale only (L <= 12)")
        return self._table(3)

    @cached_property
    def _smaller(self) -> ConfigBasis:
        """The (N-1)-particle basis on the same modes (N >= 2), shared by the tables."""
        return ConfigBasis(self.n_modes, self.n_particles - 1)

    @cached_property
    def annihilation_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Scatter pattern of the annihilation map psi -> (a_a psi)_a.

        Returns ``(flat, signs, dim_less)``: for configuration J and its
        k-th occupied mode a, a_a |J> = signs[k] |J minus a>, float
        signs[k] = (-1)^k, and the int32 flat[J, k] = (rank of J minus a
        among the (N-1)-particle configurations) * L + a, the index of
        (J minus a, a) in a (dim_less, L) array; a basis with dim_less * L
        past 2^31 is refused before anything is built.  N = 1 maps onto one
        vacuum row.  A lexicographic n-subset c_0 < ... < c_(n-1) of L
        modes has rank C(L, n) - 1 - sum_i C(L-1-c_i, n-i), so the ranks of
        every J minus a are read from a small binomial table;
        ``creation_table`` and every lift table are composed from these maps.
        """
        L, N = self.n_modes, self.n_particles
        dim_less = math.comb(L, N - 1)
        if dim_less * L > _INT32_LIMIT:
            raise ConfigError(
                f"annihilation table of L={L}, N={N}: flat index {dim_less * L} past int32"
            )
        modes = self.configs
        signs = 1.0 - 2.0 * (np.arange(N) & 1)
        # C(x, m) for x < L, m <= N; ranks read only x - m <= L - N (the rest may overflow)
        binom = np.array([[math.comb(x, m) * (x - m <= L - N) for m in range(N + 1)]
                          for x in range(L)], dtype=np.int64)
        # J minus its k-th mode keeps the modes before k at their place, the later ones move up one
        before = binom[L - 1 - modes, N - 1 - np.arange(N)]
        after = binom[L - 1 - modes, N - np.arange(N)]
        rows = (dim_less - 1 - (np.cumsum(before, axis=1) - before)
                - (after.sum(axis=1, keepdims=True) - np.cumsum(after, axis=1)))
        return (rows * L + modes).astype(np.int32), signs, dim_less

    @cached_property
    def _annihilation_scatter(self) -> np.ndarray:
        """``annihilation_table``'s flat index, raveled, as a read-only intp array.

        ``annihilated`` scatters through it on every call; numpy would cast
        the int32 index to intp on each of them.
        """
        index = self.annihilation_table[0].ravel().astype(np.intp)
        index.flags.writeable = False
        return index

    @cached_property
    def creation_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The inverse of ``annihilation_table``: a^dag_d |K> = signs[K, d] |index[K, d]>.

        For each (N-1)-particle configuration K (the vacuum when N = 1) and
        mode d, int32 ``index[K, d]`` is the index of K plus d in this basis
        and int8 ``signs[K, d]`` = (-1)^(modes of K below d); where d is in
        K the index is -1 and the sign 0.
        """
        flat, signs, dim_less = self.annihilation_table
        index = np.full((dim_less, self.n_modes), -1, dtype=np.int32)
        sign = np.zeros((dim_less, self.n_modes), dtype=np.int8)
        index.ravel()[flat.ravel()] = np.repeat(np.arange(self.dim, dtype=np.int32), len(signs))
        sign.ravel()[flat.ravel()] = np.tile(signs.astype(np.int8), self.dim)
        return index, sign

    def _table(self, r: int) -> tuple[np.ndarray, ...]:
        """``(flat, signs, starts, indices, indptr)`` of a^dag_{d1}...a^dag_{dr}
        a_{cr}...a_{c1} on the basis, what a lift reads.

        Per entry, in the CSR entry order of the module docstring (m =
        C(N, r) * P(L-N+r, r) entries in every row, none when r > N): the
        int32 kernel index ``flat`` = row_slot * L^r + col_slot, row_slot =
        (d1, ..., dr) with d1 < ... < dr and col_slot = (c1, ..., cr)
        flattened C-order, and the int8 element ``signs``, 5 bytes per entry.
        Each distinct (row, column) is one run of entries: int32 ``starts``
        holds where each run begins and int32 ``indices`` its column, 8 bytes
        per run, and int32 ``indptr`` is the row pointer over runs, R *
        arange(dim + 1) for the R = sum_{j<=r} C(N, j) * C(L-N, j) runs of
        every row.  The empty table has the same dtypes.  Int32 holds every
        index: the entry count and the kernel size L^(2r) are computed from
        (L, N, r) first; a basis where either passes 2^31, or whose table
        passes ``_TABLE_BYTES``, is refused before anything is built.

        Built ``_TABLE_BLOCK`` entries (whole rows, one at least) at a time
        into the preallocated arrays, so a build's temporaries are bounded
        by one block: each row I gives up an r-subset D through the
        ``annihilation_table``s of the bases N, ..., N-r+1, and its K = I
        minus D takes an ordered tuple C of its empty modes back up through
        their ``creation_table``s into the column J.  A row's m entries are
        then sorted by their generation rank, which is below the entry count
        and so fits one int64 sort key above the entry's 2 * flat + sign bit.
        """
        L, N, dim = self.n_modes, self.n_particles, self.dim
        if r > N:  # no slot tuples
            no = np.zeros(0, dtype=np.int32)
            return no, no.astype(np.int8), no, no, np.zeros(dim + 1, dtype=np.int32)
        free = L - N + r  # modes a row minus its r created modes leaves empty
        entries = math.comb(N, r) * math.perm(free, r)  # in every row
        runs = sum(math.comb(N, j) * math.comb(L - N, j) for j in range(r + 1))  # in every row
        if dim * entries > _INT32_LIMIT or L ** (2 * r) > _INT32_LIMIT:
            raise ConfigError(
                f"{r}-body table of L={L}, N={N}: {dim * entries} entries of {L ** (2 * r)} "
                "kernel elements, past int32"
            )
        size = 5 * dim * entries + 8 * dim * runs + 4 * (dim + 1)
        if size > _TABLE_BYTES:
            raise ConfigError(f"{r}-body table of L={L}, N={N}: {size} bytes past the byte budget")
        bases = [self]
        for _ in range(r - 1):
            bases.append(bases[-1]._smaller)
        subsets = np.array(list(combinations(range(N), r)))  # positions of d1 < ... < dr in I
        below = subsets - np.arange(r)  # d_k's position in I once d_1 .. d_(k-1) have left
        tuples = np.array(list(permutations(range(free), r)))  # (c1, ..., cr) among K's empty modes
        # An entry sorts as one int64 key: above bit 32 its generation rank (J * P(N, r) + rank
        # of C's positions in J) * C(free, r) + rank of D, below it 2 * flat + (sign < 0).  With
        # e_k c_k's index among K's empty modes, c_k sits at c_k - e_k + #{j != k: e_j < e_k} in
        # J, and the positions rank as permutations(range(N), r) lists them; with f_k d_k's
        # index there, D ranks as sum_{k=1..r} C(f_k, k), d_r slowest.
        d_ranks = math.comb(free, r)
        place = np.array([math.perm(N - 1 - k, r - 1 - k) * d_ranks for k in range(r)])
        later_below = (tuples[:, None, :] < tuples[:, :, None]) & ~np.tri(r, dtype=bool)
        tuple_key = ((later_below.sum(axis=2) - tuples) @ place) << 32
        binom = np.array([[math.comb(x, k + 1) for k in range(r)] for x in range(L)])
        slot = L ** np.arange(r - 1, -1, -1)
        per_column = math.perm(N, r) * d_ranks
        index = bases[-1].creation_table[0]  # -1 where K already holds the mode
        modes = np.arange(L, dtype=np.min_scalar_type(L))
        empty = np.broadcast_to(modes, index.shape)[index >= 0].reshape(len(index), free)  # per K
        flat, signs = np.empty(dim * entries, np.int32), np.empty(dim * entries, np.int8)
        starts, indices = np.empty(dim * runs, np.int32), np.empty(dim * runs, np.int32)
        block = max(1, _TABLE_BLOCK // entries)  # rows
        for lo in range(0, dim, block):
            n = min(block, dim - lo)
            d = self.configs[lo:lo + n, subsets]  # (row, D, k)
            held = np.arange(lo, lo + n)[:, None]
            for k, basis in enumerate(bases):  # <K| a_{dr}..a_{d1} |I>: a_{d1} acts first
                held = basis.annihilation_table[0][held, below[:, k]] // L
            key = ((binom[d - below, np.arange(r)].sum(axis=2) << 32) + (d @ slot) * (2 * L**r)
                   + (below.sum(axis=1) & 1))[..., None] + tuple_key  # D's part, then C's
            c = empty[held][:, :, tuples]  # (row, D, C, k)
            held = held[..., None]
            for k in reversed(range(r)):  # <J| a^dag_{c1}..a^dag_{cr} |K>: a^dag_{cr} acts first
                index, created = bases[k].creation_table
                at = held * L + c[..., k]
                key ^= created.ravel().take(at) < 0
                held = index.ravel().take(at)
                key += c[..., k] * ((place[k] << 32) + 2 * slot[k])
            key += held * np.int64(per_column << 32)
            key = key.reshape(n, entries)
            key.sort(axis=1)  # each row's entries in generation order
            cols = (key >> 32) // per_column
            flat[lo * entries:(lo + n) * entries] = (key >> 1 & 0x7FFFFFFF).ravel()
            signs[lo * entries:(lo + n) * entries] = (1 - 2 * (key & 1)).ravel()
            new = np.ones(cols.shape, dtype=bool)
            new[:, 1:] = cols[:, 1:] != cols[:, :-1]  # where each of the row's runs starts
            first = np.flatnonzero(new)
            starts[lo * runs:(lo + n) * runs] = first + lo * entries
            indices[lo * runs:(lo + n) * runs] = cols.ravel()[first]
        return flat, signs, starts, indices, runs * np.arange(dim + 1, dtype=np.int32)

    @cached_property
    def _kept_patterns(self) -> dict:
        """Per (r, cap), the kept-run subset of the r-body table (filled on first use)."""
        return {}

    def lift_pattern(self, r: int, cap: int | None = None) -> tuple[np.ndarray, ...]:
        """The r-body table, or the runs of it a kernel truncated to ``cap``
        modes >= N can reach (computed once per (r, cap)), in the table's form.

        An entry is kept when the 2r base-L digits of its ``flat`` (row slot,
        then column slot) hold at most ``cap`` modes >= N; a truncated kernel
        is zero on every other entry.  A run with a kept entry is kept whole,
        so each matrix element sums the same terms in the same order as the
        full lift, bit for bit; a run without one sums to zero, which the
        full lift drops too.
        """
        table = getattr(self, ("one_body_table", "two_body_table", "three_body_table")[r - 1])
        if cap is None:
            return table
        pattern = self._kept_patterns.get((r, cap))
        if pattern is None:
            flat, signs, starts, indices, indptr = table
            L, N = self.n_modes, self.n_particles
            complement = np.zeros(len(flat), dtype=np.int8)
            for k in range(2 * r):
                complement += flat // L**k % L >= N
            kept = np.logical_or.reduceat(complement <= cap, starts)
            lengths = np.diff(starts, append=len(flat))
            keep = np.repeat(kept, lengths)
            kept_before = np.concatenate(([0], np.cumsum(kept))).astype(np.int32)
            kept_starts = (np.cumsum(lengths[kept]) - lengths[kept]).astype(np.int32)
            pattern = self._kept_patterns[r, cap] = (
                flat[keep], signs[keep], kept_starts, indices[kept], kept_before[indptr])
        return pattern


def _lift(basis: ConfigBasis, W: np.ndarray, r: int, cap: int | None = None) -> sp.csr_matrix:
    """sum over r-subsets of particles of an exchange-symmetric W, one term per
    entry of ``basis.lift_pattern(r, cap)``.

    The pattern is in CSR order, so a lift gathers and signs its entries,
    sums each run of entries that share a matrix element, and drops the
    elements that sum to zero; nothing is sorted.  It does so ``_LIFT_BLOCK``
    runs at a time and joins the blocks' elements, so besides its result it
    holds one block's temporaries, however long the table; the int32
    ``indptr`` counts the elements kept before each row's first run.  A
    ``cap`` declares W an adapted-basis kernel truncated to at most ``cap``
    modes >= N over its slots, as ``auxiliary.kept_interaction`` builds it:
    the lift then gathers only the runs such a kernel can reach (6,000 of
    290,400 three-body entries at L = 12, N = 3), bit for bit the full lift.
    ``None`` gathers every entry.
    """
    n = basis.n_modes**r
    if W.shape != (n, n):
        raise GridMismatchError(f"{r}-body operator shape {W.shape} != ({n}, {n})")
    flat, signs, starts, indices, indptr = basis.lift_pattern(r, cap)
    values = W.ravel()
    n_runs = len(starts)
    data = [np.zeros(0, dtype=np.result_type(signs, values))]
    cols = [indices[:0]]
    row_ptr = np.empty_like(indptr)
    kept = row = 0
    for lo in range(0, n_runs, _LIFT_BLOCK):
        hi = min(lo + _LIFT_BLOCK, n_runs)
        first, end = starts[lo], starts[hi] if hi < n_runs else len(flat)
        sums = np.add.reduceat(signs[first:end] * values.take(flat[first:end]),
                               starts[lo:hi] - first)
        nz = sums != 0
        before = np.cumsum(nz) - nz  # elements of the block kept before each run
        next_row = np.searchsorted(indptr, hi)  # the rows whose first run is in the block
        row_ptr[row:next_row] = kept + before[indptr[row:next_row] - lo]
        row = next_row
        data.append(sums[nz])
        cols.append(indices[lo:hi][nz])
        kept += len(cols[-1])
    row_ptr[row:] = kept
    data = np.concatenate(data)  # one list of blocks joined and released at a time
    cols = np.concatenate(cols)
    return sp.csr_matrix((data, cols, row_ptr), shape=(basis.dim, basis.dim))


def lift_one_body(basis: ConfigBasis, A: np.ndarray) -> sp.csr_matrix:
    """sum_i A_i on the configuration basis (A acts on mode space); the basis's
    one-body table is dropped after it, since no second one-body lift reads it."""
    lifted = _lift(basis, A, 1)
    vars(basis).pop("one_body_table", None)  # a frozen dataclass refuses ``del``
    return lifted


def lift_two_body(basis: ConfigBasis, W: np.ndarray, cap: int | None = None) -> sp.csr_matrix:
    """sum_{i<j} W_ij for a pair-space operator W (exchange-symmetric); ``cap`` as in ``_lift``."""
    return _lift(basis, W, 2, cap)


def lift_three_body(basis: ConfigBasis, W: np.ndarray, cap: int | None = None) -> sp.csr_matrix:
    """sum_{i<j<k} W_ijk for a triple-space operator W (exchange-symmetric);
    ``cap`` as in ``_lift``."""
    return _lift(basis, W, 3, cap)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ManyBodyState:
    basis: ConfigBasis
    amplitudes: np.ndarray
    time: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ConfigError(
                f"amplitude vector length {amps.shape} != basis dimension {self.basis.dim}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def random_state(basis: ConfigBasis, rng: np.random.Generator, time: float = 0.0) -> ManyBodyState:
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return ManyBodyState(basis, amps / np.linalg.norm(amps), time)


def slater_state(orbital_set, basis: ConfigBasis) -> ManyBodyState:
    """Embed an orthonormal orbital family as a determinant state."""
    grid = orbital_set.grid
    if basis.n_modes != grid.total_sites:
        raise GridMismatchError(
            f"basis has {basis.n_modes} modes but the grid {grid.total_sites} sites"
        )
    if basis.n_particles != orbital_set.N:
        raise ConfigError(
            f"basis particle number {basis.n_particles} != orbital count {orbital_set.N}"
        )
    A = orbital_set.orthonormal_columns()
    stacked = A[basis.configs, :]  # (dim, N, N): rows = occupied sites, cols = orbitals
    amps = np.linalg.det(stacked)
    return ManyBodyState(basis, amps, orbital_set.time)


# ---------------------------------------------------------------------------
# Hamiltonian and propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ManyBodyOperator:
    """A hermitian configuration-space operator plus the rescaling epsilon.

    ``matrix`` is scipy CSR for the lifted Hamiltonians and a dense
    (dim, dim) array for the truncated auxiliary generator, which is
    carried back from the adapted configuration basis as one dense product.
    """

    basis: ConfigBasis
    matrix: sp.csr_matrix | np.ndarray
    epsilon: float

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x


def pairwise_potential_vector(basis: ConfigBasis, potential: InteractionPotential) -> np.ndarray:
    """Config-space diagonal of sum_{i<j} v(x_i - x_j), read-only.

    Computed once per (L, N) and kept on the potential, so that
    ``build_hamiltonian`` and every ``gauge_manybody`` call share it.
    """
    key = (basis.n_modes, basis.n_particles)
    if key not in potential._pair_diagonals:
        V = difference_matrix(potential.v)
        occ = basis.occupancy
        quad = np.einsum("ij,ij->i", occ @ V, occ)
        vsum = 0.5 * (quad - occ @ np.diag(V))
        vsum.flags.writeable = False
        potential._pair_diagonals[key] = vsum
    return potential._pair_diagonals[key]


def build_hamiltonian(
    basis: ConfigBasis,
    potential: InteractionPotential,
    epsilon: float,
) -> ManyBodyOperator:
    grid = potential.grid
    if basis.n_modes != grid.total_sites:
        raise GridMismatchError("basis mode count does not match the grid")
    K = dense_kinetic(grid)
    H = lift_one_body(basis, K)
    # the real pair diagonal adds no defect, so the one-body lift is checked alone; H stores
    # no zeros, so a hermitian H shares the pattern of T = H^T, which is one copy of H
    T = H.transpose().tocsr()
    same = np.array_equal(H.indptr, T.indptr) and np.array_equal(H.indices, T.indices)
    defect = np.abs(H.data - T.data.conj()).max(initial=0.0) if same else np.inf
    if defect > 1e-10:
        raise ContractViolation(f"lifted Hamiltonian not hermitian: defect {defect}")
    del T
    H = H + sp.diags(pairwise_potential_vector(basis, potential))
    return ManyBodyOperator(basis, H.astype(np.complex128, copy=False), float(epsilon))


def propagate(
    state: ManyBodyState,
    hamiltonian: ManyBodyOperator,
    t_final: float | Sequence[float],
) -> ManyBodyState | Iterator[ManyBodyState]:
    """Evolve i d/dt Psi = eps H Psi under the fixed operator H to t_final.

    A single time is one Krylov exponential (``expm_multiply_hermitian``),
    and a time equal to the state's returns the state.  A non-decreasing
    sequence of times, none before the state's, gives an iterator of
    ManyBodyStates, each computed when it is taken: one Krylov space serves
    every time it has converged for, and only one is held at a time
    (``_lanczos.expm_multiply_hermitian_times``).
    """
    single = np.ndim(t_final) == 0
    times = [t_final] if single else list(t_final)
    if times and times[0] < state.time:
        raise ConfigError("t_final lies before the state's time")
    if any(later < earlier for earlier, later in zip(times, times[1:])):
        raise ConfigError("propagation times must not decrease")
    if hamiltonian.basis != state.basis:
        raise GridMismatchError("operator and state use different bases")
    if not single:
        return _trajectory(state, hamiltonian, times)
    span = t_final - state.time
    if span == 0:
        return state
    amps = expm_multiply_hermitian(
        hamiltonian.matvec, state.amplitudes, -1j * hamiltonian.epsilon * span
    )
    return _finite_state(state.basis, amps, t_final)


def _trajectory(
    state: ManyBodyState, op: ManyBodyOperator, times: list
) -> Iterator[ManyBodyState]:
    spans = [t - state.time for t in times]
    amplitudes = expm_multiply_hermitian_times(
        op.matvec, state.amplitudes, -1j * op.epsilon, spans
    )
    for t, amps in zip(times, amplitudes):
        yield _finite_state(state.basis, amps, t)


def _finite_state(basis: ConfigBasis, amps: np.ndarray, t: float) -> ManyBodyState:
    if not np.all(np.isfinite(amps)):
        raise NumericalFailure("non-finite amplitudes during propagation")
    return ManyBodyState(basis, amps, t)


def propagate_dense(
    state: ManyBodyState, hamiltonian: ManyBodyOperator, t_final: float
) -> ManyBodyState:
    """Dense oracle for small bases (dim <= ``MAX_DENSE_DIM``), independent of Krylov:
    psi(t) = Q exp(-i eps t Lambda) Q^H psi from one ``np.linalg.eigh`` of H, which holds
    H and Q where a Pade ``expm`` of the whole matrix holds several dense products at once."""
    if state.basis.dim > MAX_DENSE_DIM:
        raise ConfigError(f"dense propagation oracle is limited to dim <= {MAX_DENSE_DIM}")
    span = t_final - state.time
    lam, Q = np.linalg.eigh(hamiltonian.matrix.toarray())
    phases = np.exp(-1j * span * hamiltonian.epsilon * lam)
    return ManyBodyState(state.basis, Q @ (phases * (Q.conj().T @ state.amplitudes)), t_final)


def gauge_manybody(
    state: ManyBodyState,
    t: float,
    epsilon: float,
    potential: InteractionPotential,
) -> ManyBodyState:
    """Multiply by the pair phase exp(+i t eps sum_{i<j} v(x_i - x_j))."""
    vsum = pairwise_potential_vector(state.basis, potential)
    phases = np.exp(1j * t * epsilon * vsum)
    return ManyBodyState(state.basis, phases * state.amplitudes, state.time)


# ---------------------------------------------------------------------------
# observation
# ---------------------------------------------------------------------------


def annihilated(state: ManyBodyState) -> np.ndarray:
    """Phi[K, a] = <K| a_a |psi>: column a is a_a psi on the (N-1)-particle basis."""
    basis = state.basis
    _, signs, dim_less = basis.annihilation_table
    Phi = np.zeros((dim_less, basis.n_modes), dtype=np.complex128)
    # J minus a fixes (J, a), so no two entries collide
    Phi.ravel()[basis._annihilation_scatter] = (state.amplitudes[:, None] * signs).ravel()
    return Phi


def one_body_expectation(Phi: np.ndarray, A: np.ndarray) -> complex:
    """<psi, sum_i A_i psi> = tr(Phi^H Phi A^T) from Phi = ``annihilated(psi)``."""
    return complex(np.vdot(Phi, Phi @ A.T))


def rdm1(state: ManyBodyState) -> np.ndarray:
    """gamma[x, y] = <a^dag_y a_x>/N (unit trace, 0 <= gamma <= 1/N).

    Taken from the annihilation map, M = Phi^H Phi with M[b, a] =
    <a^dag_b a_a>, so no one-body table is built.
    """
    Phi = annihilated(state)
    M = Phi.conj().T @ Phi
    return M.T / state.basis.n_particles


def occupation_density(state: ManyBodyState) -> np.ndarray:
    """<n_x> per mode, i.e. N * diag(gamma), without building lift tables."""
    return state.basis.occupancy.T @ np.abs(state.amplitudes) ** 2


def exact_traces(M: np.ndarray, state: ManyBodyState) -> np.ndarray:
    """<Psi, (1/N) sum_i M(x_i) Psi> of each real multiplication observable on axis 0 of ``M``.

    ``M`` stacks the observables' grid values, as ``cli.observable_dictionary``
    returns them; all are read through one (n_obs x L) product against the
    state's occupation density.
    """
    if np.iscomplexobj(M):
        raise ConfigError("multiplication observables must be real-valued")
    return M.reshape(len(M), -1) @ occupation_density(state) / state.basis.n_particles


def observe(M: np.ndarray, state: ManyBodyState, orbital_set) -> tuple[np.ndarray, np.ndarray]:
    """``exact_traces`` and Tr(M p)/N of each observable stacked on axis 0 of ``M``.

    Tr(M p) is read through one (n_obs x L) product against the orbitals'
    ``density``; both arrays follow the rows of ``M``, and their absolute
    difference is the dictionary comparison.
    """
    exact = exact_traces(M, state)
    rho = density(orbital_set.values).ravel()
    hart = orbital_set.grid.cell_volume * (M.reshape(len(M), -1) @ rho) / orbital_set.N
    return exact, hart

