"""Exact fermionic dynamics on the antisymmetric configuration basis.

States live on ordered N-site configurations of the L = total_sites grid
modes (occupation-number basis, configurations sorted lexicographically).
The rescaled generator is

    i d/dt Psi = epsilon * H Psi,    H = lift1(K) + sum_{i<j} v(x_i - x_j),

with K the grid's kinetic matrix in its kinetic mode.  ``lift_one_body``/
``lift_two_body``/``lift_three_body`` raise r-body mode-space operators
(r = 1, 2, 3) to the configuration basis through precomputed index/sign
tables, so lifting a new operator is one vectorised gather.
One r-body builder (``ConfigBasis._table``) makes every table, with numpy
bit operations on the configuration bitmasks.  Each entry is a nonzero
matrix element of a^dag_{d1}...a^dag_{dr} a_{cr}...a_{c1} (a_{c1} acts
first, a^dag_{d1} last).  Entries are generated over columns, then ordered
tuples of distinct occupied modes (c1 slowest), then increasing created
modes d1 < ... < dr (dr slowest), and stored sorted by (row, column), the
generation order kept among entries of one matrix element, so that a lift
sums each element's run of entries without sorting (CSR order; its row
pointer and run starts are ``ConfigBasis.csr_pattern``, built once per
table).  Every r-body operator a lift receives is exchange symmetric,
W[(d_s), (c_s)] = W[(d), (c)] for each simultaneous slot permutation s,
so the r! orderings of the created modes give equal terms: the
increasing one with every ordering of the annihilated modes counts each
term once, and the lift needs no 1/r!.  (A kernel that is not
exchange symmetric would be lifted wrongly.)  One-body tables have a single
created mode and are unaffected.  A lift stores no explicit zeros.  These
tables serve the lifts only.  Reduced densities and one-body expectations
come from the annihilation map instead: ``annihilated`` scatters psi into
the (dim_{N-1} x L) matrix Phi whose column a is a_a psi, through
``ConfigBasis.annihilation_table`` (dim * N entries against the one-body
table's dim * N * (L - N + 1)), and <a^dag_b a_a> = (Phi^H Phi)[b, a].

``propagate`` evolves a state under a fixed operator eps H through a whole
sequence of times at once.  Since eps H does not depend on time, one Krylov
space serves every snapshot time it has converged for, read from one
tridiagonal matrix; a space keeps growing for the next pending time only
while that lowers the work per served time (the stop rule of ``_lanczos``),
and the next space starts from the last state it served.

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

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from ._lanczos import expm_multiply_hermitian, expm_multiply_hermitian_times
from .errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from .grid import Field, dense_kinetic, difference_matrix
from .model import InteractionPotential, ScalingParams, resolve_scaling, step_schedule

DT_MIN = 1e-10  # smallest step a time-dependent generator may be integrated with


def _parity(masks: np.ndarray) -> np.ndarray:
    """+1/-1 for an even/odd number of set bits in each mask."""
    return 1 - 2 * (np.bitwise_count(masks) & 1).astype(np.int64)


@dataclass(frozen=True)
class ConfigBasis:
    """All N-of-L fermionic configurations, lexicographically ordered."""

    n_modes: int
    n_particles: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_particles <= self.n_modes:
            raise ConfigError(
                f"need 1 <= N <= L, got N={self.n_particles}, L={self.n_modes}"
            )
        if self.n_modes > 62:
            raise ConfigError("mode count beyond the desk-scale bitmask range")

    @cached_property
    def configs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(combinations(range(self.n_modes), self.n_particles))

    @property
    def dim(self) -> int:
        return len(self.configs)

    @cached_property
    def masks(self) -> np.ndarray:
        """int64 occupation bitmask of each configuration (bit m set = mode m occupied)."""
        return (np.int64(1) << np.array(self.configs, dtype=np.int64)).sum(axis=1)

    @cached_property
    def occupancy(self) -> np.ndarray:
        """(dim, L) 0/1 array of mode occupations."""
        occ = np.zeros((self.dim, self.n_modes))
        for i, c in enumerate(self.configs):
            occ[i, list(c)] = 1.0
        return occ

    # ---- index/sign tables (built once, reused for every lifted operator) ----

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
    def annihilation_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Scatter pattern of the annihilation map psi -> (a_a psi)_a.

        Returns ``(flat, signs, dim_less)``: for configuration J and its
        k-th occupied mode a, a_a |J> = signs[k] |J minus a>, signs[k] =
        (-1)^k, and flat[J, k] = (index of J minus a in the (N-1)-particle
        basis) * L + a.  N = 1 maps onto one vacuum row.
        """
        L, N = self.n_modes, self.n_particles
        modes = np.array(self.configs, dtype=np.int64)
        signs = 1 - 2 * (np.arange(N) & 1)
        if N == 1:
            return modes, signs, 1
        smaller = ConfigBasis(L, N - 1).masks
        holes = self.masks[:, None] ^ (np.int64(1) << modes)
        order = np.argsort(smaller)
        rows = order[np.searchsorted(smaller, holes, sorter=order)]
        return rows * L + modes, signs, len(smaller)

    def _table(self, r: int) -> tuple[np.ndarray, ...]:
        """Nonzero entries of a^dag_{d1}...a^dag_{dr} a_{cr}...a_{c1} on the basis.

        Returns int32 ``(rows, cols, row_slot, col_slot)`` and int8 ``signs``
        with <rows[e]| ... |cols[e]> = signs[e], row_slot = (d1, ..., dr) and
        col_slot = (c1, ..., cr) flattened C-order, d1 < ... < dr, in the
        CSR entry order of the module docstring: dim * N!/(N-r)! *
        C(L-N+r, r) entries.  The int64 bitmasks rely on the n_modes <= 62
        guard of ``__post_init__``; int32 holds every row and slot index (dim
        and L^r stay far below 2^31 wherever a table is built).
        """
        L = self.n_modes
        configs = np.array(self.configs, dtype=np.int64)
        slots = permutations(range(self.n_particles), r)
        slots = np.array(list(slots), dtype=np.int64).reshape(-1, r)  # none when r > N
        c = configs[:, slots].reshape(-1, r)
        cols = np.repeat(np.arange(self.dim, dtype=np.int64), len(slots))
        masks = self.masks[cols]
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
        bound = np.full(len(cols), L)  # d_k < d_{k+1}: created modes increase
        for k in reversed(range(r)):  # a^dag_{dr} acts first
            free = ((masks[:, None] & bits) == 0) & (modes < bound[:, None])
            entry, d = np.nonzero(free)
            signs = signs[entry] * _parity(masks[entry] & (bits[d] - 1))
            masks = masks[entry] | bits[d]
            cols, col_slot = cols[entry], col_slot[entry]
            row_slot = row_slot[entry] + d * weights[k]
            bound = d
        order = np.argsort(self.masks)
        rows = order[np.searchsorted(self.masks, masks, sorter=order)]
        del free, entry, d, bound, masks  # release the loop's arrays before sorting
        # cols never decrease, so a stable sort on rows puts the entries in CSR order
        entry = np.argsort(rows, kind="stable")
        index = (rows, cols, row_slot, col_slot)
        return (*(a.astype(np.int32)[entry] for a in index), signs.astype(np.int8)[entry])

    @cached_property
    def _csr_patterns(self) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per table name, the CSR structure ``_lift`` sums into (filled on first use)."""
        return {}

    def csr_pattern(self, table: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, indices, indptr)`` of the lift table ``table``, computed once.

        The table is in CSR order, so each distinct (row, col) is one run of
        entries: ``starts`` holds where each run begins, ``indices`` its
        column and ``indptr`` the row pointer over runs.
        """
        pattern = self._csr_patterns.get(table)
        if pattern is None:
            rows, cols = getattr(self, table)[:2]
            new = np.ones(len(rows), dtype=bool)
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new)
            indptr = np.searchsorted(rows[starts], np.arange(self.dim + 1)).astype(np.int32)
            pattern = self._csr_patterns[table] = (starts, cols[starts], indptr)
        return pattern


def _lift(basis: ConfigBasis, W: np.ndarray, r: int, table: str) -> sp.csr_matrix:
    """sum over r-subsets of particles of an exchange-symmetric W, gathered
    through ``basis.<table>``, one term per table entry.

    The table is in CSR order and ``ConfigBasis.csr_pattern`` holds its
    structure, so a lift is one gather, one sum over each run of entries
    that share a matrix element, and one pass that drops the elements that
    sum to zero (the adapted-basis kernels of the auxiliary generator are
    mostly masked zeros); nothing is sorted.
    """
    n = basis.n_modes**r
    if W.shape != (n, n):
        raise GridMismatchError(f"{r}-body operator shape {W.shape} != ({n}, {n})")
    _, _, row_slot, col_slot, signs = getattr(basis, table)
    starts, indices, indptr = basis.csr_pattern(table)
    # int32 flat slots: L^(2r) < 2^31 for every table ConfigBasis builds
    data = np.add.reduceat(signs * W.ravel().take(row_slot * n + col_slot), starts)
    nz = data != 0
    kept_before = np.concatenate(([0], np.cumsum(nz)))
    return sp.csr_matrix(
        (data[nz], indices[nz], kept_before[indptr]), shape=(basis.dim, basis.dim)
    )


def lift_one_body(basis: ConfigBasis, A: np.ndarray) -> sp.csr_matrix:
    """sum_i A_i on the configuration basis (A acts on mode space)."""
    return _lift(basis, A, 1, "one_body_table")


def lift_two_body(basis: ConfigBasis, W: np.ndarray) -> sp.csr_matrix:
    """sum_{i<j} W_ij for a pair-space operator W (exchange-symmetric)."""
    return _lift(basis, W, 2, "two_body_table")


def lift_three_body(basis: ConfigBasis, W: np.ndarray) -> sp.csr_matrix:
    """sum_{i<j<k} W_ijk for a triple-space operator W (exchange-symmetric)."""
    return _lift(basis, W, 3, "three_body_table")


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
    A = np.sqrt(grid.cell_volume) * orbital_set.value_matrix()
    defect = np.max(np.abs(A.conj().T @ A - np.eye(orbital_set.N)))
    if defect > 1e-8:
        raise ContractViolation(
            f"orbitals are not orthonormal (defect {defect:.2e}); "
            "a determinant state needs an orthonormal family"
        )
    idx = np.array(basis.configs)
    stacked = A[idx, :]  # (dim, N, N): rows = occupied sites, cols = orbitals
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
        V = difference_matrix(potential.v).real
        occ = basis.occupancy
        quad = np.einsum("ij,ij->i", occ @ V, occ)
        vsum = 0.5 * (quad - occ @ np.diag(V))
        vsum.flags.writeable = False
        potential._pair_diagonals[key] = vsum
    return potential._pair_diagonals[key]


def build_hamiltonian(
    basis: ConfigBasis,
    potential: InteractionPotential,
    scaling: ScalingParams,
) -> ManyBodyOperator:
    grid = potential.grid
    if basis.n_modes != grid.total_sites:
        raise GridMismatchError("basis mode count does not match the grid")
    scaling = resolve_scaling(scaling, grid)
    K = dense_kinetic(grid)
    H = lift_one_body(basis, K) + sp.diags(
        pairwise_potential_vector(basis, potential).astype(np.complex128)
    )
    H = H.tocsr()
    asym = abs(H - H.conjugate().transpose())
    if asym.nnz and asym.max() > 1e-10:
        raise ContractViolation(f"lifted Hamiltonian not hermitian: defect {asym.max()}")
    return ManyBodyOperator(basis=basis, matrix=H, epsilon=float(scaling.epsilon))


def propagate(
    state: ManyBodyState,
    hamiltonian,
    t_final: float | Sequence[float],
    dt: float | None = None,
) -> ManyBodyState | Iterator[ManyBodyState]:
    """Evolve i d/dt Psi = eps H Psi to t_final, or through a sequence of times.

    ``hamiltonian`` is either a fixed ManyBodyOperator or a callable t ->
    ManyBodyOperator, integrated to the single time ``t_final`` with
    midpoint-frozen exponential steps of size ``dt``.  Krylov stagnation
    triggers step halving; a step below ``DT_MIN`` is a hard failure.

    With a fixed operator ``t_final`` may also be a non-decreasing sequence
    of times, none before the state's: the result is then an iterator of
    ManyBodyStates, one per time, each computed when it is taken.  eps H
    does not depend on time, so one Krylov space serves every pending time
    it has converged for: it keeps growing for the next pending time only
    while that lowers the work per served time, which grows as the square
    of the space's size, and the next space starts from the last state it
    served (``_lanczos.expm_multiply_hermitian_times``).  The iterator
    holds one Krylov space at a time, never the whole trajectory.  A single
    time is the one-element case and returns its state; a time equal to
    the state's returns its amplitudes unchanged.
    """
    single = np.ndim(t_final) == 0
    times = [t_final] if single else list(t_final)
    if times and times[0] < state.time:
        raise ConfigError("t_final lies before the state's time")
    if any(later < earlier for earlier, later in zip(times, times[1:])):
        raise ConfigError("propagation times must not decrease")

    if callable(hamiltonian):
        if not single:
            raise ConfigError("a sequence of times needs a fixed ManyBodyOperator")
        span = t_final - state.time
        if span == 0:
            return state
        if dt is None or dt <= 0:
            raise ConfigError("time-dependent generators need a positive dt")
        if dt < DT_MIN:
            raise NumericalFailure(f"step size {dt} below DT_MIN {DT_MIN}")
        n_steps, _ = step_schedule(span, dt)
        amps = state.amplitudes
        for step in range(n_steps):
            op = hamiltonian(state.time + (step + 0.5) * dt)
            if op.basis != state.basis:
                raise GridMismatchError("operator and state use different bases")
            amps = expm_multiply_hermitian(op.matvec, amps, -1j * dt * op.epsilon)
        if not np.all(np.isfinite(amps)):
            raise NumericalFailure("non-finite amplitudes during propagation")
        return ManyBodyState(state.basis, amps, t_final)

    op = hamiltonian
    if op.basis != state.basis:
        raise GridMismatchError("operator and state use different bases")
    trajectory = _trajectory(state, op, times)
    return next(trajectory) if single else trajectory


def _trajectory(
    state: ManyBodyState, op: ManyBodyOperator, times: list
) -> Iterator[ManyBodyState]:
    spans = [t - state.time for t in times]
    amplitudes = expm_multiply_hermitian_times(
        op.matvec, state.amplitudes, -1j * op.epsilon, spans
    )
    for t, amps in zip(times, amplitudes):
        if not np.all(np.isfinite(amps)):
            raise NumericalFailure("non-finite amplitudes during propagation")
        yield ManyBodyState(state.basis, amps, t)


def propagate_dense(
    state: ManyBodyState, hamiltonian: ManyBodyOperator, t_final: float
) -> ManyBodyState:
    """Dense-matrix-exponential oracle for small bases (dim <= 400)."""
    if state.basis.dim > 400:
        raise ConfigError("dense propagation oracle is limited to dim <= 400")
    span = t_final - state.time
    U = expm(-1j * span * hamiltonian.epsilon * hamiltonian.matrix.toarray())
    return ManyBodyState(state.basis, U @ state.amplitudes, t_final)


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


@dataclass(frozen=True)
class OneBodyMatrix:
    """A mode-space matrix: the reduced density of ``rdm1``."""

    matrix: np.ndarray


def annihilated(state: ManyBodyState) -> np.ndarray:
    """Phi[K, a] = <K| a_a |psi>: column a is a_a psi on the (N-1)-particle basis."""
    basis = state.basis
    flat, signs, dim_less = basis.annihilation_table
    Phi = np.zeros((dim_less, basis.n_modes), dtype=np.complex128)
    Phi.flat[flat] = signs * state.amplitudes[:, None]  # J minus a fixes (J, a)
    return Phi


def one_body_expectation(Phi: np.ndarray, A: np.ndarray) -> complex:
    """<psi, sum_i A_i psi> = tr(Phi^H Phi A^T) from Phi = ``annihilated(psi)``."""
    return complex(np.vdot(Phi, Phi @ A.T))


def rdm1(state: ManyBodyState) -> OneBodyMatrix:
    """gamma[x, y] = <a^dag_y a_x>/N (unit trace, 0 <= gamma <= 1/N).

    Taken from the annihilation map, M = Phi^H Phi with M[b, a] =
    <a^dag_b a_a>, so no one-body table is built.
    """
    Phi = annihilated(state)
    M = Phi.conj().T @ Phi
    return OneBodyMatrix(matrix=M.T / state.basis.n_particles)


def occupation_density(state: ManyBodyState) -> np.ndarray:
    """<n_x> per mode, i.e. N * diag(gamma), without building lift tables."""
    return state.basis.occupancy.T @ np.abs(state.amplitudes) ** 2


@dataclass(frozen=True)
class ObservationResult:
    trace_exact: float
    trace_hartree: float
    comparison: float


def observe(
    M: Field | Sequence[Field], state: ManyBodyState, orbital_set
) -> ObservationResult | list[ObservationResult]:
    """Compare <Psi, (1/N) sum_i M_i Psi> with Tr(M p)/N for multiplication observables.

    ``M`` is one real ``Field`` (one ``ObservationResult``) or a sequence of
    them (a list of results, in order).  A sequence is read through one
    (n_obs x L) product against the state's occupation density and the
    orbitals' density sum_k |phi_k(x)|^2, each formed once per call.
    """
    fields = [M] if isinstance(M, Field) else list(M)
    mvals = np.stack([f.values.ravel() for f in fields])
    if np.max(np.abs(mvals.imag)) > 1e-12:
        raise ConfigError("multiplication observables must be real-valued")
    N = orbital_set.N
    A = orbital_set.value_matrix()
    exact = mvals.real @ occupation_density(state) / N
    density = (A.real**2 + A.imag**2).sum(axis=1)
    hart = orbital_set.grid.cell_volume * (mvals.real @ density) / N
    results = [
        ObservationResult(trace_exact=e, trace_hartree=h, comparison=abs(e - h))
        for e, h in zip(exact.tolist(), hart.tolist())
    ]
    return results[0] if isinstance(M, Field) else results


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"MFLBMBS1"


def save_state(state: ManyBodyState, path) -> None:
    """Binary container: magic, L, N, dim, time, raw complex amplitudes."""
    header = _MAGIC + struct.pack(
        "<IIQd",
        state.basis.n_modes,
        state.basis.n_particles,
        state.basis.dim,
        state.time,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.amplitudes, dtype=np.complex128).tobytes())


def load_state(path) -> ManyBodyState:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ConfigError(f"{path} is not a state container (bad magic)")
    off = len(_MAGIC)
    L, N, dim, time = struct.unpack_from("<IIQd", blob, off)
    off += struct.calcsize("<IIQd")
    basis = ConfigBasis(n_modes=L, n_particles=N)
    if basis.dim != dim:
        raise ConfigError("state container dimension mismatch")
    amps = np.frombuffer(blob[off:], dtype=np.complex128).copy()
    if amps.shape != (dim,):
        raise ConfigError("state container payload truncated")
    return ManyBodyState(basis, amps, time)
