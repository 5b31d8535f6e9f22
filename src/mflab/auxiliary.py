"""Auxiliary truncated dynamics in the interaction gauge.

Multiplying an N-particle state by the pair phase
exp(+i t eps sum_{i<j} v(x_i - x_j)) removes the interaction from the
generator and leaves a sum of minimally-coupled kinetic terms,

    H_gauge = sum_i ( i grad_i + t eps sum_{j != i} F(x_i - x_j) )^2,

with the two-body force F = grad v.  Because the square terminates, this is
exactly

    H_gauge = sum_i K_i
            + t eps        sum_{i<j}   (w_mom)_{ij}
            + (t eps)^2  [ sum_{i<j}   (w_sq)_{ij} + sum_{i<j<k} (w_trip)_{ijk} ],

with kernels built from difference matrices of the force components
(d_a = derivative along axis a, superscripts = which pair slot):

    w_mom  = sum_a [ i d_a^(1) F_a(x1-x2) + F_a(x1-x2) i d_a^(1)
                   - i d_a^(2) F_a(x1-x2) - F_a(x1-x2) i d_a^(2) ]
    w_sq   = 2 sum_a F_a(x1-x2)^2
    w_trip = 2 [ F(x1-x2).F(x1-x3) + F(x2-x1).F(x2-x3) + F(x3-x1).F(x3-x2) ]

(w_mom is exchange symmetric because F is odd.)  Contracting against the
orbital projector recovers the mean-field couplings used by the gauged
orbital flow:

    R = tr_2( p_2 (w_mom)_12 p_2 ),      W = 1/2 tr_23( p_2 p_3 (w_trip)_123 p_2 p_3 ),

identities that hold exactly on the grid as long as both sides use the same
gradient convention.  The auxiliary dynamics truncates each kernel to the
blocks carrying at most two (``MAX_COMPLEMENT``) complement projections in
total, w~ = sum_{b+c<=2} P^(b) w P^(c), where P^(b) distributes b factors of
q = 1 - p over the kernel's slots.  In the orbital-adapted mode basis U of
``build_projections`` (first N columns span Ran p) every P^(b) is diagonal,
and the kept part is the set of entries whose row and column multi-indices
carry at most two complement modes (q modes, the last L - N) between them.
The production route (``kept_interaction``) builds each kernel there.  The
pair kernel is rotated forward slot by slot, O(L^5) instead of O(L^6), and
multiplied by the fixed 0/1 mask exc(row) + exc(col) <= 2, which depends
only on (L, N) and is built once from ``slot_sector_projectors``, the
literal kron construction of P^(b).  The triple kernel is diagonal on site
modes, so its adapted entries are sum_x d[x1, x2, x3] rho[x1, k1, l1]
rho[x2, k2, l2] rho[x3, k3, l3] with rho[x, k, l] = conj(U[x, k]) U[x, l];
each slot's (k, l) is split into p/q blocks, and only the 22 block
combinations with at most two q modes in total are contracted (3.8% of
the L^6 entries at L = 12, N = 3); the rest is never formed.  Which blocks
are kept depends only on (L, N), so ``run_auxiliary`` writes them into one
zeroed (L^3, L^3) kernel that every build of the run reuses.  The kept
kernels are never rotated back to site modes.  The lift tables only index
mode labels, so ``build_aux_generator`` lifts them on the configuration
basis of the adapted modes, H_ad, with the cap ``MAX_COMPLEMENT``: the lift
gathers only the table runs a kept entry can reach (6,000 of 290,400
three-body entries at L = 12, N = 3, ``ConfigBasis.lift_pattern`` with that
cap) and equals the full-table lift bit for bit.  The sum is carried back once:
H = lift1(K) + Rot^dag H_ad Rot, with Rot = ``Projections.rotation``
(Rot c holds a state's adapted amplitudes).  H is a dense dim x dim array,
dim <= 495 at every CLI cap; lift1(K) does not change during a run, and
``run_auxiliary`` lifts it once.  ``truncate_interaction`` keeps the literal
sum of projector products as the oracle and returns the discarded blocks
alongside, so that kept + discarded = w can be checked as an operator
identity; lifting its kept part on the site basis reproduces
``build_aux_generator``.

``run_auxiliary`` co-evolves the truncated state, the mean-field orbitals,
and the exact state, recording occupancy diagnostics, the direct energy
E_g = tr(p h~ p) with h~ = K + 1/2 t eps R + 1/3 (t eps)^2 W (gauge's
expanded h_g with its R and W terms weighted by 1/2 and 1/3), the energy
excess beta = eps/N (<Psi~, H~ Psi~> - E_g) from that same E_g, the
complement kinetic energy, and the norm distance between the truncated
state and the gauged exact state.

``gauge_frame_residual`` is the oracle for the untruncated many-body gauged
generator: it checks i d/dt Psi_gauge = eps H_gauge Psi_gauge against the
gauged exact evolution, and only tests call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .counting import (
    DEFAULT_GAMMAS,
    Projections,
    alpha_number_onebody,
    build_projections,
    gamma_suffix,
    sector_masses,
    weight_number,
    weight_threshold,
)
from .errors import ConfigError, ContractViolation, GridMismatchError, NumericalFailure
from .gauge import _generator, gauge_orbitals, mean_field_forces
from .grid import (
    Grid,
    dense_gradient,
    dense_kinetic,
    difference_matrix,
)
from .hartree import OrbitalSet, hartree_step
from .manybody import (
    ConfigBasis,
    ManyBodyOperator,
    ManyBodyState,
    annihilated,
    build_hamiltonian,
    gauge_manybody,
    lift_one_body,
    lift_three_body,
    lift_two_body,
    one_body_expectation,
    propagate,
    slater_state,
)
from .model import InteractionPotential, step_schedule
from ._lanczos import expm_multiply_hermitian

MAX_COMPLEMENT = 2  # kept blocks carry at most this many q factors in total


# ---------------------------------------------------------------------------
# interaction kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BaseInteractions:
    """Pair and triple kernels of the gauged generator (flat C-order slots)."""

    grid: Grid
    pair_momentum: np.ndarray = field(repr=False)  # (L^2, L^2), hermitian
    pair_diag: np.ndarray = field(repr=False)  # (L^2,)
    triple_diag: np.ndarray = field(repr=False)  # (L^3,)


def base_interactions(potential: InteractionPotential) -> BaseInteractions:
    grid = potential.grid
    L = grid.total_sites
    if L > 40:
        raise ConfigError(f"dense pair kernels limited to 40 sites, got {L}")
    Gs = dense_gradient(grid)
    eye = np.eye(L)
    Fd = [difference_matrix(Fa) for Fa in potential.force]

    pair_momentum = np.zeros((L * L, L * L), dtype=np.complex128)
    pair_diag = np.zeros(L * L)
    for a in range(grid.dim):
        fd = Fd[a].ravel()
        D1 = np.kron(1j * Gs[a], eye)
        D2 = np.kron(eye, 1j * Gs[a])
        pair_momentum += D1 * fd[None, :] + fd[:, None] * D1
        pair_momentum -= D2 * fd[None, :] + fd[:, None] * D2
        pair_diag += 2.0 * fd**2

    trip = np.zeros((L, L, L))
    for a in range(grid.dim):
        F = Fd[a]
        trip += np.einsum("xy,xz->xyz", F, F)
        trip += np.einsum("yx,yz->xyz", F, F)
        trip += np.einsum("zx,zy->xyz", F, F)

    return BaseInteractions(
        grid=grid,
        pair_momentum=pair_momentum,
        pair_diag=pair_diag,
        triple_diag=2.0 * trip.ravel(),
    )


# ---------------------------------------------------------------------------
# mean-field couplings two ways
# ---------------------------------------------------------------------------


def mean_field_rw(state: OrbitalSet, potential: InteractionPotential):
    """Dense (R, W) from the convolved force data of the orbital family."""
    grid = state.grid
    forces = mean_field_forces(state, potential)
    Gs = dense_gradient(grid)
    R = np.diag(forces.mixed_real.ravel()).astype(np.complex128)
    for a in range(grid.dim):
        fbar = forces.f_bar[a].ravel()
        iG = 1j * Gs[a]
        R += iG * fbar[None, :] + fbar[:, None] * iG
    wdiag = sum(f**2 for f in forces.f_bar)
    wdiag = wdiag + 2.0 * forces.quad_correction
    W = np.diag(wdiag.ravel()).astype(np.complex128)
    return R, W


def trace_formula_rw(base: BaseInteractions, state: OrbitalSet):
    """Dense (R, W) by contracting the microscopic kernels against p."""
    if state.grid != base.grid:
        raise GridMismatchError("orbitals and kernels use different grids")
    L = base.grid.total_sites
    p = build_projections(state).p
    W2 = base.pair_momentum.reshape(L, L, L, L)
    R = np.einsum("xuyv,vu->xy", W2, p)
    w3 = base.triple_diag.reshape(L, L, L)
    rho_p = np.diag(p).real
    Wd = 0.5 * np.einsum("xab,a,b->x", w3, rho_p, rho_p)
    return R, np.diag(Wd).astype(np.complex128)


def rw_crosscheck(state: OrbitalSet, potential: InteractionPotential) -> dict:
    """Max entrywise distance between the two (R, W) constructions."""
    base = base_interactions(potential)
    R1, W1 = mean_field_rw(state, potential)
    R2, W2 = trace_formula_rw(base, state)
    return {
        "R_defect": float(np.max(np.abs(R1 - R2))),
        "W_defect": float(np.max(np.abs(W1 - W2))),
    }


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def slot_sector_projectors(p: np.ndarray, q: np.ndarray, r: int) -> list[np.ndarray]:
    """P^(b) for b = 0..r on the r-slot product space (flat C order).

    Built literally from kron products.  Production code calls it only to
    derive the sector mask in the orbital-adapted basis (``_kept_mask``);
    ``truncate_interaction`` uses it as the literal oracle.
    """
    out = []
    for b in range(r + 1):
        P = np.zeros((p.shape[0] ** r, p.shape[0] ** r), dtype=np.complex128)
        for S in combinations(range(r), b):
            term = np.ones((1, 1))
            for slot in range(r):
                term = np.kron(term, q if slot in S else p)
            P += term
        out.append(P)
    return out


@dataclass(frozen=True)
class TruncatedInteraction:
    kept: np.ndarray = field(repr=False)
    discarded: np.ndarray = field(repr=False)
    reconstruction_defect: float


def truncate_interaction(
    w: np.ndarray, p: np.ndarray, q: np.ndarray, r: int
) -> TruncatedInteraction:
    """Split w into sum_{b+c<=2} P^(b) w P^(c) plus the discarded rest.

    The literal oracle for the truncation: dense products with the sector
    projectors, O(L^(3r)) per block.  ``build_aux_generator`` computes the
    same kept part in the adapted mode basis (``kept_interaction``).
    """
    if w.ndim == 1:
        w = np.diag(w.astype(np.complex128))
    P = slot_sector_projectors(p, q, r)
    kept = np.zeros_like(w, dtype=np.complex128)
    discarded = np.zeros_like(w, dtype=np.complex128)
    for b in range(r + 1):
        Pw = P[b] @ w
        for c in range(r + 1):
            block = Pw @ P[c]
            if b + c <= MAX_COMPLEMENT:
                kept += block
            else:
                discarded += block
    defect = float(np.max(np.abs(kept + discarded - w)))
    return TruncatedInteraction(
        kept=kept,
        discarded=discarded,
        reconstruction_defect=defect,
    )


@lru_cache(maxsize=None)
def _kept_mask(L: int, N: int, r: int) -> np.ndarray:
    """0/1 mask exc(row) + exc(col) <= 2 of an r-slot kernel in the adapted basis.

    In a mode basis whose first N modes span Ran p, every P^(b) is the
    diagonal 0/1 matrix selecting the multi-indices with b complement modes,
    so the mask depends only on (L, N, r).
    """
    D = np.diag((np.arange(L) < N).astype(float))
    P = slot_sector_projectors(D, np.eye(L) - D, r)
    exc = sum(b * np.diag(Pb).real for b, Pb in enumerate(P))
    mask = exc[:, None] + exc[None, :] <= MAX_COMPLEMENT
    mask.flags.writeable = False
    return mask


def _rotate_slots(w: np.ndarray, U: np.ndarray, r: int) -> np.ndarray:
    """(U^dag)^(x r) @ w @ U^(x r) for an (L^r, L^r) kernel, one slot at a time.

    Each pass contracts the leading index of the 2r-index tensor with one
    L x L matrix and cycles it to the back (one matmul, no transpose copy),
    so after 2r passes the index order is restored: O(L^(2r+1)) instead of
    O(L^(3r)).
    """
    L = U.shape[0]
    out = w
    for A in (U.conj(),) * r + (U,) * r:
        out = out.reshape(L, -1).T @ A
    return out.reshape(L**r, L**r)


def _kept_diagonal(
    d: np.ndarray, U: np.ndarray, N: int, r: int, out: np.ndarray
) -> np.ndarray:
    """sum_{b+c<=2} P^(b) diag(d) P^(c) for an r-slot diagonal, in the adapted basis.

    The rotated kernel is sum_x d[x1, ..., xr] prod_s rho[x_s, k_s, l_s] with
    rho[x, k, l] = conj(U[x, k]) U[x, l].  Each slot's (k, l) lies in one of
    four blocks (p or q modes for k, and for l), and only the block
    combinations carrying at most two q modes in total are kept (22 of 64
    for r = 3), so only those are contracted.  Like ``_rotate_slots``, each
    pass contracts the leading site index with one block of rho and cycles
    the block's (k, l) to the back, slot 1 first; a partial sum is shared by
    every combination that extends it.  The kept blocks are written into
    ``out``, a zeroed (L^r, L^r) complex array, and nothing else of it is
    touched; they depend only on (L, N, r), so ``out`` can be reused for
    the next diagonal of the same shape.
    """
    L = U.shape[0]
    blocks = []  # (rho on the block as an (L, mk * ml) matrix, k modes, l modes, shape, q count)
    for bk, nk in ((slice(0, N), 0), (slice(N, L), 1)):  # p modes, q modes
        for bl, nl in ((slice(0, N), 0), (slice(N, L), 1)):
            Uk, Ul = U[:, bk].conj(), U[:, bl]
            if Uk.size and Ul.size:
                rho = (Uk[:, :, None] * Ul[:, None, :]).reshape(L, -1)
                blocks.append((rho, bk, bl, (Uk.shape[1], Ul.shape[1]), nk + nl))
    parts = [(d, (), (), (), 0)]
    for _ in range(r):
        parts = [
            (t.reshape(L, -1).T @ rho, ks + (bk,), ls + (bl,), shape + mkl, c + n)
            for t, ks, ls, shape, c in parts
            for rho, bk, bl, mkl, n in blocks
            if c + n <= MAX_COMPLEMENT
        ]
    order = list(range(0, 2 * r, 2)) + list(range(1, 2 * r, 2))
    tensor = out.reshape((L,) * (2 * r))
    for t, ks, ls, shape, _ in parts:
        tensor[ks + ls] = t.reshape(shape).transpose(order)
    return out


def kept_interaction(
    w: np.ndarray, projections: Projections, r: int, out: np.ndarray | None = None
) -> np.ndarray:
    """sum_{b+c<=2} P^(b) w P^(c) in the adapted mode basis.

    ``w`` is an (L^r, L^r) site-basis kernel or the diagonal (L^r,) of one.
    The result is (U^dag)^(x r) [sum_{b+c<=2} P^(b) w P^(c)] U^(x r) with
    U = ``projections.basis_matrix``: the kept kernel on adapted modes,
    where each P^(b) is diagonal, zero outside the kept entries.  A diagonal
    kernel is contracted on its kept blocks only (``_kept_diagonal``), into
    ``out`` if given (a kernel of the same (L, N, r) that only such calls
    wrote) and into a fresh zeroed array otherwise; a dense one is rotated
    whole and multiplied by the 0/1 mask.  The result stays in the adapted
    basis; ``build_aux_generator`` lifts it on the adapted configuration
    basis.
    """
    U = projections.basis_matrix
    L = U.shape[0]
    N = projections.n_occupied
    if w.ndim == 1:
        if out is None:
            out = np.zeros((L**r, L**r), dtype=np.complex128)
        return _kept_diagonal(w, U, N, r, out)
    rotated = _rotate_slots(w, U, r)
    rotated *= _kept_mask(L, N, r)
    return rotated


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def full_gauged_hamiltonian(
    base: BaseInteractions, basis: ConfigBasis, t: float, epsilon: float
) -> ManyBodyOperator:
    """The untruncated gauged generator on the configuration basis."""
    grid = base.grid
    if basis.n_modes != grid.total_sites:
        raise GridMismatchError("basis mode count does not match the grid")
    te = t * epsilon
    H = lift_one_body(basis, dense_kinetic(grid)).astype(np.complex128)
    H = H + lift_two_body(basis, te * base.pair_momentum + te**2 * np.diag(base.pair_diag))
    if basis.n_particles >= 3:
        H = H + lift_three_body(basis, te**2 * np.diag(base.triple_diag))
    return ManyBodyOperator(basis=basis, matrix=H.tocsr(), epsilon=epsilon)


def build_aux_generator(
    base: BaseInteractions,
    gauged_orbitals: OrbitalSet,
    t: float,
    basis: ConfigBasis,
    proj: Projections,
    kinetic: np.ndarray,
    triple_kernel: np.ndarray | None = None,
) -> ManyBodyOperator:
    """Truncated gauged generator with projections from the given orbitals.

    ``proj`` is ``build_projections(gauged_orbitals)``; callers pass it in
    because they need it too (``run_auxiliary``'s sector masses read its
    rotation table), so it and its rotation are built once.  ``kinetic`` is
    the dense lift ``lift_one_body(basis, dense_kinetic(grid)).toarray()``,
    the same for every build of a run, so a run lifts it once.  The kept
    kernels are lifted with the cap ``MAX_COMPLEMENT``.  For N >= 3 the kept
    triple blocks go into ``triple_kernel``, a zeroed (L^3, L^3) complex
    array that ``run_auxiliary`` passes to every build of a run (at L = 12
    it is 48 MB, and faulting in fresh pages costs more than writing the
    blocks); without it a build allocates its own.
    """
    grid = base.grid
    if gauged_orbitals.grid != grid:
        raise GridMismatchError("orbitals and kernels use different grids")
    if basis.n_modes != grid.total_sites:
        raise GridMismatchError("basis mode count does not match the grid")
    epsilon = gauged_orbitals.epsilon
    te = t * epsilon

    w2 = te * base.pair_momentum
    w2[np.diag_indices_from(w2)] += te**2 * base.pair_diag
    H_ad = lift_two_body(basis, kept_interaction(w2, proj, 2), MAX_COMPLEMENT)
    if basis.n_particles >= 3:
        w3 = kept_interaction(te**2 * base.triple_diag, proj, 3, triple_kernel)
        H_ad = H_ad + lift_three_body(basis, w3, MAX_COMPLEMENT)
    Rot, _ = proj.rotation(basis)
    H = Rot.conj().T @ (H_ad @ Rot)
    H += kinetic
    defect = float(np.max(np.abs(H - H.conj().T)))
    if defect > 1e-9:
        raise ContractViolation(f"truncated generator not hermitian: defect {defect}")
    return ManyBodyOperator(basis=basis, matrix=H, epsilon=epsilon)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def direct_energy(gauged_orbitals: OrbitalSet, potential: InteractionPotential) -> float:
    """E_g = tr(p h~ p) = sum_j <psi_j, h~ psi_j> over the orbital family, at its time."""
    grid = gauged_orbitals.grid
    epsilon = gauged_orbitals.epsilon
    forces = mean_field_forces(gauged_orbitals, potential)
    vals = np.ascontiguousarray(np.moveaxis(gauged_orbitals.values, 0, -1))
    hval = _generator(forces, epsilon, grid, weights=(0.5, 1.0 / 3.0))(vals)
    return float(grid.cell_volume * np.vdot(vals, hval).real)


def energy_excess(aux_state: ManyBodyState, generator: ManyBodyOperator, e_g: float) -> float:
    """beta = eps/N ( <Psi~, H~ Psi~> - E_g ), with E_g from ``direct_energy``."""
    expectation = float(
        np.vdot(aux_state.amplitudes, generator.matvec(aux_state.amplitudes)).real
    )
    N = aux_state.basis.n_particles
    return generator.epsilon / N * (expectation - e_g)


def complement_kinetic(
    aux_state: ManyBodyState, gauged_orbitals: OrbitalSet, proj: Projections
) -> float:
    """eps/N <Psi~, sum_i (q K q)_i Psi~>, q from ``proj = build_projections(gauged_orbitals)``."""
    q = proj.q
    qKq = q @ dense_kinetic(gauged_orbitals.grid) @ q
    val = one_body_expectation(annihilated(aux_state), qKq).real
    return gauged_orbitals.epsilon / aux_state.basis.n_particles * val


def observable_localization_bound(
    M: np.ndarray, state: ManyBodyState, projections
) -> dict:
    """|<psi, M_1 psi> - <psi, (pMp)_1 psi>| <= 3 ||M|| ||q_1 psi|| (per particle)."""
    N = state.basis.n_particles
    Phi = annihilated(state)
    lhs_full = one_body_expectation(Phi, M) / N
    pMp = projections.p @ M @ projections.p
    lhs_loc = one_body_expectation(Phi, pMp) / N
    alpha_n = alpha_number_onebody(state, projections)
    opnorm = float(np.linalg.norm(M, 2))
    return {
        "lhs": float(abs(lhs_full - lhs_loc)),
        "rhs": 3.0 * opnorm * math.sqrt(alpha_n),
    }


# ---------------------------------------------------------------------------
# co-evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxRecord:
    time: float
    alpha_n: float
    alpha_m: tuple[float, ...]
    beta: float
    e_gauge: float
    bad_kinetic: float
    norm_diff_aux_gauged: float


@dataclass(frozen=True)
class AuxiliaryRun:
    records: tuple[AuxRecord, ...]
    aux_snapshots: tuple[ManyBodyState, ...]
    exact_snapshots: tuple[ManyBodyState, ...]


def csv_header(gammas: tuple[float, ...]) -> list[str]:
    cols = ["t", "alpha_n"]
    cols += [f"alpha_m_g{gamma_suffix(g)}" for g in gammas]
    cols += ["beta", "Eg", "bad_kinetic", "norm_diff_aux_gauged"]
    return cols


def write_records_csv(records, gammas: tuple[float, ...], path) -> None:
    lines = [",".join(csv_header(gammas))]
    rec: AuxRecord
    for rec in records:
        row = [rec.time, rec.alpha_n, *rec.alpha_m, rec.beta, rec.e_gauge,
               rec.bad_kinetic, rec.norm_diff_aux_gauged]
        lines.append(",".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_auxiliary(
    initial: OrbitalSet,
    potential: InteractionPotential,
    t_final: float,
    dt: float,
    gammas: tuple[float, ...] = DEFAULT_GAMMAS,
    snapshot_every: int | None = None,
) -> AuxiliaryRun:
    """Co-evolve the truncated, mean-field, and exact dynamics from a Slater start.

    The truncated state steps with midpoint-frozen exponentials whose
    generator is rebuilt from the mid-step gauged orbitals; the mean-field
    orbitals advance with half-steps of the splitting integrator, and the
    exact state rides the static Hamiltonian.  Records are taken on the
    snapshot cadence (always including the endpoints).
    """
    if initial.time != 0.0:
        raise ConfigError("auxiliary runs start at time zero (gauge phase is trivial there)")
    grid, eps = initial.grid, initial.epsilon
    n_steps, recorded = step_schedule(t_final, dt, snapshot_every)

    basis = ConfigBasis(n_modes=grid.total_sites, n_particles=initial.N)
    base = base_interactions(potential)
    H_exact = build_hamiltonian(basis, potential, eps)
    kinetic = lift_one_body(basis, dense_kinetic(grid)).toarray()
    L = grid.total_sites
    triple = np.zeros((L**3, L**3), dtype=np.complex128) if initial.N >= 3 else None

    psi0 = slater_state(initial, basis)
    exact_records = propagate(psi0, H_exact, [step * dt for step in sorted(recorded) if step])
    phi = initial

    records, aux_snaps, exact_snaps = [], [], []

    def take_record(t: float, aux_state, exact_state, phi_state) -> None:
        psi_t = gauge_orbitals(phi_state, potential)
        proj = build_projections(psi_t)
        masses = sector_masses(aux_state, proj)
        N = basis.n_particles
        a_n = float(np.dot(weight_number(N), masses))
        a_m = tuple(float(np.dot(weight_threshold(N, g), masses)) for g in gammas)
        gen_t = build_aux_generator(base, psi_t, t, basis, proj, kinetic, triple)
        e_g = direct_energy(psi_t, potential)
        beta = energy_excess(aux_state, gen_t, e_g)
        bad = complement_kinetic(aux_state, psi_t, proj)
        gauged_exact = gauge_manybody(exact_state, t, eps, potential)
        diff = float(np.linalg.norm(aux_state.amplitudes - gauged_exact.amplitudes))
        records.append(AuxRecord(
            time=t, alpha_n=a_n, alpha_m=a_m, beta=beta, e_gauge=e_g,
            bad_kinetic=bad, norm_diff_aux_gauged=diff,
        ))
        aux_snaps.append(aux_state)
        exact_snaps.append(exact_state)

    take_record(0.0, psi0, psi0, phi)
    amps = psi0.amplitudes
    for step in range(1, n_steps + 1):
        t_mid = (step - 0.5) * dt
        t_next = step * dt
        phi_mid = hartree_step(phi, potential, 0.5 * dt, t_mid)
        phi = hartree_step(phi_mid, potential, 0.5 * dt, t_next)
        psi_mid = gauge_orbitals(phi_mid, potential)
        gen = build_aux_generator(
            base, psi_mid, t_mid, basis, build_projections(psi_mid), kinetic, triple
        )
        amps = expm_multiply_hermitian(gen.matvec, amps, -1j * dt * gen.epsilon)
        if not np.all(np.isfinite(amps)):
            raise NumericalFailure(f"non-finite truncated amplitudes at step {step}")
        if step in recorded:
            take_record(t_next, ManyBodyState(basis, amps, t_next), next(exact_records), phi)

    return AuxiliaryRun(
        records=tuple(records),
        aux_snapshots=tuple(aux_snaps),
        exact_snapshots=tuple(exact_snaps),
    )


# ---------------------------------------------------------------------------
# gauge-frame diagnostic
# ---------------------------------------------------------------------------


def gauge_frame_residual(
    initial: OrbitalSet,
    potential: InteractionPotential,
    t: float,
    dt: float = 1e-4,
) -> float:
    """Relative defect of i d/dt Psi_gauge = eps H_gauge Psi_gauge at time t.

    The time derivative is a centred difference of the gauged exact
    evolution; the generator is the untruncated kernel expansion.  On the
    lattice the two sides differ by discretisation terms that shrink under
    grid refinement; this is a diagnostic, not an identity.
    """
    grid, eps = initial.grid, initial.epsilon
    basis = ConfigBasis(n_modes=grid.total_sites, n_particles=initial.N)
    base = base_interactions(potential)
    H = build_hamiltonian(basis, potential, eps)
    psi0 = slater_state(initial, basis)
    times = (t - dt, t, t + dt)
    states = propagate(psi0, H, [max(s, 0.0) for s in times])
    minus, mid, plus = (
        gauge_manybody(st, s, eps, potential).amplitudes
        for st, s in zip(states, times)
    )
    Hg = full_gauged_hamiltonian(base, basis, t, eps)
    rhs = eps * (Hg.matrix @ mid)
    lhs = 1j * (plus - minus) / (2.0 * dt)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-30))
