"""Release acceptance suite.

One test per acceptance criterion, run in order.  Each test prints a banner
line with PASS/FAIL, the measured values, and the elapsed time, then asserts
the stated tolerance — so ``pytest tests/test_acceptance.py -v -s`` reads as
a checklist.  Criteria with a stated runtime budget also assert the budget.

The headline mean-field convergence statement is asymptotic in the particle
number with unspecified constants, so it is not checkable directly at desk
scale; criterion 12 stands in with a qualitative trend run (the dictionary
comparison at the final time must shrink when N grows), and the rest of the
suite checks exact algebraic identities, inequality constants, integrator
orders, and oracle agreement at their native tolerances.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from mflab.auxiliary import (
    base_interactions,
    full_gauged_hamiltonian,
    observable_localization_bound,
    run_auxiliary,
    rw_crosscheck,
    truncate_interaction,
)
from mflab.cli import main as cli_main
from mflab.counting import (
    SlotSpace,
    alpha,
    alpha_number_onebody,
    apply_weight,
    build_projections,
    lemma_suite,
    sector_project,
    shifted,
    weight_complement,
    weight_number,
    weight_sqrt,
    weight_threshold,
    _random_projections,
)
from mflab.gauge import (
    _generator,
    covariant_apply,
    gauge_orbitals,
    mean_field_forces,
    run_gauged,
)
from mflab.grid import Grid, dense_kinetic, norm_l2
from mflab.hartree import (
    OrbitalSet,
    gram_matrix,
    hartree_energy,
    run_hartree,
)
from mflab.manybody import (
    ConfigBasis,
    build_hamiltonian,
    gauge_manybody,
    lift_one_body,
    lift_two_body,
    observe,
    propagate,
    propagate_dense,
    random_state,
    rdm1,
    slater_state,
)
from mflab.model import InitialFamily, build_potential, epsilon_for, make_orbitals

# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _report(num: int, title: str, ok: bool, detail: str,
            elapsed: float, budget: float | None = None) -> None:
    print()
    print("=" * 74)
    status = "PASS" if ok else "FAIL"
    budget_note = f" / budget {budget:.0f}s" if budget is not None else ""
    print(f"{status}  [{num:02d}] {title}   ({elapsed:.1f}s{budget_note})")
    print(f"      {detail}")
    assert ok, f"criterion {num:02d} ({title}): {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num:02d} exceeded {budget}s: {elapsed:.1f}s"


def random_orbital_set(grid, N, rng, epsilon=0.5):
    L = grid.total_sites
    M = rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N))
    Q, _ = np.linalg.qr(M)
    values = (Q.T / math.sqrt(grid.cell_volume)).reshape((N,) + grid.shape)
    return OrbitalSet(grid, values, 0.0, epsilon)


def localized_system(sites=16, N=2, box=8.0):
    """The trend-run configuration: lattice kinetic, localized bumps."""
    grid = Grid(dim=1, sites_per_dim=sites, box_length=box, kinetic_mode="lattice")
    pot = build_potential(grid, "gaussian", amplitude=1.0, width=3.0)
    state = make_orbitals(InitialFamily("localized", width=1.2), N, grid)
    return grid, pot, state


def smooth_system(N=3):
    """Well-resolved spectral configuration for integrator-order checks."""
    grid = Grid(dim=1, sites_per_dim=64, box_length=10.0, kinetic_mode="spectral")
    pot = build_potential(grid, "gaussian", amplitude=2.0, width=1.0)
    state = make_orbitals(InitialFamily("localized", width=0.6), N, grid)
    return grid, pot, state


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_01_weight_operator_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    N, L = 3, 8
    basis = ConfigBasis(L, N)
    f = weight_number(N)
    g = weight_threshold(N, 0.5)
    fg = f * g

    worst_orth = worst_complete = worst_product = worst_shift = 0.0
    for _ in range(200):
        proj = _random_projections(L, N, rng)
        state = random_state(basis, rng)
        comps = [sector_project(state, k, proj) for k in range(N + 1)]
        for k in range(N + 1):
            for j in range(k + 1, N + 1):
                worst_orth = max(worst_orth, abs(
                    np.vdot(comps[k].amplitudes, comps[j].amplitudes)))
        total = sum(c.amplitudes for c in comps)
        worst_complete = max(worst_complete, float(
            np.linalg.norm(total - state.amplitudes)))

        two_step = apply_weight(apply_weight(state, g, proj), f, proj)
        one_step = apply_weight(state, fg, proj)
        worst_product = max(worst_product, float(
            np.max(np.abs(two_step.amplitudes - one_step.amplitudes))))

        space = SlotSpace(proj, N)
        T = space.embed(state)
        for r in (1, 2, 3):
            slots = tuple(range(r))
            A = rng.standard_normal((L**r, L**r)) + 1j * rng.standard_normal((L**r, L**r))
            A /= np.linalg.norm(A)
            a_sec = int(rng.integers(0, r + 1))
            b_sec = int(rng.integers(0, r + 1))
            sandwich = space.sector(
                space.apply_on_slots(space.sector(T, b_sec, slots), A, slots),
                a_sec, slots)
            lhs = space.weight(sandwich, f)
            rhs = space.sector(
                space.apply_on_slots(
                    space.sector(space.weight(T, shifted(f, a_sec - b_sec)), b_sec, slots),
                    A, slots),
                a_sec, slots)
            worst_shift = max(worst_shift, float(np.max(np.abs(lhs - rhs))))

    elapsed = time.perf_counter() - start
    ok = (worst_orth < 1e-12 and worst_complete < 1e-12
          and worst_product < 1e-13 and worst_shift < 1e-12)
    _report(1, "weight-operator algebra (200 states, N=3, 8 modes)", ok,
            f"orthogonality {worst_orth:.2e} (<1e-12), completeness {worst_complete:.2e} "
            f"(<1e-12), product rule {worst_product:.2e} (<1e-13), "
            f"shift identity r=1..3 {worst_shift:.2e} (<1e-12)",
            elapsed, budget=30.0)


def test_02_conversion_inequality_suite():
    start = time.perf_counter()
    report = lemma_suite(seed=2024, trials=200)
    elapsed = time.perf_counter() - start
    checks = sum(rec["trials"] for rec in report.asserted.values())
    ratios = {
        "q_conversion": report.asserted["q_conversion"]["max_ratio"],
        "sqrt_conversion": report.asserted["sqrt_conversion"]["max_ratio"],
        "shifted_complement": report.asserted["shifted_complement"]["max_ratio"],
    }
    ok = report.violation_count == 0
    _report(2, "conversion-bound suite (200 trials, n0 <= 3)", ok,
            f"{checks} asserted checks, {report.violation_count} violations; "
            "max lhs/rhs: " + ", ".join(f"{k} {v:.3f}" for k, v in ratios.items()),
            elapsed, budget=60.0)


def test_03_alpha_two_routes_and_slater_value():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_route = 0.0
    for N, L in ((2, 6), (3, 8), (4, 8)):
        basis = ConfigBasis(L, N)
        for _ in range(40):
            proj = _random_projections(L, N, rng)
            state = random_state(basis, rng)
            a_weights = alpha(weight_number(N), state, proj)
            a_onebody = alpha_number_onebody(state, proj)
            worst_route = max(worst_route, abs(a_weights - a_onebody))

    grid = Grid(dim=1, sites_per_dim=8, box_length=8.0, kinetic_mode="lattice")
    worst_slater = 0.0
    for _ in range(20):
        orbitals = random_orbital_set(grid, 3, rng)
        proj = build_projections(orbitals)
        state = slater_state(orbitals, ConfigBasis(8, 3))
        for w in (weight_number(3), weight_sqrt(3),
                  weight_threshold(3, 0.5), weight_complement(3, 0.5)):
            expected = w[0]
            worst_slater = max(worst_slater, abs(alpha(w, state, proj) - expected))

    elapsed = time.perf_counter() - start
    ok = worst_route < 1e-12 and worst_slater < 1e-13
    _report(3, "counting functional: two routes + Slater value", ok,
            f"route disagreement {worst_route:.2e} (<1e-12), "
            f"|alpha_f - f(0)| on Slater {worst_slater:.2e} (<1e-13)",
            elapsed)


def test_04_reduced_density_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    N, L = 3, 8
    basis = ConfigBasis(L, N)
    grid = Grid(dim=1, sites_per_dim=L, box_length=8.0, kinetic_mode="lattice")

    worst_slater = 0.0
    for _ in range(20):
        orbitals = random_orbital_set(grid, N, rng)
        proj = build_projections(orbitals)
        gamma = rdm1(slater_state(orbitals, basis))
        worst_slater = max(worst_slater, float(np.max(np.abs(gamma - proj.p / N))))

    worst_trace = worst_herm = 0.0
    eig_low, eig_high = np.inf, -np.inf
    for _ in range(50):
        gamma = rdm1(random_state(basis, rng))
        worst_trace = max(worst_trace, abs(float(np.trace(gamma).real) - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(gamma - gamma.conj().T))))
        eigs = np.linalg.eigvalsh(gamma)
        eig_low = min(eig_low, float(eigs[0]))
        eig_high = max(eig_high, float(eigs[-1]))

    elapsed = time.perf_counter() - start
    ok = (worst_slater < 1e-12 and worst_trace < 1e-12 and worst_herm < 1e-12
          and eig_low > -1e-12 and eig_high < 1.0 / N + 1e-12)
    _report(4, "Slater reduced density = p/N; trace and spectrum bounds", ok,
            f"|gamma - p/N| {worst_slater:.2e} (<1e-12), |Tr-1| {worst_trace:.2e}, "
            f"spectrum in [{eig_low:.1e}, {eig_high:.6f}] (cap {1/N:.6f}+1e-12)",
            elapsed)


def test_05_gauge_invariant_comparison():
    start = time.perf_counter()
    from mflab.cli import observable_dictionary

    grid, pot, initial = localized_system(N=3)
    names, observables = observable_dictionary(grid, boxes=8, include_bump=True)
    basis = ConfigBasis(grid.total_sites, 3)
    hamiltonian = build_hamiltonian(basis, pot, initial.epsilon)
    traj = run_hartree(initial, pot, t_final=1.0, dt=1e-3)
    state = slater_state(initial, basis)

    worst = 0.0
    for snap in traj.snapshots:
        state = propagate(state, hamiltonian, snap.time)
        gauged_state = gauge_manybody(state, snap.time, initial.epsilon, pot)
        gauged_snap = gauge_orbitals(snap, pot)
        exact, hart = observe(observables, state, snap)
        gauged_exact, gauged_hart = observe(observables, gauged_state, gauged_snap)
        defect = np.abs(np.abs(exact - hart) - np.abs(gauged_exact - gauged_hart))
        worst = max(worst, float(defect.max()))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-12
    _report(5, "gauge invariance of the dictionary comparison (N=3, t<=1)", ok,
            f"max |comparison(plain) - comparison(gauged)| over "
            f"{len(traj.snapshots)} snapshots x {len(names)} observables: "
            f"{worst:.2e} (<1e-12)",
            elapsed)


def test_06_two_route_gauged_hartree():
    start = time.perf_counter()
    grid, pot, state = smooth_system(N=3)

    def route_gap(dt):
        hart = run_hartree(state, pot, 1.0, dt, snapshot_every=10**9)
        via_gauge = gauge_orbitals(hart.snapshots[-1], pot)
        direct = run_gauged(state, pot, 1.0, dt, snapshot_every=10**9)
        return max(
            norm_l2(a - b, grid) for a, b in zip(via_gauge.values, direct.snapshots[-1].values)
        )

    g2, g1 = route_gap(2e-3), route_gap(1e-3)
    ratio = g2 / g1
    elapsed = time.perf_counter() - start
    ok = 3.5 < ratio < 4.5 and g1 < 1e-5
    _report(6, "two-route agreement: gauge(hartree) vs direct gauged flow", ok,
            f"distance(dt=1e-3) {g1:.2e} (<1e-5), Richardson ratio {ratio:.3f} "
            f"(in [3.5, 4.5])",
            elapsed, budget=120.0)


def test_07_conservation_laws():
    start = time.perf_counter()
    grid, pot, state = smooth_system(N=3)

    traj = run_hartree(state, pot, t_final=1.0, dt=2e-3)
    worst_orth = max(
        float(np.max(np.abs(gram_matrix(s) - np.eye(s.N)))) for s in traj.snapshots
    )
    e0 = hartree_energy(state, pot)

    def drift(dt):
        run = run_hartree(state, pot, t_final=1.0, dt=dt)
        return max(abs(hartree_energy(s, pot) - e0) for s in run.snapshots)

    d4, d2 = drift(4e-3), drift(2e-3)
    ratio = d4 / d2

    lat_grid, lat_pot, lat_state = localized_system(N=3)
    basis = ConfigBasis(lat_grid.total_sites, 3)
    hamiltonian = build_hamiltonian(basis, lat_pot, lat_state.epsilon)
    psi = slater_state(lat_state, basis)
    h0 = float(np.vdot(psi.amplitudes, hamiltonian.matrix @ psi.amplitudes).real)
    norm_drift = energy_drift = 0.0
    for k in range(1, 101):
        psi = propagate(psi, hamiltonian, 0.01 * k)
        norm_drift = max(norm_drift, abs(float(np.linalg.norm(psi.amplitudes)) - 1.0))
        h_now = float(np.vdot(psi.amplitudes, hamiltonian.matrix @ psi.amplitudes).real)
        energy_drift = max(energy_drift, abs(h_now - h0))

    elapsed = time.perf_counter() - start
    ok = (worst_orth < 1e-10 and 3.0 < ratio < 5.0 and d4 > 1e-12
          and norm_drift < 1e-10 and energy_drift < 1e-10)
    _report(7, "conservation: orthonormality, energy-drift order, norm, <H>", ok,
            f"orthonormality {worst_orth:.2e} (<1e-10), drift ratio {ratio:.3f} "
            f"(~4x), many-body norm drift {norm_drift:.2e} and <H> drift "
            f"{energy_drift:.2e} (<1e-10)",
            elapsed)


def test_08_krylov_vs_dense_oracle():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for sites in (4, 6, 8, 10, 12, 14, 16):
        grid = Grid(dim=1, sites_per_dim=sites, box_length=8.0, kinetic_mode="lattice")
        pot = build_potential(grid, "cosine_sum", amplitudes=[0.8], offset=0.3)
        for N in range(1, 6):
            if N > sites or math.comb(sites, N) > 400:
                continue
            basis = ConfigBasis(sites, N)
            state = slater_state(
                make_orbitals(InitialFamily("delocalized"), N, grid), basis)
            hamiltonian = build_hamiltonian(basis, pot, epsilon_for(N))
            krylov = propagate(state, hamiltonian, 0.5)
            dense = propagate_dense(state, hamiltonian, 0.5)
            worst = max(worst, float(
                np.linalg.norm(krylov.amplitudes - dense.amplitudes)))
            cases += 1

    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and cases >= 20
    _report(8, "Krylov vs dense exponential on all bases of dim <= 400", ok,
            f"{cases} bases, worst amplitude-vector distance {worst:.2e} (<1e-10)",
            elapsed, budget=60.0)


def test_09_rw_trace_formulas_and_generator_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    configs = [(1, 12, "lattice"), (1, 12, "spectral"), (2, 6, "lattice")]

    worst_r = worst_w = worst_form = 0.0
    for dim, sites, mode in configs:
        grid = Grid(dim=dim, sites_per_dim=sites, box_length=6.0, kinetic_mode=mode)
        pot = build_potential(grid, "cosine_sum", amplitudes=[0.9, 0.4], offset=0.2)
        for N in (2, 3):
            state = random_orbital_set(grid, N, rng)
            defects = rw_crosscheck(state, pot)
            worst_r = max(worst_r, defects["R_defect"])
            worst_w = max(worst_w, defects["W_defect"])

            moved = replace(state, time=0.8)
            forces = mean_field_forces(moved, pot)
            probe = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            a = covariant_apply(probe, forces, 0.5, grid)
            b = _generator(forces, 0.5, grid)(probe[..., None])[..., 0]
            scale = max(1.0, float(np.max(np.abs(a))))
            worst_form = max(worst_form, float(np.max(np.abs(a - b))) / scale)

    elapsed = time.perf_counter() - start
    ok = worst_r < 1e-10 and worst_w < 1e-10 and worst_form < 1e-11
    _report(9, "R/W trace formulas and gauged-generator forms", ok,
            f"R defect {worst_r:.2e}, W defect {worst_w:.2e} (<1e-10); "
            f"covariant vs expanded {worst_form:.2e} (<1e-11)",
            elapsed)


def test_10_truncation_reconstruction_and_auxiliary_flow():
    start = time.perf_counter()
    grid, pot, state = localized_system(sites=8, N=2)
    eps = state.epsilon
    t_probe = 0.6

    base = base_interactions(pot)
    moved = replace(state, time=t_probe)
    proj = build_projections(gauge_orbitals(moved, pot))
    w2 = t_probe * eps * base.pair_momentum \
        + (t_probe * eps) ** 2 * np.diag(base.pair_diag)
    truncation = truncate_interaction(w2, proj.p, proj.q, r=2)

    basis = ConfigBasis(grid.total_sites, 2)
    full = full_gauged_hamiltonian(base, basis, t_probe, eps)
    split = (lift_one_body(basis, dense_kinetic(grid))
             + lift_two_body(basis, truncation.kept)
             + lift_two_body(basis, truncation.discarded))
    operator_defect = float(np.max(np.abs((split - full.matrix).toarray())))

    run = run_auxiliary(state, pot, t_final=0.5, dt=2.5e-3)
    norm_drift = max(
        abs(float(np.linalg.norm(s.amplitudes)) - 1.0) for s in run.aux_snapshots
    )
    start_exact = (
        np.array_equal(run.aux_snapshots[0].amplitudes,
                       run.exact_snapshots[0].amplitudes)
        and run.records[0].norm_diff_aux_gauged == 0.0
    )

    free_pot = build_potential(grid, "cosine_sum", amplitudes=[], offset=0.4)
    free_run = run_auxiliary(state, free_pot, t_final=0.5, dt=2.5e-3)
    worst_free = max(rec.norm_diff_aux_gauged for rec in free_run.records)

    elapsed = time.perf_counter() - start
    ok = (truncation.reconstruction_defect < 1e-10 and operator_defect < 1e-10
          and norm_drift < 1e-8 and start_exact and worst_free < 1e-9)
    _report(10, "truncation reconstruction and auxiliary co-evolution (N=2)", ok,
            f"kernel defect {truncation.reconstruction_defect:.2e}, operator defect "
            f"{operator_defect:.2e} (<1e-10); norm drift {norm_drift:.2e} (<1e-8); "
            f"start exact: {start_exact}; zero-force distance {worst_free:.2e} (<1e-9)",
            elapsed)


def test_11_observable_localization_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(1111)
    N, L = 3, 8
    basis = ConfigBasis(L, N)
    violations = 0
    min_slack = np.inf
    for _ in range(100):
        proj = _random_projections(L, N, rng)
        state = random_state(basis, rng)
        X = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        M = 0.5 * (X + X.conj().T)
        bound = observable_localization_bound(M, state, proj)
        if bound["lhs"] > bound["rhs"] * (1 + 1e-12) + 1e-15:
            violations += 1
        min_slack = min(min_slack, bound["rhs"] - bound["lhs"])

    elapsed = time.perf_counter() - start
    ok = violations == 0
    _report(11, "Cauchy-Schwarz observable bound (100 random triples)", ok,
            f"violations {violations}, minimum slack rhs-lhs {min_slack:.3e}",
            elapsed)


def test_12_mean_field_trend(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "trend"
    code = cli_main([
        "compare", "--out", str(out), "--override", "scaling.n=2,3,4",
    ])
    assert code == 0

    import csv

    max_alpha = {}
    for N in (2, 3, 4):
        with open(out / f"compare_N{N}.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        max_alpha[N] = max(float(r["alpha_n"]) for r in rows)
    summary = json.loads((out / "compare_summary.json").read_text())
    finals = {N: summary[f"N{N}"]["final_comparison_max"] for N in (2, 3, 4)}

    elapsed = time.perf_counter() - start
    ok = all(a < 0.5 for a in max_alpha.values()) and finals[4] < finals[2]
    _report(12, "mean-field trend (localized, lattice, N=2,3,4, t_final=1)", ok,
            "final comparison: " + ", ".join(f"N={n}: {v:.3e}" for n, v in finals.items())
            + "; max alpha_n: " + ", ".join(f"N={n}: {v:.1e}" for n, v in max_alpha.items())
            + "; N=4 < N=2: " + str(finals[4] < finals[2]),
            elapsed, budget=900.0)
