"""Potentials, the coupling rule, time schedules, and initial orbital families."""

import numpy as np
import pytest

import mflab.model as model
from mflab.errors import ConfigError, ContractViolation, NumericalFailure
from mflab.grid import Grid, dense_gradient, dense_kinetic, gradient, norm_l2
from mflab.hartree import density, diagnostics, orthonormality_defect
from mflab.model import (
    InitialFamily,
    assumption_diagnostics,
    build_potential,
    epsilon_for,
    make_orbitals,
    step_schedule,
)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "kind,params",
    [
        ("gaussian", dict(amplitude=1.3, width=0.8)),
        ("cosine_sum", dict(amplitudes=[0.5, -0.2], offset=0.1)),
    ],
)
def test_potential_even_and_force_consistent(dim, kind, params):
    grid = Grid(dim=dim, sites_per_dim=24, box_length=6.0)
    pot = build_potential(grid, kind, **params)
    vals = pot.v
    assert vals.dtype == pot.force.dtype == np.float64
    assert pot.force.shape == (dim,) + grid.shape
    rev = vals
    for axis in range(dim):
        rev = np.roll(np.flip(rev, axis=axis), 1, axis=axis)
    assert np.max(np.abs(vals - rev)) < 1e-12
    # the stored force is the spectral gradient of v (the grid is spectral)
    for g, f in zip(gradient(pot.v, grid), pot.force):
        assert np.max(np.abs(g - f)) < 1e-12


def test_potential_guards():
    grid = Grid(dim=1, sites_per_dim=16, box_length=4.0)
    with pytest.raises(ConfigError):
        build_potential(grid, "gaussian", amplitude=1.0, width=0.1)
    with pytest.raises(ConfigError):
        build_potential(grid, "cosine_sum", amplitudes=[1.0] * 8)
    with pytest.raises(ConfigError):
        build_potential(grid, "lennard_jones")
    with pytest.raises(TypeError):  # each parameter is named, so a typo is no default
        build_potential(grid, "gaussian", widht=2.0, amplitud=5)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("cosine_sum", dict(amplitudes=[np.nan])),
        ("cosine_sum", dict(offset=np.inf)),
        ("gaussian", dict(amplitude=1e308, width=1e3)),  # three images of 1e308 overflow
    ],
)
def test_potential_that_is_not_finite_is_a_numerical_failure(kind, params):
    grid = Grid(dim=1, sites_per_dim=32, box_length=8.0, kinetic_mode="lattice")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure):
        build_potential(grid, kind, **params)


def test_potential_evenness_check_refuses_a_nan_defect(monkeypatch):
    """NaN compares False with the tolerance, so the check is ``not defect <= tol``.
    The NaN reaches it through the reflection of v, the call after the force's."""
    grid = Grid(dim=1, sites_per_dim=32, box_length=8.0, kinetic_mode="lattice")
    reflect, calls = model._reflect, []

    def nan_for_v(vals):
        calls.append(None)
        return reflect(vals) if len(calls) <= grid.dim else np.full_like(vals, np.nan)

    monkeypatch.setattr(model, "_reflect", nan_for_v)
    with pytest.raises(ContractViolation, match="not even"):
        build_potential(grid, "gaussian", width=2.0)


def test_epsilon_rules():
    assert abs(epsilon_for(8, "standard") - 8 ** (-2 / 3)) < 1e-15
    # N^(1/dim - 1): trivial in 1d, matches the standard rule in 3d
    assert abs(epsilon_for(8, "dimension_adapted", dim=1) - 1.0) < 1e-15
    assert abs(epsilon_for(8, "dimension_adapted", dim=3) - 8 ** (-2 / 3)) < 1e-15
    grid = Grid(dim=2, sites_per_dim=8, box_length=1.0)
    assert abs(epsilon_for(4, "dimension_adapted", grid.dim) - 4 ** (-0.5)) < 1e-15
    family = InitialFamily("delocalized")
    assert make_orbitals(family, 4, grid).epsilon == epsilon_for(4)
    assert make_orbitals(family, 4, grid, 0.3).epsilon == 0.3
    with pytest.raises(ConfigError):
        make_orbitals(family, 0, grid)
    with pytest.raises(ConfigError, match="epsilon_rule must be one of"):
        epsilon_for(2, "cubic")


def test_delocalized_orbitals_are_lowest_plane_waves():
    grid = Grid(dim=1, sites_per_dim=16, box_length=5.0)
    state = make_orbitals(InitialFamily("delocalized"), 3, grid)
    assert orthonormality_defect(state) < 1e-13
    x = grid.axis_coordinates()
    amp = grid.box_length**-0.5
    expected_modes = [0, 1, -1]
    for phi, m in zip(state.values, expected_modes):
        wave = amp * np.exp(2j * np.pi * m / grid.box_length * x)
        assert norm_l2(phi, grid) == pytest.approx(1.0, abs=1e-12)
        overlap = grid.cell_volume * np.vdot(wave, phi)
        assert abs(abs(overlap) - 1.0) < 1e-12
    rho = density(state.values)
    assert np.max(np.abs(rho - 3.0 / grid.box_length)) < 1e-12


def test_delocalized_fill_order_2d():
    grid = Grid(dim=2, sites_per_dim=8, box_length=4.0)
    state = make_orbitals(InitialFamily("delocalized"), 5, grid)
    assert orthonormality_defect(state) < 1e-12
    # shells: (0,0) then |m|^2 = 1 with (0,+1) < (0,-1) < (+1,0) < (-1,0)
    # under the (|m|, sign) per-component tie break applied left to right
    kx, ky = grid.wavenumber_mesh()
    seen = []
    for phi in state.values:
        spec = np.abs(np.fft.fftn(phi))
        loc = np.unravel_index(np.argmax(spec), spec.shape)
        kvec = (kx[loc], ky[loc])
        seen.append(
            tuple(int(round(c * grid.box_length / (2 * np.pi))) for c in kvec)
        )
    assert seen[0] == (0, 0)
    assert set(seen[1:]) == {(0, 1), (0, -1), (1, 0), (-1, 0)}


def test_localized_orbitals_orthonormal_and_centred():
    grid = Grid(dim=1, sites_per_dim=32, box_length=8.0)
    state = make_orbitals(InitialFamily("localized", width=0.5), 4, grid)
    assert orthonormality_defect(state) < 1e-12
    x = grid.axis_coordinates()
    for j, phi in enumerate(state.values):
        peak = x[np.argmax(np.abs(phi))]
        assert abs(peak - (j + 0.5) * 2.0) < grid.spacing + 1e-12


def test_localized_overlap_conditioning_guard():
    grid = Grid(dim=1, sites_per_dim=32, box_length=8.0)
    with pytest.raises(NumericalFailure):
        make_orbitals(InitialFamily("localized", width=1.5), 8, grid)


def three_images(coord, centre, width, box):
    """The bump summed over the images -1, 0, 1 only, in that order."""
    off = np.mod(coord - centre + 0.5 * box, box) - 0.5 * box
    total = np.zeros_like(off)
    for img in (-1.0, 0.0, 1.0):
        total += np.exp(-((off + img * box) ** 2) / (2.0 * width**2))
    return total


@pytest.mark.parametrize("sites", [8, 16, 20])
def test_default_localized_orbitals_are_unchanged_by_the_image_sum(sites, monkeypatch):
    """At the default width 1.2 on box 8 the images past +-1 are below roundoff."""
    grid = Grid(dim=1, sites_per_dim=sites, box_length=8.0)
    family = InitialFamily("localized", width=1.2)
    summed = [make_orbitals(family, N, grid).values for N in (1, 2, 3, 4)]
    monkeypatch.setattr(model, "_periodic_bump", three_images)
    for N, values in zip((1, 2, 3, 4), summed):
        np.testing.assert_array_equal(values, make_orbitals(family, N, grid).values)


def test_wide_bumps_sum_every_image_before_the_conditioning_check(monkeypatch):
    """N=4 at width 3.5 on the default 16-site grid is ill-conditioned once the
    images are summed to roundoff; only the three-image truncation let it pass."""
    grid = Grid(dim=1, sites_per_dim=16, box_length=8.0)
    family = InitialFamily("localized", width=3.5)
    with pytest.raises(NumericalFailure, match=r"cond 6\.\d\de\+12"):
        make_orbitals(family, 4, grid)
    monkeypatch.setattr(model, "_periodic_bump", three_images)
    assert make_orbitals(family, 4, grid).N == 4  # the truncated tail passes the check


def test_localized_width_resolution_guard():
    grid = Grid(dim=1, sites_per_dim=8, box_length=8.0)
    with pytest.raises(ConfigError):
        make_orbitals(InitialFamily("localized", width=0.5), 2, grid)


def test_assumption_diagnostics_flat_vs_bumpy():
    grid = Grid(dim=1, sites_per_dim=32, box_length=8.0)
    flat = make_orbitals(InitialFamily("delocalized"), 3, grid)
    bumpy = make_orbitals(InitialFamily("localized", width=0.4), 3, grid)
    rep_flat = assumption_diagnostics(flat)
    rep_bumpy = assumption_diagnostics(bumpy)
    assert rep_flat.grad_rho_l1 < 1e-10  # constant density
    assert rep_bumpy.grad_rho_l1 > 1.0
    assert rep_flat.d_value >= 1.0 and rep_bumpy.d_value >= 1.0
    assert rep_bumpy.kin_grad_scaled > rep_flat.kin_grad_scaled


def test_assumption_diagnostics_formula():
    grid = Grid(dim=1, sites_per_dim=16, box_length=4.0)
    state = make_orbitals(InitialFamily("localized", width=0.6), 2, grid)
    rep = assumption_diagnostics(state)
    sum_grad = sum(norm_l2(gradient(phi, grid)[0], grid) ** 2 for phi in state.values)
    assert rep.kin_grad_scaled == pytest.approx(2.0 ** (-5 / 3) * sum_grad, rel=1e-12)
    expected_d = max(2.0 ** (-5 / 6) * np.sqrt(sum_grad), rep.d_value, 1.0)
    assert rep.d_value <= expected_d + 1e-12

    # lattice mode: the moments use the centred-difference gradient and the
    # nearest-neighbour kinetic, and hartree's d_value is the same number
    grid = Grid(dim=1, sites_per_dim=16, box_length=4.0, kinetic_mode="lattice")
    state = make_orbitals(InitialFamily("localized", width=0.6), 2, grid)
    rep = assumption_diagnostics(state)
    A = state.value_matrix()
    sum_grad = grid.cell_volume * np.linalg.norm(dense_gradient(grid)[0] @ A) ** 2
    sum_lap = grid.cell_volume * np.linalg.norm(dense_kinetic(grid) @ A) ** 2
    assert rep.kin_grad_scaled == pytest.approx(2.0 ** (-5 / 3) * sum_grad, rel=1e-12)
    assert rep.kin_lap_scaled == pytest.approx(2.0 ** (-7 / 3) * sum_lap, rel=1e-12)
    assert rep.d_value > 1.0
    pot = build_potential(grid, "gaussian", amplitude=1.0, width=1.0)
    assert diagnostics(state, pot).d_value == rep.d_value


def test_orbital_count_guard():
    grid = Grid(dim=1, sites_per_dim=4, box_length=4.0)
    with pytest.raises(ConfigError):
        make_orbitals(InitialFamily("delocalized"), 5, grid)


def test_step_schedule_takes_a_positive_integer_cadence():
    assert step_schedule(1.0, 0.1, 3) == (10, frozenset({0, 3, 6, 9, 10}))
    assert step_schedule(1.0, 0.1) == (10, frozenset(range(11)))
    for every in (0, -3, 2.5):
        with pytest.raises(ConfigError, match="snapshot_every"):
            step_schedule(1.0, 0.1, every)


def test_step_budget_rejects_unrunnable_schedules():
    assert step_schedule(1.0, 1e-6)[0] == 10**6
    with pytest.raises(ConfigError, match="budget"):
        step_schedule(0.02, 1e-300)  # 2e298 steps
    with pytest.raises(ConfigError, match="budget"):
        step_schedule(0.02, 1e-320)  # the quotient overflows to inf


def test_huge_widths_give_flat_profiles_not_overflow():
    grid = Grid(dim=1, sites_per_dim=16, box_length=8.0)
    with np.errstate(over="ignore"):
        pot = build_potential(grid, "gaussian", amplitude=1.0, width=1e300)
        assert np.all(pot.v == 3.0)  # three periodic images of exp(0)
        assert np.all(pot.force == 0.0)
        state = make_orbitals(InitialFamily("localized", width=1e300), 1, grid)
    assert np.allclose(np.abs(state.values[0]), state.values[0, 0])
