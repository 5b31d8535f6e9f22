"""Krylov exponential against dense references."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, expm

from mflab import _lanczos
from mflab._lanczos import (
    _eigh_tridiagonal,
    _norm,
    expm_multiply_hermitian,
    expm_multiply_hermitian_times,
)
from mflab.errors import NumericalFailure
from mflab.gauge import run_gauged
from mflab.grid import Grid
from mflab.model import InitialFamily, build_potential, make_orbitals


def random_hermitian(n, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


@pytest.mark.parametrize("scale", [-0.3j, -1.7j, -0.25, 2.0j])
def test_matches_dense_expm(scale):
    rng = np.random.default_rng(42)
    A = random_hermitian(60, rng)
    v = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    got = expm_multiply_hermitian(lambda x: A @ x, v, scale)
    want = expm(scale * A) @ v
    assert np.linalg.norm(got - want) < 1e-11 * np.linalg.norm(want)


def test_unitary_for_imaginary_scale():
    rng = np.random.default_rng(0)
    A = random_hermitian(40, rng)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    out = expm_multiply_hermitian(lambda x: A @ x, v, -0.9j)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)


def test_shaped_arrays_supported():
    rng = np.random.default_rng(1)
    n = 16
    diag = rng.standard_normal((n, n))
    v = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))

    def matvec(x):
        return diag[..., None] * x

    got = expm_multiply_hermitian(matvec, v, -0.5j)
    want = np.exp(-0.5j * diag)[..., None] * v
    assert np.max(np.abs(got - want)) < 1e-12


def test_invariant_subspace_is_exact():
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    v = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    got = expm_multiply_hermitian(lambda x: A @ x, v, -1j)
    want = np.exp(-2j) * v
    assert np.max(np.abs(got - want)) < 1e-14


def test_zero_vector_passthrough():
    out = expm_multiply_hermitian(lambda x: x, np.zeros(5, dtype=complex), -1j)
    assert np.all(out == 0)


def test_non_hermitian_rejected():
    A = np.diag([1j, 2j, 3j])  # anti-hermitian: complex Rayleigh quotients
    v = np.ones(3, dtype=complex)
    with pytest.raises(NumericalFailure):
        expm_multiply_hermitian(lambda x: A @ x, v, -1j)


def test_non_finite_coefficient_is_numerical_failure():
    A = np.diag([1.0, np.inf, 3.0])
    v = np.ones(3, dtype=complex)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure, match="non-finite"):
        expm_multiply_hermitian(lambda x: A @ x, v, -1j)


@pytest.mark.parametrize("n", range(1, 13))
def test_direct_tridiagonal_solve_is_bit_identical_to_scipy(n):
    rng = np.random.default_rng(60 + n)
    d = rng.standard_normal(n)
    e = np.abs(rng.standard_normal(n - 1))  # Lanczos betas are norms
    w, v = _eigh_tridiagonal(d, e)
    want_w, want_v = eigh_tridiagonal(d, e, check_finite=False)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert w.dtype == want_w.dtype and v.strides == want_v.strides


def test_failed_tridiagonal_solve_is_numerical_failure(monkeypatch):
    def failing_stevd(d, e):
        return d.copy(), np.eye(len(d)), 2

    monkeypatch.setattr(_lanczos, "_stevd", failing_stevd)
    A = np.diag([1.0, 2.0, 3.0]) + np.diag([0.5, 0.5], 1) + np.diag([0.5, 0.5], -1)
    v = np.ones(3, dtype=complex)
    with pytest.raises(NumericalFailure, match="stevd"):
        expm_multiply_hermitian(lambda x: A @ x, v, -1j)


@pytest.mark.parametrize("shape", [(7,), (16, 3), (4, 5, 2)])
def test_inline_norm_is_bit_identical_to_numpy(shape):
    rng = np.random.default_rng(len(shape))
    real = rng.standard_normal(shape)
    cplx = real + 1j * rng.standard_normal(shape)
    for x in (real, cplx, cplx.T, cplx[..., ::2]):
        assert _norm(x) == np.linalg.norm(x)


def _spaces(monkeypatch):
    """Record (scales asked for, scales served) of every multi-scale Krylov space."""
    segment, log = _lanczos._krylov_segment, []

    def logged(matvec, v, scales):
        out = segment(matvec, v, scales)
        log.append((len(scales), None if out is None else len(out[1])))
        return out

    monkeypatch.setattr(_lanczos, "_krylov_segment", logged)
    return log


@pytest.mark.parametrize("max_krylov", [80, 30])
def test_time_sequence_matches_dense_expm_across_restarts(monkeypatch, max_krylov):
    """A long span served by several spaces: each stops once a further time
    would raise the work per served time (or at MAX_KRYLOV) and serves a prefix."""
    rng = np.random.default_rng(70)
    A = random_hermitian(60, rng)
    v = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    times = np.linspace(0.0, 6.0, 31)
    monkeypatch.setattr(_lanczos, "MAX_KRYLOV", max_krylov)
    log = _spaces(monkeypatch)
    got = list(expm_multiply_hermitian_times(lambda x: A @ x, v, -1j, times))
    assert len(got) == len(times)
    assert got[0] is v
    for t, out in zip(times, got):
        want = expm(-1j * t * A) @ v
        assert np.linalg.norm(out - want) < 1e-11 * np.linalg.norm(v)
    assert len(log) > 1 and all(served for _, served in log)
    assert any(served < asked for asked, served in log)
    assert sum(served for _, served in log) == len(times) - 1


@pytest.mark.parametrize("gap", [0.01, 0.6])
def test_time_sequence_shares_spaces_only_where_it_saves_work(monkeypatch, gap):
    """Short gaps: one space serves all twelve times.  Long gaps: one space
    per time, with no more matvecs than one exponential per gap."""
    rng = np.random.default_rng(73)
    A = random_hermitian(200, rng)
    v = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    times = gap * np.arange(1, 13)
    calls = []

    def matvec(x):
        calls.append(1)
        return A @ x

    state = v
    for _ in times:
        state = expm_multiply_hermitian(matvec, state, -1j * gap)
    separate = len(calls)
    calls.clear()
    log = _spaces(monkeypatch)
    got = list(expm_multiply_hermitian_times(matvec, v, -1j, times))
    for t, out in zip(times, got):
        assert np.linalg.norm(out - expm(-1j * t * A) @ v) < 1e-11 * np.linalg.norm(v)
    if gap < 0.1:
        assert log == [(12, 12)]
    else:
        assert [served for _, served in log] == [1] * 12
        assert len(calls) <= separate


def test_time_sequence_halves_when_the_first_time_stagnates(monkeypatch):
    rng = np.random.default_rng(71)
    A = random_hermitian(40, rng)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    times = [2.0, 2.5]
    monkeypatch.setattr(_lanczos, "MAX_KRYLOV", 8)
    log = _spaces(monkeypatch)
    got = list(expm_multiply_hermitian_times(lambda x: A @ x, v, -1j, times))
    for t, out in zip(times, got):
        assert np.linalg.norm(out - expm(-1j * t * A) @ v) < 1e-11 * np.linalg.norm(v)
    assert log[0] == (2, None) and log[-1][1]
    monkeypatch.setattr(_lanczos, "MAX_HALVINGS", 1)
    with pytest.raises(NumericalFailure, match="stagnated"):
        list(expm_multiply_hermitian_times(lambda x: A @ x, v, -1j, times))


def test_single_time_halves_when_its_space_stagnates(monkeypatch):
    """The one-time driver's failed space hands the step to the halving rule,
    as its first halving: the whole step is not built again, and the spaces
    and bits are those of the many-time route for the one time."""
    rng = np.random.default_rng(71)
    A = random_hermitian(40, rng)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    monkeypatch.setattr(_lanczos, "MAX_KRYLOV", 8)
    log = _spaces(monkeypatch)
    got = expm_multiply_hermitian(lambda x: A @ x, v, -2j)
    assert np.linalg.norm(got - expm(-2j * A) @ v) < 1e-11 * np.linalg.norm(v)
    assert log[0] == (1, None) and log[-1][1]
    assert [served for asked, served in log if asked == 1].count(None) == 1
    single, log[:] = list(log), []
    again = next(expm_multiply_hermitian_times(lambda x: A @ x, v, -2j, [1.0]))
    assert log == single and again.tobytes() == got.tobytes()
    monkeypatch.setattr(_lanczos, "MAX_HALVINGS", 1)
    with pytest.raises(NumericalFailure, match="stagnated"):
        expm_multiply_hermitian(lambda x: A @ x, v, -2j)


def test_time_sequence_of_a_zero_vector_is_zero():
    zero = np.zeros(5, dtype=complex)
    outs = list(expm_multiply_hermitian_times(lambda x: 2 * x, zero, -1j, [0.5, 1.0]))
    assert len(outs) == 2 and all(not out.any() for out in outs)


def _reference_segment(matvec, v, scales):
    """The one-scale space that finishes each Lanczos step before testing convergence.

    Kept as the bit-for-bit reference: the production segment tests
    convergence before the three-term subtraction, the reorthogonalisation
    and the beta norm, which a converged step never reads.
    """
    scale, = scales
    norm_v = _norm(v)
    if norm_v == 0.0:
        return [v], [np.zeros(1)], norm_v
    basis = [v / norm_v]
    alphas = np.empty(_lanczos.MAX_KRYLOV)
    betas = np.empty(_lanczos.MAX_KRYLOV)
    y_prev = None
    for j in range(_lanczos.MAX_KRYLOV):
        w = matvec(basis[j])
        alphas[j] = a_j = complex(np.vdot(basis[j], w)).real
        w = w - a_j * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        for b in basis:
            w -= np.vdot(b, w) * b
        beta = _norm(w)
        evals, evecs = _eigh_tridiagonal(alphas[: j + 1], betas[:j])
        y = evecs @ (np.exp(scale * evals) * evecs[0, :].conj())
        if beta < 1e-14 * max(1.0, abs(a_j)):
            return basis, [y], norm_v
        if y_prev is not None:
            diff = -y
            np.subtract(y_prev, y[:-1], out=diff[:-1])
            if _norm(diff) < _lanczos.TOL:
                return basis, [y], norm_v
        y_prev = y
        betas[j] = beta
        basis.append(w / beta)
    return None


def _state(space):
    """The bytes of the state a one-scale space serves."""
    basis, (y,), norm_v = space
    return _lanczos._assemble(basis, y, norm_v).tobytes()


@pytest.mark.parametrize("n,scale,max_krylov", [
    (60, -0.3j, 80), (60, -4.0j, 80), (60, -4.0j, 6), (40, -0.25, 80), (3, -1j, 80),
])
def test_segment_is_bit_identical_to_the_reference_order(monkeypatch, n, scale, max_krylov):
    """Converged, invariant-subspace and stagnating segments give the reference's bits."""
    rng = np.random.default_rng(n)
    A = random_hermitian(n, rng)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    monkeypatch.setattr(_lanczos, "MAX_KRYLOV", max_krylov)
    got = _lanczos._krylov_segment(lambda x: A @ x, v, (scale,))
    want = _reference_segment(lambda x: A @ x, v, (scale,))
    if want is None:
        assert got is None
    else:
        assert _state(got) == _state(want)


@pytest.mark.parametrize("mode", ["spectral", "lattice"])
def test_gauged_flow_is_bit_identical_with_the_reference_segment(monkeypatch, mode):
    grid = Grid(dim=1, sites_per_dim=16, box_length=8.0, kinetic_mode=mode)
    pot = build_potential(grid, "gaussian", amplitude=2.0, width=1.5)
    state = make_orbitals(InitialFamily("localized", width=0.8), 3, grid)
    got = run_gauged(state, pot, 0.1, 0.01).snapshots[-1].values
    monkeypatch.setattr(_lanczos, "_krylov_segment", _reference_segment)
    want = run_gauged(state, pot, 0.1, 0.01).snapshots[-1].values
    assert got.tobytes() == want.tobytes()
