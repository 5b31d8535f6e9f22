"""Krylov exponential against dense references."""

import numpy as np
import pytest
from scipy.linalg import expm

from mflab._lanczos import expm_multiply_hermitian
from mflab.errors import NumericalFailure


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
