"""Krylov propagation of hermitian generators.

Computes exp(scale * A) v for a hermitian operator A given only its action,
via the Lanczos recurrence with full reorthogonalisation (the Krylov spaces
here are small, so reorthogonalising is cheap and keeps the tridiagonal
coefficients trustworthy at tight tolerances).  If the Krylov space stops
converging before ``max_krylov`` vectors, the step is split in half and
retried; halving below ``max_halvings`` raises ``NumericalFailure``, and so
does a non-finite Lanczos coefficient (an overflowing generator).

Works on complex arrays of any shape; the flat Euclidean inner product is
used, which agrees with any uniformly weighted L2 product up to an overall
constant and therefore yields the same Krylov coefficients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalFailure

MatVec = Callable[[np.ndarray], np.ndarray]


def _krylov_segment(
    matvec: MatVec,
    v: np.ndarray,
    scale: complex,
    tol: float,
    max_krylov: int,
) -> np.ndarray | None:
    """One exponential segment; returns None if the space did not converge."""
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        return v.copy()

    basis = [v / norm_v]
    alphas: list[float] = []
    betas: list[float] = []
    y_prev: np.ndarray | None = None

    for j in range(max_krylov):
        w = matvec(basis[j])
        alpha = np.vdot(basis[j], w)
        if abs(alpha.imag) > 1e-8 * max(1.0, abs(alpha)):
            raise NumericalFailure(
                f"generator is not hermitian: diagonal Lanczos coefficient {alpha}"
            )
        alphas.append(alpha.real)
        w = w - alphas[j] * basis[j]
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        # full reorthogonalisation against the small basis
        for b in basis:
            w = w - np.vdot(b, w) * b
        beta = np.linalg.norm(w)
        if not (np.isfinite(alphas[j]) and np.isfinite(beta)):
            raise NumericalFailure(
                f"non-finite Lanczos coefficient (alpha {alphas[j]}, beta {beta})"
            )

        evals, evecs = eigh_tridiagonal(np.array(alphas), np.array(betas), check_finite=False)
        y = evecs @ (np.exp(scale * evals) * evecs[0, :].conj())

        if beta < 1e-14 * max(1.0, abs(alphas[j])):
            return _assemble(basis, y, norm_v)  # invariant subspace: exact
        if y_prev is not None:
            err = np.linalg.norm(np.append(y_prev, 0.0) - y)
            if err < tol:
                return _assemble(basis, y, norm_v)
        y_prev = y
        betas.append(beta)
        basis.append(w / beta)

    return None


def _assemble(basis: list[np.ndarray], y: np.ndarray, norm_v: float) -> np.ndarray:
    out = np.zeros_like(basis[0])
    for coeff, b in zip(y, basis):
        out = out + coeff * b
    return norm_v * out


def expm_multiply_hermitian(
    matvec: MatVec,
    v: np.ndarray,
    scale: complex,
    tol: float = 1e-13,
    max_krylov: int = 80,
    max_halvings: int = 12,
) -> np.ndarray:
    """exp(scale * A) v for hermitian A, to the requested coefficient tolerance."""
    segments = 1
    halvings = 0
    while True:
        seg_scale = scale / segments
        out = v
        ok = True
        for _ in range(segments):
            nxt = _krylov_segment(matvec, out, seg_scale, tol, max_krylov)
            if nxt is None:
                ok = False
                break
            out = nxt
        if ok:
            return out
        halvings += 1
        if halvings > max_halvings:
            raise NumericalFailure(
                f"Krylov exponential stagnated even with {segments} substeps"
            )
        segments *= 2
