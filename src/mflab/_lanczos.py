"""Krylov propagation of hermitian generators.

Computes exp(scale * A) v for a hermitian operator A given only its action,
via the Lanczos recurrence with full reorthogonalisation (the Krylov spaces
here are small, so reorthogonalising is cheap and keeps the tridiagonal
coefficients trustworthy at tight tolerances).  If the Krylov space stops
converging before ``max_krylov`` vectors, the step is split in half and
retried; halving below ``max_halvings`` raises ``NumericalFailure``, and so
do a non-finite Lanczos coefficient (an overflowing generator) and a failed
tridiagonal eigensolve.

The exponentials are small and many (the gauged flow makes thousands on
16-point orbitals), so per-call overhead matters: the tridiagonal problem
goes straight to the LAPACK routine ``scipy.linalg.eigh_tridiagonal`` uses,
and norms are formed as ``np.linalg.norm`` forms them, without its argument
handling.  Both give the same bits as the library calls they replace.

Works on complex arrays of any shape; the flat Euclidean inner product is
used, which agrees with any uniformly weighted L2 product up to an overall
constant and therefore yields the same Krylov coefficients.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import NumericalFailure

MatVec = Callable[[np.ndarray], np.ndarray]

# the LAPACK routine eigh_tridiagonal picks for select="a", fetched once
_stevd, = get_lapack_funcs(("stevd",), (np.zeros(1),))


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh_tridiagonal(d, e, check_finite=False)``: LAPACK ?stevd and its 1x1 quick exit."""
    if len(d) == 1:
        return np.array([d[0]]), np.array([[1.0]])
    w, v, info = _stevd(d, e)
    if info != 0:
        raise NumericalFailure(f"tridiagonal eigensolver ?stevd failed (info {info})")
    return w, v


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, with the same operations in the same order."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def _krylov_segment(
    matvec: MatVec,
    v: np.ndarray,
    scale: complex,
    tol: float,
    max_krylov: int,
) -> np.ndarray | None:
    """One exponential segment; returns None if the space did not converge."""
    norm_v = _norm(v)
    if norm_v == 0.0:
        return v.copy()

    basis = [v / norm_v]
    alphas = np.empty(max_krylov)
    betas = np.empty(max_krylov)
    y_prev: np.ndarray | None = None

    for j in range(max_krylov):
        w = matvec(basis[j])
        alpha = complex(np.vdot(basis[j], w))
        if abs(alpha.imag) > 1e-8 * max(1.0, abs(alpha)):
            raise NumericalFailure(
                f"generator is not hermitian: diagonal Lanczos coefficient {alpha}"
            )
        alphas[j] = a_j = alpha.real
        if not math.isfinite(a_j):
            raise NumericalFailure(f"non-finite Lanczos coefficient (alpha {a_j})")

        # y needs only alphas[:j+1] and betas[:j]: test convergence before
        # building the next vector, which a converged segment never uses
        evals, evecs = _eigh_tridiagonal(alphas[: j + 1], betas[:j])
        y = evecs @ (np.exp(scale * evals) * evecs[0, :].conj())
        if y_prev is not None:
            diff = -y  # the previous iterate padded with a zero, minus y
            np.subtract(y_prev, y[:-1], out=diff[:-1])
            if _norm(diff) < tol:
                return _assemble(basis, y, norm_v)

        w = w - a_j * basis[j]
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        # full reorthogonalisation against the small basis
        for b in basis:
            w -= np.vdot(b, w) * b
        beta = _norm(w)
        if not math.isfinite(beta):
            raise NumericalFailure(f"non-finite Lanczos coefficient (beta {beta})")
        if beta < 1e-14 * max(1.0, abs(a_j)):
            return _assemble(basis, y, norm_v)  # invariant subspace: exact
        y_prev = y
        betas[j] = beta
        basis.append(w / beta)

    return None


def _assemble(basis: list[np.ndarray], y: np.ndarray, norm_v: float) -> np.ndarray:
    out = np.zeros_like(basis[0], dtype=np.result_type(y, *basis))
    for coeff, b in zip(y, basis):
        out += coeff * b
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
