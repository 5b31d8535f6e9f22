"""Krylov propagation of hermitian generators.

Computes exp(scale * A) v for a hermitian operator A given only its action,
via the Lanczos recurrence with full reorthogonalisation (the Krylov spaces
here are small, so reorthogonalising is cheap and keeps the tridiagonal
coefficients trustworthy at tight tolerances).  If the Krylov space stops
converging before ``max_krylov`` vectors, the step is split in half and
retried; halving below ``max_halvings`` raises ``NumericalFailure``, and so
do a non-finite Lanczos coefficient (an overflowing generator) and a failed
tridiagonal eigensolve.

One Krylov space serves many times.  With V_m and the tridiagonal T_m of
the recurrence, exp(s A) v ~ |v| V_m exp(s T_m) e_1 for every scale s, so
``expm_multiply_hermitian_times`` reads a whole sequence of times t from one
space (scale * t each).  Pending times are tested in order: the first until
it converges, then the next.  The work of a space grows as the square of its
size m (each vector is reorthogonalised against all before it), so once k
times have converged, the last at size m_k, the space grows for time k + 1
only while m^2 / (k + 1) stays below m_k^2 / k, i.e. while m < m_k
sqrt((k + 1) / k).  Whether time k + 1 makes it is judged when time k
converges, from the geometric rate at which the iterate of time k + 1 has
been settling over the last three steps; a time that is not expected to
make it, or does not, ends the space.  The space serves its k converged times, and the
next space starts from the last state served.  On long gaps this serves one
time per space, as separate exponentials would; on short gaps one space
serves many.  When not even the first pending time converges, the step to
it is halved, as for a single time.

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
from collections.abc import Iterator, Sequence
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import NumericalFailure

MatVec = Callable[[np.ndarray], np.ndarray]

TOL = 1e-13  # the default coefficient tolerance, and the one times are served to

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


def _alpha(b: np.ndarray, w: np.ndarray) -> float:
    """The diagonal Lanczos coefficient <b, A b>, given w = A b."""
    alpha = complex(np.vdot(b, w))
    if abs(alpha.imag) > 1e-8 * max(1.0, abs(alpha)):
        raise NumericalFailure(
            f"generator is not hermitian: diagonal Lanczos coefficient {alpha}"
        )
    if not math.isfinite(alpha.real):
        raise NumericalFailure(f"non-finite Lanczos coefficient (alpha {alpha.real})")
    return alpha.real


def _extend(
    basis: list[np.ndarray], betas: np.ndarray, w: np.ndarray, a_j: float, j: int
) -> np.ndarray | None:
    """The Lanczos vector after the j + 1 vectors of ``basis``, from w = A basis[j].

    Stores its beta in ``betas[j]``.  Returns None when the space is
    invariant (then the exponential read from it is exact).
    """
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
        return None
    betas[j] = beta
    return w / beta


def _moved(y: np.ndarray, y_prev: np.ndarray) -> float:
    """How far the iterate y moved from y_prev padded with a zero."""
    diff = -y
    np.subtract(y_prev, y[:-1], out=diff[:-1])
    return _norm(diff)


def _krylov_segment(
    matvec: MatVec,
    v: np.ndarray,
    scale: complex | np.ndarray,
    tol: float,
    max_krylov: int,
) -> np.ndarray | tuple[list[np.ndarray], np.ndarray, float] | None:
    """One exponential segment; returns None if the space did not converge.

    A 1-D ndarray of scales is served by ``_krylov_space`` instead, so every
    Krylov space of the module is built under this name (``bench/tracing.py``
    times each call as ``lanczos.segment``).
    """
    if isinstance(scale, np.ndarray):
        return _krylov_space(matvec, v, scale, tol, max_krylov)
    norm_v = _norm(v)
    if norm_v == 0.0:
        return v.copy()

    basis = [v / norm_v]
    alphas = np.empty(max_krylov)
    betas = np.empty(max_krylov)
    y_prev: np.ndarray | None = None

    for j in range(max_krylov):
        w = matvec(basis[j])
        alphas[j] = a_j = _alpha(basis[j], w)
        # y needs only alphas[:j+1] and betas[:j]: test convergence before
        # building the next vector, which a converged segment never uses
        y = _iterate(_eigh_tridiagonal(alphas[: j + 1], betas[:j]), scale)
        if y_prev is not None and _moved(y, y_prev) < tol:
            return _assemble(basis, y, norm_v)
        nxt = _extend(basis, betas, w, a_j, j)
        if nxt is None:
            return _assemble(basis, y, norm_v)  # invariant subspace: exact
        basis.append(nxt)
        y_prev = y

    return None


def _iterate(spectrum: tuple[np.ndarray, np.ndarray], scale: complex) -> np.ndarray:
    """exp(scale T) e_1 from T's eigendecomposition."""
    evals, evecs = spectrum
    return evecs @ (np.exp(scale * evals) * evecs[0, :].conj())


def _coefficients(spectrum: tuple[np.ndarray, np.ndarray], scales) -> np.ndarray:
    """exp(s T) e_1 for each scale s, one column each."""
    return np.stack([_iterate(spectrum, s) for s in scales], axis=1)


def _steps_to_settle(spectra: list, scale: complex, last: float, tol: float) -> float:
    """Steps until the iterate of ``scale`` moves less than tol.

    Extrapolates the geometric rate from its move in the oldest step that
    ``spectra`` spans to ``last``, its move in the newest (up to three steps
    apart).
    """
    back = len(spectra) - 2
    if back < 1:
        return 0.0
    earlier = _moved(_iterate(spectra[1], scale), _iterate(spectra[0], scale))
    if not 0.0 < last < earlier:
        return math.inf
    return math.log(tol / last) / math.log(last / earlier) * back


def _krylov_space(
    matvec: MatVec, v: np.ndarray, scales: np.ndarray, tol: float, max_krylov: int
) -> tuple[list[np.ndarray], np.ndarray, float] | None:
    """One Lanczos space for the scales of increasing magnitude.

    Returns ``(basis, coeffs, norm_v)`` with exp(s_k A) v = norm_v * sum_i
    coeffs[i, k] basis[i] for the first ``coeffs.shape[1]`` scales (the stop
    rule of the module docstring), or None if not even the first converged.
    """
    norm_v = _norm(v)
    if norm_v == 0.0:
        return [v], np.zeros((1, len(scales))), norm_v

    basis = [v / norm_v]
    alphas = np.empty(max_krylov)
    betas = np.empty(max_krylov)
    spectra: list = []  # eigendecompositions of the last five tridiagonals, newest last
    done = 0  # the leading scales converged so far, which a stop serves
    limit = max_krylov  # the size at which the space stops waiting for scale ``done``
    y_prev: np.ndarray | None = None  # the last step's iterate of scale ``done``

    for j in range(max_krylov):
        w = matvec(basis[j])
        alphas[j] = a_j = _alpha(basis[j], w)
        spectra = spectra[-4:] + [_eigh_tridiagonal(alphas[: j + 1], betas[:j])]
        converged = done
        while True:
            y = _iterate(spectra[-1], scales[done])
            move = math.inf if y_prev is None else _moved(y, y_prev)
            if move >= tol:
                break
            done += 1
            if done == len(scales):
                break
            y_prev = _iterate(spectra[-2], scales[done])
        y_prev = y
        if done == len(scales):
            break
        if done > converged:
            # the next scale gets its chance only if it is expected to
            # converge before the work per served scale would rise
            limit = min((j + 1) * math.sqrt((done + 1) / done), max_krylov)
            if j + 1 + _steps_to_settle(spectra, scales[done], move, tol) >= limit:
                break
        elif j + 1 >= limit:
            break
        nxt = _extend(basis, betas, w, a_j, j)
        if nxt is None:
            done = len(scales)  # invariant subspace: exact for every scale
            break
        basis.append(nxt)

    if done == 0:
        return None
    return basis, _coefficients(spectra[-1], scales[:done]), norm_v


def _assemble(basis: list[np.ndarray], y: np.ndarray, norm_v: float) -> np.ndarray:
    out = np.zeros_like(basis[0], dtype=np.result_type(y, *basis))
    for coeff, b in zip(y, basis):
        out += coeff * b
    return norm_v * out


def expm_multiply_hermitian(
    matvec: MatVec,
    v: np.ndarray,
    scale: complex,
    tol: float = TOL,
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


def expm_multiply_hermitian_times(
    matvec: MatVec,
    v: np.ndarray,
    scale: complex,
    times: Sequence[float],
    max_krylov: int = 80,
    max_halvings: int = 12,
) -> Iterator[np.ndarray]:
    """exp(scale * t * A) v for each of the non-decreasing times t >= 0, in turn.

    A generator that holds one Krylov space at a time: each space serves
    every pending time it has converged for (the stop rule of the module
    docstring), and the next starts from the last state served.  A time 0
    yields ``v`` itself.  When the first pending time does not converge, a
    space aims at half the distance to it, and every later space keeps that
    shorter reach; more than ``max_halvings`` halvings raise
    ``NumericalFailure``.
    """
    times = [float(t) for t in times]
    base = 0.0  # the time of v
    reach = math.inf  # the longest step a space may aim for
    halvings = 0
    i = 0  # the first pending time
    while i < len(times):
        if times[i] == base:
            i += 1
            yield v
            continue
        lead = [base + reach] if times[i] - base > reach else []
        targets = lead + times[i:]
        space = _krylov_segment(matvec, v, scale * (np.array(targets) - base), TOL, max_krylov)
        if space is None:
            halvings += 1
            if halvings > max_halvings or base + (targets[0] - base) / 2 == base:
                raise NumericalFailure(
                    f"Krylov exponential stagnated even with a step of {targets[0] - base:.3g}"
                )
            reach = (targets[0] - base) / 2
            continue
        basis, coeffs, norm_v = space
        del space
        served = coeffs.shape[1]
        for k in range(served):
            v = _assemble(basis, coeffs[:, k], norm_v)
            if k == served - 1:
                del basis  # one Krylov space at a time, and none held after its last state
            if k >= len(lead):
                i += 1
                yield v
        base = targets[served - 1]
