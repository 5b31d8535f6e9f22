"""Krylov propagation of hermitian generators.

Computes exp(scale * A) v for a hermitian operator A given only its action,
via the Lanczos recurrence with full reorthogonalisation (the Krylov spaces
here are small, so reorthogonalising is cheap and keeps the tridiagonal
coefficients trustworthy at tight tolerances).  ``_krylov_segment`` is the
one Lanczos loop; a non-finite Lanczos coefficient (an overflowing
generator) and a failed tridiagonal eigensolve raise ``NumericalFailure``.

One Krylov space serves many times.  With V_m and the tridiagonal T_m of
the recurrence, exp(s A) v ~ |v| V_m exp(s T_m) e_1 for every scale s, so
``expm_multiply_hermitian_times`` reads a whole sequence of times t from one
space (scale * t each), and ``expm_multiply_hermitian`` is its one-time
case.  Pending times are tested in order: the first until its iterate moves
less than ``TOL`` in one step, then the next.  The work of a space grows as
the square of its size m (each vector is reorthogonalised against all
before it), so once k times have converged, the last at size m_k, the space
grows for time k + 1 only while m^2 / (k + 1) stays below m_k^2 / k, i.e.
while m < m_k sqrt((k + 1) / k).  Whether time k + 1 makes it is judged when
time k converges, from the geometric rate at which the iterate of time k + 1
has been settling over the last three steps; a time that is not expected to
make it, or does not, ends the space.  The space serves its k converged
times, and the next space starts from the last state served.  On long gaps
this serves one time per space, as separate exponentials would; on short
gaps one space serves many.

A space stops at ``MAX_KRYLOV`` vectors.  When not even the first pending
time has converged by then, the step to it is halved, and later spaces keep
the shorter reach; more than ``MAX_HALVINGS`` halvings raise
``NumericalFailure`` ("stagnated").  This one rule serves every exponential.

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
from collections import deque
from collections.abc import Iterator, Sequence
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import NumericalFailure

MatVec = Callable[[np.ndarray], np.ndarray]

TOL = 1e-13  # the coefficient tolerance every exponential is served to
MAX_KRYLOV = 80  # the largest Krylov space
MAX_HALVINGS = 12  # the halvings of a step before it counts as stagnated

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


def _iterate(spectrum: tuple[np.ndarray, np.ndarray], scale: complex) -> np.ndarray:
    """exp(scale T) e_1 from T's eigendecomposition."""
    evals, evecs = spectrum
    return evecs @ (np.exp(scale * evals) * evecs[0, :].conj())


def _steps_to_settle(spectra: deque, scale: complex, last: float) -> float:
    """Steps until the iterate of ``scale`` moves less than TOL.

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
    return math.log(TOL / last) / math.log(last / earlier) * back


def _krylov_segment(
    matvec: MatVec, v: np.ndarray, scales: Sequence[complex]
) -> tuple[list[np.ndarray], list[np.ndarray], float] | None:
    """One Lanczos space for the scales of increasing magnitude.

    Returns ``(basis, coeffs, norm_v)`` with exp(s_k A) v = norm_v * sum_i
    coeffs[k][i] basis[i] for the first ``len(coeffs)`` scales (the stop rule
    of the module docstring), or None if not even the first converged.
    """
    norm_v = _norm(v)
    if norm_v == 0.0:
        return [v], [np.zeros(1)] * len(scales), norm_v

    basis = [v / norm_v]
    alphas = np.empty(MAX_KRYLOV)
    betas = np.empty(MAX_KRYLOV)
    # eigendecompositions of the newest tridiagonals: a later scale's settling
    # rate reads up to five; a single scale needs only the newest, and
    # holding more slows the many small one-time exponentials
    spectra: deque = deque(maxlen=5 if len(scales) > 1 else 1)
    done = 0  # the leading scales converged so far, which a stop serves
    limit = MAX_KRYLOV  # the size at which the space stops waiting for scale ``done``
    y_prev: np.ndarray | None = None  # the last step's iterate of scale ``done``

    for j in range(MAX_KRYLOV):
        w = matvec(basis[j])
        alphas[j] = a_j = _alpha(basis[j], w)
        # the iterates need only alphas[:j+1] and betas[:j]: test convergence
        # before building the next vector, which a stopping space never uses
        spectra.append(_eigh_tridiagonal(alphas[: j + 1], betas[:j]))
        y = _iterate(spectra[-1], scales[done])
        if y_prev is not None and (move := _moved(y, y_prev)) < TOL:
            while move < TOL:  # scale ``done`` converged: test the next
                done += 1
                if done == len(scales):  # all served; y is the last one's iterate
                    return basis, [_iterate(spectra[-1], s) for s in scales[:-1]] + [y], norm_v
                y = _iterate(spectra[-1], scales[done])
                move = _moved(y, _iterate(spectra[-2], scales[done]))
            # the next scale gets its chance only if it is expected to
            # converge before the work per served scale would rise
            limit = min((j + 1) * math.sqrt((done + 1) / done), MAX_KRYLOV)
            if j + 1 + _steps_to_settle(spectra, scales[done], move) >= limit:
                break
        elif j + 1 >= limit:
            break
        y_prev = y
        nxt = _extend(basis, betas, w, a_j, j)
        if nxt is None:  # invariant subspace: exact for every scale
            return basis, [_iterate(spectra[-1], s) for s in scales], norm_v
        basis.append(nxt)

    if done == 0:
        return None
    return basis, [_iterate(spectra[-1], s) for s in scales[:done]], norm_v


def _assemble(basis: list[np.ndarray], y: np.ndarray, norm_v: float) -> np.ndarray:
    out = np.zeros_like(basis[0], dtype=np.result_type(y, *basis))
    term = np.empty_like(out)  # one buffer for every coeff * b
    for coeff, b in zip(y, basis):
        np.multiply(coeff, b, out=term)
        out += term
    return norm_v * out


def expm_multiply_hermitian(matvec: MatVec, v: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * A) v for hermitian A, to the coefficient tolerance TOL.

    The one-time case of ``expm_multiply_hermitian_times``: the state at
    time 1 of ``scale``.
    """
    return next(_served(matvec, v, scale, [1.0]))


def expm_multiply_hermitian_times(
    matvec: MatVec, v: np.ndarray, scale: complex, times: Sequence[float]
) -> Iterator[np.ndarray]:
    """exp(scale * t * A) v for each of the non-decreasing times t >= 0, in turn.

    A generator that holds one Krylov space at a time: each space serves
    every pending time it has converged for (the stop rule of the module
    docstring), and the next starts from the last state served.  A time 0
    yields ``v`` itself.  When the first pending time does not converge, a
    space aims at half the distance to it, and every later space keeps that
    shorter reach; more than ``MAX_HALVINGS`` halvings raise
    ``NumericalFailure``.
    """
    yield from _served(matvec, v, scale, [float(t) for t in times])


def _halved(base: float, target: float, halvings: int) -> float:
    """The reach after the ``halvings``-th stagnated space, aimed from ``base`` at ``target``."""
    if halvings > MAX_HALVINGS or base + (target - base) / 2 == base:
        raise NumericalFailure(
            f"Krylov exponential stagnated even with a step of {target - base:.3g}"
        )
    return (target - base) / 2


def _served(
    matvec: MatVec, v: np.ndarray, scale: complex, times: list[float]
) -> Iterator[np.ndarray]:
    """``expm_multiply_hermitian_times`` from v at time 0."""
    reach = math.inf  # the longest step a space may aim for, cut by each halving
    halvings = 0
    base = 0.0  # the time of v
    i = 0  # the first pending time
    while i < len(times):
        if times[i] == base:
            i += 1
            yield v
            continue
        lead = [base + reach] if times[i] - base > reach else []
        targets = lead + times[i:]
        space = _krylov_segment(matvec, v, [scale * (t - base) for t in targets])
        if space is None:
            halvings += 1
            reach = _halved(base, targets[0], halvings)
            continue
        basis, coeffs, norm_v = space
        del space
        served = len(coeffs)
        for k in range(served):
            v = _assemble(basis, coeffs[k], norm_v)
            if k == served - 1:
                del basis  # one Krylov space at a time, and none held after its last state
            if k >= len(lead):
                i += 1
                yield v
        base = targets[served - 1]
