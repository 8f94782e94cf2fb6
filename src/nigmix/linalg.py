"""Small dense symmetric-positive-definite matrix kernel.

All component scale matrices in the multivariate engine are tiny (d <= 64,
and d <= 10 in every experiment): dense arrays, explicit symmetrization on
construction, and a Cholesky that reports the offending pivot when
positive definiteness fails so the caller can jitter or prune the
component.

The factorizations run through ``numpy.linalg``, whose LAPACK numpy has
already loaded, so no run imports ``scipy.linalg``.  ``cholesky`` and both
inverses take one (d, d) matrix or a (k, d, d) stack; one matrix goes
through the stack code as a stack of one, so a matrix gives the same bits
alone as in a stack.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "as_spd",
    "cholesky",
    "spd_inverse_logdet",
    "spd_inverse_logdet_jittered",
]


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky pivot is not finite and strictly positive.

    Recoverable by design: fitting code adds jitter and retries once, then
    prunes the component.  ``spd_inverse_logdet_jittered`` on a stack sets
    ``row``, the index of the matrix that failed; it is None otherwise.
    """

    def __init__(self, pivot_index: int, row: int | None = None):
        self.pivot_index = pivot_index
        self.row = row
        super().__init__(f"pivot {pivot_index} is not positive")


# Largest asymmetry as_spd accepts, relative to the matrix scale and size.
_SYMMETRY_RTOL = 1e-12


def as_spd(m) -> np.ndarray:
    """Validate symmetry and return the symmetrized copy (m + m.T) / 2."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > _SYMMETRY_RTOL * scale * m.shape[0]:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (m + m.T)


def _factors(stack: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factors of a (k, d, d) stack, or None unless every
    pivot is finite and > 0.  numpy raises on a non-positive pivot but
    lets NaN and inf pivots through, so the diagonal is checked as well: a
    row of the factor with a non-finite entry has a NaN or inf pivot,
    unless numpy raised on it."""
    try:
        L = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None
    pivots = L.diagonal(0, -2, -1)
    if pivots.min(initial=np.inf) > 0.0 and pivots.max(initial=0.0) < np.inf:
        return L
    return None


def _first_bad_pivot(stack: np.ndarray) -> int:
    """The first pivot that is not finite and > 0, in the first matrix of
    ``stack`` that does not factor: the first leading j x j block that
    does not factor ends with it."""
    blocks = ((m, j) for m in stack for j in range(1, m.shape[0] + 1))
    return next(j - 1 for m, j in blocks if _factors(m[None, :j, :j]) is None)


def _as_stack(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return m if m.ndim == 3 else m[None]


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L @ L.T = m, for one matrix or each matrix
    of a stack, from LAPACK ``dpotrf`` through ``numpy.linalg``.

    Raises
    ------
    NotPositiveDefinite
        With the index of the first pivot that is not finite and > 0, in
        the first matrix of the stack that has one.
    """
    stack = _as_stack(m)
    L = _factors(stack)
    if L is None:
        raise NotPositiveDefinite(_first_bad_pivot(stack))
    return L if np.ndim(m) == 3 else L[0]


def spd_inverse_logdet(m):
    """Inverse and log-determinant of one SPD matrix, or of each matrix of
    a stack, via Cholesky: with W the inverse of the factor L,
    W.T @ W is the inverse.

    numpy forms that product of a matrix with its own transpose by the
    symmetric BLAS update, so each inverse is exactly symmetric, C-ordered,
    and the same at any OpenBLAS thread count for d <= 64.
    """
    stack = _as_stack(m)
    L = cholesky(stack)
    logdet = 2.0 * np.log(L.diagonal(0, -2, -1)).sum(axis=-1)
    inv_l = np.linalg.inv(L)
    inv = inv_l.transpose(0, 2, 1) @ inv_l
    return (inv, logdet) if np.ndim(m) == 3 else (inv[0], float(logdet[0]))


def spd_inverse_logdet_jittered(m):
    """spd_inverse_logdet with one jitter retry for near-singular inputs.

    Jitter is 1e-8 * trace/d on the diagonal; a second failure propagates
    NotPositiveDefinite so the caller can prune.  A stack that does not
    factor is redone one matrix at a time, so each matrix is jittered only
    when it needs it, and the first matrix that fails even so is named by
    the exception's ``row``.
    """
    m = np.asarray(m, dtype=float)
    try:
        return spd_inverse_logdet(m)
    except NotPositiveDefinite:
        if m.ndim == 3:
            inv, logdet = np.empty(m.shape), np.empty(len(m))
            for row, matrix in enumerate(m):
                try:
                    inv[row], logdet[row] = spd_inverse_logdet_jittered(matrix)
                except NotPositiveDefinite as exc:
                    raise NotPositiveDefinite(exc.pivot_index, row) from None
            return inv, logdet
        eps = 1e-8 * np.trace(m) / m.shape[0]
        if not 0.0 < eps < np.inf:
            eps = 1e-12
        return spd_inverse_logdet(m + eps * np.eye(m.shape[0]))
