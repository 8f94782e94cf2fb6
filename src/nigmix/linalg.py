"""Small dense symmetric-positive-definite matrix kernel.

All component scale matrices in the multivariate engine are tiny (d <= 64,
and d <= 10 in every experiment): dense arrays, explicit symmetrization on
construction, and a LAPACK Cholesky that reports the offending pivot when
positive definiteness fails so the caller can jitter or prune the
component.

LAPACK binds on the first factorization, not when this module loads: a
univariate run needs no matrix algebra, so it never imports
``scipy.linalg``.  ``NotPositiveDefinite`` and ``as_spd`` need no LAPACK.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "NotPositiveDefinite",
    "as_spd",
    "cholesky",
    "spd_inverse_logdet",
    "spd_inverse_logdet_jittered",
]


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky pivot is not strictly positive.

    Recoverable by design: fitting code adds jitter and retries once, then
    prunes the component.
    """

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
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


@cache
def _lapack():
    """``scipy.linalg.lapack``, imported once, at the first factorization."""
    from scipy.linalg import lapack

    return lapack


def cholesky(m) -> np.ndarray:
    """Lower-triangular L with L @ L.T = m, from LAPACK ``dpotrf``.

    Raises
    ------
    NotPositiveDefinite
        With the index of the first non-positive pivot.
    """
    L, info = _lapack().dpotrf(np.asarray(m, dtype=float), lower=True, clean=True)
    # dpotrf stops at the first non-positive pivot (info is its 1-based
    # index) but lets a NaN pivot through with info = 0, so the diagonal of
    # the factor before the reported pivot is checked as well.
    ok = L.diagonal()[: info - 1 if info > 0 else None] > 0.0
    if not ok.all():
        raise NotPositiveDefinite(int(ok.argmin()))
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    return L


def spd_inverse_logdet(m) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of an SPD matrix via Cholesky: LAPACK
    ``dtrtri`` inverts the factor L, and inv(L).T @ inv(L) is the inverse.

    numpy forms that product of a matrix with its own transpose by the
    symmetric BLAS update, so the result is exactly symmetric, C-ordered,
    and the same at any OpenBLAS thread count for d <= 64 (``dpotri`` is
    not, from d = 5).
    """
    L = cholesky(m)
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    inv_l, info = _lapack().dtrtri(L, lower=True)
    if info > 0:
        raise NotPositiveDefinite(info - 1)
    return inv_l.T @ inv_l, logdet


def spd_inverse_logdet_jittered(m) -> tuple[np.ndarray, float]:
    """spd_inverse_logdet with one jitter retry for near-singular inputs.

    Jitter is 1e-8 * trace/d on the diagonal; a second failure propagates
    NotPositiveDefinite so the caller can prune.
    """
    m = np.asarray(m, dtype=float)
    try:
        return spd_inverse_logdet(m)
    except NotPositiveDefinite:
        eps = 1e-8 * np.trace(m) / m.shape[0]
        if not eps > 0.0:
            eps = 1e-12
        return spd_inverse_logdet(m + eps * np.eye(m.shape[0]))
