"""Rank-revealing linear algebra with a shared singular-value threshold.

Without an explicit ``tol`` a rank decision cuts relative to the matrix
itself, at tau = max(shape) * machine-eps * sigma_max (``rank_tolerance``;
the kernel of a Hermitian matrix uses its largest eigenvalue in the same
way).  That suits the metric-free model matrices, whose structure constants
are exact.  Frame matrices of a metric are conjugated, and blocks that
vanish in exact arithmetic carry rounding noise there, so the Hodge layer
passes ``tol`` with a floor from the whole frame complex (``hodge.rank_cut``).
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def rank_tolerance(singular_values: np.ndarray, shape: tuple[int, int]) -> float:
    if singular_values.size == 0:
        return 0.0
    return max(shape) * _EPS * float(singular_values[0])


def numeric_rank(matrix: np.ndarray, tol: float | None = None) -> int:
    matrix = np.atleast_2d(matrix)
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    cut = rank_tolerance(s, matrix.shape) if tol is None else tol
    return int(np.count_nonzero(s > cut))


def nullspace(matrix: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space."""
    matrix = np.atleast_2d(matrix)
    cols = matrix.shape[1]
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if matrix.shape[0] == 0 or not np.any(matrix):
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(matrix)
    cut = rank_tolerance(s, matrix.shape) if tol is None else tol
    rank = int(np.count_nonzero(s > cut))
    return vh[rank:].conj().T


def column_space(matrix: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the column space."""
    matrix = np.atleast_2d(matrix)
    if matrix.shape[1] == 0 or matrix.shape[0] == 0 or not np.any(matrix):
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(matrix)
    cut = rank_tolerance(s, matrix.shape) if tol is None else tol
    rank = int(np.count_nonzero(s > cut))
    return u[:, :rank]


def hermitian_kernel(matrix: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal kernel basis of a Hermitian PSD matrix via eigendecomposition."""
    matrix = np.atleast_2d(matrix)
    dim = matrix.shape[0]
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    herm = 0.5 * (matrix + matrix.conj().T)
    eigvals, eigvecs = np.linalg.eigh(herm)
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    cut = dim * _EPS * scale if tol is None else tol
    keep = np.abs(eigvals) <= max(cut, 0.0)
    return eigvecs[:, keep]


def min_norm_lstsq(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution and the residual 2-norm."""
    matrix = np.atleast_2d(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    if matrix.shape[1] == 0:
        return np.zeros(0, dtype=complex), float(np.linalg.norm(rhs))
    sol, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return sol, float(np.linalg.norm(matrix @ sol - rhs))
