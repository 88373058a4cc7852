"""Rank-revealing linear algebra with a shared singular-value threshold.

A rank cut comes from one of two rules.  Without ``tol``, ``numeric_rank``
and ``nullspace`` cut relative to the matrix itself, at
tau = max(shape) * machine-eps * sigma_max (``rank_tolerance``).  That suits
the metric-free model matrices, whose structure constants are exact.  The
frame's structure constants are rounded, and matrices that vanish in exact
arithmetic carry rounding noise there, so the Hodge layer passes the cut of
``hodge.rank_cut``, with a floor from the whole frame complex;
``column_space``, ``hermitian_kernel`` and ``symmetric_kernel_dimension``
serve only frame matrices and take that cut as a required argument.

Ranks come from singular values alone (``singular_values``), and those are
found block by block.  The rows and columns of a matrix split into the
connected components of its nonzero pattern; the singular values of the
matrix are the union of those of its blocks, padded with zeros.  The model
matrices of del, delbar and d on a nilmanifold fall into many tiny blocks
(on KT^3, d from degree 5 to degree 6 is 924 x 792 and splits into 208
blocks, none above 9 x 12), so blocks of one shape go through one stacked
call.  The cut is unchanged: tau still uses max(shape) and sigma_max of the
whole matrix, so every rank decision follows the same rule as one dense
call.  Below ``_SPLIT_MIN_ENTRIES`` entries finding the blocks costs more
than it saves (measured crossover near 5000 entries), and one dense call is
made.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
_SPLIT_MIN_ENTRIES = 4096


def rank_tolerance(singular_values: np.ndarray, shape: tuple[int, int]) -> float:
    if singular_values.size == 0:
        return 0.0
    return max(shape) * _EPS * float(singular_values[0])


def _components(rows: np.ndarray, cols: np.ndarray, m: int, n: int) -> np.ndarray:
    """Component label of each node of the pattern {(rows[k], cols[k])}.

    Rows are nodes 0..m-1 and columns m..m+n-1.  Every round hooks the larger
    root of each edge under the smaller one and then compresses paths, until
    no edge joins two roots; a label is the smallest node of its component.
    """
    label = np.arange(m + n)
    a, b = rows, cols + m
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """All min(shape) singular values in descending order, one block at a time."""
    matrix = np.atleast_2d(matrix)
    m, n = matrix.shape
    if matrix.size < _SPLIT_MIN_ENTRIES:
        return np.linalg.svd(matrix, compute_uv=False)
    # an entry is nonzero when its real or imaginary part is: comparing the
    # float64 parts is several times faster than comparing complex128 entries
    flags = np.ascontiguousarray(matrix, dtype=complex).view(np.float64).reshape(-1) != 0
    rows, cols = np.divmod(np.flatnonzero(flags[::2] | flags[1::2]), n)
    label = _components(rows, cols, m, n)
    row_count = np.bincount(label[:m], minlength=m + n)
    col_count = np.bincount(label[m:], minlength=m + n)
    blocks = np.flatnonzero(row_count * col_count)  # an empty row or column is no block
    if blocks.size <= 1:
        return np.linalg.svd(matrix, compute_uv=False)
    nodes = np.argsort(label, kind="stable")  # by component, its rows before its columns
    size = row_count + col_count
    start = np.cumsum(size) - size
    shape_key = row_count[blocks] * (n + 1) + col_count[blocks]
    by_shape = np.argsort(shape_key, kind="stable")
    blocks, shape_key = blocks[by_shape], shape_key[by_shape]
    values = []
    for members in np.split(blocks, np.flatnonzero(np.diff(shape_key)) + 1):
        nr, nc = row_count[members[0]], col_count[members[0]]
        first = start[members][:, None]
        r = nodes[first + np.arange(nr)]
        c = nodes[first + nr + np.arange(nc)] - m
        values.append(np.linalg.svd(matrix[r[:, :, None], c[:, None, :]], compute_uv=False).ravel())
    s = np.zeros(min(m, n))
    found = np.sort(np.concatenate(values))[::-1]
    s[: found.size] = found
    return s


def numeric_rank(matrix: np.ndarray, tol: float | None = None) -> int:
    matrix = np.atleast_2d(matrix)
    if matrix.size == 0:
        return 0
    s = singular_values(matrix)
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


def column_space(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, singular values above ``tol``."""
    matrix = np.atleast_2d(matrix)
    if matrix.shape[1] == 0 or matrix.shape[0] == 0 or not np.any(matrix):
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(matrix)
    return u[:, : int(np.count_nonzero(s > tol))]


def hermitian_kernel(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal kernel basis of a Hermitian PSD matrix, eigenvalues within ``tol`` of 0."""
    matrix = np.atleast_2d(matrix)
    if matrix.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    return eigvecs[:, np.abs(eigvals) <= tol]


def symmetric_kernel_dimension(matrix: np.ndarray, tol: float) -> int:
    """Kernel dimension of a real symmetric PSD matrix, from its eigenvalues alone."""
    matrix = np.atleast_2d(matrix)
    eigvals = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    return int(np.count_nonzero(np.abs(eigvals) <= tol))


def min_norm_lstsq(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution and the residual 2-norm."""
    matrix = np.atleast_2d(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    if matrix.shape[1] == 0:
        return np.zeros(0, dtype=complex), float(np.linalg.norm(rhs))
    sol, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return sol, float(np.linalg.norm(matrix @ sol - rhs))
