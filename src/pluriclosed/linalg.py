"""Rank-revealing linear algebra with one rank cut.

Every rank, kernel and span decision of the package cuts at
tau = max(shape) * machine-eps * max(|M|, 1) (``rank_cut``), |M| the
Frobenius norm, and ``numeric_rank``, ``numeric_ranks``, ``nullspace``,
``column_space``, ``hermitian_kernel`` and ``kernel_dimension`` (eigenvalues
only) apply it themselves, with |M| read off the values they compute anyway.
The matrices are those of a unit complex (``alg.unit_model``,
``alg.unit_family``): one that vanishes in exact arithmetic is left at
rounding size, eps, under the floor 1, where a cut relative to the matrix
alone would count that noise as rank.

Ranks come from singular values alone, and those of a batch are found
block by block.  The rows and columns of a matrix split into the connected
components of its nonzero pattern; the singular values of the matrix are
the union of those of its blocks, padded with zeros.  The model matrices
of del, delbar and d on a nilmanifold fall into many tiny blocks (on KT^3,
d from degree 5 to degree 6 is 924 x 792 and splits into 208 blocks, none
above 9 x 12).  The splitter runs across a batch of operators given by
their nonzero entries (``SparseBatch``, ``numeric_ranks``): it lays them
along the diagonal of one pattern, finds the components of all of them in
one pass, and sends the blocks of one shape, whichever operator they come
from, through one stacked SVD.  Each operator's singular values are counted
against its own cut, from max(shape) and the norm of that whole operator,
so every rank decision follows the same rule as one dense call.  A lone
dense matrix (``numeric_rank``) is one dense SVD.  Real matrices (de Rham's
d) stay in real arithmetic throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def rank_cut(shape: tuple[int, ...], norm: float) -> float:
    """The rank cut max(shape) * eps * max(norm, 1) of a matrix with that Frobenius norm."""
    return max(shape) * _EPS * max(float(norm), 1.0)


def _cut(values: np.ndarray, shape: tuple[int, ...]) -> float:
    """``rank_cut`` of a matrix from all its singular values or eigenvalues: |M| = |values|."""
    return rank_cut(shape, (values @ values) ** 0.5)


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


class SparseBatch(NamedTuple):
    """Operators by their nonzero entries, each entry once.

    Operator ``owner[k]`` holds ``values[k]`` at (``rows[k]``, ``cols[k]``),
    and ``shapes[i]`` is the (rows, columns) of operator i.
    """

    owner: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shapes: np.ndarray


def _block_sigma(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, m: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, root): the nonzero singular values of the blocks of an m x n pattern, and each one's block.

    A block is named by its smallest node, one of its rows.  Its rows and
    columns keep their order, its entries are scattered into one buffer
    that holds the blocks of one shape end to end, and each shape is one
    stacked SVD; a block of one row or one column has its 2-norm as its
    singular value.
    """
    label = _components(rows, cols, m, n)
    row_count = np.bincount(label[:m], minlength=m + n)
    col_count = np.bincount(label[m:], minlength=m + n)
    blocks = np.flatnonzero(row_count * col_count)  # an empty row or column is no block
    nodes = np.argsort(label, kind="stable")  # by component, its rows before its columns
    size = row_count + col_count
    local = np.empty(m + n, dtype=np.int64)  # place of a node among its block's rows or columns
    local[nodes] = np.arange(m + n) - (np.cumsum(size) - size)[label[nodes]]
    local[m:] -= row_count[label[m:]]
    shape_key = row_count[blocks] * (n + 1) + col_count[blocks]
    by_shape = np.argsort(shape_key, kind="stable")
    blocks, shape_key = blocks[by_shape], shape_key[by_shape]
    cells = row_count[blocks] * col_count[blocks]
    base = np.zeros(m + n, dtype=np.int64)
    base[blocks] = np.cumsum(cells) - cells
    buffer = np.zeros(int(cells.sum()), dtype=values.dtype)
    block = label[rows]
    buffer[base[block] + local[rows] * col_count[block] + local[cols + m]] = values
    sigma, root = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    for members in np.split(blocks, np.flatnonzero(np.diff(shape_key)) + 1):
        if members.size:
            nr, nc = row_count[members[0]], col_count[members[0]]
            first = base[members[0]]
            stack = buffer[first : first + members.size * nr * nc].reshape(-1, nr, nc)
            if min(nr, nc) == 1:  # a single row or column: its one singular value is its 2-norm
                sigma.append(np.linalg.norm(stack, axis=(1, 2)))
            else:
                sigma.append(np.linalg.svd(stack, compute_uv=False).ravel())
            root.append(np.repeat(members, min(nr, nc)))
    return np.concatenate(sigma), np.concatenate(root)


def numeric_rank(matrix: np.ndarray) -> int:
    """The rank of a dense matrix under its ``rank_cut``, from one SVD."""
    matrix = np.atleast_2d(matrix)
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(s > _cut(s, matrix.shape)))


def _renumbered(indices: np.ndarray, size: int) -> tuple[int, np.ndarray]:
    """(held, place): how many of range(size) ``indices`` holds, and each index's place among those."""
    flags = np.zeros(size, dtype=bool)
    flags[indices] = True
    place = np.cumsum(flags) - 1
    return int(place[-1]) + 1, place[indices]


def numeric_ranks(batch: SparseBatch) -> list[int]:
    """The rank of each operator of a batch, each under its own ``rank_cut``, from one block split of all.

    The operators sit along the diagonal of one pattern, rows and columns
    offset, so no block spans two of them.  Only the rows and columns that
    hold an entry are numbered in it: the rest add zero singular values.
    """
    shapes = batch.shapes
    if not batch.values.size:
        return [0] * len(shapes)
    start = np.cumsum(shapes, axis=0) - shapes
    m, rows = _renumbered(batch.rows + start[batch.owner, 0], int(shapes[:, 0].sum()))
    n, cols = _renumbered(batch.cols + start[batch.owner, 1], int(shapes[:, 1].sum()))
    row_owner = np.empty(m, dtype=np.int64)
    row_owner[rows] = batch.owner
    sigma, root = _block_sigma(rows, cols, batch.values, m, n)
    owner = row_owner[root]  # a block's root is one of its rows
    norms = np.sqrt(np.bincount(owner, sigma * sigma, minlength=len(shapes)))
    cuts = np.array([rank_cut(shape, norm) for shape, norm in zip(shapes.tolist(), norms.tolist())])
    return np.bincount(owner[sigma > cuts[owner]], minlength=len(shapes)).tolist()


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space."""
    matrix = np.atleast_2d(matrix)
    cols = matrix.shape[1]
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if matrix.shape[0] == 0 or not np.any(matrix):
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(matrix)
    return vh[np.count_nonzero(s > _cut(s, matrix.shape)) :].conj().T


def column_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column space."""
    matrix = np.atleast_2d(matrix)
    if matrix.shape[1] == 0 or matrix.shape[0] == 0 or not np.any(matrix):
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : np.count_nonzero(s > _cut(s, matrix.shape))]


def hermitian_kernel(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of a Hermitian PSD matrix: eigenvalues under its rank cut."""
    matrix = np.atleast_2d(matrix)
    if matrix.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    return eigvecs[:, np.abs(eigvals) <= _cut(eigvals, matrix.shape)]


def kernel_dimension(matrix: np.ndarray) -> int:
    """Kernel dimension of a Hermitian or real symmetric PSD matrix, from its eigenvalues alone."""
    matrix = np.atleast_2d(matrix)
    eigvals = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
    return int(np.count_nonzero(np.abs(eigvals) <= _cut(eigvals, matrix.shape)))


def min_norm_lstsq(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution and the residual 2-norm."""
    matrix = np.atleast_2d(matrix)
    rhs = np.asarray(rhs, dtype=complex)
    if matrix.shape[1] == 0:
        return np.zeros(0, dtype=complex), float(np.linalg.norm(rhs))
    sol, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    return sol, float(np.linalg.norm(matrix @ sol - rhs))
