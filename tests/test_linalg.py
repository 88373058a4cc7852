"""The block-split singular values against one dense SVD.

``linalg.singular_values`` finds the connected components of a matrix's
nonzero pattern and runs one stacked SVD per block shape.  Every case
scatters blocks over a row and column permutation, so the split has to
recover them, and compares with ``np.linalg.svd`` of the whole matrix.
"""

import subprocess
import sys

import numpy as np
import pytest

from pluriclosed import linalg

EPS = float(np.finfo(np.float64).eps)


def scattered_blocks(rng, shapes, zero_rows=0, zero_cols=0, rank_drop=0):
    """Block-diagonal matrix of random complex blocks, rows and columns permuted.

    The first ``rank_drop`` blocks lose one rank (a product of thin factors).
    """
    m = sum(r for r, _ in shapes) + zero_rows
    n = sum(c for _, c in shapes) + zero_cols
    out = np.zeros((m, n), dtype=complex)
    i = j = 0
    for k, (r, c) in enumerate(shapes):
        inner = max(min(r, c) - 1, 0) if k < rank_drop else min(r, c)
        left = rng.standard_normal((r, inner)) + 1j * rng.standard_normal((r, inner))
        right = rng.standard_normal((inner, c)) + 1j * rng.standard_normal((inner, c))
        out[i : i + r, j : j + c] = left @ right
        i, j = i + r, j + c
    return out[rng.permutation(m)][:, rng.permutation(n)]


def dense_rank(matrix, tol=None):
    s = np.linalg.svd(matrix, compute_uv=False)
    cut = max(matrix.shape) * EPS * s[0] if tol is None else tol
    return int(np.count_nonzero(s > cut))


def assert_matches_dense(matrix, tol=None):
    dense = np.linalg.svd(matrix, compute_uv=False)
    split = linalg.singular_values(matrix)
    assert split.shape == dense.shape
    assert np.all(np.diff(split) <= 0)
    assert np.max(np.abs(split - dense), initial=0.0) <= 1e-12 * max(dense[0], 1.0)
    assert linalg.numeric_rank(matrix, tol=tol) == dense_rank(matrix, tol=tol)


def test_split_gate_sits_between_the_cases():
    # the cases below must land on both sides of the size gate
    assert 60 * 60 < linalg._SPLIT_MIN_ENTRIES < 70 * 70


@pytest.mark.parametrize("seed", range(4))
def test_many_blocks_of_one_shape(seed):
    rng = np.random.default_rng(seed)
    matrix = scattered_blocks(rng, [(3, 4)] * 30, rank_drop=10)
    assert matrix.size >= linalg._SPLIT_MIN_ENTRIES
    assert_matches_dense(matrix)
    assert linalg.numeric_rank(matrix) == 30 * 3 - 10


@pytest.mark.parametrize("seed", range(4))
def test_mixed_blocks_with_zero_rows_and_columns(seed):
    rng = np.random.default_rng(100 + seed)
    shapes = [(1, 1), (2, 5), (5, 2), (4, 4), (4, 4), (9, 12), (1, 6), (7, 1)] * 3
    matrix = scattered_blocks(rng, shapes, zero_rows=11, zero_cols=7, rank_drop=5)
    assert matrix.size >= linalg._SPLIT_MIN_ENTRIES
    assert_matches_dense(matrix)


def test_all_zero_matrix():
    for shape in ((40, 30), (90, 80)):
        matrix = np.zeros(shape, dtype=complex)
        assert np.array_equal(linalg.singular_values(matrix), np.zeros(min(shape)))
        assert linalg.numeric_rank(matrix) == 0


def test_single_dense_block():
    rng = np.random.default_rng(7)
    for shape in ((50, 40), (80, 70)):
        assert_matches_dense(scattered_blocks(rng, [shape], zero_rows=3, zero_cols=2))


def test_both_sides_of_the_size_gate():
    rng = np.random.default_rng(11)
    for side in (60, 70):
        shapes = [(5, 5)] * (side // 5 - 2)
        matrix = scattered_blocks(rng, shapes, zero_rows=10, zero_cols=10, rank_drop=3)
        assert matrix.shape == (side, side)
        assert_matches_dense(matrix)


def test_explicit_tol():
    rng = np.random.default_rng(13)
    matrix = scattered_blocks(rng, [(2, 3), (3, 3), (6, 4)] * 8, zero_rows=4, zero_cols=9)
    dense = np.linalg.svd(matrix, compute_uv=False)
    for k in (1, 20, 60):  # a cut midway between two neighbouring singular values
        tol = 0.5 * (dense[k - 1] + dense[k])
        assert_matches_dense(matrix, tol=tol)
        assert linalg.numeric_rank(matrix, tol=tol) == k
    assert linalg.numeric_rank(matrix, tol=2 * dense[0]) == 0


def test_real_matrix_splits_too():
    rng = np.random.default_rng(17)
    matrix = scattered_blocks(rng, [(4, 6)] * 20, rank_drop=4).real.copy()
    assert_matches_dense(matrix)


@pytest.mark.parametrize("kernel", [0, 1, 7])
def test_symmetric_kernel_dimension(kernel):
    # ``kernel_dimension`` on a real symmetric and on a complex Hermitian matrix
    rng = np.random.default_rng(kernel)
    real = rng.standard_normal((20, 20))
    for entries in (real, real + 1j * rng.standard_normal((20, 20))):
        basis, _ = np.linalg.qr(entries)
        spectrum = np.concatenate([np.zeros(kernel), rng.uniform(1e-6, 3.0, 20 - kernel)])
        matrix = (basis * spectrum) @ basis.conj().T
        assert matrix.dtype == entries.dtype
        assert linalg.kernel_dimension(matrix, tol=1e-9) == kernel
        assert linalg.kernel_dimension(matrix, tol=10.0) == 20
        assert linalg.hermitian_kernel(matrix, tol=1e-9).shape == (20, kernel)


COLUMN_SPACE_CASES = {
    "tall": ((40, 7), 7),
    "wide": ((7, 40), 7),
    "tall rank-deficient": ((40, 12), 5),
    "wide rank-deficient": ((12, 40), 5),
    "all-zero": ((9, 4), 0),
}


@pytest.mark.parametrize("case", COLUMN_SPACE_CASES)
def test_column_space_matches_the_full_svd(case):
    # the thin SVD keeps only the min(shape) left vectors that can be read
    (m, n), rank = COLUMN_SPACE_CASES[case]
    rng = np.random.default_rng(m * n + rank)
    left = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    matrix = left @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))
    tol = 1e-8 * max(np.linalg.norm(matrix, 2), 1.0)
    got = linalg.column_space(matrix, tol)
    u, s, _ = np.linalg.svd(matrix, full_matrices=True)
    full = u[:, : int(np.count_nonzero(s > tol))]
    assert got.shape == full.shape == (m, rank)
    assert np.max(np.abs(got.conj().T @ got - np.eye(rank)), initial=0.0) <= 1e-12
    gap = got @ got.conj().T - full @ full.conj().T
    assert np.linalg.norm(gap, 2) <= 1e-12


def test_import_leaves_scipy_out():
    # scipy is no dependency; importing it alone adds tens of MB of resident memory
    code = "import sys, pluriclosed, pluriclosed.cli; print('scipy' in sys.modules)"
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
