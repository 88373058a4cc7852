"""The block-split singular values against one dense SVD, and the one rank cut.

``linalg.numeric_ranks`` ranks a batch of operators given by their nonzero
entries: the blocks of their patterns (``linalg._block_sigma``) go through
one stacked SVD per block shape.  Every case scatters blocks over a row and
column permutation, so the split has to recover them, and compares with
``np.linalg.svd`` of the whole matrix: the sorted singular values of the
split and the rank of a one-operator batch.  Every rank, kernel and span
decision cuts at max(shape) * eps * max(|M|, 1) (``linalg.rank_cut``); the
spectra below sit on both sides of that cut.
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


def dense_rank(matrix):
    s = np.linalg.svd(matrix, compute_uv=False)
    cut = max(matrix.shape) * EPS * max(np.linalg.norm(matrix), 1.0)
    return int(np.count_nonzero(s > cut))


def as_batch(matrices):
    """The matrices as one ``SparseBatch``, by their nonzero entries."""
    entries = [np.nonzero(matrix) for matrix in matrices]
    return linalg.SparseBatch(
        np.repeat(np.arange(len(matrices)), [rows.size for rows, _ in entries]),
        np.concatenate([np.zeros(0, dtype=np.int64), *(rows for rows, _ in entries)]),
        np.concatenate([np.zeros(0, dtype=np.int64), *(cols for _, cols in entries)]),
        np.concatenate([np.zeros(0), *(matrix[rows, cols] for matrix, (rows, cols) in zip(matrices, entries))]),
        np.array([matrix.shape for matrix in matrices], dtype=np.int64).reshape(-1, 2),
    )


def split_singular_values(matrix):
    """All min(shape) singular values of the block split, in descending order."""
    rows, cols = np.nonzero(matrix)
    sigma, _ = linalg._block_sigma(rows, cols, matrix[rows, cols], *matrix.shape)
    s = np.zeros(min(matrix.shape))
    s[: sigma.size] = np.sort(sigma)[::-1]
    return s


def assert_matches_dense(matrix):
    dense = np.linalg.svd(matrix, compute_uv=False)
    split = split_singular_values(matrix)
    assert np.max(np.abs(split - dense), initial=0.0) <= 1e-12 * max(dense[0], 1.0)
    rank = dense_rank(matrix)
    assert linalg.numeric_ranks(as_batch([matrix])) == [rank]
    assert linalg.numeric_rank(matrix) == rank


def unitary(rng, size):
    q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    return q


@pytest.mark.parametrize("seed", range(4))
def test_many_blocks_of_one_shape(seed):
    rng = np.random.default_rng(seed)
    matrix = scattered_blocks(rng, [(3, 4)] * 30, rank_drop=10)
    assert_matches_dense(matrix)
    assert linalg.numeric_ranks(as_batch([matrix])) == [30 * 3 - 10]


@pytest.mark.parametrize("seed", range(4))
def test_mixed_blocks_with_zero_rows_and_columns(seed):
    rng = np.random.default_rng(100 + seed)
    shapes = [(1, 1), (2, 5), (5, 2), (4, 4), (4, 4), (9, 12), (1, 6), (7, 1)] * 3
    matrix = scattered_blocks(rng, shapes, zero_rows=11, zero_cols=7, rank_drop=5)
    assert_matches_dense(matrix)


def test_all_zero_matrix():
    for shape in ((40, 30), (90, 80)):
        matrix = np.zeros(shape, dtype=complex)
        assert np.array_equal(split_singular_values(matrix), np.zeros(min(shape)))
        assert linalg.numeric_ranks(as_batch([matrix])) == [0]
        assert linalg.numeric_rank(matrix) == 0


def test_single_dense_block():
    rng = np.random.default_rng(7)
    for shape in ((50, 40), (80, 70)):
        assert_matches_dense(scattered_blocks(rng, [shape], zero_rows=3, zero_cols=2))


def test_rank_cut_rule():
    assert linalg.rank_cut((3, 5), 0.25) == 5 * EPS  # the floor
    assert linalg.rank_cut((7, 2), 4.0) == 28 * EPS
    assert linalg.rank_cut((0, 0), 0.0) == 0.0


def _signed_permutation(values):
    """A 3 x 3 block with exactly the singular values ``values``: a phased, permuted diagonal."""
    return np.diag(np.asarray(values, dtype=complex) * [1j, -1, 1])[[2, 0, 1]]


def test_the_floor_cuts_rounding_noise():
    # iwasawa written in a rotated coframe: its Bott-Chern (0,2) closed map vanishes
    # in exact arithmetic and carries singular values of rounding size
    noise = _signed_permutation([3.9e-31, 1.2e-47, 0.0])
    assert linalg.numeric_rank(noise) == 0
    assert linalg.nullspace(noise).shape == (3, 3)
    assert linalg.column_space(noise).shape == (3, 0)
    # a cut relative to the block alone would keep 3.9e-31; at norm 1 the
    # floor no longer acts, and the relative noise 3e-17 still falls under 3 eps
    assert linalg.numeric_rank(noise / 3.9e-31) == 1
    # above norm 1 the cut grows with the matrix: the rank is scale-free there
    for scale, rank in ((1e-20, 0), (1.0, 2), (1e20, 2)):
        assert linalg.numeric_rank(scale * _signed_permutation([1.0, 1e-3, 0.0])) == rank


def test_a_batch_ranks_each_operator_under_its_own_cut():
    # one block split of many operators: empty and all-zero ones, mixed block
    # shapes, real and complex, and the rounding-noise spectra of the floor test
    rng = np.random.default_rng(23)
    mixed = [(1, 1), (2, 5), (5, 2), (4, 4), (4, 4), (9, 12), (1, 6), (7, 1)]
    noise = _signed_permutation([3.9e-31, 1.2e-47, 0.0])
    steps = [scale * _signed_permutation([1.0, 1e-3, 0.0]) for scale in (1e-20, 1.0, 1e20)]
    matrices = [
        np.zeros((0, 5), dtype=complex),
        np.zeros((4, 0), dtype=complex),
        np.zeros((0, 0), dtype=complex),
        np.zeros((30, 40), dtype=complex),
        scattered_blocks(rng, mixed * 3, zero_rows=11, zero_cols=7, rank_drop=5),
        scattered_blocks(rng, [(3, 4)] * 30, rank_drop=10),
        scattered_blocks(rng, [(4, 6)] * 20, rank_drop=4).real.copy(),
        scattered_blocks(rng, [(50, 40)], zero_rows=3, zero_cols=2),
        noise,
        noise / 3.9e-31,
        *steps,
    ]
    dense = [dense_rank(matrix) if matrix.size else 0 for matrix in matrices]
    assert dense == [0, 0, 0, 0, 3 * 24 - 5, 30 * 3 - 10, 80, 40, 0, 1, 0, 2, 2]
    assert linalg.numeric_ranks(as_batch(matrices)) == dense == [linalg.numeric_rank(m) for m in matrices]
    assert linalg.numeric_ranks(as_batch(matrices[::-1])) == dense[::-1]
    assert linalg.numeric_ranks(as_batch(matrices[:4])) == [0] * 4  # no entries at all
    assert linalg.numeric_ranks(as_batch([])) == []


def test_real_matrix_splits_too():
    rng = np.random.default_rng(17)
    matrix = scattered_blocks(rng, [(4, 6)] * 20, rank_drop=4).real.copy()
    assert_matches_dense(matrix)


@pytest.mark.parametrize("kernel", [0, 1, 7])
def test_symmetric_kernel_dimension(kernel):
    # ``kernel_dimension`` on a real symmetric and on a complex Hermitian matrix,
    # with one eigenvalue just above the rank cut and, in a kernel, one just under it
    rng = np.random.default_rng(kernel)
    real = rng.standard_normal((20, 20))
    for entries in (real, real + 1j * rng.standard_normal((20, 20))):
        basis, _ = np.linalg.qr(entries)
        large = rng.uniform(1e-6, 3.0, 19 - kernel)
        cut = linalg.rank_cut((20, 20), np.linalg.norm(large))
        spectrum = np.concatenate([np.zeros(kernel), [10 * cut], large])
        spectrum[: min(kernel, 1)] = 0.1 * cut
        matrix = (basis * spectrum) @ basis.conj().T
        assert matrix.dtype == entries.dtype
        assert linalg.kernel_dimension(matrix) == kernel
        assert linalg.hermitian_kernel(matrix).shape == (20, kernel)
        # scaled far under norm 1, the whole spectrum falls under the floor
        assert linalg.kernel_dimension(1e-20 * matrix) == 20
        assert linalg.hermitian_kernel(1e-20 * matrix).shape == (20, 20)


COLUMN_SPACE_CASES = {
    "tall": ((40, 7), 7),
    "wide": ((7, 40), 7),
    "tall rank-deficient": ((40, 12), 5),
    "wide rank-deficient": ((12, 40), 5),
    "all-zero": ((9, 4), 0),
}


@pytest.mark.parametrize("case", COLUMN_SPACE_CASES)
def test_column_space_matches_the_full_svd(case):
    # the thin SVD keeps only the min(shape) left vectors that can be read; a
    # rank-deficient case has one more singular value just above the rank cut
    # and the rest just under it
    (m, n), large = COLUMN_SPACE_CASES[case]
    rng = np.random.default_rng(m * n + large)
    s = np.zeros(min(m, n))
    s[:large] = rng.uniform(1.0, 3.0, large)
    cut = linalg.rank_cut((m, n), np.linalg.norm(s))
    rank = large
    if 0 < large < s.size:
        s[large:] = 0.1 * cut
        s[large], rank = 10 * cut, large + 1
    matrix = (unitary(rng, m)[:, : s.size] * s) @ unitary(rng, n)[: s.size]
    got = linalg.column_space(matrix)
    u, full_s, _ = np.linalg.svd(matrix, full_matrices=True)
    full = u[:, : int(np.count_nonzero(full_s > cut))]
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
