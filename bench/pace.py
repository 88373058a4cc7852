"""Reference work that tracks the speed of a shared machine.

On a few cores of a shared host the same code runs 20-40% faster or slower
from one minute to the next, because of other tenants, and a wall time
follows the host, not the program.  ``chunk()`` is a fixed piece of work
made of five equal parts, shaped like the engine's: arithmetic on a small
dict and lookups in a large one (the dict-``Form`` path), allocation of
many small objects (terms and reports), small dense SVD and eigh calls (the
kernel and rank layers) and a larger SVD plus a sweep over 8 MB (Laplacian
assembly).  Timed right next to the program's own work it slows down with
it, so

    paced seconds = measured seconds x REF_SECONDS / reference chunk seconds

reads the program's time at one fixed machine speed.  The chunk does not
touch the package, so a change of the program moves paced seconds exactly
as it moves wall seconds.

    OPENBLAS_NUM_THREADS=1 python3 bench/pace.py

prints the median chunk time on this machine (how REF_SECONDS was chosen).
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# median chunk() seconds on a quiet 2-vCPU Xeon (2.1 GHz), one BLAS thread
REF_SECONDS = 0.012

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_H = _A @ _A.conj().T
_B = _rng.standard_normal((160, 160))
_BIG = _rng.standard_normal(1_000_000)
_KEYS = [(i % 97, (i * 7) % 89, i % 13) for i in range(40_000)]


def chunk() -> float:
    """Seconds one piece of reference work takes now.  The cyclic garbage
    collector is off meanwhile: its cost grows with everything else the
    process holds, which is not the machine's speed."""
    gc.disable()
    try:
        return _timed_chunk()
    finally:
        gc.enable()


def _timed_chunk() -> float:
    t0 = time.perf_counter()
    small: dict[tuple[int, int], float] = {}
    for i in range(10_000):
        key = (i & 63, (i >> 6) & 7)
        small[key] = small.get(key, 0.0) + 0.5 * i
    large: dict[tuple[int, int, int], float] = {}
    for key in _KEYS[::3]:
        large[key] = large.get(key, 0.0) + 1.0
    objects = [{"a": (i, i + 1), "b": [i] * 3} for i in range(4_500)]
    del objects
    for _ in range(4):
        np.linalg.svd(_A, compute_uv=False)
        np.linalg.eigh(_H)
    np.linalg.svd(_B, compute_uv=False)
    _BIG.sum()
    _BIG.max()
    return time.perf_counter() - t0


def paced(seconds: float, refs: list[float]) -> float:
    """``seconds`` at the reference speed, given chunk times taken beside them."""
    return seconds * REF_SECONDS / statistics.median(refs)


if __name__ == "__main__":
    times = [chunk() for _ in range(200)]
    print(f"chunk: median {statistics.median(times):.5f} s, min {min(times):.5f} s over {len(times)}")
