"""Metric-free exact cohomology dimensions, independent of the package.

The invariant complex is rebuilt from a model document on its own
representation: a monomial is a bitmask over 2n letters (phi^1..phi^n, then
phibar^1..phibar^n), canonical order is increasing letter, and coefficients
live in F_p.  Structure constants must be Gaussian integers; they map to F_p
through i -> sqrt(-1), which exists because p = 1 (mod 4).  Ranks are exact
Gaussian elimination mod p.  A rank mod p never exceeds the rank over Q(i);
it is smaller only if p divides every nonzero maximal minor, which for a
prime near 2^31 is as unlikely as a random hit.  The fixtures' golden
reports cross-check the reference.

Dimensions follow by rank-nullity:

* Bott-Chern (p,q): N - rk[del; delbar](p,q) - rk del delbar(p-1,q-1)
* Aeppli (p,q):     N - rk del delbar(p,q) - rk[del(p-1,q) | delbar(p,q-1)]
* Dolbeault (p,q):  N - rk delbar(p,q) - rk delbar(p,q-1)
* de Rham k:        N_k - rk d_k - rk d_{k-1}
"""

from __future__ import annotations

from math import comb

import numpy as np

P = 2147483629  # largest prime below 2^31 with P = 1 (mod 4); P^2 < 2^62 fits int64
SQRT_M1 = pow(2, (P - 1) // 4, P)
assert SQRT_M1 * SQRT_M1 % P == P - 1


def _to_fp(re: float, im: float) -> int:
    if re != int(re) or im != int(im):
        raise ValueError(f"structure constant {re}+{im}i is not a Gaussian integer")
    return (int(re) + int(im) * SQRT_M1) % P


def _conj_fp(re: float, im: float) -> int:
    return _to_fp(re, -im)


def _popcount_below(mask: int, letter: int) -> int:
    return bin(mask & ((1 << letter) - 1)).count("1")


class ExactComplex:
    """Invariant bigraded complex of one model over F_p."""

    def __init__(self, doc: dict):
        n = self.n = int(doc["n"])
        # d(letter) as a list of (coefficient, a, b): coefficient * x_a wedge x_b
        self.d_letter: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * n)]
        for k, terms in enumerate(doc["dphi"]):
            for term in terms:
                re, im = term["coeff"]
                i, j = term["i"] - 1, term["j"] - 1
                if term["type"] == "20":
                    self.d_letter[k].append((_to_fp(re, im), i, j))
                    self.d_letter[n + k].append((_conj_fp(re, im), n + i, n + j))
                else:
                    self.d_letter[k].append((_to_fp(re, im), i, n + j))
                    # conj(phi^i wedge phibar^j) = phibar^i wedge phi^j
                    self.d_letter[n + k].append((_conj_fp(re, im), n + i, j))
        self._d_cache: dict[int, dict[int, int]] = {}
        self._basis: dict[tuple[int, int], list[int]] = {}
        self._ranks: dict[tuple, int] = {}

    # -- monomials -------------------------------------------------------

    def bidegree(self, mask: int) -> tuple[int, int]:
        holo = mask & ((1 << self.n) - 1)
        return bin(holo).count("1"), bin(mask >> self.n).count("1")

    def basis(self, p: int, q: int) -> list[int]:
        key = (p, q)
        if key not in self._basis:
            out = []
            if 0 <= p <= self.n and 0 <= q <= self.n:
                out = [m for m in range(1 << (2 * self.n)) if self.bidegree(m) == (p, q)]
            self._basis[key] = out
        return self._basis[key]

    def d(self, mask: int) -> dict[int, int]:
        """Full differential of a monomial by the graded Leibniz rule."""
        hit = self._d_cache.get(mask)
        if hit is not None:
            return hit
        out: dict[int, int] = {}
        m = mask
        while m:
            letter = (m & -m).bit_length() - 1
            m &= m - 1
            rest = mask & ~(1 << letter)
            sign = _popcount_below(mask, letter) % 2
            for coeff, a, b in self.d_letter[letter]:
                if a == b or rest >> a & 1 or rest >> b & 1:
                    continue
                # x_a x_b (even) moves to the front; then sort a, b into rest
                flips = sign + (a > b) + _popcount_below(rest, a) + _popcount_below(rest, b)
                target = rest | 1 << a | 1 << b
                value = coeff if flips % 2 == 0 else P - coeff
                out[target] = (out.get(target, 0) + value) % P
        out = {t: c for t, c in out.items() if c}
        self._d_cache[mask] = out
        return out

    # -- matrices mod p ----------------------------------------------------

    def _matrix(self, sources: list[int], targets: list[int], image) -> np.ndarray:
        row = {t: r for r, t in enumerate(targets)}
        mat = np.zeros((len(targets), len(sources)), dtype=np.int64)
        for col, mask in enumerate(sources):
            for t, c in image(mask).items():
                r = row.get(t)
                if r is not None:
                    mat[r, col] = (mat[r, col] + c) % P
        return mat

    def _part(self, mask: int, dp: int, dq: int) -> dict[int, int]:
        p, q = self.bidegree(mask)
        return {t: c for t, c in self.d(mask).items() if self.bidegree(t) == (p + dp, q + dq)}

    def del_(self, p: int, q: int) -> np.ndarray:
        return self._matrix(self.basis(p, q), self.basis(p + 1, q), lambda m: self._part(m, 1, 0))

    def delbar(self, p: int, q: int) -> np.ndarray:
        return self._matrix(self.basis(p, q), self.basis(p, q + 1), lambda m: self._part(m, 0, 1))

    def deldelbar(self, p: int, q: int) -> np.ndarray:
        def image(mask):
            out: dict[int, int] = {}
            for mid, c in self._part(mask, 0, 1).items():
                for t, c2 in self._part(mid, 1, 0).items():
                    out[t] = (out.get(t, 0) + c * c2) % P
            return out

        return self._matrix(self.basis(p, q), self.basis(p + 1, q + 1), image)

    def degree_basis(self, k: int) -> list[int]:
        return [m for p in range(k + 1) for m in self.basis(p, k - p)]

    def d_total(self, k: int) -> np.ndarray:
        return self._matrix(self.degree_basis(k), self.degree_basis(k + 1), self.d)

    def d_squared_zero(self) -> bool:
        for mask in range(1 << (2 * self.n)):
            acc: dict[int, int] = {}
            for mid, c in self.d(mask).items():
                for t, c2 in self.d(mid).items():
                    acc[t] = (acc.get(t, 0) + c * c2) % P
            if any(acc.values()):
                return False
        return True

    # -- ranks and dimensions ------------------------------------------------

    def rank(self, key: tuple, build) -> int:
        if key not in self._ranks:
            self._ranks[key] = rank_mod_p(build())
        return self._ranks[key]

    def dimensions(self) -> dict[tuple, int]:
        """{(theory, p, q): dim}, with q None for de Rham degree p."""
        n = self.n

        def size(p, q):
            return comb(n, p) * comb(n, q) if 0 <= p <= n and 0 <= q <= n else 0

        def rk_dbar(p, q):
            return self.rank(("dbar", p, q), lambda: self.delbar(p, q))

        def rk_ddbar(p, q):
            return self.rank(("ddbar", p, q), lambda: self.deldelbar(p, q))

        def rk_d(k):
            return self.rank(("d", k), lambda: self.d_total(k)) if k >= 0 else 0

        out: dict[tuple, int] = {}
        for p in range(n + 1):
            for q in range(n + 1):
                closed = self.rank(("closed", p, q), lambda: np.vstack([self.del_(p, q), self.delbar(p, q)]))
                exact_a = self.rank(
                    ("exact_a", p, q), lambda: np.hstack([self.del_(p - 1, q), self.delbar(p, q - 1)])
                )
                out[("bc", p, q)] = size(p, q) - closed - rk_ddbar(p - 1, q - 1)
                out[("aeppli", p, q)] = size(p, q) - rk_ddbar(p, q) - exact_a
                out[("dolbeault", p, q)] = size(p, q) - rk_dbar(p, q) - rk_dbar(p, q - 1)
        for k in range(2 * n + 1):
            total = sum(size(p, k - p) for p in range(k + 1))
            out[("derham", k, None)] = total - rk_d(k) - rk_d(k - 1)
        return out


def rank_mod_p(mat: np.ndarray) -> int:
    """Exact rank over F_p by Gaussian elimination on int64 entries in [0, P)."""
    if mat.size == 0:
        return 0
    a = mat.T.copy() if mat.shape[1] > mat.shape[0] else mat.copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), P - 2, P) % P
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if below.size:
            a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[r, c:]) % P) % P
        r += 1
    return r


def reference_dimensions(doc: dict) -> dict[tuple, int]:
    cx = ExactComplex(doc)
    if not cx.d_squared_zero():
        raise ValueError(f"model {doc['name']!r}: d^2 != 0 in the exact complex")
    return cx.dimensions()
