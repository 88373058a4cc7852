"""Bigraded exterior algebra of invariant forms on a complex Lie-algebra model.

A model is a complex n-dimensional Lie algebra presented through the structure
equations of a (1,0)-coframe phi^1..phi^n.  Each d(phi^k) must consist of a
(2,0) part and a (1,1) part only; the absence of a (0,2) part is what makes
the complex structure integrable, and the (0,1)-coframe differentials follow
by conjugation.  Invariant forms then span a finite bigraded algebra
Lambda^{p,q} whose canonical basis monomials are phi^I wedge phibar^J over
strictly increasing multi-indices, holomorphic factors written first, in
the order of ``multiindices``.  A ``Form`` is a coefficient vector over that
basis, and every product is a matrix from the wedge index tables.

Sign conventions, fixed once for the whole library:

* ``wedge(u, v) = (-1)^{deg u * deg v} wedge(v, u)``  (Koszul),
* ``conjugate(phi^I wedge phibar^J) = (-1)^{|I||J|} phi^J wedge phibar^I``
  with the coefficient conjugated,
* ``d(u wedge v) = du wedge v + (-1)^{deg u} u wedge dv``,
* ``integrate_top`` reads the coefficient against the reference volume
  element i^{n^2} phi^{1..n} wedge phibar^{1..n}, so the identity-metric
  volume form integrates to 1.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import ParseError

__all__ = [
    "MultiIndex",
    "Form",
    "LieModel",
    "ValidationReport",
    "parse_model",
    "model_to_document",
    "validate_model",
    "is_unimodular",
    "wedge",
    "conjugate",
    "del_form",
    "delbar_form",
    "d_form",
    "zero_form",
    "basis_form",
    "multiindices",
    "basis_index",
    "space_dim",
    "bidegrees_of_degree",
    "del_matrix",
    "delbar_matrix",
    "deldelbar_matrix",
    "block_matrix",
    "d_matrix",
    "closed_and_exact",
    "wedge_matrix",
    "operator_matrix",
    "to_vector",
    "from_vector",
    "integrate_top",
    "wedge_power",
    "form_to_document",
    "form_from_document",
    "random_form",
]

TOL_STRUCTURE = 1e-12  # d^2 = 0 and unimodularity, relative to the largest structure constant


class MultiIndex(NamedTuple):
    """Basis label phi^holo wedge phibar^anti; both tuples strictly increasing, 1-based."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]


class Form:
    """Invariant (p,q)-form on an n-dimensional model, as a coefficient vector.

    ``vec`` is a read-only complex vector over the canonical basis
    ``multiindices(n, p, q)``.  Bidegrees outside 0..n are legal and denote
    the zero-dimensional space, whose vector is empty.
    """

    __slots__ = ("n", "p", "q", "vec")
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, n: int, p: int, q: int, vec=None):
        dim = space_dim(n, p, q)
        vec = np.zeros(dim, dtype=complex) if vec is None else np.array(vec, dtype=complex)
        if vec.shape != (dim,):
            raise ValueError(f"({p},{q})-forms on n = {n} have {dim} coefficients, got {vec.shape}")
        vec.setflags(write=False)
        self.n, self.p, self.q, self.vec = n, p, q, vec

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.p, self.q)

    @property
    def degree(self) -> int:
        return self.p + self.q

    def is_zero(self) -> bool:
        return not self.vec.any()

    def norm(self) -> float:
        """Plain coefficient 2-norm (metric-free)."""
        return float(np.linalg.norm(self.vec))

    def coefficient(self, holo, anti) -> complex:
        k = basis_index(self.n, self.p, self.q).get(MultiIndex(tuple(holo), tuple(anti)))
        return 0j if k is None else complex(self.vec[k])

    def __add__(self, other: "Form") -> "Form":
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ValueError("cannot add forms of different bidegree or dimension")
        return Form(self.n, self.p, self.q, self.vec + other.vec)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1.0) * other

    def __neg__(self) -> "Form":
        return (-1.0) * self

    def __mul__(self, scalar) -> "Form":
        return Form(self.n, self.p, self.q, complex(scalar) * self.vec)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = []
        for mi, c in _terms(self):
            holo = "".join(f"f{i}" for i in mi.holo) or "1"
            anti = "".join(f"c{j}" for j in mi.anti)
            parts.append(f"({c:.4g})*{holo}{anti}")
        return f"Form({self.p},{self.q}; " + (" + ".join(parts) or "0") + ")"


def _terms(u: Form) -> list[tuple[MultiIndex, complex]]:
    """Nonzero (basis label, coefficient) pairs in canonical order."""
    basis = multiindices(u.n, u.p, u.q)
    return [(basis[k], complex(u.vec[k])) for k in np.flatnonzero(u.vec)]


def zero_form(n: int, p: int, q: int) -> Form:
    return Form(n, p, q)


def basis_form(n: int, holo, anti, coefficient: complex = 1.0) -> Form:
    """coefficient * phi^holo wedge phibar^anti; the indices must be a canonical label."""
    mi = MultiIndex(tuple(holo), tuple(anti))
    p, q = len(mi.holo), len(mi.anti)
    vec = np.zeros(space_dim(n, p, q), dtype=complex)
    vec[basis_index(n, p, q)[mi]] = coefficient
    return Form(n, p, q, vec)


def wedge(u: Form, v: Form) -> Form:
    """Graded-commutative exterior product with exact Koszul signs."""
    if u.n != v.n:
        raise ValueError("cannot wedge forms on models of different dimension")
    return Form(u.n, u.p + v.p, u.q + v.q, wedge_matrix(u.n, u, v.p, v.q) @ v.vec)


def wedge_power(u: Form, k: int) -> Form:
    """k-fold wedge power, with u^0 the constant function 1."""
    out = basis_form(u.n, (), ())
    for _ in range(k):
        out = wedge(out, u)
    return out


def conjugate(u: Form) -> Form:
    """Complex conjugate, swapping the bidegree to (q, p).

    As a C(n,p) x C(n,q) coefficient matrix the conjugate is the conjugate
    transpose, times the sign (-1)^{pq}.
    """
    if u.vec.size == 0:
        return Form(u.n, u.q, u.p)
    return Form(u.n, u.q, u.p, _conjugate_rows(u.vec[None, :], u.n, u.p, u.q)[0])


def _conjugate_rows(rows: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Canonical (q,p)-coefficients of the conjugates of the (p,q)-forms given as rows."""
    sign = -1.0 if (p * q) % 2 else 1.0
    mats = rows.reshape(rows.shape[0], math.comb(n, p), math.comb(n, q))
    return sign * mats.conj().transpose(0, 2, 1).reshape(rows.shape)


def is_real_form(u: Form, tol: float = 1e-12) -> bool:
    if (u.p, u.q) != (u.q, u.p):
        return False
    return (conjugate(u) - u).norm() <= tol * u.norm()


# ---------------------------------------------------------------------------
# models


@dataclass(eq=False)
class LieModel:
    """Complex Lie-algebra model: structure equations of the (1,0)-coframe.

    ``d20`` is an n x C(n,2) and ``d11`` an n x n^2 read-only array: row k
    holds the coefficients of the (2,0) and the (1,1) part of d(phi^{k+1})
    over the canonical bases of Lambda^{2,0} and Lambda^{1,1}.  There is no
    (0,2) part, which is the integrability of the complex structure.
    """

    name: str
    n: int
    d20: np.ndarray
    d11: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for attr, width in (("d20", space_dim(self.n, 2, 0)), ("d11", self.n**2)):
            rows = np.array(getattr(self, attr), dtype=complex)
            if rows.shape != (self.n, width):
                raise ValueError(f"{attr} must be {self.n} x {width}, got {rows.shape}")
            setattr(self, attr, _frozen(rows))


def parse_model(document: str | dict) -> LieModel:
    """Build a LieModel from its JSON document (text or parsed dict).

    Schema: ``{"name": str, "n": int >= 1, "dphi": [[term, ...] x n]}`` with
    ``term = {"type": "20"|"11", "i": int, "j": int, "coeff": [re, im]}``,
    indices 1-based and ``i < j`` required for "20" terms.  Coefficients of
    repeated (type, i, j) terms accumulate.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("document must be a JSON object")

    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("expected a non-empty string", "name")
    n = document.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("expected an integer >= 1", "n")
    dphi = document.get("dphi")
    if not isinstance(dphi, list) or len(dphi) != n:
        raise ParseError(f"expected a list of {n} term lists", "dphi")

    index20, index11 = basis_index(n, 2, 0), basis_index(n, 1, 1)
    d20 = np.zeros((n, len(index20)), dtype=complex)
    d11 = np.zeros((n, len(index11)), dtype=complex)
    for k, terms in enumerate(dphi):
        path_k = f"dphi[{k}]"
        if not isinstance(terms, list):
            raise ParseError("expected a list of terms", path_k)
        for t, term in enumerate(terms):
            path = f"{path_k}[{t}]"
            if not isinstance(term, dict):
                raise ParseError("expected a term object", path)
            kind = term.get("type")
            if kind not in ("20", "11"):
                raise ParseError("type must be '20' or '11'", f"{path}.type")
            for fld in ("i", "j"):
                v = term.get(fld)
                if not isinstance(v, int) or isinstance(v, bool) or not (1 <= v <= n):
                    raise ParseError(f"index out of range 1..{n}", f"{path}.{fld}")
            i, j = term["i"], term["j"]
            c = _parse_coeff(term.get("coeff"), f"{path}.coeff")
            if kind == "20":
                if i >= j:
                    raise ParseError("'20' terms need strictly increasing i < j", f"{path}.i")
                d20[k, index20[MultiIndex((i, j), ())]] += c
            else:
                d11[k, index11[MultiIndex((i,), (j,))]] += c
    return LieModel(name=name, n=n, d20=d20, d11=d11)


def _parse_coeff(coeff, path: str) -> complex:
    """A complex number from ``[re, im]``, both finite JSON numbers."""
    if (
        not isinstance(coeff, (list, tuple))
        or len(coeff) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in coeff)
    ):
        raise ParseError("expected [re, im]", path)
    if not all(abs(x) <= sys.float_info.max for x in coeff):  # NaN, infinities, huge integers
        raise ParseError("expected finite numbers", path)
    return complex(coeff[0], coeff[1])


def model_to_document(model: LieModel) -> dict:
    """Inverse of parse_model, up to term ordering."""
    labels = [("20", *mi.holo) for mi in multiindices(model.n, 2, 0)]
    labels += [("11", *mi.holo, *mi.anti) for mi in multiindices(model.n, 1, 1)]
    dphi = []
    for row in np.hstack([model.d20, model.d11]):
        terms = []
        for t in np.flatnonzero(row):
            kind, i, j = labels[t]
            c = complex(row[t])
            terms.append({"type": kind, "i": i, "j": j, "coeff": [c.real, c.imag]})
        dphi.append(terms)
    return {"name": model.name, "n": model.n, "dphi": dphi}


# ---------------------------------------------------------------------------
# bases and vectors


@lru_cache(maxsize=None)
def multiindices(n: int, p: int, q: int) -> tuple[MultiIndex, ...]:
    """Canonical ordered basis of Lambda^{p,q}; empty outside 0..n."""
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    rng = range(1, n + 1)
    return tuple(
        MultiIndex(holo, anti) for holo in combinations(rng, p) for anti in combinations(rng, q)
    )


@lru_cache(maxsize=None)
def basis_index(n: int, p: int, q: int) -> dict[MultiIndex, int]:
    return {mi: k for k, mi in enumerate(multiindices(n, p, q))}


def space_dim(n: int, p: int, q: int) -> int:
    if not (0 <= p <= n and 0 <= q <= n):
        return 0
    return math.comb(n, p) * math.comb(n, q)


def bidegrees_of_degree(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Bidegrees (p, q) with p + q = k, ordered by p."""
    return tuple((p, k - p) for p in range(max(0, k - n), min(n, k) + 1))


def to_vector(u: Form, n: int) -> np.ndarray:
    """Canonical coefficient vector of u (read-only)."""
    if u.n != n:
        raise ValueError(f"form lives on n = {u.n}, not n = {n}")
    return u.vec


def from_vector(vec: np.ndarray, n: int, p: int, q: int) -> Form:
    """The (p,q)-form with the given canonical coefficient vector."""
    return Form(n, p, q, vec)


def integrate_top(u: Form, n: int) -> complex:
    """Normalized integral of an (n,n)-form.

    Reads the coefficient against i^{n^2} phi^{1..n} wedge phibar^{1..n}; the
    d-image of any invariant form integrates to zero exactly when the model
    is unimodular.
    """
    if (u.n, u.p, u.q) != (n, n, n):
        raise ValueError(f"integrate_top needs an ({n},{n})-form, got ({u.p},{u.q})")
    return complex(u.vec[0]) / (1j) ** (n * n % 4)


# ---------------------------------------------------------------------------
# index tables: wedge by basis monomials, and del and delbar composed from it
#
# A multi-index is also a bitmask (bit i-1 for index i).  The tables are
# model-free, built on first use and kept for the life of the process.


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def _mask(indices: tuple[int, ...]) -> int:
    return sum(1 << (i - 1) for i in indices)


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Popcount, and lexicographic rank among the subsets of its size, of every subset mask."""
    popcount = np.array([bin(m).count("1") for m in range(1 << n)], dtype=np.int64)
    rank = np.zeros(1 << n, dtype=np.int64)
    for k in range(n + 1):
        for r, comb in enumerate(combinations(range(1, n + 1), k)):
            rank[_mask(comb)] = r
    return _frozen(popcount), _frozen(rank)


@lru_cache(maxsize=None)
def _wedge_table(n: int, a: int, b: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """Nonzero products e_r wedge e_c of basis monomials of Lambda^{a,b} and Lambda^{p,q}.

    Returns (r, c, row, sign): e_r wedge e_c = sign * (basis monomial ``row``
    of Lambda^{p+a,q+b}).  The sign is the Koszul sign: (-1)^{pb} for moving
    the holomorphic factors of e_c past the antiholomorphic ones of e_r, times
    the signs of sorting the holomorphic and the antiholomorphic indices of
    both into increasing order, counted as the pairs (x in e_r, y in e_c)
    with x > y.  For a fixed e_c distinct e_r give distinct rows.
    """
    basis = multiindices(n, p, q)
    if not basis or space_dim(n, p + a, q + b) == 0:
        return tuple(np.zeros(0, dtype=np.int32) for _ in range(4))
    popcount, rank = _subset_tables(n)
    holo = np.array([_mask(mi.holo) for mi in basis], dtype=np.int64)
    anti = np.array([_mask(mi.anti) for mi in basis], dtype=np.int64)
    width = math.comb(n, q + b)
    parts = []
    for r, (wh, wa) in enumerate(multiindices(n, a, b)):
        mh, ma = _mask(wh), _mask(wa)
        c = np.flatnonzero(((holo & mh) == 0) & ((anti & ma) == 0))
        h, j = holo[c], anti[c]
        pairs = np.full(c.size, p * b)
        for x in wh:
            pairs += popcount[h & ((1 << (x - 1)) - 1)]
        for x in wa:
            pairs += popcount[j & ((1 << (x - 1)) - 1)]
        row = rank[h | mh] * width + rank[j | ma]
        parts.append((np.full(c.size, r), c, row, 1 - 2 * (pairs % 2)))
    return tuple(_frozen(np.concatenate(col).astype(np.int32)) for col in zip(*parts))


@lru_cache(maxsize=None)
def _differential_table(n: int, kind: str, p: int, q: int) -> tuple[np.ndarray, ...]:
    """del or delbar on Lambda^{p,q} as model-free (entry, coefficient, signs) columns.

    The derivation identity d = sum_g (dg wedge .) i_g runs over the 2n
    generators g = phi^k, phibar^k, with d(phibar^k) = conjugate d(phi^k):
    del    = sum_k W(d20_k) i_k + W(conj d11_k) ibar_k,
    delbar = sum_k W(d11_k) i_k + W(conj d20_k) ibar_k.
    i_k removes phi^k (ibar_k phibar^k) from a monomial with the sign
    (-1)^position, antiholomorphic positions counted after the p holomorphic
    ones; it is the transpose of phi^k wedge . (phibar^k wedge .).  Each
    product of a contraction and a wedge term gives the flat entry row * dim
    Lambda^{p,q} + column of the block, the index of its structure constant
    in the model's rows d20 and d11 laid end to end, and the product of the
    two signs for its real part (negated for the imaginary part of a
    conjugated constant).
    """
    dim = space_dim(n, p, q)
    entry, coeff = [np.zeros(0, np.int32)], [np.zeros(0, np.int16)]
    re_signs, im_signs = [np.zeros(0, np.int8)], [np.zeros(0, np.int8)]
    w20 = n * space_dim(n, 2, 0)
    if kind == "del":  # (wedge bidegree, offset of its rows in d20 | d11, conjugated)
        halves = (((2, 0), 0, False), ((1, 1), w20, True))
    else:
        halves = (((1, 1), w20, False), ((0, 2), 0, True))
    for (ga, gb), ((a, b), offset, conj) in zip(((1, 0), (0, 1)), halves):
        k, mid, src, contract = _wedge_table(n, ga, gb, p - ga, q - gb)  # g_k ^ e_mid = +-e_src
        r, c, row, sign = _wedge_table(n, a, b, p - ga, q - gb)  # e_r ^ e_c = sign e_row
        if mid.size:
            # every monomial e_c meets the same number of e_r: one row of wedge terms each
            terms = np.argsort(c, kind="stable").reshape(space_dim(n, p - ga, q - gb), -1)[mid]
            index, signs = r[terms], contract[:, None] * sign[terms]
            if conj:  # entry (I, J) of conj u is (-1)^{ab} conj of entry (J, I) of u
                holo, anti = divmod(index, math.comb(n, b))
                index, signs = anti * math.comb(n, a) + holo, signs * (-1) ** (a * b)
            entry.append((row[terms] * dim + src[:, None]).ravel())
            coeff.append((offset + k[:, None] * space_dim(n, a, b) + index).ravel())
            re_signs.append(signs.ravel())
            im_signs.append((-signs if conj else signs).ravel())
    columns = (entry, coeff, re_signs, im_signs)
    return tuple(_frozen(np.concatenate(col).astype(col[0].dtype)) for col in columns)


# ---------------------------------------------------------------------------
# differentials


def _differential(model: LieModel, kind: str, p: int, q: int) -> np.ndarray:
    """del or delbar on Lambda^{p,q}, cached: ``_differential_table`` summed over the dg_k."""
    if (kind, p, q) in model._cache:
        return model._cache[kind, p, q]
    n = model.n
    entry, index, re_sign, im_sign = _differential_table(n, kind, p, q)
    coeffs = np.concatenate([model.d20.ravel(), model.d11.ravel()])[index]
    shape = (space_dim(n, p + (kind == "del"), q + (kind == "delbar")), space_dim(n, p, q))
    size = shape[0] * shape[1]
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(entry, coeffs.real * re_sign, minlength=size)
    out.imag = np.bincount(entry, coeffs.imag * im_sign, minlength=size)
    model._cache[kind, p, q] = _frozen(out.reshape(shape))
    return model._cache[kind, p, q]


def del_form(model: LieModel, u: Form) -> Form:
    """Holomorphic differential: (p,q) -> (p+1,q)."""
    return Form(model.n, u.p + 1, u.q, del_matrix(model, u.p, u.q) @ u.vec)


def delbar_form(model: LieModel, u: Form) -> Form:
    """Antiholomorphic differential: (p,q) -> (p,q+1)."""
    return Form(model.n, u.p, u.q + 1, delbar_matrix(model, u.p, u.q) @ u.vec)


def d_form(model: LieModel, u: Form) -> tuple[Form, Form]:
    """Full differential split into its (del, delbar) components."""
    return del_form(model, u), delbar_form(model, u)


# ---------------------------------------------------------------------------
# matrices over the canonical bases


def del_matrix(model: LieModel, p: int, q: int) -> np.ndarray:
    """Matrix of del: Lambda^{p,q} -> Lambda^{p+1,q}; zero-sized off range."""
    return _differential(model, "del", p, q)


def delbar_matrix(model: LieModel, p: int, q: int) -> np.ndarray:
    """Matrix of delbar: Lambda^{p,q} -> Lambda^{p,q+1}."""
    return _differential(model, "delbar", p, q)


def deldelbar_matrix(model: LieModel, p: int, q: int) -> np.ndarray:
    """Matrix of del.delbar: Lambda^{p,q} -> Lambda^{p+1,q+1}."""
    return del_matrix(model, p, q + 1) @ delbar_matrix(model, p, q)


def block_matrix(n: int, sources, targets, parts) -> np.ndarray:
    """Dense map between sums of bidegrees, over the concatenated canonical bases.

    ``parts`` maps a bidegree shift (dp, dq) to a function (p, q) -> matrix of
    the component Lambda^{p,q} -> Lambda^{p+dp,q+dq}; components whose target
    is not listed are dropped.
    """
    row_offset = {}
    rows = 0
    for pq in targets:
        row_offset[pq] = rows
        rows += space_dim(n, *pq)
    widths = [space_dim(n, *pq) for pq in sources]
    mat = np.zeros((rows, sum(widths)), dtype=complex)
    col = 0
    for (p, q), w in zip(sources, widths):
        for (dp, dq), block in parts.items():
            tgt = (p + dp, q + dq)
            if tgt in row_offset:
                r = row_offset[tgt]
                mat[r : r + space_dim(n, *tgt), col : col + w] = block(p, q)
        col += w
    return mat


def d_matrix(model: LieModel, k: int) -> np.ndarray:
    """Block matrix of d: Lambda^k -> Lambda^{k+1} over the bidegree splitting."""
    n = model.n
    parts = {
        (1, 0): lambda p, q: del_matrix(model, p, q),
        (0, 1): lambda p, q: delbar_matrix(model, p, q),
    }
    return block_matrix(n, bidegrees_of_degree(n, k), bidegrees_of_degree(n, k + 1), parts)


def closed_and_exact(model: LieModel, theory: str, p: int, q: int | None):
    """The operators that define a cohomology theory: its space is ker closed / im exact.

    The blocks are those of ``model``: the model's own coframe, or the
    unitary frame of a metric through ``hodge.frame_model``, alike.  For de
    Rham p is the degree and q is unused.
    """
    if theory == "bc":
        closed = np.vstack([del_matrix(model, p, q), delbar_matrix(model, p, q)])
        exact = del_matrix(model, p - 1, q) @ delbar_matrix(model, p - 1, q - 1)
    elif theory == "aeppli":
        closed = del_matrix(model, p, q + 1) @ delbar_matrix(model, p, q)
        exact = np.hstack([del_matrix(model, p - 1, q), delbar_matrix(model, p, q - 1)])
    elif theory == "dolbeault":
        closed, exact = delbar_matrix(model, p, q), delbar_matrix(model, p, q - 1)
    elif theory == "derham":
        closed, exact = d_matrix(model, p), d_matrix(model, p - 1)
    else:
        raise ValueError(f"unknown theory {theory!r}")
    return closed, exact


def wedge_matrix(n: int, w: Form, p: int, q: int) -> np.ndarray:
    """Matrix of (w wedge .): Lambda^{p,q} -> Lambda^{p+w.p, q+w.q}."""
    r, c, row, sign = _wedge_table(n, w.p, w.q, p, q)
    out = np.zeros((space_dim(n, p + w.p, q + w.q), space_dim(n, p, q)), dtype=complex)
    out[row, c] = to_vector(w, n)[r] * sign  # (row, c) pairs are distinct: no accumulation
    return out


def operator_matrix(model: LieModel, kind: str, p: int, q: int) -> np.ndarray:
    """Matrix of d, del, delbar or deldelbar on Lambda^{p,q}; d stacks del over delbar."""
    if kind == "del":
        return del_matrix(model, p, q)
    if kind == "delbar":
        return delbar_matrix(model, p, q)
    if kind == "deldelbar":
        return deldelbar_matrix(model, p, q)
    if kind == "d":
        return np.vstack([del_matrix(model, p, q), delbar_matrix(model, p, q)])
    raise ValueError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    d_squared_zero: bool
    integrable: bool
    unimodular: bool
    d_squared_residual: float
    volume_row_norm: float

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def _max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat), initial=0.0))


def validate_model(model: LieModel) -> ValidationReport:
    """Check d^2 = 0 on 1-forms, integrability, and unimodularity.

    Failures are reported, never raised.  d^2 = 0 on the coframe extends to
    the whole algebra because d is a derivation; unimodularity is the exact
    validity of Stokes on invariant top-degree forms, tested by requiring the
    differential of every (2n-1)-form to have no volume component.  The d^2
    and volume residuals are relative to c^2 and c, c the largest structure
    constant, so rescaling the coframe keeps both verdicts.  Integrability
    holds by construction: a LieModel has no (0,2) rows.
    """
    d1 = d_matrix(model, 1)
    size = _max_abs(d1)
    residual = _max_abs(d_matrix(model, 2) @ d1)
    vol_row = _max_abs(d_matrix(model, 2 * model.n - 1))
    return ValidationReport(
        d_squared_zero=residual <= TOL_STRUCTURE * size**2,
        integrable=True,
        unimodular=vol_row <= TOL_STRUCTURE * size,
        d_squared_residual=residual,
        volume_row_norm=vol_row,
    )


def is_unimodular(model: LieModel) -> bool:
    if "unimodular" not in model._cache:
        model._cache["unimodular"] = validate_model(model).unimodular
    return model._cache["unimodular"]


# ---------------------------------------------------------------------------
# serialization of forms, random sampling


def form_to_document(u: Form) -> dict:
    terms = [
        {"holo": list(mi.holo), "anti": list(mi.anti), "coeff": [c.real, c.imag]}
        for mi, c in _terms(u)
    ]
    return {"p": u.p, "q": u.q, "terms": terms}


def _parse_indices(value, count: int, n: int, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in value
    ):
        raise ParseError("expected a list of integers", path)
    if len(value) != count:
        raise ParseError(f"expected {count} indices for the form's bidegree", path)
    if any(not (1 <= i <= n) for i in value):
        raise ParseError(f"index out of range 1..{n}", path)
    if any(a >= b for a, b in zip(value, value[1:])):
        raise ParseError("indices must be strictly increasing", path)
    return tuple(value)


def form_from_document(doc: dict, n: int) -> Form:
    """Form on an n-dimensional model from ``{"p": int, "q": int, "terms": [term, ...]}``.

    ``term = {"holo": [i, ...], "anti": [j, ...], "coeff": [re, im]}`` with p
    resp. q strictly increasing indices in 1..n; coefficients of repeated
    terms accumulate.  p and q lie in 0..n, and ``terms`` is required (``[]``
    is the zero form).
    """
    if not isinstance(doc, dict):
        raise ParseError("form document must be a JSON object")
    for fld in ("p", "q"):
        if not isinstance(doc.get(fld), int) or isinstance(doc[fld], bool):
            raise ParseError("expected an integer", fld)
        if not 0 <= doc[fld] <= n:
            raise ParseError(f"degree out of range 0..{n}", fld)
    p, q = doc["p"], doc["q"]
    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise ParseError("expected a list of terms", "terms")
    index = basis_index(n, p, q)
    vec = np.zeros(space_dim(n, p, q), dtype=complex)
    for t, term in enumerate(terms):
        path = f"terms[{t}]"
        if not isinstance(term, dict):
            raise ParseError("expected a term object", path)
        holo = _parse_indices(term.get("holo"), p, n, f"{path}.holo")
        anti = _parse_indices(term.get("anti"), q, n, f"{path}.anti")
        vec[index[MultiIndex(holo, anti)]] += _parse_coeff(term.get("coeff"), f"{path}.coeff")
    return Form(n, p, q, vec)


def random_form(n: int, p: int, q: int, rng: np.random.Generator) -> Form:
    """Dense random form with standard-normal complex coefficients."""
    dim = space_dim(n, p, q)
    return Form(n, p, q, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
