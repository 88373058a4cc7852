"""Bigraded exterior algebra of invariant forms on a complex Lie-algebra model.

A model is a complex n-dimensional Lie algebra presented through the structure
equations of a (1,0)-coframe phi^1..phi^n.  Each d(phi^k) must consist of a
(2,0) part and a (1,1) part only; the absence of a (0,2) part is what makes
the complex structure integrable, and the (0,1)-coframe differentials follow
by conjugation.  Invariant forms then span a finite bigraded algebra
Lambda^{p,q} whose canonical basis monomials are phi^I wedge phibar^J over
strictly increasing multi-indices, holomorphic factors written first.

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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParseError

__all__ = [
    "MultiIndex",
    "Form",
    "LieModel",
    "BigradedOperator",
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


class MultiIndex(NamedTuple):
    """Basis label phi^holo wedge phibar^anti; both tuples strictly increasing, 1-based."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]


def _is_increasing(t: tuple[int, ...]) -> bool:
    return all(a < b for a, b in zip(t, t[1:]))


@dataclass(eq=False)
class Form:
    """Sparse bigraded form: map from MultiIndex to complex coefficient.

    Zero coefficients are never stored.  Bidegrees outside 0..n are legal and
    simply denote elements of a zero-dimensional space.
    """

    p: int
    q: int
    coeffs: dict[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[MultiIndex, complex] = {}
        for mi, c in self.coeffs.items():
            mi = MultiIndex(tuple(mi[0]), tuple(mi[1]))
            if len(mi.holo) != self.p or len(mi.anti) != self.q:
                raise ValueError(f"index {mi} does not have bidegree ({self.p},{self.q})")
            if not (_is_increasing(mi.holo) and _is_increasing(mi.anti)):
                raise ValueError(f"index {mi} is not strictly increasing")
            c = complex(c)
            if c != 0:
                clean[mi] = c
        self.coeffs = clean

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.p, self.q)

    @property
    def degree(self) -> int:
        return self.p + self.q

    def is_zero(self) -> bool:
        return not self.coeffs

    def norm(self) -> float:
        """Plain coefficient 2-norm (metric-free)."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def coefficient(self, holo, anti) -> complex:
        return self.coeffs.get(MultiIndex(tuple(holo), tuple(anti)), 0j)

    def __add__(self, other: "Form") -> "Form":
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("cannot add forms of different bidegree")
        out = dict(self.coeffs)
        for mi, c in other.coeffs.items():
            out[mi] = out.get(mi, 0j) + c
        return Form(self.p, self.q, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1.0) * other

    def __neg__(self) -> "Form":
        return (-1.0) * self

    def __mul__(self, scalar) -> "Form":
        scalar = complex(scalar)
        return Form(self.p, self.q, {mi: scalar * c for mi, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"Form({self.p},{self.q}; 0)"
        parts = []
        for mi in sorted(self.coeffs):
            holo = "".join(f"f{i}" for i in mi.holo) or "1"
            anti = "".join(f"c{j}" for j in mi.anti)
            parts.append(f"({self.coeffs[mi]:.4g})*{holo}{anti}")
        return f"Form({self.p},{self.q}; " + " + ".join(parts) + ")"


def zero_form(p: int, q: int) -> Form:
    return Form(p, q, {})


def basis_form(holo, anti, coefficient: complex = 1.0) -> Form:
    mi = MultiIndex(tuple(holo), tuple(anti))
    return Form(len(mi.holo), len(mi.anti), {mi: coefficient})


def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge strictly increasing tuples tracking the Koszul sign; None on repeat."""
    out: list[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def wedge(u: Form, v: Form) -> Form:
    """Graded-commutative exterior product with exact Koszul signs."""
    coeffs: dict[MultiIndex, complex] = {}
    # moving the holomorphic factors of v past the antiholomorphic ones of u
    cross = -1.0 if (v.p * u.q) % 2 else 1.0
    for mi_u, cu in u.coeffs.items():
        for mi_v, cv in v.coeffs.items():
            mh = _merge_indices(mi_u.holo, mi_v.holo)
            if mh is None:
                continue
            ma = _merge_indices(mi_u.anti, mi_v.anti)
            if ma is None:
                continue
            mi = MultiIndex(mh[1], ma[1])
            coeffs[mi] = coeffs.get(mi, 0j) + cross * mh[0] * ma[0] * cu * cv
    return Form(u.p + v.p, u.q + v.q, coeffs)


def wedge_power(u: Form, k: int) -> Form:
    """k-fold wedge power, with u^0 the constant function 1."""
    out = basis_form((), ())
    for _ in range(k):
        out = wedge(out, u)
    return out


def conjugate(u: Form) -> Form:
    """Complex conjugate, swapping the bidegree to (q, p)."""
    sign = -1.0 if (u.p * u.q) % 2 else 1.0
    coeffs = {MultiIndex(mi.anti, mi.holo): sign * c.conjugate() for mi, c in u.coeffs.items()}
    return Form(u.q, u.p, coeffs)


def is_real_form(u: Form, tol: float = 1e-12) -> bool:
    if (u.p, u.q) != (u.q, u.p):
        return False
    return (conjugate(u) - u).norm() <= tol * max(1.0, u.norm())


# ---------------------------------------------------------------------------
# models


@dataclass(eq=False)
class LieModel:
    """Complex Lie-algebra model: structure equations of the (1,0)-coframe.

    ``d20[k]`` and ``d11[k]`` are the (2,0) and (1,1) parts of d(phi^{k+1});
    a (0,2) part is excluded by construction, which is the integrability of
    the complex structure.
    """

    name: str
    n: int
    d20: tuple[Form, ...]
    d11: tuple[Form, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.d20) != self.n or len(self.d11) != self.n:
            raise ValueError("structure equations must list all n generators")
        for k, (f20, f11) in enumerate(zip(self.d20, self.d11), start=1):
            if f20.bidegree != (2, 0) or f11.bidegree != (1, 1):
                raise ValueError(f"d(phi^{k}) parts carry wrong bidegrees")
            for mi in list(f20.coeffs) + list(f11.coeffs):
                if any(not (1 <= i <= self.n) for i in mi.holo + mi.anti):
                    raise ValueError(f"d(phi^{k}) uses an index outside 1..{self.n}")

    def d_generator(self, k: int, anti: bool = False) -> tuple[Form, Form]:
        """(del part, delbar part) of d(phi^k) or d(phibar^k), 1-based k."""
        if not anti:
            return self.d20[k - 1], self.d11[k - 1]
        key = ("dbar-gen", k)
        if key not in self._cache:
            # d(phibar^k) = conjugate of d(phi^k): (1,1) part raises p, (0,2) raises q
            self._cache[key] = (conjugate(self.d11[k - 1]), conjugate(self.d20[k - 1]))
        return self._cache[key]


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

    d20: list[Form] = []
    d11: list[Form] = []
    for k, terms in enumerate(dphi):
        path_k = f"dphi[{k}]"
        if not isinstance(terms, list):
            raise ParseError("expected a list of terms", path_k)
        c20: dict[MultiIndex, complex] = {}
        c11: dict[MultiIndex, complex] = {}
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
            coeff = term.get("coeff")
            if (
                not isinstance(coeff, (list, tuple))
                or len(coeff) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in coeff)
            ):
                raise ParseError("coeff must be [re, im]", f"{path}.coeff")
            c = complex(coeff[0], coeff[1])
            if kind == "20":
                if i >= j:
                    raise ParseError("'20' terms need strictly increasing i < j", f"{path}.i")
                mi = MultiIndex((i, j), ())
                c20[mi] = c20.get(mi, 0j) + c
            else:
                mi = MultiIndex((i,), (j,))
                c11[mi] = c11.get(mi, 0j) + c
        d20.append(Form(2, 0, c20))
        d11.append(Form(1, 1, c11))
    return LieModel(name=name, n=n, d20=tuple(d20), d11=tuple(d11))


def model_to_document(model: LieModel) -> dict:
    """Inverse of parse_model, up to term ordering."""
    dphi = []
    for f20, f11 in zip(model.d20, model.d11):
        terms = []
        for mi in sorted(f20.coeffs):
            c = f20.coeffs[mi]
            terms.append({"type": "20", "i": mi.holo[0], "j": mi.holo[1], "coeff": [c.real, c.imag]})
        for mi in sorted(f11.coeffs):
            c = f11.coeffs[mi]
            terms.append({"type": "11", "i": mi.holo[0], "j": mi.anti[0], "coeff": [c.real, c.imag]})
        dphi.append(terms)
    return {"name": model.name, "n": model.n, "dphi": dphi}


# ---------------------------------------------------------------------------
# bases and vectors


@lru_cache(maxsize=None)
def multiindices(n: int, p: int, q: int) -> tuple[MultiIndex, ...]:
    """Canonical ordered basis of Lambda^{p,q}; empty outside 0..n."""
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    from itertools import combinations

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
    idx = basis_index(n, u.p, u.q)
    vec = np.zeros(space_dim(n, u.p, u.q), dtype=complex)
    for mi, c in u.coeffs.items():
        vec[idx[mi]] = c
    return vec


def from_vector(vec: np.ndarray, n: int, p: int, q: int) -> Form:
    basis = multiindices(n, p, q)
    return Form(p, q, {mi: complex(c) for mi, c in zip(basis, vec) if c != 0})


def integrate_top(u: Form, n: int) -> complex:
    """Normalized integral of an (n,n)-form.

    Reads the coefficient against i^{n^2} phi^{1..n} wedge phibar^{1..n}; the
    d-image of any invariant form integrates to zero exactly when the model
    is unimodular.
    """
    if (u.p, u.q) != (n, n):
        raise ValueError(f"integrate_top needs an ({n},{n})-form, got ({u.p},{u.q})")
    top = tuple(range(1, n + 1))
    return u.coefficient(top, top) / (1j) ** (n * n % 4)


# ---------------------------------------------------------------------------
# differentials


def _d_monomial(model: LieModel, mi: MultiIndex) -> tuple[Form, Form]:
    """(del, delbar) of a basis monomial by the graded Leibniz rule."""
    key = ("dmon", mi)
    hit = model._cache.get(key)
    if hit is not None:
        return hit
    p, q = len(mi.holo), len(mi.anti)
    del_part = zero_form(p + 1, q)
    delbar_part = zero_form(p, q + 1)
    for t in range(p + q):
        sign = -1.0 if t % 2 else 1.0
        if t < p:
            pre = basis_form(mi.holo[:t], ())
            suf = basis_form(mi.holo[t + 1 :], mi.anti)
            raises_p, raises_q = model.d_generator(mi.holo[t])
        else:
            s = t - p
            pre = basis_form(mi.holo, mi.anti[:s])
            suf = basis_form((), mi.anti[s + 1 :])
            raises_p, raises_q = model.d_generator(mi.anti[s], anti=True)
        if not raises_p.is_zero():
            del_part = del_part + sign * wedge(pre, wedge(raises_p, suf))
        if not raises_q.is_zero():
            delbar_part = delbar_part + sign * wedge(pre, wedge(raises_q, suf))
    model._cache[key] = (del_part, delbar_part)
    return del_part, delbar_part


def del_form(model: LieModel, u: Form) -> Form:
    """Holomorphic differential: (p,q) -> (p+1,q)."""
    out = zero_form(u.p + 1, u.q)
    for mi, c in u.coeffs.items():
        out = out + c * _d_monomial(model, mi)[0]
    return out


def delbar_form(model: LieModel, u: Form) -> Form:
    """Antiholomorphic differential: (p,q) -> (p,q+1)."""
    out = zero_form(u.p, u.q + 1)
    for mi, c in u.coeffs.items():
        out = out + c * _d_monomial(model, mi)[1]
    return out


def d_form(model: LieModel, u: Form) -> tuple[Form, Form]:
    """Full differential split into its (del, delbar) components."""
    return del_form(model, u), delbar_form(model, u)


# ---------------------------------------------------------------------------
# matrices over the canonical bases


def _cached_matrix(model: LieModel, key, builder) -> np.ndarray:
    hit = model._cache.get(key)
    if hit is None:
        hit = builder()
        hit.setflags(write=False)
        model._cache[key] = hit
    return hit


def del_matrix(model: LieModel, p: int, q: int) -> np.ndarray:
    """Matrix of del: Lambda^{p,q} -> Lambda^{p+1,q}; zero-sized off range."""
    n = model.n

    def build():
        mat = np.zeros((space_dim(n, p + 1, q), space_dim(n, p, q)), dtype=complex)
        for col, mi in enumerate(multiindices(n, p, q)):
            mat[:, col] = to_vector(_d_monomial(model, mi)[0], n)
        return mat

    return _cached_matrix(model, ("del", p, q), build)


def delbar_matrix(model: LieModel, p: int, q: int) -> np.ndarray:
    """Matrix of delbar: Lambda^{p,q} -> Lambda^{p,q+1}."""
    n = model.n

    def build():
        mat = np.zeros((space_dim(n, p, q + 1), space_dim(n, p, q)), dtype=complex)
        for col, mi in enumerate(multiindices(n, p, q)):
            mat[:, col] = to_vector(_d_monomial(model, mi)[1], n)
        return mat

    return _cached_matrix(model, ("delbar", p, q), build)


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


def wedge_matrix(n: int, w: Form, p: int, q: int) -> np.ndarray:
    """Matrix of (w wedge .): Lambda^{p,q} -> Lambda^{p+w.p, q+w.q}."""
    mat = np.zeros((space_dim(n, p + w.p, q + w.q), space_dim(n, p, q)), dtype=complex)
    for col, mi in enumerate(multiindices(n, p, q)):
        mat[:, col] = to_vector(wedge(w, basis_form(mi.holo, mi.anti)), n)
    return mat


@dataclass(eq=False)
class BigradedOperator:
    """Dense matrix of a linear map between sums of fixed-bidegree components.

    Rows and columns follow the concatenation of the canonical bases of the
    listed target and source bidegrees.
    """

    sources: tuple[tuple[int, int], ...]
    targets: tuple[tuple[int, int], ...]
    matrix: np.ndarray

    def apply(self, u: Form, n: int) -> Form:
        if len(self.sources) != 1 or len(self.targets) != 1:
            raise ValueError("apply() needs a single-bidegree operator")
        if u.bidegree != self.sources[0]:
            raise ValueError(f"operator expects bidegree {self.sources[0]}, got {u.bidegree}")
        out = self.matrix @ to_vector(u, n)
        return from_vector(out, n, *self.targets[0])


def operator_matrix(model: LieModel, kind: str, p: int, q: int) -> BigradedOperator:
    """Assemble d, del, delbar or deldelbar on Lambda^{p,q} as a BigradedOperator."""
    if kind == "del":
        return BigradedOperator(((p, q),), ((p + 1, q),), del_matrix(model, p, q))
    if kind == "delbar":
        return BigradedOperator(((p, q),), ((p, q + 1),), delbar_matrix(model, p, q))
    if kind == "deldelbar":
        return BigradedOperator(((p, q),), ((p + 1, q + 1),), deldelbar_matrix(model, p, q))
    if kind == "d":
        mat = np.vstack([del_matrix(model, p, q), delbar_matrix(model, p, q)])
        return BigradedOperator(((p, q),), ((p + 1, q), (p, q + 1)), mat)
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
        return {
            "d_squared_zero": self.d_squared_zero,
            "integrable": self.integrable,
            "unimodular": self.unimodular,
            "d_squared_residual": self.d_squared_residual,
            "volume_row_norm": self.volume_row_norm,
        }


def validate_model(model: LieModel, tol: float = 1e-12) -> ValidationReport:
    """Check d^2 = 0 on 1-forms, integrability, and unimodularity.

    Failures are reported, never raised.  d^2 = 0 on the coframe extends to
    the whole algebra because d is a derivation; unimodularity is the exact
    validity of Stokes on invariant top-degree forms, tested by requiring the
    differential of every (2n-1)-form to have no volume component.
    """
    n = model.n
    residual = 0.0
    for p, q in ((1, 0), (0, 1)):
        dd_hh = del_matrix(model, p + 1, q) @ del_matrix(model, p, q)
        dd_aa = delbar_matrix(model, p, q + 1) @ delbar_matrix(model, p, q)
        dd_mix = del_matrix(model, p, q + 1) @ delbar_matrix(model, p, q) + delbar_matrix(
            model, p + 1, q
        ) @ del_matrix(model, p, q)
        for mat in (dd_hh, dd_aa, dd_mix):
            if mat.size:
                residual = max(residual, float(np.max(np.abs(mat))))

    # structure equations can only carry (2,0) and (1,1) parts; re-checked here
    integrable = all(
        f20.bidegree == (2, 0) and f11.bidegree == (1, 1)
        for f20, f11 in zip(model.d20, model.d11)
    )

    vol_row = 0.0
    for mat in (delbar_matrix(model, n, n - 1), del_matrix(model, n - 1, n)):
        if mat.size:
            vol_row = max(vol_row, float(np.max(np.abs(mat))))

    return ValidationReport(
        d_squared_zero=residual <= tol,
        integrable=integrable,
        unimodular=vol_row <= tol,
        d_squared_residual=residual,
        volume_row_norm=vol_row,
    )


def is_unimodular(model: LieModel, tol: float = 1e-12) -> bool:
    key = ("unimodular", tol)
    if key not in model._cache:
        model._cache[key] = validate_model(model, tol).unimodular
    return model._cache[key]


# ---------------------------------------------------------------------------
# serialization of forms, random sampling


def form_to_document(u: Form) -> dict:
    terms = [
        {"holo": list(mi.holo), "anti": list(mi.anti), "coeff": [c.real, c.imag]}
        for mi, c in sorted(u.coeffs.items())
    ]
    return {"p": u.p, "q": u.q, "terms": terms}


def form_from_document(doc: dict) -> Form:
    if not isinstance(doc, dict):
        raise ParseError("form document must be a JSON object")
    for fld in ("p", "q"):
        if not isinstance(doc.get(fld), int):
            raise ParseError("expected an integer", fld)
    coeffs: dict[MultiIndex, complex] = {}
    for t, term in enumerate(doc.get("terms", [])):
        path = f"terms[{t}]"
        try:
            mi = MultiIndex(tuple(term["holo"]), tuple(term["anti"]))
            c = complex(term["coeff"][0], term["coeff"][1])
        except (KeyError, TypeError, IndexError) as exc:
            raise ParseError(f"malformed term: {exc}", path) from exc
        coeffs[mi] = coeffs.get(mi, 0j) + c
    try:
        return Form(doc["p"], doc["q"], coeffs)
    except ValueError as exc:
        raise ParseError(str(exc), "terms") from exc


def random_form(n: int, p: int, q: int, rng: np.random.Generator, real: bool = False) -> Form:
    """Dense random form with standard-normal complex coefficients."""
    dim = space_dim(n, p, q)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u = from_vector(vec, n, p, q)
    if real:
        u = 0.5 * (u + conjugate(u))
    return u
