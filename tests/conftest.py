"""Shared fixtures and an independent exact-arithmetic oracle.

The oracle reimplements the invariant differential calculus from scratch on
a different representation (ordered generator words, canonicalized by
bubble sort, coefficients in Q(i) via sympy) and computes cohomology
dimensions by exact ranks.  It shares no code with the package, so the
package's floating SVD route and harmonic route are both checked against
exact arithmetic.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from pluriclosed import algebra as alg
from pluriclosed import fixtures as fx
from pluriclosed import hodge

UNIMODULAR_MODELS = ("torus1", "torus2", "torus3", "iwasawa", "kodaira_thurston")

DOUBLE_KT_DOC = {
    "name": "double_kt",
    "n": 4,
    "dphi": [
        [],
        [{"type": "11", "i": 1, "j": 1, "coeff": [1.0, 0.0]}],
        [],
        [{"type": "11", "i": 3, "j": 3, "coeff": [1.0, 0.0]}],
    ],
}


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child interpreters (the CLI and import tests) import the package this session imported."""
    src = str(Path(alg.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def models() -> dict[str, alg.LieModel]:
    out = {name: fx.load_model(name) for name in fx.available_models()}
    out["double_kt"] = alg.parse_model(DOUBLE_KT_DOC)
    return out


@pytest.fixture(scope="session")
def metrics(models) -> dict[str, hodge.HermitianMetric]:
    out = {name: hodge.identity_metric(model) for name, model in models.items()}
    out["kt_standard"] = hodge.metric_from_document(
        models["kodaira_thurston"], fx.load_document("metric_kt_standard")
    )
    return out


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture()
def bench_module(monkeypatch):
    """Import a module of ``bench/`` (not collected) from a path entry added for one test."""
    bench = Path(__file__).resolve().parent.parent / "bench"

    def load(name: str):
        monkeypatch.syspath_prepend(str(bench))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
        try:
            return importlib.import_module(name)
        finally:
            sys.modules.pop(name, None)  # a generic name: keep it out of other tests

    return load


# ---------------------------------------------------------------------------
# exact oracle


def _canonical(word: tuple, coeff):
    """Sort a generator word into (holo ascending, anti ascending); None if repeated."""
    letters = list(word)

    def key(letter):
        return (0 if letter[0] == "h" else 1, letter[1])

    sign = 1
    for i in range(len(letters)):
        for j in range(len(letters) - 1 - i):
            if key(letters[j]) > key(letters[j + 1]):
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
                sign = -sign
    for a, b in zip(letters, letters[1:]):
        if a == b:
            return None
    return tuple(letters), sign * coeff


class ExactModel:
    """Word-based exterior differential with Q(i) coefficients."""

    def __init__(self, doc: dict):
        self.n = doc["n"]
        self.dgen: dict[tuple, dict[tuple, sp.Expr]] = {}
        for k, terms in enumerate(doc["dphi"], start=1):
            image: dict[tuple, sp.Expr] = {}
            for t in terms:
                c = sp.nsimplify(t["coeff"][0]) + sp.I * sp.nsimplify(t["coeff"][1])
                if t["type"] == "20":
                    w = (("h", t["i"]), ("h", t["j"]))
                else:
                    w = (("h", t["i"]), ("a", t["j"]))
                image[w] = image.get(w, 0) + c
            self.dgen[("h", k)] = image
        for k in range(1, self.n + 1):
            # conjugation is an algebra homomorphism: swap letter kinds, keep order
            image = {}
            for w, c in self.dgen[("h", k)].items():
                wc = tuple(("a" if kind == "h" else "h", i) for kind, i in w)
                image[wc] = image.get(wc, 0) + sp.conjugate(c)
            self.dgen[("a", k)] = image

    def basis(self, p: int, q: int) -> list[tuple]:
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            return []
        rng = range(1, self.n + 1)
        return [
            tuple(("h", i) for i in holo) + tuple(("a", j) for j in anti)
            for holo in itertools.combinations(rng, p)
            for anti in itertools.combinations(rng, q)
        ]

    def d_word(self, word: tuple) -> dict[tuple, sp.Expr]:
        out: dict[tuple, sp.Expr] = {}
        for t, letter in enumerate(word):
            for img_word, c in self.dgen[letter].items():
                raw = word[:t] + img_word + word[t + 1 :]
                canon = _canonical(raw, (-1) ** t * c)
                if canon is None:
                    continue
                w, cc = canon
                out[w] = out.get(w, 0) + cc
        return {w: sp.simplify(c) for w, c in out.items() if sp.simplify(c) != 0}

    def _component_matrix(self, p: int, q: int, tp: int, tq: int) -> sp.Matrix:
        """Matrix of the (tp,tq)-component of d from Lambda^{p,q}."""
        src = self.basis(p, q)
        tgt = self.basis(tp, tq)
        index = {w: i for i, w in enumerate(tgt)}
        mat = sp.zeros(len(tgt), len(src))
        for col, word in enumerate(src):
            for w, c in self.d_word(word).items():
                if w in index:
                    mat[index[w], col] = c
        return mat

    def mat_del(self, p, q):
        return self._component_matrix(p, q, p + 1, q)

    def mat_delbar(self, p, q):
        return self._component_matrix(p, q, p, q + 1)

    @staticmethod
    def _nullity(mat: sp.Matrix) -> int:
        return mat.cols - mat.rank()

    def bc_dim(self, p, q) -> int:
        closed = self._nullity(self.mat_del(p, q).col_join(self.mat_delbar(p, q)))
        exact = (self.mat_del(p - 1, q) * self.mat_delbar(p - 1, q - 1)).rank()
        return closed - exact

    def aeppli_dim(self, p, q) -> int:
        closed = self._nullity(self.mat_del(p, q + 1) * self.mat_delbar(p, q))
        exact = self.mat_del(p - 1, q).row_join(self.mat_delbar(p, q - 1)).rank()
        return closed - exact

    def dolbeault_dim(self, p, q) -> int:
        return self._nullity(self.mat_delbar(p, q)) - self.mat_delbar(p, q - 1).rank()

    def _full_d(self, k: int) -> sp.Matrix:
        src = [w for p in range(k + 1) for w in self.basis(p, k - p)]
        tgt = [w for p in range(k + 2) for w in self.basis(p, k + 1 - p)]
        index = {w: i for i, w in enumerate(tgt)}
        mat = sp.zeros(len(tgt), len(src))
        for col, word in enumerate(src):
            for w, c in self.d_word(word).items():
                mat[index[w], col] = c
        return mat

    def derham_dim(self, k: int) -> int:
        return self._nullity(self._full_d(k)) - self._full_d(k - 1).rank() if k else self._nullity(
            self._full_d(0)
        )

    def dim(self, theory: str, p: int, q: int | None) -> int:
        if theory == "bc":
            return self.bc_dim(p, q)
        if theory == "aeppli":
            return self.aeppli_dim(p, q)
        if theory == "dolbeault":
            return self.dolbeault_dim(p, q)
        if theory == "derham":
            return self.derham_dim(p)
        raise ValueError(theory)


@pytest.fixture(scope="session")
def exact_models() -> dict[str, ExactModel]:
    out = {name: ExactModel(fx.load_document(name)) for name in fx.available_models()}
    out["double_kt"] = ExactModel(DOUBLE_KT_DOC)
    return out
