import json
import math

import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed.errors import ParseError


def test_parse_torus():
    model = alg.parse_model(json.dumps({"name": "t", "n": 3, "dphi": [[], [], []]}))
    assert model.n == 3
    assert model.d20.shape == (3, 3) and model.d11.shape == (3, 9)
    assert not model.d20.any() and not model.d11.any()


def test_parse_iwasawa_structure(models):
    iw = models["iwasawa"]
    assert iw.d20[2, alg.basis_index(3, 2, 0)[alg.MultiIndex((1, 2), ())]] == -1
    assert np.count_nonzero(iw.d20) == 1 and not iw.d11.any()


def test_model_arrays_are_checked_and_read_only():
    with pytest.raises(ValueError):
        alg.LieModel("x", 3, np.zeros((3, 2)), np.zeros((3, 9)))
    with pytest.raises(ValueError):
        alg.LieModel("x", 2, np.zeros((2, 1)), np.zeros((2, 2)))
    rows20 = np.zeros((2, 1))
    model = alg.LieModel("x", 2, rows20, np.zeros((2, 4)))
    rows20[0, 0] = 1.0  # the model keeps its own copy
    assert not model.d20.any()
    for rows in (model.d20, model.d11):
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


def test_parse_duplicate_index_rejected():
    doc = {"name": "bad", "n": 2, "dphi": [[], [{"type": "20", "i": 1, "j": 1, "coeff": [1, 0]}]]}
    with pytest.raises(ParseError) as err:
        alg.parse_model(doc)
    assert "dphi[1][0]" in str(err.value)


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"name": "x", "n": 0, "dphi": []}, "n"),
        ({"name": "x", "n": 1, "dphi": [[{"type": "11", "i": 1, "j": 2, "coeff": [1, 0]}]]}, ".j"),
        ({"name": "x", "n": 1, "dphi": [[{"type": "11", "i": 1, "j": 1, "coeff": [1]}]]}, ".coeff"),
        ({"name": "", "n": 1, "dphi": [[]]}, "name"),
        # a (0,2) part would break integrability: no model can carry one
        ({"name": "x", "n": 2, "dphi": [[], [{"type": "02", "i": 1, "j": 2, "coeff": [1, 0]}]]},
         "dphi[1][0].type"),
        ({"name": "x", "n": 2, "dphi": [[{"type": 20, "i": 1, "j": 2, "coeff": [1, 0]}], []]},
         "dphi[0][0].type"),
    ],
)
def test_parse_errors_name_the_path(doc, path):
    with pytest.raises(ParseError) as err:
        alg.parse_model(doc)
    assert path in str(err.value)


def test_model_document_roundtrip(models):
    for name in ("iwasawa", "kodaira_thurston", "nonunimodular"):
        doc = alg.model_to_document(models[name])
        again = alg.model_to_document(alg.parse_model(doc))
        assert doc == again


# ---------------------------------------------------------------------------
# wedge and conjugation


def test_wedge_repeated_index_vanishes():
    f1 = alg.basis_form(2, (1,), ())
    assert alg.wedge(f1, f1).is_zero()


def test_wedge_basic_and_even_commutation():
    f1 = alg.basis_form(2, (1,), ())
    f1bar = alg.basis_form(2, (), (1,))
    w = alg.wedge(f1, f1bar)
    assert w.coefficient((1,), (1,)) == 1
    a = alg.wedge(alg.basis_form(2, (1,), (1,)), alg.basis_form(2, (2,), (2,)))
    b = alg.wedge(alg.basis_form(2, (2,), (2,)), alg.basis_form(2, (1,), (1,)))
    assert (a - b).is_zero()


def test_wedge_koszul_sign_on_odd_forms():
    u = alg.basis_form(2, (1,), ())
    v = alg.basis_form(2, (2,), ())
    assert (alg.wedge(u, v) + alg.wedge(v, u)).is_zero()


def test_wedge_associative_and_graded_commutative(rng):
    # integer coefficients keep every product exact in double precision
    n = 3
    def sample(p, q):
        dim = alg.space_dim(n, p, q)
        vec = rng.integers(-3, 4, size=dim) + 1j * rng.integers(-3, 4, size=dim)
        return alg.from_vector(vec.astype(complex), n, p, q)

    for _ in range(30):
        pu, qu = rng.integers(0, 2, size=2)
        pv, qv = rng.integers(0, 2, size=2)
        pw, qw = rng.integers(0, 2, size=2)
        u, v, w = sample(pu, qu), sample(pv, qv), sample(pw, qw)
        assoc = alg.wedge(alg.wedge(u, v), w) - alg.wedge(u, alg.wedge(v, w))
        assert assoc.norm() == 0.0
        sign = (-1) ** ((u.degree * v.degree) % 2)
        comm = alg.wedge(u, v) - sign * alg.wedge(v, u)
        assert comm.norm() == 0.0


def test_conjugate_basics():
    f1 = alg.basis_form(3, (1,), ())
    assert alg.conjugate(f1).coefficient((), (1,)) == 1
    # i phi^1 ^ phibar^1 is a real (1,1)-form
    w = alg.basis_form(3, (1,), (1,), 1j)
    assert (alg.conjugate(w) - w).is_zero()
    # involution
    u = alg.basis_form(3, (1, 2), (3,), 2 - 1j)
    assert (alg.conjugate(alg.conjugate(u)) - u).is_zero()


def test_is_real_form_is_scale_free():
    # the reality residual is measured against |u| itself, at every scale
    w = alg.basis_form(3, (1,), (1,))
    for s in (1e-13, 1.0, 1e13):
        assert not alg.is_real_form(s * w), s
        assert alg.is_real_form((1j * s) * w), s


def test_conjugate_intertwines_differentials(models, rng):
    for name in ("iwasawa", "kodaira_thurston", "nonunimodular"):
        model = models[name]
        n = model.n
        for _ in range(5):
            p, q = rng.integers(0, n + 1, size=2)
            u = alg.random_form(n, p, q, rng)
            lhs = alg.conjugate(alg.del_form(model, u))
            rhs = alg.delbar_form(model, alg.conjugate(u))
            assert (lhs - rhs).norm() < 1e-12 * max(1.0, u.norm())


def test_conjugate_commutes_with_d_on_iwasawa(models):
    iw = models["iwasawa"]
    u = alg.basis_form(3, (3,), ())
    du = alg.d_form(iw, u)
    dcu = alg.d_form(iw, alg.conjugate(u))
    # conjugate(d u) = d(conjugate u), component by component
    assert (alg.conjugate(du[0]) - dcu[1]).norm() == 0.0
    assert (alg.conjugate(du[1]) - dcu[0]).norm() == 0.0


# ---------------------------------------------------------------------------
# differentials


def test_torus_differential_vanishes(models, rng):
    t3 = models["torus3"]
    u = alg.random_form(3, 1, 2, rng)
    assert alg.del_form(t3, u).is_zero()
    assert alg.delbar_form(t3, u).is_zero()


def test_iwasawa_structure_equation(models):
    iw = models["iwasawa"]
    d3 = alg.del_form(iw, alg.basis_form(3, (3,), ()))
    assert d3.coefficient((1, 2), ()) == -1
    assert alg.delbar_form(iw, alg.basis_form(3, (3,), ())).is_zero()


def test_kodaira_thurston_bidegree_split(models):
    kt = models["kodaira_thurston"]
    f2 = alg.basis_form(2, (2,), ())
    assert alg.delbar_form(kt, f2).coefficient((1,), (1,)) == 1
    assert alg.del_form(kt, f2).is_zero()
    assert alg.del_form(kt, alg.conjugate(f2)).coefficient((1,), (1,)) == -1


def test_d_squared_zero_matrix_residuals(models):
    for name, model in models.items():
        n = model.n
        worst = 0.0
        for p in range(n + 1):
            for q in range(n + 1):
                dd = alg.del_matrix(model, p + 1, q) @ alg.del_matrix(model, p, q)
                bb = alg.delbar_matrix(model, p, q + 1) @ alg.delbar_matrix(model, p, q)
                mix = alg.del_matrix(model, p, q + 1) @ alg.delbar_matrix(model, p, q)
                mix = mix + alg.delbar_matrix(model, p + 1, q) @ alg.del_matrix(model, p, q)
                for mat in (dd, bb, mix):
                    if mat.size:
                        worst = max(worst, float(np.max(np.abs(mat))))
        assert worst < 1e-12, name


# ---------------------------------------------------------------------------
# operator matrices


def test_operator_matrix_torus_zero(models):
    t2 = models["torus2"]
    for kind in ("d", "del", "delbar", "deldelbar", "del+delbar", "real_d"):
        op = alg.operator_matrix(t2, kind, 1, 1)
        assert op.size and not np.any(op)


def test_operator_matrix_iwasawa_del_rank(models):
    op = alg.operator_matrix(models["iwasawa"], "del", 1, 0)
    assert np.linalg.matrix_rank(op) == 1


def test_deldelbar_is_a_composition(models):
    for model in models.values():
        n = model.n
        for p in range(n):
            for q in range(n):
                lhs = alg.operator_matrix(model, "deldelbar", p, q)
                rhs = alg.del_matrix(model, p, q + 1) @ alg.delbar_matrix(model, p, q)
                assert np.array_equal(lhs, rhs)


def test_operator_apply_matches_forms(models, rng):
    kt = models["kodaira_thurston"]
    u = alg.random_form(2, 1, 0, rng)
    op = alg.operator_matrix(kt, "delbar", 1, 0)
    assert (alg.Form(2, 1, 1, op @ u.vec) - alg.delbar_form(kt, u)).norm() < 1e-14


# ---------------------------------------------------------------------------
# validation


def test_validate_fixture_reports(models):
    expected = {
        "torus1": (True, True, True),
        "torus2": (True, True, True),
        "torus3": (True, True, True),
        "iwasawa": (True, True, True),
        "kodaira_thurston": (True, True, True),
        "nonunimodular": (True, True, False),
    }
    for name, flags in expected.items():
        rep = alg.validate_model(models[name])
        assert (rep.d_squared_zero, rep.integrable, rep.unimodular) == flags, name


def test_nonunimodular_volume_row(models):
    # d(phi^2 ^ phibar^{12}) has a volume component exactly because tr(ad) != 0
    rep = alg.validate_model(models["nonunimodular"])
    assert rep.volume_row_norm == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dimensions, vectors, documents


def test_space_dims_are_binomials():
    for n in (1, 2, 3, 4):
        for p in range(n + 1):
            for q in range(n + 1):
                assert alg.space_dim(n, p, q) == math.comb(n, p) * math.comb(n, q)
    assert alg.space_dim(2, 3, 0) == 0
    assert alg.space_dim(2, -1, 0) == 0


def test_vector_roundtrip(rng):
    u = alg.random_form(3, 2, 1, rng)
    again = alg.from_vector(alg.to_vector(u, 3), 3, 2, 1)
    assert (u - again).norm() == 0.0


def test_form_document_roundtrip(rng):
    u = alg.random_form(3, 1, 2, rng)
    doc = alg.form_to_document(u)
    assert (alg.form_from_document(doc, 3) - u).norm() == 0.0
    assert alg.form_from_document({"p": 1, "q": 2, "terms": []}, 3).is_zero()


@pytest.mark.parametrize(
    "term,path",
    [
        ({"holo": [1], "anti": [7], "coeff": [1, 0]}, "terms[0].anti"),
        ({"holo": [0], "anti": [1], "coeff": [1, 0]}, "terms[0].holo"),
        ({"holo": [1], "anti": [2, 1], "coeff": [1, 0]}, "terms[0].anti"),
        ({"holo": [1, 2], "anti": [1], "coeff": [1, 0]}, "terms[0].holo"),
        ({"holo": [1], "coeff": [1, 0]}, "terms[0].anti"),
        ({"holo": [1], "anti": [1.0], "coeff": [1, 0]}, "terms[0].anti"),
        ({"holo": [1], "anti": [1], "coeff": [1]}, "terms[0].coeff"),
        ("not a term", "terms[0]"),
    ],
)
def test_form_document_rejects_malformed_terms(term, path):
    # bidegree (1,1) on n = 3: indices outside 1..3, out of order, too many,
    # missing or non-integer, and malformed coefficients are parse errors
    doc = {"p": 1, "q": 1, "terms": [term]}
    with pytest.raises(ParseError) as err:
        alg.form_from_document(doc, 3)
    assert path in str(err.value)


def test_form_document_accumulates_repeated_terms():
    term = {"holo": [1], "anti": [2], "coeff": [1.0, 2.0]}
    u = alg.form_from_document({"p": 1, "q": 1, "terms": [term, term]}, 2)
    assert u.coefficient((1,), (2,)) == 2 + 4j
    assert alg.form_to_document(u)["terms"] == [{"holo": [1], "anti": [2], "coeff": [2.0, 4.0]}]


def test_norm_is_exact_where_the_squares_leave_the_float_range(rng):
    u = alg.random_form(3, 1, 1, rng)
    plain = float(np.linalg.norm(u.vec))
    assert u.norm() == plain
    for t in (2.0**-600, 2.0**600):  # powers of two: the scaled norm is exact
        assert (t * u).norm() == t * plain
    assert alg.zero_form(3, 1, 1).norm() == 0.0


def test_integrate_top_normalization():
    n = 2
    top = tuple(range(1, n + 1))
    vol = alg.basis_form(n, top, top, (1j) ** (n * n % 4))
    assert alg.integrate_top(vol, n) == pytest.approx(1.0)


def test_differential_blocks_match_exact_oracle(models, exact_models):
    # the table-assembled del and delbar blocks, entry by entry, against the
    # oracle's word-based Leibniz rule; oracle words map to canonical indices
    def canonical(word):
        holo = tuple(i for kind, i in word if kind == "h")
        anti = tuple(i for kind, i in word if kind == "a")
        return alg.MultiIndex(holo, anti)

    for name, exact in exact_models.items():
        model = models[name]
        n = model.n
        for p in range(n + 1):
            for q in range(n + 1):
                for ours, theirs, (tp, tq) in (
                    (alg.del_matrix(model, p, q), exact.mat_del(p, q), (p + 1, q)),
                    (alg.delbar_matrix(model, p, q), exact.mat_delbar(p, q), (p, q + 1)),
                ):
                    assert ours.shape == (theirs.rows, theirs.cols), (name, p, q)
                    rows = [alg.basis_index(n, tp, tq)[canonical(w)] for w in exact.basis(tp, tq)]
                    cols = [alg.basis_index(n, p, q)[canonical(w)] for w in exact.basis(p, q)]
                    expected = np.array(theirs.evalf(), dtype=complex).reshape(theirs.shape)
                    diff = np.abs(ours[np.ix_(rows, cols)] - expected)
                    assert np.max(diff, initial=0.0) < 1e-12, (name, p, q)


# ---------------------------------------------------------------------------
# independent references: the exterior algebra on dicts keyed by basis label,
# with signs from merging sorted index tuples, not from the index tables


def _as_dict(u: alg.Form) -> dict:
    return {mi: complex(c) for mi, c in zip(alg.multiindices(u.n, u.p, u.q), u.vec) if c != 0}


def _vector(coeffs: dict, n: int, p: int, q: int) -> np.ndarray:
    vec = np.zeros(alg.space_dim(n, p, q), dtype=complex)
    for mi, c in coeffs.items():
        vec[alg.basis_index(n, p, q)[mi]] = c
    return vec


def _merge_indices(a: tuple, b: tuple):
    """Merge strictly increasing tuples tracking the Koszul sign; None on repeat."""
    out = []
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


def reference_wedge(u: alg.Form, v: alg.Form) -> np.ndarray:
    """Canonical vector of u wedge v from the monomial-by-monomial product."""
    coeffs: dict = {}
    # moving the holomorphic factors of v past the antiholomorphic ones of u
    cross = -1.0 if (v.p * u.q) % 2 else 1.0
    for mi_u, cu in _as_dict(u).items():
        for mi_v, cv in _as_dict(v).items():
            mh = _merge_indices(mi_u.holo, mi_v.holo)
            ma = _merge_indices(mi_u.anti, mi_v.anti)
            if mh is None or ma is None:
                continue
            mi = alg.MultiIndex(mh[1], ma[1])
            coeffs[mi] = coeffs.get(mi, 0j) + cross * mh[0] * ma[0] * cu * cv
    return _vector(coeffs, u.n, u.p + v.p, u.q + v.q)


def reference_conjugate(u: alg.Form) -> np.ndarray:
    """Canonical vector of the conjugate, relabelling phi^I phibar^J as phi^J phibar^I."""
    sign = -1.0 if (u.p * u.q) % 2 else 1.0
    coeffs = {alg.MultiIndex(mi.anti, mi.holo): sign * c.conjugate() for mi, c in _as_dict(u).items()}
    return _vector(coeffs, u.n, u.q, u.p)


def test_wedge_matrix_matches_form_wedge(rng):
    # the table-built wedge matrix against the reference product, column by column
    n = 3
    for a, b in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (3, 3)):
        w = alg.random_form(n, a, b, rng)
        for p in range(n + 1):
            for q in range(n + 1):
                mat = alg.wedge_matrix(n, w, p, q)
                assert mat.shape == (alg.space_dim(n, p + a, q + b), alg.space_dim(n, p, q))
                for col, mi in enumerate(alg.multiindices(n, p, q)):
                    unit = alg.basis_form(n, mi.holo, mi.anti)
                    assert np.array_equal(mat[:, col], reference_wedge(w, unit))
                    assert np.array_equal(alg.wedge(w, unit).vec, mat[:, col])


def test_wedge_matches_reference_on_random_forms(rng):
    # integer coefficients keep both summation orders exact
    for n in (1, 2, 3, 4):
        for _ in range(12):
            u, v = (
                alg.Form(n, p, q, [1, 1j] @ rng.integers(-3, 4, size=(2, alg.space_dim(n, p, q))))
                for p, q in rng.integers(0, n + 1, size=(2, 2))
            )
            assert np.array_equal(alg.wedge(u, v).vec, reference_wedge(u, v))


def test_conjugate_matches_reference_exactly(rng):
    for n in (1, 2, 3, 4):
        for p in range(n + 1):
            for q in range(n + 1):
                u = alg.random_form(n, p, q, rng)
                conj = alg.conjugate(u)
                assert conj.bidegree == (q, p)
                assert np.array_equal(conj.vec, reference_conjugate(u)), (n, p, q)


def test_form_is_a_read_only_canonical_vector(rng):
    u = alg.random_form(3, 2, 1, rng)
    assert u.vec.shape == (alg.space_dim(3, 2, 1),)
    with pytest.raises(ValueError):
        u.vec[0] = 0
    with pytest.raises(ValueError):
        alg.Form(3, 2, 1, np.zeros(4))
    assert alg.zero_form(2, 3, 0).vec.shape == (0,)  # bidegree outside 0..n: the zero space
    assert (np.float64(2.0) * u).vec.tolist() == (2 * u).vec.tolist()
