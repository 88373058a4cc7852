import json
from collections import Counter
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed import fixtures as fx
from pluriclosed import hodge
from pluriclosed.errors import CrossCheckError, MetricError, PreconditionError
from pluriclosed.linalg import nullspace


def test_metric_identity_omega(models):
    g = hodge.identity_metric(models["torus2"])
    expected = alg.basis_form(2, (1,), (1,), 1j) + alg.basis_form(2, (2,), (2,), 1j)
    assert (g.omega - expected).norm() == 0.0
    assert (alg.conjugate(g.omega) - g.omega).norm() == 0.0


def test_metric_diagonal(models):
    g = hodge.metric_from_matrix(models["torus2"], np.diag([2.0, 1.0]))
    expected = alg.basis_form(2, (1,), (1,), 2j) + alg.basis_form(2, (2,), (2,), 1j)
    assert (g.omega - expected).norm() == 0.0
    assert g.volume == pytest.approx(2.0)


def test_metric_rejects_indefinite(models):
    with pytest.raises(MetricError, match="positive definite"):
        hodge.metric_from_matrix(models["torus2"], np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_metric_rejects_non_hermitian(models):
    with pytest.raises(MetricError, match="Hermitian"):
        hodge.metric_from_matrix(models["torus2"], np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_metric_rejects_wrong_shape(models):
    with pytest.raises(MetricError):
        hodge.metric_from_matrix(models["torus2"], np.eye(3))


# ---------------------------------------------------------------------------
# star


def test_star_constants(models, metrics, rng):
    for name in ("torus1", "torus2", "iwasawa", "kodaira_thurston"):
        g = hodge.random_metric(models[name], rng)
        one = alg.basis_form(g.n, (), ())
        dv = hodge.omega_power(g, g.n)
        assert (hodge.hodge_star(g, one) - dv).norm() < 1e-12 * dv.norm()
        assert (hodge.hodge_star(g, dv) - one).norm() < 1e-12


def test_star_line(models):
    g = hodge.identity_metric(models["torus1"])
    f1 = alg.basis_form(1, (1,), ())
    assert (hodge.hodge_star(g, f1) - (-1j) * f1).norm() == 0.0


def test_star_omega_selfdual_surface(metrics):
    g = metrics["torus2"]
    assert (hodge.hodge_star(g, g.omega) - g.omega).norm() < 1e-14


def test_star_squares_to_parity(models, rng):
    for name in ("torus2", "iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        for p in range(n + 1):
            for q in range(n + 1):
                s1 = hodge.star_matrix(g, p, q)
                s2 = hodge.star_matrix(g, n - q, n - p)
                ident = (-1) ** (p + q) * np.eye(s1.shape[1])
                if s1.size:
                    assert np.max(np.abs(s2 @ s1 - ident)) < 1e-10


@pytest.mark.parametrize("name", ["iwasawa", "double_kt"])  # odd and even n
def test_star_columns_apply_the_star_matrix(models, rng, name):
    g = hodge.random_metric(models[name], rng)
    n = g.n
    for p in range(n + 1):
        for q in range(n + 1):
            dim = alg.space_dim(n, p, q)
            cols = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
            assert np.array_equal(hodge.star_columns(g, p, q, cols), hodge.star_matrix(g, p, q) @ cols)


def test_star_commutes_with_conjugation(models, rng):
    g = hodge.random_metric(models["kodaira_thurston"], rng)
    u = alg.random_form(2, 1, 0, rng)
    lhs = alg.conjugate(hodge.hodge_star(g, u))
    rhs = hodge.hodge_star(g, alg.conjugate(u))
    assert (lhs - rhs).norm() < 1e-12


def test_inner_product_matches_wedge_star(models, rng):
    # <<u, v>> equals the integral of u ^ star(conj v)
    for name in ("torus2", "iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        for _ in range(5):
            p, q = rng.integers(0, n + 1, size=2)
            u = alg.random_form(n, p, q, rng)
            v = alg.random_form(n, p, q, rng)
            lhs = hodge.inner(g, u, v)
            rhs = alg.integrate_top(alg.wedge(u, hodge.hodge_star(g, alg.conjugate(v))), n)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_gram_positive_definite(models, rng):
    g = hodge.random_metric(models["iwasawa"], rng)
    for p in range(4):
        for q in range(4):
            gram = hodge.gram_matrix(g, p, q)
            if gram.size:
                assert np.linalg.eigvalsh(gram)[0] > 0


# ---------------------------------------------------------------------------
# primitivity and the closed star formula


def test_one_forms_always_primitive(metrics, rng):
    g = metrics["torus2"]
    for bid in ((1, 0), (0, 1)):
        v = alg.random_form(2, *bid, rng)
        assert hodge.is_primitive(g, v)
        assert hodge.primitive_star_check(g, v) < 1e-12


def test_primitive_11_form(metrics):
    g = metrics["torus2"]
    v = alg.basis_form(2, (1,), (2,))
    assert hodge.is_primitive(g, v)
    assert hodge.primitive_star_check(g, v) < 1e-12


def test_omega_not_primitive(metrics):
    g = metrics["torus2"]
    with pytest.raises(PreconditionError):
        hodge.primitive_star_check(g, g.omega)


def test_primitivity_cross_check_on_torus3(models):
    g = hodge.identity_metric(models["torus3"])
    f1 = alg.basis_form(3, (1,), ())
    # contraction route and power route agree: both say primitive
    assert hodge.is_primitive(g, f1)
    assert hodge.lefschetz_L(g, 3, f1).is_zero()  # omega_{n-k+1} ^ phi1 = 0 in degree 7


def test_lambda_of_omega_is_n(models, rng):
    for name in ("torus2", "torus3", "iwasawa"):
        model = models[name]
        g = hodge.identity_metric(model)
        lam = hodge.lambda_contraction(g, g.omega)
        assert abs(lam.coefficient((), ()) - model.n) < 1e-12


def test_lambda_on_scalars_is_zero(metrics):
    g = metrics["torus2"]
    assert hodge.lambda_contraction(g, alg.basis_form(2, (), ())).is_zero()


def test_random_primitive_forms_are_primitive(models, rng):
    g = hodge.random_metric(models["iwasawa"], rng)
    for _ in range(10):
        p, q = rng.integers(0, 3, size=2)
        v = hodge.random_primitive_form(g, p, q, rng)
        if v is not None and v.norm() > 1e-9:
            assert hodge.l2_norm(g, hodge.lambda_contraction(g, v)) < 1e-9 * hodge.l2_norm(g, v)


def test_random_primitive_form_uses_the_contraction_kernel(models):
    # the primitive basis is cached per (n, p, q), with the columns of a
    # fresh kernel of Lambda_omega, so seeded draws do not change
    for name in ("iwasawa", "torus3"):
        g = hodge.random_metric(models[name], np.random.default_rng(5))
        for p in range(g.n + 1):
            for q in range(g.n + 1):
                null = nullspace(hodge.lambda_matrix(g, p, q))
                rng = np.random.default_rng([p, q])
                got = hodge.random_primitive_form(g, p, q, rng)
                if null.shape[1] == 0:
                    assert got is None
                    continue
                rng = np.random.default_rng([p, q])
                k = null.shape[1]
                weights = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                expected = hodge.from_frame(g, null @ weights, p, q)
                np.testing.assert_array_equal(got.vec, expected.vec)


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_of_zero_is_zero(metrics):
    g = metrics["torus2"]
    adj = hodge.del_matrix(g, 1, 0).conj().T
    assert adj.shape == (2, 1)
    assert not np.any(adj)


def test_adjoint_involution(models, rng):
    # the adjoint of the frame adjoint, times S, maps model forms back onto delbar
    model = models["iwasawa"]
    g = hodge.random_metric(model, rng)
    adj = hodge.delbar_matrix(g, 1, 1).conj().T
    back = hodge.complex_scale(g) * adj.conj().T
    for _ in range(5):
        u = alg.random_form(3, 1, 1, rng)
        image = hodge.from_frame(g, back @ hodge.to_frame(g, u), 1, 2)
        assert (image - alg.delbar_form(model, u)).norm() < 1e-10


def test_frame_coordinates_are_l2_isometric(models, rng):
    # |to_frame u|^2 is the L2 norm that the model-coframe Gram matrix gives,
    # and a harmonic basis has orthonormal frame columns; no metric has vol = 1
    for name in ("iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        scaled = [hodge.metric_from_matrix(model, t * np.eye(n)) for t in (1e-3, 1e3)]
        for g in (hodge.random_metric(model, rng), *scaled):
            for p in range(n + 1):
                for q in range(n + 1):
                    u = alg.random_form(n, p, q, rng)
                    x = hodge.to_frame(g, u)
                    l2 = (u.vec.conj() @ hodge.gram_matrix(g, p, q) @ u.vec).real
                    assert abs(x.conj() @ x - l2) <= 1e-12 * l2, (name, g.volume, p, q)
                    basis = hodge.harmonic_basis(hodge.laplacian(g, "bc", p, q))
                    eye = np.eye(basis.shape[1])
                    assert np.max(np.abs(basis.conj().T @ basis - eye), initial=0.0) <= 1e-12


def test_adjoint_is_gram_adjoint(models, rng):
    # S times the frame conjugate transpose is the adjoint for the
    # model-coframe L2 product
    model = models["kodaira_thurston"]
    g = hodge.random_metric(model, rng)
    adj = hodge.complex_scale(g) * hodge.del_matrix(g, 0, 1).conj().T
    for _ in range(5):
        u = alg.random_form(2, 0, 1, rng)
        v = alg.random_form(2, 1, 1, rng)
        lhs = hodge.inner(g, alg.del_form(model, u), v)
        rhs = hodge.inner(g, u, hodge.from_frame(g, adj @ hodge.to_frame(g, v), 0, 1))
        assert abs(lhs - rhs) < 1e-10


def test_frame_boundary_maps(models, rng):
    # Q^{-1} (the compounds of the Cholesky factor) inverts Q, the maps
    # round-trip, and S times the frame del/delbar are the model ones read in
    # the frame
    for name in ("torus2", "iwasawa", "kodaira_thurston", "nonunimodular"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        s = hodge.complex_scale(g)
        for p in range(n + 1):
            for q in range(n + 1):
                dim = alg.space_dim(n, p, q)
                units = np.eye(dim, dtype=complex)
                qmat = np.column_stack(
                    [hodge.to_frame(g, alg.from_vector(e, n, p, q)) for e in units]
                )
                qinv = np.column_stack(
                    [alg.to_vector(hodge.from_frame(g, e, p, q), n) for e in units]
                )
                assert np.max(np.abs(qinv @ qmat - units)) < 1e-12, (name, p, q)
                u = alg.random_form(n, p, q, rng)
                back = hodge.from_frame(g, hodge.to_frame(g, u), p, q)
                assert (back - u).norm() < 1e-12 * max(1.0, u.norm()), (name, p, q)
                for frame_op, model_op in (
                    (hodge.del_matrix, alg.del_form),
                    (hodge.delbar_matrix, alg.delbar_form),
                ):
                    mat = s * frame_op(g, p, q)
                    for k, e in enumerate(units):
                        col = hodge.to_frame(g, model_op(model, hodge.from_frame(g, e, p, q)))
                        assert np.max(np.abs(mat[:, k] - col), initial=0.0) < 1e-12, (name, p, q)



FIXTURE_NAMES = (*fx.available_models(), "double_kt")


def _frame_test_metrics(model, bench_module):
    """A random metric and one of condition number 1e6."""
    rng = np.random.default_rng(11)
    conditioned = bench_module("inputs").conditioned_matrix(model.n, 1e6, rng)
    return hodge.random_metric(model, rng), hodge.metric_from_matrix(model, conditioned)


def _kronecker_change(g, p: int, q: int, factor: int):
    """Q (factor 0) or Q^{-1} (factor 1) on Lambda^{p,q}: the compounds of L^{-1} or L, holo (x) conj anti."""
    holo, anti = hodge._compounds(g, p)[factor], hodge._compounds(g, q)[factor]
    return np.kron(holo, anti.conj())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_frame_blocks_are_the_model_blocks_conjugated(models, bench_module, name):
    # S times the frame model's own assembly against Q del Q^{-1}, Q the
    # compound change of coframe, to 1e-13 S (S the largest block norm of
    # Q del Q^{-1}) plus the rounding of that product, eps |Q| |del| |Q^{-1}|:
    # at condition 1e6 the product itself is off by about 1e-13 S
    model = models[name]
    n = model.n
    eps = np.finfo(float).eps
    for g in _frame_test_metrics(model, bench_module):
        s = hodge.complex_scale(g)
        for p in range(n + 1):
            for q in range(n + 1):
                for frame_op, model_op, (dp, dq) in (
                    (hodge.del_matrix, alg.del_matrix, (1, 0)),
                    (hodge.delbar_matrix, alg.delbar_matrix, (0, 1)),
                ):
                    tgt = _kronecker_change(g, p + dp, q + dq, 0)
                    src = _kronecker_change(g, p, q, 1)
                    block = model_op(model, p, q)
                    rounding = 8 * eps * np.linalg.norm(np.abs(tgt) @ np.abs(block) @ np.abs(src))
                    gap = np.linalg.norm(s * frame_op(g, p, q) - tgt @ block @ src)
                    assert gap <= 1e-13 * s + rounding, (p, q, frame_op.__name__, gap / s)


def _mp_change(lower, p: int, q: int, inverse: bool = False):
    """Q (Q^{-1} if inverse) on Lambda^{p,q} in extended precision, from a Cholesky factor."""
    base = lower if inverse else lower**-1

    def compound(k):
        sets = list(combinations(range(base.rows), k))
        if k == 0:
            return [[1]]
        return [[mp.det(mp.matrix([[base[i, j] for j in b] for i in a])) for b in sets] for a in sets]

    holo, anti = compound(p), compound(q)
    return mp.matrix([[h * mp.conj(a) for h in hrow for a in arow] for hrow in holo for arow in anti])


@pytest.mark.parametrize("name", ["iwasawa", "nonunimodular"])
def test_frame_blocks_match_the_conjugation_in_extended_precision(models, bench_module, name):
    # Q del Q^{-1} in 40 digits from the same Cholesky factor, at condition
    # 1e6: S times the frame assembly stays at the rounding of S, the float
    # product not
    model = models[name]
    n = model.n
    _, g = _frame_test_metrics(model, bench_module)
    s = hodge.complex_scale(g)
    with mp.workdps(40):
        lower = mp.matrix(g.cholesky.tolist())
        for p in range(n + 1):
            for q in range(n + 1):
                for op, (dp, dq) in ((alg.del_matrix, (1, 0)), (alg.delbar_matrix, (0, 1))):
                    block = op(model, p, q)
                    if block.size == 0:
                        continue
                    exact = (
                        _mp_change(lower, p + dp, q + dq)
                        * mp.matrix(block.tolist())
                        * _mp_change(lower, p, q, inverse=True)
                    )
                    frame = s * op(hodge.frame_model(g), p, q)
                    gap = np.linalg.norm(frame - np.array(exact.tolist(), dtype=complex))
                    assert gap <= 1e-14 * s, (p, q, gap / s)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_frame_model_validates_like_the_model(models, bench_module, name):
    model = models[name]
    unimodular = alg.validate_model(model).unimodular
    for g in _frame_test_metrics(model, bench_module):
        report = alg.validate_model(hodge.frame_model(g))
        assert report.d_squared_zero and report.integrable
        assert report.unimodular == unimodular

@pytest.mark.parametrize("name", [name for name in FIXTURE_NAMES if not name.startswith("torus")])
def test_frame_model_is_the_unit_coframe(models, bench_module, name):
    # complex_scale is S, the largest block norm of Q del Q^{-1} and
    # Q delbar Q^{-1}; the frame model's blocks are those divided by S, so its
    # own largest block norm is 1, and every block is cached once assembled
    model = models[name]
    n = model.n
    ops = ((alg.del_matrix, (1, 0)), (alg.delbar_matrix, (0, 1)))
    bidegrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for g in _frame_test_metrics(model, bench_module):
        s = hodge.complex_scale(g)
        frame = hodge.frame_model(g)
        cached = set(frame._cache)
        conjugated = max(
            np.linalg.norm(
                _kronecker_change(g, p + dp, q + dq, 0) @ op(model, p, q) @ _kronecker_change(g, p, q, 1)
            )
            for op, (dp, dq) in ops
            for p, q in bidegrees
        )
        unit = max(np.linalg.norm(op(frame, p, q)) for op, _ in ops for p, q in bidegrees)
        assert abs(s - conjugated) <= 1e-12 * s, (s, conjugated)
        assert abs(unit - 1.0) <= 1e-14
        assert set(frame._cache) == cached
        assert cached == {(kind, p, q) for kind in ("del", "delbar") for p, q in bidegrees}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_frame_model_keeps_the_zero_constants(n):
    # S = 0: nothing is divided, and every frame block is zero
    model = alg.parse_model({"name": "torus", "n": n, "dphi": [[] for _ in range(n)]})
    g = hodge.random_metric(model, np.random.default_rng(n))
    assert hodge.complex_scale(g) == 0.0
    frame = hodge.frame_model(g)
    assert not frame.d20.any() and not frame.d11.any()
    for p in range(n + 1):
        for q in range(n + 1):
            assert not hodge.del_matrix(g, p, q).any() and not hodge.delbar_matrix(g, p, q).any()


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_thurston", "nonunimodular"])
def test_unit_frame_complex_ignores_metric_scale(models, name):
    # t h has the Cholesky factor sqrt(t) L: e and its blocks scale by
    # 1/sqrt(t), S with them, and the unit blocks stay put, from t = 1e-30 to 1e30
    model = models[name]
    n = model.n
    base = hodge.random_metric(model, np.random.default_rng(7))
    for t in (1e-30, 1e-14, 1e14, 1e30):
        g = hodge.metric_from_matrix(model, t * base.h)
        ratio = hodge.complex_scale(g) * np.sqrt(t) / hodge.complex_scale(base)
        assert abs(ratio - 1.0) <= 1e-12, t
        for op in (hodge.del_matrix, hodge.delbar_matrix):
            for p in range(n + 1):
                for q in range(n + 1):
                    gap = np.linalg.norm(op(g, p, q) - op(base, p, q))
                    assert gap <= 1e-13, (t, op.__name__, p, q)


def test_adjoint_star_formulas(models, rng):
    # del* = -star delbar star and delbar* = -star del star on unimodular models
    for name in ("torus2", "torus3", "iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        worst = 0.0
        for p in range(n):
            for q in range(n + 1):
                lhs = hodge.del_matrix(g, p, q).conj().T
                rhs = (
                    -hodge.star_matrix(g, n - q, n - p)
                    @ hodge.delbar_matrix(g, n - q, n - p - 1)
                    @ hodge.star_matrix(g, p + 1, q)
                )
                if lhs.size:
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        for p in range(n + 1):
            for q in range(n):
                lhs = hodge.delbar_matrix(g, p, q).conj().T
                rhs = (
                    -hodge.star_matrix(g, n - q, n - p)
                    @ hodge.del_matrix(g, n - q - 1, n - p)
                    @ hodge.star_matrix(g, p, q + 1)
                )
                if lhs.size:
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-9, name


# ---------------------------------------------------------------------------
# Laplacians


def test_laplacians_vanish_on_torus(metrics):
    g = metrics["torus2"]
    for p in range(3):
        for q in range(3):
            assert not np.any(hodge.laplacian_bc(g, p, q))
            assert not np.any(hodge.laplacian_a(g, p, q))


def test_iwasawa_bc_kernel_10(metrics):
    g = metrics["iwasawa"]
    basis = hodge.harmonic_space(g, hodge.laplacian_bc(g, 1, 0), 1, 0)
    assert len(basis) == 2


def test_laplacians_selfadjoint_psd(models, rng):
    for name in ("iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        for p in range(n + 1):
            for q in range(n + 1):
                for mat in (hodge.laplacian_bc(g, p, q), hodge.laplacian_a(g, p, q)):
                    if not mat.size:
                        continue
                    scale = max(1.0, float(np.max(np.abs(mat))))
                    assert np.max(np.abs(mat - mat.conj().T)) < 1e-10 * scale
                    eigvals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
                    assert eigvals[0] >= -1e-10 * scale


def test_star_intertwines_laplacians(models, rng):
    for name in ("torus2", "iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        worst = 0.0
        for p in range(n + 1):
            for q in range(n + 1):
                star = hodge.star_matrix(g, p, q)
                lhs = star @ hodge.laplacian_bc(g, p, q)
                rhs = hodge.laplacian_a(g, n - q, n - p) @ star
                if lhs.size:
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-9, name


def test_bc_kernel_characterization(models, rng):
    # ker Delta_BC = ker del & ker delbar & ker (del delbar)*
    model = models["kodaira_thurston"]
    g = hodge.random_metric(model, rng)
    for p in range(3):
        for q in range(3):
            basis = hodge.harmonic_basis(hodge.laplacian_bc(g, p, q))
            ddb_in = hodge.del_matrix(g, p - 1, q) @ hodge.delbar_matrix(g, p - 1, q - 1)
            stack = np.vstack(
                [hodge.del_matrix(g, p, q), hodge.delbar_matrix(g, p, q), ddb_in.conj().T]
            )
            from pluriclosed.linalg import nullspace

            assert basis.shape[1] == nullspace(stack).shape[1]
            if basis.size:
                assert np.max(np.abs(stack @ basis)) < 1e-9


def test_a_kernel_characterization(models, rng):
    # ker Delta_A = ker del* & ker delbar* & ker del delbar
    model = models["kodaira_thurston"]
    g = hodge.random_metric(model, rng)
    for p in range(3):
        for q in range(3):
            basis = hodge.harmonic_basis(hodge.laplacian_a(g, p, q))
            stack = np.vstack(
                [
                    hodge.del_matrix(g, p - 1, q).conj().T,
                    hodge.delbar_matrix(g, p, q - 1).conj().T,
                    hodge.del_matrix(g, p, q + 1) @ hodge.delbar_matrix(g, p, q),
                ]
            )
            from pluriclosed.linalg import nullspace

            assert basis.shape[1] == nullspace(stack).shape[1]
            if basis.size:
                assert np.max(np.abs(stack @ basis)) < 1e-9


def test_star_maps_bc_kernel_onto_a_kernel(models, rng):
    for name in ("iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        for p in range(n + 1):
            for q in range(n + 1):
                bc = hodge.harmonic_basis(hodge.laplacian_bc(g, p, q))
                a = hodge.harmonic_basis(hodge.laplacian_a(g, n - q, n - p))
                image = hodge.star_matrix(g, p, q) @ bc
                assert bc.shape[1] == a.shape[1]
                if bc.shape[1]:
                    assert np.linalg.matrix_rank(np.hstack([a, image])) == a.shape[1]


def test_derham_kernel_dims_torus(metrics):
    g = metrics["torus2"]
    dims = [hodge.harmonic_basis(hodge.laplacian_derham(g, k)).shape[1] for k in range(5)]
    assert dims == [1, 4, 6, 4, 1]


def test_kahler_identity_derham_vs_dolbeault(models, rng):
    # Delta = 2 Delta_delbar per bidegree on Kahler metrics (any torus metric),
    # on the complex-frame Delta_d of the bidegree blocks of d
    model = models["torus2"]
    g = hodge.random_metric(model, rng)
    frame = hodge.frame_model(g)
    for k in range(5):
        up, down = alg.d_matrix(frame, k), alg.d_matrix(frame, k - 1)
        lap = up.conj().T @ up + down @ down.conj().T
        off = 0
        for p, q in alg.bidegrees_of_degree(2, k):
            w = alg.space_dim(2, p, q)
            block = lap[off : off + w, off : off + w]
            dol = hodge.laplacian_delbar(g, p, q)
            if block.size:
                assert np.max(np.abs(block - 2 * dol)) < 1e-9
            off += w


def test_harmonic_space_torus_full(metrics):
    g = metrics["torus3"]
    for p in range(4):
        for q in range(4):
            basis = hodge.harmonic_space(g, hodge.laplacian_bc(g, p, q), p, q)
            assert len(basis) == alg.space_dim(3, p, q)


def test_harmonic_basis_orthonormal(models, rng):
    model = models["iwasawa"]
    g = hodge.random_metric(model, rng)
    basis = hodge.harmonic_space(g, hodge.laplacian_a(g, 1, 1), 1, 1)
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            assert abs(hodge.inner(g, u, v) - (1.0 if i == j else 0.0)) < 1e-9


# ---------------------------------------------------------------------------
# three-space decompositions


def test_three_space_reports(models, rng):
    for name in ("torus2", "iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        for theory in ("bc", "aeppli"):
            for p in range(n + 1):
                for q in range(n + 1):
                    rep = hodge.three_space_decomposition(g, theory, p, q)
                    assert rep.dims_sum_ok, (name, theory, p, q)
                    assert rep.closed_split_ok, (name, theory, p, q)
                    closed = (
                        np.vstack([hodge.del_matrix(g, p, q), hodge.delbar_matrix(g, p, q)])
                        if theory == "bc"
                        else hodge.del_matrix(g, p, q + 1) @ hodge.delbar_matrix(g, p, q)
                    )
                    kernel = nullspace(closed)
                    assert rep.closed_dim == kernel.shape[1], (name, theory, p, q)
                    assert rep.image_split_ok, (name, theory, p, q)
                    assert rep.orthogonality_residual < 1e-9


# ---------------------------------------------------------------------------
# Lefschetz maps


def test_quasi_isometry_identity_for_k0(metrics):
    assert hodge.quasi_isometry_bounds(metrics["torus2"], 0, 1) == (1.0, 1.0)


def test_quasi_isometry_injective_on_surface(metrics):
    sigma_min, sigma_max = hodge.quasi_isometry_bounds(metrics["torus2"], 1, 1)
    assert sigma_min > 0
    assert sigma_max >= sigma_min


def test_quasi_isometry_degree_overflow(metrics):
    assert hodge.quasi_isometry_bounds(metrics["torus2"], 2, 1) == (0.0, 0.0)


def test_quasi_isometry_rejects_non_kahler(metrics):
    with pytest.raises(PreconditionError):
        hodge.quasi_isometry_bounds(metrics["kodaira_thurston"], 1, 1)
    # raw singular values remain available
    bounds = hodge.quasi_isometry_bounds(
        metrics["kodaira_thurston"], 1, 1, restrict_harmonic=False
    )
    assert bounds[1] > 0


def test_lefschetz_rank_surjective_range(models, rng):
    g = hodge.random_metric(models["torus2"], rng)
    for p in range(5):
        for k in range(3):
            if p + 2 * k > 4:
                continue
            rank, target = hodge.lefschetz_harmonic_rank(g, k, p)
            if 2 * p + 2 * k >= 4:
                assert rank == target, (p, k)


# ---------------------------------------------------------------------------
# six-term Laplacians, one build per metric and (p,q)

SIX_TERM = {"laplacian_bc": hodge.laplacian_bc, "laplacian_a": hodge.laplacian_a}


def _count_laplacian_builds(monkeypatch):
    """Builds and lookups of the six-term Laplacians, per (metric, name, p, q)."""
    builds, lookups = Counter(), Counter()
    original = hodge._cached

    def counted(g, key, build):
        if not (isinstance(key, tuple) and key[0] in SIX_TERM):
            return original(g, key, build)
        lookups[id(g), *key] += 1

        def count_build():
            builds[id(g), *key] += 1
            return build()

        return original(g, key, count_build)

    monkeypatch.setattr(hodge, "_cached", counted)
    return builds, lookups


@pytest.mark.parametrize("name", ["kodaira_thurston", "kt2"])
def test_check_lemmas_builds_each_six_term_laplacian_once(monkeypatch, capsys, tmp_path, bench_module, name):
    # the star intertwining, the three-space splittings and every Aeppli
    # harmonicity sample read the same matrices
    from pluriclosed import cli

    argv = ["check-lemmas", "--model", name]
    if name == "kt2":  # the benchmark's n = 4 model under its block metric
        inputs = bench_module("inputs")
        h = inputs.block_matrix(2, 0, np.random.default_rng(3))
        argv = ["check-lemmas"]
        for flag, doc in (("--model", inputs.kt_product(2)), ("--metric", inputs.metric_document("block", h))):
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv += [flag, str(path)]
    builds, lookups = _count_laplacian_builds(monkeypatch)
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == [] and report["aeppli_harmonic_samples"] > 0
    n = 4 if name == "kt2" else fx.load_model(name).n
    (metric,) = {key[0] for key in builds}
    assert set(builds) == {(metric, lap, p, q) for lap in SIX_TERM for p in range(n + 1) for q in range(n + 1)}
    assert set(builds.values()) == {1}
    assert lookups.total() > len(builds)  # the cache was read


def test_cached_laplacians_are_read_only_and_equal_a_fresh_build(models):
    doc = fx.load_document("metric_kt_standard")
    g, fresh = (hodge.metric_from_document(models["kodaira_thurston"], doc) for _ in range(2))
    for build in SIX_TERM.values():
        for p in range(3):
            for q in range(3):
                lap = build(g, p, q)
                assert build(g, p, q) is lap
                assert not lap.flags.writeable
                with pytest.raises(ValueError):
                    lap[...] = 0
                np.testing.assert_array_equal(lap, build(fresh, p, q))


def test_two_metrics_of_one_model_keep_their_own_laplacians(models, rng):
    model = models["kodaira_thurston"]
    g, other = hodge.identity_metric(model), hodge.random_metric(model, rng)
    for name, build in SIX_TERM.items():
        mine, theirs = build(g, 1, 1), build(other, 1, 1)
        assert g._cache[(name, 1, 1)] is mine and other._cache[(name, 1, 1)] is theirs
        assert mine is not theirs
        assert np.max(np.abs(mine - theirs)) > 1e-3
