import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed import cohomology as coh
from pluriclosed import fixtures as fx
from pluriclosed import hodge
from pluriclosed.errors import CrossCheckError, PreconditionError
from pluriclosed.linalg import hermitian_kernel


def test_torus_bc_aeppli_dims_are_binomials(models):
    for name in ("torus1", "torus2", "torus3"):
        model = models[name]
        g = hodge.identity_metric(model)
        n = model.n
        for p in range(n + 1):
            for q in range(n + 1):
                expected = math.comb(n, p) * math.comb(n, q)
                assert coh.cohomology_space(g, "bc", p, q).dimension == expected
                assert coh.cohomology_space(g, "aeppli", p, q).dimension == expected


def test_iwasawa_known_dims(metrics):
    g = metrics["iwasawa"]
    assert coh.cohomology_space(g, "bc", 1, 0).dimension == 2
    assert coh.cohomology_space(g, "aeppli", 0, 1).dimension == 3
    assert coh.cohomology_space(g, "dolbeault", 1, 0).dimension == 3
    assert coh.cohomology_space(g, "dolbeault", 0, 1).dimension == 2
    betti = [coh.cohomology_space(g, "derham", k).dimension for k in range(7)]
    assert betti == [1, 4, 8, 10, 8, 4, 1]


def test_all_dims_match_exact_oracle(models, metrics, exact_models):
    # floating quotient ranks and harmonic kernels vs exact rational ranks
    for name in ("torus2", "iwasawa", "kodaira_thurston", "double_kt"):
        g = metrics[name]
        exact = exact_models[name]
        n = g.n
        for theory in ("bc", "aeppli", "dolbeault"):
            for p in range(n + 1):
                for q in range(n + 1):
                    space = coh.cohomology_space(g, theory, p, q)
                    assert space.dimension == exact.dim(theory, p, q), (name, theory, p, q)
        for k in range(2 * n + 1):
            space = coh.cohomology_space(g, "derham", k)
            assert space.dimension == exact.dim("derham", k, None), (name, k)


CONDITIONING_FIXTURES = ("torus2", "torus3", "iwasawa", "kodaira_thurston", "nonunimodular")


@pytest.fixture(scope="module")
def oracle_dims(exact_models) -> dict[tuple, int]:
    """Exact dimensions of every space of the conditioning fixtures, by (name, theory, p, q)."""
    out = {}
    for name in CONDITIONING_FIXTURES:
        exact = exact_models[name]
        for theory, p, q in _space_keys(exact.n):
            out[name, theory, p, q] = exact.dim(theory, p, q)
    return out


def _space_keys(n: int) -> list[tuple]:
    return [
        (theory, p, q)
        for theory in ("bc", "aeppli", "dolbeault")
        for p in range(n + 1)
        for q in range(n + 1)
    ] + [("derham", k, None) for k in range(2 * n + 1)]


def _conditioned_metric(model, c: float, seed: int) -> hodge.HermitianMetric:
    """h = U diag(geomspace(1, c, n)) U* with U a seeded random unitary."""
    rng = np.random.default_rng([seed, 2024])
    n = model.n
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return hodge.metric_from_matrix(model, (u * np.geomspace(1.0, c, n)) @ u.conj().T)


@pytest.mark.parametrize("c", [1.0, 1e2, 1e4, 1e6])
def test_ill_conditioned_metrics_match_exact_oracle(models, oracle_dims, c):
    # dimensions do not depend on the metric, so every space of every
    # positive definite metric must pass the cross-check and match the oracle
    for name in CONDITIONING_FIXTURES:
        for seed in range(3):
            g = _conditioned_metric(models[name], c, seed)
            for theory, p, q in _space_keys(g.n):
                space = coh.cohomology_space(g, theory, p, q)
                assert space.dimension == oracle_dims[name, theory, p, q], (name, seed, theory, p, q)


# bench/reference.py is an exact mod-p rank of the same complex, on its own
# representation


@pytest.mark.parametrize("name", ["kt3", "iwasawa6"])
def test_n6_quotient_dimensions_match_exact_reference(bench_module, name):
    # n = 6 model matrices split into many small blocks
    inputs, reference = bench_module("inputs"), bench_module("reference")
    doc = inputs.kt_product(3) if name == "kt3" else inputs.iwasawa_type(6)
    model = alg.parse_model(doc)
    exact = reference.reference_dimensions(doc)
    got = {key: coh.quotient_dimension(model, *key) for key in _space_keys(6)}
    assert got == exact


@pytest.mark.parametrize("name", ["kt2_t1", "iwasawa5"])
def test_n5_full_sweep_matches_exact_reference(bench_module, name):
    # every space, both routes, under a condition-10 metric: mirrored
    # Bott-Chern and Aeppli spaces and real de Rham counts included
    inputs, reference = bench_module("inputs"), bench_module("reference")
    doc = inputs.kt_product(2, 1) if name == "kt2_t1" else inputs.iwasawa_type(5)
    g = _conditioned_metric(alg.parse_model(doc), 10.0, seed=0)
    exact = reference.reference_dimensions(doc)
    got = {key: coh.cohomology_space(g, *key).dimension for key in _space_keys(5)}
    assert got == exact


# ---------------------------------------------------------------------------
# conjugation: mirrored Bott-Chern and Aeppli spaces, real de Rham counts

IWASAWA4_DOC = {
    "name": "iwasawa4",
    "n": 4,
    "dphi": [[], [], [], [{"type": "20", "i": 1, "j": 2, "coeff": [-1.0, 0.0]}]],
}
# every fixture, KT^2 and the Iwasawa-type model at n = 4
MIRROR_MODELS = (*fx.available_models(), "double_kt", "iwasawa4")
LAPLACIANS = {"bc": "laplacian_bc", "aeppli": "laplacian_a"}


@pytest.fixture(scope="module")
def mirror_metrics(models) -> dict[str, hodge.HermitianMetric]:
    chosen = {name: models[name] for name in MIRROR_MODELS if name in models}
    chosen["iwasawa4"] = alg.parse_model(IWASAWA4_DOC)
    return {name: _conditioned_metric(model, 10.0, seed=1) for name, model in chosen.items()}


def _conjugation(n: int, p: int, q: int) -> np.ndarray:
    """Signed permutation P: Lambda^{p,q} -> Lambda^{q,p} with conj(u) = P conj(vec u)."""
    return alg._conjugate_rows(np.eye(alg.space_dim(n, p, q)), n, p, q).T.real


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_mirrored_basis_spans_the_direct_kernel(mirror_metrics, name):
    g = mirror_metrics[name]
    for theory, laplacian in LAPLACIANS.items():
        for p in range(g.n + 1):
            for q in range(g.n + 1):  # mirrored (p > q) and direct (p <= q) spaces
                basis = coh.cohomology_space(g, theory, p, q).basis
                direct = hodge.harmonic_basis(g, getattr(hodge, laplacian)(g, p, q))
                assert basis.shape == direct.shape, (theory, p, q)
                # L2-orthonormal frame columns B give the projector B B^H
                gap = basis @ basis.conj().T - direct @ direct.conj().T
                assert np.max(np.abs(gap), initial=0.0) <= 1e-10, (theory, p, q)


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_conjugation_maps_the_laplacians(mirror_metrics, name):
    g = mirror_metrics[name]
    for laplacian in LAPLACIANS.values():
        for p in range(g.n + 1):
            for q in range(g.n + 1):
                lap = getattr(hodge, laplacian)(g, p, q)
                mirror = getattr(hodge, laplacian)(g, q, p)
                conj = _conjugation(g.n, p, q)
                scale = max(np.max(np.abs(lap)), 1.0)
                assert np.max(np.abs(mirror - conj @ lap.conj() @ conj.T)) <= 1e-13 * scale


@pytest.mark.parametrize("theory", LAPLACIANS)
def test_mirrored_space_keeps_its_cross_check(models, monkeypatch, theory):
    quotient = coh.quotient_dimension

    def off_by_one(model, theory, p, q):
        return quotient(model, theory, p, q) + (p > q)

    monkeypatch.setattr(coh, "quotient_dimension", off_by_one)
    model = models["kodaira_thurston"]
    g = _conditioned_metric(model, 10.0, seed=2)
    coh.cohomology_space(g, theory, 1, 2)  # the mirror is cached first
    with pytest.raises(CrossCheckError):
        coh.cohomology_space(g, theory, 2, 1)
    with pytest.raises(CrossCheckError):  # and computed on demand
        coh.cohomology_space(_conditioned_metric(model, 10.0, seed=2), theory, 2, 1)


@pytest.mark.parametrize("name", ["iwasawa", "double_kt"])
def test_no_laplacian_is_built_above_the_diagonal(models, monkeypatch, name):
    # every frame Laplacian is assembled from the frame (closed, exact) pair
    built = []
    original = hodge.closed_and_exact

    def record(g, theory, p, q=None):
        if theory in LAPLACIANS:
            built.append((p, q))
        return original(g, theory, p, q)

    monkeypatch.setattr(hodge, "closed_and_exact", record)
    g = _conditioned_metric(models[name], 10.0, seed=3)
    n = g.n
    for theory in LAPLACIANS:
        for p in reversed(range(n + 1)):  # (p,q) before (q,p): the mirror is computed on demand
            for q in range(n + 1):
                coh.cohomology_space(g, theory, p, q)
    assert len(built) == 2 * (n + 1) * (n + 2) // 2
    assert all(p <= q for p, q in built)


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_real_frame_is_unitary_and_makes_the_derham_laplacian_real(mirror_metrics, name):
    g = mirror_metrics[name]
    for k in range(2 * g.n + 1):
        size = sum(alg.space_dim(g.n, p, q) for p, q in alg.bidegrees_of_degree(g.n, k))
        assert np.allclose(hodge.real_frame_matrix(np.eye(size), g.n, k), np.eye(size), atol=1e-15)
        lap = hodge.laplacian_derham(g, k)
        real = hodge.real_frame_matrix(lap, g.n, k)
        assert np.max(np.abs(real.imag)) <= 1e-13 * np.max(np.abs(lap)), k


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_real_derham_count_matches_the_complex_kernel(mirror_metrics, name):
    g = mirror_metrics[name]
    for k in range(2 * g.n + 1):
        lap = hodge.laplacian_derham(g, k)
        complex_kernel = hermitian_kernel(lap, tol=hodge.rank_cut(g, lap, 2, 4))
        assert hodge.derham_harmonic_dimension(g, k) == complex_kernel.shape[1], k


# ---------------------------------------------------------------------------
# the (closed, exact) pair that defines each theory


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_closed_kills_exact_in_model_and_frame_coordinates(mirror_metrics, name):
    # relative to the norms of the two factors, each floored at S, the largest
    # del or delbar block: frame blocks that vanish exactly carry rounding noise
    g = mirror_metrics[name]
    n = g.n
    tables = (
        (g.model, partial(alg.closed_and_exact, g.model)),
        (hodge.frame_model(g), partial(hodge.closed_and_exact, g)),
    )
    for model, table in tables:
        blocks = (alg.del_matrix, alg.delbar_matrix)
        s = max(np.linalg.norm(b(model, p, q)) for b in blocks for p in range(n + 1) for q in range(n + 1))
        for theory, p, q in _space_keys(n):
            if q is None:
                dim = sum(alg.space_dim(n, a, b) for a, b in alg.bidegrees_of_degree(n, p))
            else:
                dim = alg.space_dim(n, p, q)
            closed, exact = table(theory, p, q)
            assert closed.shape[1] == exact.shape[0] == dim, (theory, p, q)
            scale = max(np.linalg.norm(closed), s) * max(np.linalg.norm(exact), s)
            assert np.linalg.norm(closed @ exact) <= 1e-12 * scale, (theory, p, q)


def test_unknown_theory_is_rejected(metrics):
    g = metrics["iwasawa"]
    with pytest.raises(ValueError, match="unknown theory"):
        alg.closed_and_exact(g.model, "hodge", 1, 1)
    with pytest.raises(ValueError, match="unknown theory"):
        hodge.closed_and_exact(g, "hodge", 1, 1)
    with pytest.raises(ValueError, match="unknown theory"):
        coh.cohomology_space(g, "hodge", 1, 1)


@pytest.mark.parametrize(("theory", "p", "q"), [("dolbeault", 1, 1), ("derham", 2, None)])
def test_decompositions_and_classes_need_bc_or_aeppli(metrics, theory, p, q):
    g = metrics["iwasawa"]
    with pytest.raises(ValueError):
        hodge.three_space_decomposition(g, theory, p, q)
    with pytest.raises(ValueError):
        coh.class_of(coh.cohomology_space(g, theory, p, q), alg.zero_form(g.n, 1, 1))


def test_space_bases_are_orthonormal(models, rng):
    # frame coordinates are L2-isometric, so L2-orthonormal bases have B^H B = I
    for name in ("iwasawa", "kodaira_thurston"):
        model = models[name]
        n = model.n
        scaled = [hodge.metric_from_matrix(model, t * np.eye(n)) for t in (1e-3, 1e3)]
        for g in (hodge.random_metric(model, rng), *scaled):
            for theory in ("bc", "aeppli", "dolbeault"):
                for p in range(n + 1):
                    for q in range(n + 1):
                        basis = coh.cohomology_space(g, theory, p, q).basis
                        gap = basis.conj().T @ basis - np.eye(basis.shape[1])
                        assert np.max(np.abs(gap), initial=0.0) <= 1e-12, (theory, p, q)


def test_dims_metric_independent(models, rng):
    model = models["kodaira_thurston"]
    g1 = hodge.identity_metric(model)
    g2 = hodge.random_metric(model, rng)
    for theory in ("bc", "aeppli"):
        for p in range(3):
            for q in range(3):
                assert (
                    coh.cohomology_space(g1, theory, p, q).dimension
                    == coh.cohomology_space(g2, theory, p, q).dimension
                )


def test_serre_type_duality_of_dimensions(metrics):
    for name in ("iwasawa", "kodaira_thurston"):
        g = metrics[name]
        n = g.n
        for p in range(n + 1):
            for q in range(n + 1):
                assert (
                    coh.cohomology_space(g, "bc", p, q).dimension
                    == coh.cohomology_space(g, "aeppli", n - p, n - q).dimension
                )


def test_metric_freed_by_refcount_after_every_space(models):
    # the metric caches space data, not spaces that point back at it, so
    # dropping the last reference frees it without a garbage-collection pass
    g = hodge.identity_metric(models["iwasawa"])
    ref = weakref.ref(g)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for theory, p, q in _space_keys(g.n):
            coh.cohomology_space(g, theory, p, q)
        space = coh.cohomology_space(g, "bc", 1, 1)
        assert space.metric is g
        del g, space
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_spaces_from_two_calls_are_the_same_space(metrics):
    g = metrics["torus2"]
    first = coh.cohomology_space(g, "bc", 1, 1)
    second = coh.cohomology_space(g, "bc", 1, 1)
    assert first == second and hash(first) == hash(second)
    assert first != coh.cohomology_space(g, "aeppli", 1, 1)
    assert first != coh.cohomology_space(hodge.identity_metric(g.model), "bc", 1, 1)
    a = coh.class_of(first, hodge.omega_power(g, 1))
    b = coh.class_of(second, hodge.omega_power(g, 1))
    assert np.allclose((a + b).coords, 2 * a.coords)
    primitive, lam = coh.lefschetz_decompose_class(g, b)
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert primitive.space == first


# ---------------------------------------------------------------------------
# classes


def test_class_of_zero_form(metrics):
    g = metrics["torus2"]
    space = coh.cohomology_space(g, "bc", 1, 1)
    cls = coh.class_of(space, alg.zero_form(2, 1, 1))
    assert np.allclose(cls.coords, 0)


def test_class_rejects_non_closed(metrics, models):
    g = metrics["kodaira_thurston"]
    space = coh.cohomology_space(g, "bc", 1, 1)
    with pytest.raises(PreconditionError):
        coh.class_of(space, alg.delbar_form(g.model, alg.basis_form(2, (2,), ())) * 1.0 + alg.basis_form(2, (2,), (2,)))
    # the identity metric of the Iwasawa manifold is not SKT: del delbar omega != 0
    g = hodge.identity_metric(models["iwasawa"])
    assert alg.del_form(g.model, alg.delbar_form(g.model, g.omega)).norm() > 0.1
    with pytest.raises(PreconditionError, match="del delbar-closed"):
        coh.class_of(coh.cohomology_space(g, "aeppli", 1, 1), g.omega)


def test_harmonic_representative_projects(metrics, rng):
    g = metrics["kodaira_thurston"]
    space = coh.cohomology_space(g, "aeppli", 1, 1)
    u = g.omega  # del delbar-closed: the metric is SKT
    cls = coh.class_of(space, u)
    rep = coh.harmonic_representative(cls)
    again = coh.class_of(space, rep)
    assert np.max(np.abs(again.coords - cls.coords)) < 1e-10


# ---------------------------------------------------------------------------
# duality pairing


def test_pairing_torus_omega(metrics):
    g = metrics["torus2"]
    c_bc = coh.class_of(coh.cohomology_space(g, "bc", 1, 1), hodge.omega_power(g, 1))
    c_a = coh.class_of(coh.cohomology_space(g, "aeppli", 1, 1), g.omega)
    assert coh.duality_pairing(c_bc, c_a) == pytest.approx(2.0)


def test_pairing_with_zero_class(metrics):
    g = metrics["torus2"]
    c_bc = coh.class_of(coh.cohomology_space(g, "bc", 1, 1), alg.zero_form(2, 1, 1))
    c_a = coh.class_of(coh.cohomology_space(g, "aeppli", 1, 1), g.omega)
    assert coh.duality_pairing(c_bc, c_a) == 0


def test_pairing_representative_independence(models, metrics, rng):
    # perturbing the BC representative by del delbar Phi and the Aeppli one by
    # del u + delbar v leaves the value unchanged
    g = metrics["double_kt"]
    model = g.model
    n = model.n
    bc_space = coh.cohomology_space(g, "bc", n - 1, n - 1)
    c_bc = coh.class_of(
        bc_space, hodge.from_frame(g, bc_space.basis[:, 0] + bc_space.basis[:, 1], n - 1, n - 1)
    )
    c_a = coh.class_of(coh.cohomology_space(g, "aeppli", 1, 1), g.omega)
    base = coh.duality_pairing(c_bc, c_a)

    phi = alg.random_form(n, n - 2, n - 2, rng)
    moved_bc = coh.CohomologyClass(
        c_bc.space,
        c_bc.coords,
        c_bc.representative + alg.del_form(model, alg.delbar_form(model, phi)),
    )
    assert abs(coh.duality_pairing(moved_bc, c_a) - base) < 1e-9 * max(1.0, abs(base))

    u = alg.random_form(n, 0, 1, rng)
    v = alg.random_form(n, 1, 0, rng)
    moved_a = coh.CohomologyClass(
        c_a.space,
        c_a.coords,
        c_a.representative + alg.del_form(model, u) + alg.delbar_form(model, v),
    )
    assert abs(coh.duality_pairing(c_bc, moved_a) - base) < 1e-9 * max(1.0, abs(base))


def test_pairing_rejects_nonunimodular(models):
    model = models["nonunimodular"]
    g = hodge.identity_metric(model)
    c_bc = coh.class_of(coh.cohomology_space(g, "bc", 1, 1), alg.zero_form(model.n, 1, 1))
    c_a = coh.class_of(coh.cohomology_space(g, "aeppli", 1, 1), alg.zero_form(model.n, 1, 1))
    with pytest.raises(PreconditionError, match="unimodular"):
        coh.duality_pairing(c_bc, c_a)


def test_pairing_matrix_nondegenerate(metrics):
    # Serre-type duality: the pairing of harmonic bases has full rank
    for name in ("torus2", "iwasawa", "kodaira_thurston"):
        g = metrics[name]
        n = g.n
        bc = coh.cohomology_space(g, "bc", n - 1, n - 1)
        ae = coh.cohomology_space(g, "aeppli", 1, 1)
        assert bc.dimension == ae.dimension
        bc_reps = [hodge.from_frame(g, b, n - 1, n - 1) for b in bc.basis.T]
        ae_reps = [hodge.from_frame(g, a, 1, 1) for a in ae.basis.T]
        pairing = np.array(
            [[coh.integrate_pairing(g.model, b, a) for a in ae_reps] for b in bc_reps]
        )
        assert np.linalg.matrix_rank(pairing) == bc.dimension, name


# ---------------------------------------------------------------------------
# primitive hyperplane


def test_hyperplane_torus2(metrics):
    hp = coh.primitive_hyperplane(metrics["torus2"])
    assert hp.space.dimension == 4
    assert hp.dimension == 3


def test_hyperplane_kt_codimension_one(metrics):
    hp = coh.primitive_hyperplane(metrics["kt_standard"])
    assert hp.dimension == hp.space.dimension - 1


def test_hyperplane_rejects_non_skt(metrics):
    with pytest.raises(PreconditionError):
        coh.primitive_hyperplane(metrics["iwasawa"])


def test_wedge_map_well_defined_on_representatives(metrics, rng):
    # omega ^ (del delbar Phi) stays inside Im del + Im delbar
    g = metrics["double_kt"]
    model = g.model
    n = model.n
    phi = alg.random_form(n, n - 2, n - 2, rng)
    moved = alg.wedge(g.omega, alg.del_form(model, alg.delbar_form(model, phi)))
    columns = np.hstack(
        [alg.del_matrix(model, n - 1, n), alg.delbar_matrix(model, n, n - 1)]
    )
    from pluriclosed.linalg import min_norm_lstsq

    _, residual = min_norm_lstsq(columns, alg.to_vector(moved, n))
    assert residual < 1e-9 * max(1.0, moved.norm())


def test_wedge_functional_depends_only_on_aeppli_class(metrics, rng):
    # replacing omega by omega + del(conj a) + delbar(a) does not move the
    # functional; under t * h_std the volume is t^n, and the L2 product
    # <b, omega_{n-1}> must still be the integral of b wedge omega
    for t in (1.0, 1e-3, 1e3):
        for name in ("kt_standard", "double_kt"):
            g = hodge.metric_from_matrix(metrics[name].model, t * metrics[name].h)
            model = g.model
            n = model.n
            hp = coh.primitive_hyperplane(g)
            a = 0.05 * t * alg.random_form(n, 1, 0, rng)
            moved = g.omega + alg.del_form(model, alg.conjugate(a)) + alg.delbar_form(model, a)
            functional = np.array(
                [
                    coh.integrate_pairing(model, hodge.from_frame(g, b, n - 1, n - 1), moved)
                    for b in hp.space.basis.T
                ]
            )
            assert np.max(np.abs(functional - hp.functional)) < 1e-9 * t ** (n / 2)


# ---------------------------------------------------------------------------
# Lefschetz-type decomposition


def test_decompose_omega_power_gives_lambda_one(metrics):
    for name in ("torus2", "torus3"):
        g = metrics[name]
        n = g.n
        space = coh.cohomology_space(g, "bc", n - 1, n - 1)
        cls = coh.class_of(space, hodge.omega_power(g, n - 1))
        primitive, lam = coh.lefschetz_decompose_class(g, cls)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(primitive.coords) < 1e-9


def test_decompose_zero_class(metrics):
    g = metrics["torus2"]
    space = coh.cohomology_space(g, "bc", 1, 1)
    cls = coh.class_of(space, alg.zero_form(2, 1, 1))
    primitive, lam = coh.lefschetz_decompose_class(g, cls)
    assert lam == 0
    assert np.linalg.norm(primitive.coords) == 0


def test_hyperplane_classes_have_lambda_zero_and_are_orthogonal(metrics):
    for name in ("torus2", "kt_standard"):
        g = metrics[name]
        hp = coh.primitive_hyperplane(g)
        power_h = coh.harmonic_part_of_omega_power(g)
        for cls in hp.classes():
            _, lam = coh.lefschetz_decompose_class(g, cls)
            assert abs(lam) < 1e-9
            rep = coh.harmonic_representative(cls)
            assert abs(hodge.inner(g, power_h, rep)) < 1e-9


def test_decomposition_idempotent(metrics, rng):
    g = metrics["kt_standard"]
    space = coh.cohomology_space(g, "bc", 1, 1)
    u = alg.random_form(2, 1, 1, rng)
    # project to a closed representative through the harmonic basis
    coords = np.array([hodge.inner(g, u, hodge.from_frame(g, b, 1, 1)) for b in space.basis.T])
    cls = coh.class_of(space, coh.harmonic_representative(coh.CohomologyClass(space, coords, u)))
    primitive, _ = coh.lefschetz_decompose_class(g, cls)
    again, lam2 = coh.lefschetz_decompose_class(g, primitive)
    assert abs(lam2) < 1e-8
    assert np.max(np.abs(again.coords - primitive.coords)) < 1e-8


def test_lambda_linear(metrics, rng):
    g = metrics["kt_standard"]
    space = coh.cohomology_space(g, "bc", 1, 1)

    def random_class():
        coords = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        rep = hodge.from_frame(g, space.basis @ coords, 1, 1)
        return coh.CohomologyClass(space, coords, rep)

    c1, c2 = random_class(), random_class()
    a = complex(rng.standard_normal(), rng.standard_normal())
    _, l1 = coh.lefschetz_decompose_class(g, c1)
    _, l2 = coh.lefschetz_decompose_class(g, c2)
    combo = coh.CohomologyClass(
        space, a * c1.coords + c2.coords, a * c1.representative + c2.representative
    )
    _, lc = coh.lefschetz_decompose_class(g, combo)
    assert abs(lc - (a * l1 + l2)) < 1e-9 * max(1.0, abs(lc))


def test_harmonic_power_part_is_star_of_harmonic_part(models, rng):
    # (omega_{n-1})_h = star((omega)_h): the bridge between the closed lambda
    # formula and the projection route.  Every invariant metric on the
    # Kodaira-Thurston model is SKT, so random metrics are admissible there.
    for name in ("torus2", "kodaira_thurston"):
        model = models[name]
        for _ in range(3):
            g = hodge.random_metric(model, rng)
            coh.require_skt(g)
            lhs = coh.harmonic_part_of_omega_power(g)
            rhs = hodge.hodge_star(g, coh.harmonic_part_of_omega(g))
            assert hodge.l2_norm(g, lhs - rhs) < 1e-9 * hodge.l2_norm(g, lhs)


def _kt2_block_metric(model, seed: int) -> hodge.HermitianMetric:
    """Product metric on KT x KT: one random positive definite 2x2 block per factor."""
    rng = np.random.default_rng(seed)
    h = np.zeros((4, 4), dtype=complex)
    for block in (slice(0, 2), slice(2, 4)):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h[block, block] = a @ a.conj().T + np.eye(2)
    return hodge.metric_from_matrix(model, h)


SKT_METRICS = ("torus1", "torus2", "torus3", "kodaira_thurston", "kt_standard", "double_kt")


@pytest.fixture(scope="module")
def skt_metrics(models, metrics) -> dict[str, hodge.HermitianMetric]:
    out = {name: metrics[name] for name in SKT_METRICS}
    out["kt2_block"] = _kt2_block_metric(models["double_kt"], seed=4)
    return out


def _harmonic_parts(g):
    n = g.n
    return (
        (coh.harmonic_part_of_omega(g), hodge.laplacian_a(g, 1, 1)),
        (coh.harmonic_part_of_omega_power(g), hodge.laplacian_bc(g, n - 1, n - 1)),
    )


@pytest.mark.parametrize("name", [*SKT_METRICS, "kt2_block"])
def test_harmonic_parts_match_a_direct_kernel_projection(skt_metrics, name):
    g = skt_metrics[name]
    coh.require_skt(g)
    n = g.n
    sources = (g.omega, hodge.omega_power(g, n - 1))
    for (part, lap), u in zip(_harmonic_parts(g), sources):
        kernel = hermitian_kernel(lap, tol=hodge.rank_cut(g, lap, 2, 4))  # orthonormal columns
        direct = kernel @ (kernel.conj().T @ hodge.to_frame(g, u))
        got = hodge.to_frame(g, part)
        assert np.linalg.norm(got - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("name", ["kodaira_thurston", "kt2_block"])
def test_harmonic_parts_reuse_the_cohomology_spaces(models, monkeypatch, name):
    # a fresh metric: nothing of an earlier test is cached on it
    if name == "kt2_block":
        g = _kt2_block_metric(models["double_kt"], seed=5)
    else:
        g = hodge.identity_metric(models[name])
    n = g.n
    coh.cohomology_space(g, "aeppli", 1, 1)
    coh.cohomology_space(g, "bc", n - 1, n - 1)
    calls = []
    for fn in ("laplacian", "laplacian_a", "laplacian_bc", "hermitian_kernel"):

        def record(*args, fn=fn, original=getattr(hodge, fn), **kwargs):
            calls.append(fn)
            return original(*args, **kwargs)

        monkeypatch.setattr(hodge, fn, record)
    coh.harmonic_part_of_omega(g)
    coh.harmonic_part_of_omega_power(g)
    assert calls == []


def test_decomposition_with_random_skt_metrics(models, rng):
    model = models["kodaira_thurston"]
    for _ in range(3):
        g = hodge.random_metric(model, rng)
        space = coh.cohomology_space(g, "bc", 1, 1)
        for _ in range(5):
            coords = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(
                space.dimension
            )
            rep = hodge.from_frame(g, space.basis @ coords, 1, 1)
            # internal formula-vs-projection cross-check runs on every call
            coh.lefschetz_decompose_class(g, coh.CohomologyClass(space, coords, rep))


def test_formula_vs_projection_on_random_classes(metrics, rng):
    # lefschetz_decompose_class raises CrossCheckError when the two lambda
    # routes disagree, so agreement is checked by it returning at all
    for name in ("torus2", "kt_standard", "double_kt"):
        g = metrics[name]
        n = g.n
        space = coh.cohomology_space(g, "bc", n - 1, n - 1)
        for _ in range(50):
            coords = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(
                space.dimension
            )
            rep = hodge.from_frame(g, space.basis @ coords, n - 1, n - 1)
            coh.lefschetz_decompose_class(g, coh.CohomologyClass(space, coords, rep))


# ---------------------------------------------------------------------------
# sign partition


def test_sign_partition_examples(metrics):
    g = metrics["torus2"]
    space = coh.cohomology_space(g, "bc", 1, 1)
    cls = coh.class_of(space, hodge.omega_power(g, 1))
    assert coh.lambda_sign_partition(g, cls) == "positive"
    assert coh.lambda_sign_partition(g, cls.scaled(-1)) == "negative"


def test_sign_partition_hyperplane_is_primitive(metrics):
    g = metrics["torus2"]
    hp = coh.primitive_hyperplane(g)
    for cls in hp.classes():
        rep = coh.harmonic_representative(cls)
        real_rep = 0.5 * (rep + alg.conjugate(rep))
        if real_rep.norm() < 1e-12:
            continue
        real_cls = coh.class_of(hp.space, real_rep)
        if abs(np.vdot(hp.functional, real_cls.coords)) > 1e-9:
            continue
        assert coh.lambda_sign_partition(g, real_cls) == "primitive"


@pytest.mark.parametrize("eps,side", [(0.0, "primitive"), (1e-6, "positive"), (-1e-6, "negative")])
def test_sign_partition_is_resolved_against_the_representative(models, eps, side):
    # a real del delbar-exact part of unit size leaves rounding of that size in
    # the harmonic projection: reality, the lambda routes and the sign band are
    # measured against the representative, so the zero class is real and primitive
    model = models["double_kt"]
    g = hodge.identity_metric(model)
    space = coh.cohomology_space(g, "bc", 3, 3)
    beta = alg.random_form(4, 2, 2, np.random.default_rng(0))
    exact = alg.del_form(model, alg.delbar_form(model, beta))
    exact = (0.5 / exact.norm()) * (exact + alg.conjugate(exact))
    cls = coh.class_of(space, exact + eps * coh.harmonic_part_of_omega_power(g))
    assert np.linalg.norm(cls.coords) < 1e-5
    assert coh.is_real_class(cls)
    assert coh.lambda_sign_partition(g, cls) == side


def test_sign_partition_rejects_non_real(metrics):
    g = metrics["torus2"]
    space = coh.cohomology_space(g, "bc", 1, 1)
    cls = coh.class_of(space, hodge.omega_power(g, 1)).scaled(1j)
    with pytest.raises(PreconditionError):
        coh.lambda_sign_partition(g, cls)


def test_real_class_needs_equal_bidegrees(models):
    g = hodge.identity_metric(models["torus2"])
    phi1 = alg.basis_form(2, (1,), ())
    assert not coh.is_real_class(coh.class_of(coh.cohomology_space(g, "bc", 1, 0), phi1))
    omega = coh.class_of(coh.cohomology_space(g, "bc", 1, 1), hodge.omega_power(g, 1))
    assert coh.is_real_class(omega)
