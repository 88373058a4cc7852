"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else; every expected value was either
derived by hand, frozen from the exact-arithmetic oracle in conftest, or is a
golden file committed with the fixture corpus.
"""

import json
import math

import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed import classify
from pluriclosed import cohomology as coh
from pluriclosed import cones
from pluriclosed import fixtures as fx
from pluriclosed import hodge

FIXTURES = ("torus1", "torus2", "torus3", "iwasawa", "kodaira_thurston", "nonunimodular")


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def test_criterion_01_structure_suite(models):
    worst = 0.0
    for name in FIXTURES:
        model = models[name]
        n = model.n
        for p in range(n + 1):
            for q in range(n + 1):
                dd = alg.del_matrix(model, p + 1, q) @ alg.del_matrix(model, p, q)
                bb = alg.delbar_matrix(model, p, q + 1) @ alg.delbar_matrix(model, p, q)
                mix = alg.del_matrix(model, p, q + 1) @ alg.delbar_matrix(model, p, q)
                mix = mix + alg.delbar_matrix(model, p + 1, q) @ alg.del_matrix(model, p, q)
                for mat in (dd, bb, mix):
                    if mat.size:
                        worst = max(worst, float(np.max(np.abs(mat))))
    _report(1, "structure-suite", worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_02_torus_cohomology(models):
    ok = True
    for name in ("torus1", "torus2", "torus3"):
        model = models[name]
        g = hodge.identity_metric(model)
        n = model.n
        for p in range(n + 1):
            for q in range(n + 1):
                expected = math.comb(n, p) * math.comb(n, q)
                ok = ok and coh.cohomology_space(g, "bc", p, q).dimension == expected
                ok = ok and coh.cohomology_space(g, "aeppli", p, q).dimension == expected
    _report(2, "torus-cohomology", ok, "h_BC = h_A = C(n,p)C(n,q) for n in {1,2,3}")


def test_criterion_03_hodge_isomorphism(models):
    checked = 0
    for name in FIXTURES:
        model = models[name]
        g = hodge.identity_metric(model)
        n = model.n
        for theory in ("bc", "aeppli"):
            for p in range(n + 1):
                for q in range(n + 1):
                    quotient = coh.quotient_dimension(model, theory, p, q)
                    lap = hodge.laplacian(g, theory, p, q)
                    assert quotient == hodge.harmonic_basis(lap).shape[1], (name, theory, p, q)
                    checked += 1
    _report(3, "hodge-isomorphism", True, f"{checked} spaces, quotient == kernel exactly")


def test_criterion_04_star_intertwining(models):
    # star Delta_BC = Delta_A star rests on del* = -star delbar star, i.e. on
    # the finite Stokes identity, so it is quantified over the unimodular
    # corpus; the non-unimodular fixture genuinely breaks it (order-1
    # residual), which the last clause documents.
    rng = np.random.default_rng(404)
    worst = 0.0
    for name in FIXTURES:
        model = models[name]
        if not alg.is_unimodular(model):
            continue
        n = model.n
        for _ in range(5):
            g = hodge.random_metric(model, rng)
            for p in range(n + 1):
                for q in range(n + 1):
                    star = hodge.star_matrix(g, p, q)
                    lhs = star @ hodge.laplacian_bc(g, p, q)
                    rhs = hodge.laplacian_a(g, n - q, n - p) @ star
                    if lhs.size:
                        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst < 1e-9

    g_bad = hodge.identity_metric(models["nonunimodular"])
    star = hodge.star_matrix(g_bad, 1, 1)
    off = float(
        np.max(
            np.abs(
                star @ hodge.laplacian_bc(g_bad, 1, 1)
                - hodge.laplacian_a(g_bad, 1, 1) @ star
            )
        )
    )
    ok = ok and off > 1e-3  # the identity must genuinely need Stokes
    _report(
        4,
        "star-intertwining",
        ok,
        f"max residual {worst:.2e} on unimodular corpus; "
        f"non-unimodular control residual {off:.2e}",
    )


def test_criterion_05_primitive_star_formula(models):
    rng = np.random.default_rng(505)
    worst = 0.0
    for name in FIXTURES:
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        samples = 0
        while samples < 100:
            p = int(rng.integers(0, n + 1))
            q = int(rng.integers(0, n + 1))
            v = hodge.random_primitive_form(g, p, q, rng)
            if v is None or v.norm() < 1e-9:
                continue
            worst = max(worst, hodge.primitive_star_check(g, v))
            samples += 1
    _report(5, "primitive-star-formula", worst < 1e-9, f"max residual {worst:.2e}, 100/fixture")


def test_criterion_06_aeppli_harmonic_lemma(models):
    kt = models["kodaira_thurston"]
    g = hodge.metric_from_document(kt, fx.load_document("metric_kt_standard"))
    phi = alg.basis_form(2, (1,), ())
    res = classify.aeppli_harmonic_check(g, phi)
    bound = 1e-8 * hodge.l2_norm(g, phi)
    ok = max(res.as_tuple()) < bound
    _report(6, "aeppli-harmonic-lemma", ok, f"residual triple {res.as_tuple()}")


def test_criterion_07_skt_class_distance(models):
    details = []
    ok = True
    for name, metric_doc in (("torus1", None), ("torus2", None), ("torus3", None),
                             ("kodaira_thurston", "metric_kt_standard")):
        model = models[name]
        if metric_doc:
            g = hodge.metric_from_document(model, fx.load_document(metric_doc))
        else:
            g = hodge.identity_metric(model)
        cert = classify.skt_class_nonzero(g)
        ok = ok and cert.relative_distance > 0.1
        details.append(f"{name}={cert.relative_distance:.3f}")
    _report(7, "skt-class-distance", ok, ", ".join(details))


def test_criterion_08_lefschetz_decomposition(models):
    g2 = hodge.identity_metric(models["torus2"])
    space = coh.cohomology_space(g2, "bc", 1, 1)
    cls = coh.class_of(space, hodge.omega_power(g2, 1))
    _, lam = coh.lefschetz_decompose_class(g2, cls)
    ok = abs(lam - 1.0) < 1e-8

    # full hyperplane basis orthogonal to the harmonic part of omega_{n-1}
    worst_orth = 0.0
    for name, metric_doc in (("torus2", None), ("kodaira_thurston", "metric_kt_standard")):
        model = models[name]
        g = (
            hodge.metric_from_document(model, fx.load_document(metric_doc))
            if metric_doc
            else hodge.identity_metric(model)
        )
        hyper = coh.primitive_hyperplane(g)
        power_h = coh.harmonic_part_of_omega_power(g)
        for hcls in hyper.classes():
            rep = coh.harmonic_representative(hcls)
            worst_orth = max(worst_orth, abs(hodge.inner(g, power_h, rep)))
    ok = ok and worst_orth < 1e-9

    # formula vs projection agreement on 50 random classes (enforced inside
    # lefschetz_decompose_class at 1e-8; a CrossCheckError would fail the test)
    rng = np.random.default_rng(808)
    kt = models["kodaira_thurston"]
    gk = hodge.metric_from_document(kt, fx.load_document("metric_kt_standard"))
    for g in (g2, gk):
        sp = coh.cohomology_space(g, "bc", g.n - 1, g.n - 1)
        for _ in range(25):
            coords = rng.standard_normal(sp.dimension) + 1j * rng.standard_normal(sp.dimension)
            rep = hodge.from_frame(g, sp.basis @ coords, g.n - 1, g.n - 1)
            coh.lefschetz_decompose_class(g, coh.CohomologyClass(sp, coords, rep))
    _report(
        8,
        "lefschetz-decomposition",
        ok,
        f"lambda(omega_power)={lam:.2e}+..., hyperplane orthogonality {worst_orth:.2e}, "
        "50 random classes cross-checked",
    )


def test_criterion_09_three_space_decompositions(models):
    rng = np.random.default_rng(909)
    worst = 0.0
    ok = True
    for name in FIXTURES:
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)
        for theory in ("bc", "aeppli"):
            for p in range(n + 1):
                for q in range(n + 1):
                    rep = hodge.three_space_decomposition(g, theory, p, q)
                    worst = max(worst, rep.orthogonality_residual)
                    ok = ok and rep.dims_sum_ok and rep.closed_split_ok and rep.image_split_ok
    _report(9, "three-space-decompositions", ok and worst < 1e-9, f"max residual {worst:.2e}")


def test_criterion_10_classification_truth_table(models):
    torus = classify.classify_metric(hodge.identity_metric(models["torus2"])).flags()
    iwasawa = classify.classify_metric(hodge.identity_metric(models["iwasawa"])).flags()
    kt = classify.classify_metric(
        hodge.metric_from_document(
            models["kodaira_thurston"], fx.load_document("metric_kt_standard")
        )
    ).flags()
    ok = all(torus.values())
    ok = ok and iwasawa["balanced"] and not iwasawa["skt"]
    ok = ok and kt["skt"] and not kt["kahler"] and not kt["balanced"]
    # and the flags agree with the committed golden files
    for name, flags in (("torus2", torus), ("iwasawa", iwasawa), ("kodaira_thurston", kt)):
        golden = json.loads(fx.golden_path(name, "classify").read_text(encoding="utf-8"))
        ok = ok and golden["flags"] == flags
    _report(10, "classification-truth-table", ok, "torus/iwasawa/kodaira_thurston vs goldens")


def test_criterion_11_lefschetz_injectivity(models):
    rng = np.random.default_rng(1111)
    ok = True
    details = []
    for name in ("torus1", "torus2", "torus3"):
        model = models[name]
        n = model.n
        g = hodge.random_metric(model, rng)  # every invariant torus metric is Kahler
        for p in range(2 * n + 1):
            for k in range(0, n + 1):
                if p + 2 * k > 2 * n:
                    continue
                sigma_min, _ = hodge.quasi_isometry_bounds(g, k, p)
                rank, target = hodge.lefschetz_harmonic_rank(g, k, p)
                if 2 * p + 2 * k <= 2 * n and sigma_min <= 0:
                    ok = False
                    details.append(f"{name} injectivity p={p} k={k}")
                if 2 * p + 2 * k >= 2 * n and rank != target:
                    ok = False
                    details.append(f"{name} surjectivity p={p} k={k}")
    _report(11, "lefschetz-injectivity", ok, "; ".join(details) or "all (p,k) in range")


def test_criterion_12_cone_solver(models):
    g = hodge.identity_metric(models["torus2"])
    space = coh.cohomology_space(g, "aeppli", 1, 1)
    identity_cls = coh.class_of(space, g.omega)
    feasible = cones.skt_cone_feasibility(identity_cls)
    ok = feasible.verdict == "feasible_with_witness" and feasible.best_min_eigenvalue >= 0.9

    negative = cones.skt_cone_feasibility(identity_cls.scaled(-1))
    ok = ok and negative.verdict == "infeasible_certified"

    rng = np.random.default_rng(1212)
    mu = feasible.best_min_eigenvalue
    for trial in range(20):
        direction = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(
            space.dimension
        )
        rep = hodge.from_frame(g, space.basis @ direction, 1, 1)
        rep = 0.5 * (rep + alg.conjugate(rep))
        norm = hodge.l2_norm(g, rep)
        if norm < 1e-12:
            continue
        if trial % 2:
            # openness: small perturbations stay feasible
            probe = coh.class_of(space, identity_cls.representative + (0.05 * mu / norm) * rep)
            ok = ok and cones.skt_cone_feasibility(probe).verdict == "feasible_with_witness"
        else:
            # convexity: midpoints of two feasible classes stay feasible
            other = coh.class_of(
                space, identity_cls.representative + (0.4 * mu / norm) * rep
            )
            if cones.skt_cone_feasibility(other).verdict != "feasible_with_witness":
                continue
            mid = coh.CohomologyClass(
                space,
                0.5 * (identity_cls.coords + other.coords),
                0.5 * (identity_cls.representative + other.representative),
            )
            ok = ok and cones.skt_cone_feasibility(mid).verdict == "feasible_with_witness"
    _report(
        12,
        "cone-solver",
        ok,
        f"identity min-eig {feasible.best_min_eigenvalue:.3f}, "
        f"negative verdict {negative.verdict}, 20 seeded perturbations",
    )


def test_criterion_13_power_exactness(models):
    # product-of-two-surfaces model (n = 4): a = phi1^phibar1 + phi3^phibar3 is
    # exact with a^2 nonzero; a^3 vanishes (rank 2), which still verifies the
    # identity a^3 = del beta' + delbar gamma' exactly.  No n <= 4 fixture
    # admits an exact closed (1,1)-form of rank 3.
    model = models["double_kt"]
    beta = -1 * (alg.basis_form(4, (), (2,)) + alg.basis_form(4, (), (4,)))
    gamma = alg.zero_form(4, 1, 0)
    a = alg.del_form(model, beta)
    worst = 0.0
    for power in (1, 2, 3):
        b_out, g_out = classify.power_exactness_witness(model, a, beta, gamma, power)
        residual = (
            alg.wedge_power(a, power)
            - alg.del_form(model, b_out)
            - alg.delbar_form(model, g_out)
        ).norm()
        worst = max(worst, residual)
    nondegenerate = alg.wedge_power(a, 2).norm() > 0
    _report(
        13,
        "power-exactness",
        worst < 1e-9 and nondegenerate,
        f"max residual {worst:.2e}, a^2 nonzero {nondegenerate}",
    )
