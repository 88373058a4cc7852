import json

import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed import classify
from pluriclosed import cli
from pluriclosed import cohomology as coh
from pluriclosed import hodge
from pluriclosed.errors import PreconditionError


@pytest.mark.parametrize("eps", [1e-5, 4e-5, 4.2e-5, 1e-3])
def test_skt_verdicts_agree_across_the_threshold(tmp_path, capsys, eps):
    # d phi^3 = -eps phi^1 ^ phi^2 under the identity metric has SKT residual
    # eps^2 / sqrt 3, which crosses hodge.TOL_EQ between eps = 4e-5 and 4.2e-5;
    # classify, require_skt and the check-lemmas gate read the one residual
    doc = {
        "name": "iwasawa_eps",
        "n": 3,
        "dphi": [[], [], [{"type": "20", "i": 1, "j": 2, "coeff": [-eps, 0.0]}]],
    }
    g = hodge.identity_metric(alg.parse_model(doc))
    skt = classify.classify_metric(g).skt
    assert skt == (hodge.skt_residual(g.model, g.omega) <= hodge.TOL_EQ)
    try:
        coh.require_skt(g)
        required = True
    except PreconditionError:
        required = False
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["check-lemmas", "--model", str(path)]) == 0
    gated = json.loads(capsys.readouterr().out)["aeppli_harmonic_residual"] is not None
    assert skt == required == gated
    assert skt == (eps < 4.1e-5)


def test_truth_table_torus(metrics):
    result = classify.classify_metric(metrics["torus2"])
    assert all(result.flags().values())
    assert result.witnesses["strongly_gauduchon"].is_zero()
    assert result.witnesses["hermitian_symplectic"].is_zero()


def test_truth_table_iwasawa(metrics):
    flags = classify.classify_metric(metrics["iwasawa"]).flags()
    assert flags == {
        "kahler": False,
        "balanced": True,
        "gauduchon": True,
        "strongly_gauduchon": True,
        "skt": False,
        "hermitian_symplectic": False,
    }


def test_truth_table_kodaira_thurston(metrics):
    flags = classify.classify_metric(metrics["kt_standard"]).flags()
    assert flags == {
        "kahler": False,
        "balanced": False,
        "gauduchon": True,
        "strongly_gauduchon": False,
        "skt": True,
        "hermitian_symplectic": False,
    }


def test_surface_collapse_skt_equals_gauduchon(models, rng):
    # in complex dimension 2 the SKT and Gauduchon verdicts coincide
    for name in ("torus2", "kodaira_thurston", "nonunimodular"):
        model = models[name]
        for _ in range(3):
            result = classify.classify_metric(hodge.random_metric(model, rng))
            assert result.skt == result.gauduchon, name


def test_scale_equivariance(models, rng):
    for name in ("iwasawa", "kodaira_thurston"):
        model = models[name]
        h = hodge.random_metric(model, rng).h
        for c in (0.1, 7.0):
            base = classify.classify_metric(hodge.metric_from_matrix(model, h)).flags()
            scaled = classify.classify_metric(hodge.metric_from_matrix(model, c * h)).flags()
            assert base == scaled


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_thurston", "iwasawa7"])
def test_flags_hold_under_extreme_scalar_metrics(models, bench_module, name):
    # |omega^{n-1}| is of size t^{n-1}: its squares leave the float range long
    # before its entries do.  At n = 7 the entries t^6 themselves leave it
    # past about t = 1e+-50, so the n = 7 model stops at the t = 1e+-30 rung.
    if name == "iwasawa7":
        model, scales = alg.parse_model(bench_module("inputs").iwasawa_type(7)), (1e-30, 1e30)
    else:
        model, scales = models[name], (1e-100, 1e-30, 1e30, 1e100)
    base = classify.classify_metric(hodge.identity_metric(model)).flags()
    for t in scales:
        g = hodge.metric_from_matrix(model, t * np.eye(model.n))
        assert classify.classify_metric(g).flags() == base, t


def test_implication_chain_random_metrics(models, rng):
    for name in ("torus2", "torus3", "iwasawa", "kodaira_thurston", "double_kt"):
        model = models[name]
        for _ in range(3):
            result = classify.classify_metric(hodge.random_metric(model, rng))
            if result.kahler:
                assert result.balanced and result.skt
            if result.balanced:
                assert result.gauduchon
            if result.strongly_gauduchon:
                assert result.gauduchon


def test_strict_mode_reports_degree_inconsistent_reading(metrics):
    result = classify.classify_metric(metrics["kt_standard"], strict=True)
    assert "hermitian_symplectic_02_reading" in result.residuals
    # that reading cannot absorb del omega at all
    assert result.residuals["hermitian_symplectic_02_reading"] > 0.1


def test_strongly_gauduchon_witness_verifies(models, rng):
    # on a model where del omega^{n-1} is nonzero but delbar-exact the witness works
    model = models["iwasawa"]
    g = hodge.random_metric(model, rng)
    result = classify.classify_metric(g)
    if result.strongly_gauduchon:
        gamma = result.witnesses["strongly_gauduchon"]
        power = alg.wedge_power(g.omega, model.n - 1)
        residual = (alg.del_form(model, power) - alg.delbar_form(model, gamma)).norm()
        assert residual <= 1e-8 * max(1.0, power.norm())


# ---------------------------------------------------------------------------
# SKT class non-vanishing


def test_skt_distance_on_torus(metrics):
    g = metrics["torus2"]
    cert = classify.skt_class_nonzero(g)
    assert cert.distance == pytest.approx(hodge.l2_norm(g, g.omega))
    assert cert.alpha.is_zero()


def test_skt_distance_on_kt(metrics):
    cert = classify.skt_class_nonzero(metrics["kt_standard"])
    assert cert.relative_distance > 0.1
    assert cert.positivity_total >= -1e-12
    assert all(t >= -1e-12 for t in cert.positivity_terms)
    # beta is the conjugate of alpha by construction
    assert (alg.conjugate(cert.alpha) - cert.beta).norm() == 0.0


def test_skt_certificate_rejects_non_skt(metrics):
    with pytest.raises(PreconditionError):
        classify.skt_class_nonzero(metrics["iwasawa"])


def test_weak_positivity_verdicts(metrics):
    # a real (n,n)-form has one coefficient, so only the zero form reads zero
    g = metrics["torus2"]
    dv = hodge.omega_power(g, g.n)
    for s in (1e-13, 1.0, 1e13):
        assert classify.weak_positivity_topform(s * dv, 2) == "positive", s
        assert classify.weak_positivity_topform(-s * dv, 2) == "negative", s
    assert classify.weak_positivity_topform(alg.zero_form(2, 2, 2), 2) == "zero"


def test_weak_positivity_rejects_non_real(metrics):
    g = metrics["torus2"]
    with pytest.raises(PreconditionError):
        classify.weak_positivity_topform(1j * hodge.omega_power(g, g.n), 2)


# ---------------------------------------------------------------------------
# Aeppli harmonicity of omega ^ phi


def test_aeppli_harmonic_on_torus(metrics):
    res = classify.aeppli_harmonic_check(metrics["torus2"], alg.basis_form(2, (1,), ()))
    assert res.as_tuple() == (0.0, 0.0, 0.0)


def test_aeppli_harmonic_on_kt(metrics):
    g = metrics["kt_standard"]
    phi = alg.basis_form(2, (1,), ())
    res = classify.aeppli_harmonic_check(g, phi)
    scale = hodge.l2_norm(g, phi)
    assert max(res.as_tuple()) < 1e-9 * scale


def test_aeppli_harmonic_rejects_non_closed(metrics):
    with pytest.raises(PreconditionError) as err:
        classify.aeppli_harmonic_check(metrics["kt_standard"], alg.basis_form(2, (2,), ()))
    assert "delbar_phi_nonzero" in err.value.violations


def test_aeppli_harmonic_rejects_non_skt_metric(metrics):
    with pytest.raises(PreconditionError) as err:
        classify.aeppli_harmonic_check(metrics["iwasawa"], alg.basis_form(3, (1, 2), ()))
    assert "metric_not_skt" in err.value.violations


def test_aeppli_harmonic_membership_in_kernel(metrics):
    # omega ^ phi lands in ker Delta_A as computed independently by harmonic_space
    g = metrics["kt_standard"]
    phi = alg.basis_form(2, (1,), ())
    w = alg.wedge(g.omega, phi)
    basis = hodge.harmonic_space(g, hodge.laplacian_a(g, 2, 1), 2, 1)
    projected = hodge.harmonic_projection(g, basis, w)
    assert hodge.l2_norm(g, w - projected) < 1e-8 * hodge.l2_norm(g, w)


def test_aeppli_harmonic_0_n1_and_n1_0_forms(metrics):
    # total-degree n-1 forms of extreme bidegree, primitivity checked not assumed
    g = metrics["kt_standard"]
    for phi in (alg.basis_form(2, (1,), ()), alg.basis_form(2, (), (1,))):
        res = classify.aeppli_harmonic_check(g, phi)
        assert max(res.as_tuple()) < 1e-9


# ---------------------------------------------------------------------------
# power exactness


def _double_kt_exact_form(model):
    beta = -1 * (alg.basis_form(4, (), (2,)) + alg.basis_form(4, (), (4,)))
    gamma = alg.zero_form(4, 1, 0)
    a = alg.del_form(model, beta)
    return a, beta, gamma


def test_power_exactness_p1_returns_inputs(models):
    model = models["double_kt"]
    a, beta, gamma = _double_kt_exact_form(model)
    b1, g1 = classify.power_exactness_witness(model, a, beta, gamma, 1)
    assert (b1 - beta).norm() == 0.0
    assert (g1 - gamma).norm() == 0.0


def test_power_exactness_zero_form(models):
    model = models["torus2"]
    zero = alg.zero_form(2, 1, 1)
    b, g = classify.power_exactness_witness(
        model, zero, alg.zero_form(2, 0, 1), alg.zero_form(2, 1, 0), 2
    )
    assert b.is_zero() and g.is_zero()


def test_power_exactness_p2_nondegenerate(models):
    model = models["double_kt"]
    a, beta, gamma = _double_kt_exact_form(model)
    assert alg.wedge_power(a, 2).norm() > 0
    b2, g2 = classify.power_exactness_witness(model, a, beta, gamma, 2)
    residual = (
        alg.wedge_power(a, 2)
        - alg.del_form(model, b2)
        - alg.delbar_form(model, g2)
    ).norm()
    assert residual < 1e-12


def test_power_exactness_from_solved_system(models, rng):
    # build (beta, gamma) in the nullspace of the closedness constraints and verify p = 2
    model = models["double_kt"]
    n = model.n
    from pluriclosed.linalg import nullspace

    n01 = alg.space_dim(n, 0, 1)
    n10 = alg.space_dim(n, 1, 0)
    # constraints: delbar(del beta) = 0 and del(delbar gamma) = 0
    block = np.zeros((alg.space_dim(n, 1, 2) + alg.space_dim(n, 2, 1), n01 + n10), complex)
    block[: alg.space_dim(n, 1, 2), :n01] = (
        alg.delbar_matrix(model, 1, 1) @ alg.del_matrix(model, 0, 1)
    )
    block[alg.space_dim(n, 1, 2) :, n01:] = (
        alg.del_matrix(model, 1, 1) @ alg.delbar_matrix(model, 1, 0)
    )
    space = nullspace(block)
    found = False
    for _ in range(10):
        z = rng.standard_normal(space.shape[1]) + 1j * rng.standard_normal(space.shape[1])
        vec = space @ z
        beta = alg.from_vector(vec[:n01], n, 0, 1)
        gamma = alg.from_vector(vec[n01:], n, 1, 0)
        a = alg.del_form(model, beta) + alg.delbar_form(model, gamma)
        if a.norm() < 1e-9:
            continue
        classify.power_exactness_witness(model, a, beta, gamma, 2)
        found = True
    assert found


def test_power_exactness_rejects_bad_potentials(models):
    model = models["double_kt"]
    a, beta, gamma = _double_kt_exact_form(model)
    with pytest.raises(PreconditionError) as err:
        classify.power_exactness_witness(model, a, 2 * beta, gamma, 2)
    assert "a_minus_del_beta_minus_delbar_gamma" in err.value.violations


@pytest.mark.parametrize("eps", [0.0, 1e-12, 3e-10, 1e-8, 1.0])
def test_classify_and_hodge_share_the_kahler_verdict(eps):
    # d phi^2 = eps phi^1 ^ phibar^1 under the identity metric: one residual,
    # |d omega| / |omega| = eps, and one threshold decide both
    doc = {"name": "kt_eps", "n": 2,
           "dphi": [[], [{"type": "11", "i": 1, "j": 1, "coeff": [eps, 0.0]}]]}
    g = hodge.identity_metric(alg.parse_model(doc))
    kahler = classify.classify_metric(g).kahler
    assert kahler == hodge.is_kahler(g) == (eps <= hodge.TOL_EQ)
    if kahler:
        hodge.quasi_isometry_bounds(g, 1, 1)
    else:
        with pytest.raises(PreconditionError):
            hodge.quasi_isometry_bounds(g, 1, 1)
