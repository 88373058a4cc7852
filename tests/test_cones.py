import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed import cohomology as coh
from pluriclosed import cones
from pluriclosed import hodge
from pluriclosed.errors import CrossCheckError, PreconditionError


def _aeppli_class(g, form):
    space = coh.cohomology_space(g, "aeppli", 1, 1)
    return coh.class_of(space, form)


def test_torus_identity_class_feasible(metrics):
    g = metrics["torus2"]
    result = cones.skt_cone_feasibility(_aeppli_class(g, g.omega), seed=0)
    assert result.verdict == "feasible_with_witness"
    assert result.best_min_eigenvalue == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(result.witness_matrix - np.eye(2))) < 1e-9


def test_torus_negative_class_infeasible(metrics):
    g = metrics["torus2"]
    result = cones.skt_cone_feasibility(_aeppli_class(g, -1 * g.omega), seed=0)
    assert result.verdict == "infeasible_certified"
    assert result.certificate["pairing"] == pytest.approx(-2.0, abs=1e-9)


def test_kt_standard_class_feasible(metrics):
    g = metrics["kt_standard"]
    result = cones.skt_cone_feasibility(_aeppli_class(g, g.omega), seed=0)
    assert result.verdict == "feasible_with_witness"
    assert result.best_min_eigenvalue >= 0.5 - 1e-9


def test_solver_climbs_from_degenerate_harmonic_representative(metrics):
    # on this model the harmonic representative of [omega] has a zero
    # eigenvalue (the phi1-phibar1 component is not harmonic), so the
    # subgradient ascent must genuinely move to certify feasibility
    g = metrics["kodaira_thurston"]
    cls = _aeppli_class(g, g.omega)
    rep = coh.harmonic_representative(cls)
    m = hodge.matrix_of_11_form(0.5 * (rep + alg.conjugate(rep)), 2)
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] < 1e-12
    result = cones.skt_cone_feasibility(cls, seed=0)
    assert result.verdict == "feasible_with_witness"
    assert result.best_min_eigenvalue > 0.9


def test_search_directions_match_the_per_direction_loop(models, rng):
    # reference: u_k B_k + h.c. summed direction by direction, B_k the matrix
    # of del phibar^k, and the gradient x* dM/dtheta_j x one direction at a time;
    # summation order differs, so equality is to a tolerance fixed from eps
    for name in ("iwasawa", "kodaira_thurston", "nonunimodular", "double_kt"):
        model = models[name]
        n = model.n
        blocks = [
            hodge.matrix_of_11_form(alg.del_form(model, alg.basis_form(n, (), (k,))), n)
            for k in range(1, n + 1)
        ]
        directions = cones.search_directions(model)
        theta = rng.standard_normal(2 * n)
        expected = np.zeros((n, n), dtype=complex)
        for k, b in enumerate(blocks):
            u_k = theta[2 * k] + 1j * theta[2 * k + 1]
            expected += u_k * b + (u_k * b).conj().T
        assert np.allclose(np.tensordot(theta, directions, axes=1), expected, rtol=0, atol=1e-13)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        grad = np.einsum("i,kij,j->k", x.conj(), directions, x).real
        for k, b in enumerate(blocks):
            assert grad[2 * k] == pytest.approx((x.conj() @ (b + b.conj().T) @ x).real, abs=1e-12)
            assert grad[2 * k + 1] == pytest.approx(
                (x.conj() @ (1j * (b - b.conj().T)) @ x).real, abs=1e-12
            )


def test_witness_stays_in_class_and_skt(metrics):
    g = metrics["kt_standard"]
    cls = _aeppli_class(g, g.omega)
    result = cones.skt_cone_feasibility(cls, seed=3)
    witness = result.witness
    model = g.model
    assert alg.del_form(model, alg.delbar_form(model, witness)).norm() < 1e-10
    again = coh.class_of(cls.space, witness)
    assert np.max(np.abs(again.coords - cls.coords)) < 1e-8


def test_witness_drift_check_is_relative_to_the_class(metrics, monkeypatch):
    # a witness pushed off its class by 1e-6 of the class must be caught,
    # however small the class is
    g = metrics["torus2"]
    cls = _aeppli_class(g, 1e-12 * g.omega)
    rep = coh.harmonic_representative(cls)
    original = hodge.form_of_hermitian_matrix

    def off_class(m):
        return original(m) + 1e-6 * rep

    monkeypatch.setattr(hodge, "form_of_hermitian_matrix", off_class)
    with pytest.raises(CrossCheckError, match="left its Aeppli class"):
        cones.skt_cone_feasibility(cls, seed=0)


def test_rejects_non_real_class(metrics):
    g = metrics["torus2"]
    cls = _aeppli_class(g, g.omega).scaled(1j)
    with pytest.raises(PreconditionError):
        cones.skt_cone_feasibility(cls)


def test_rejects_wrong_theory(metrics):
    g = metrics["torus2"]
    space = coh.cohomology_space(g, "bc", 1, 1)
    cls = coh.class_of(space, hodge.omega_power(g, 1))
    with pytest.raises(PreconditionError):
        cones.skt_cone_feasibility(cls)


def test_convexity_of_feasible_classes(metrics, rng):
    # midpoint of two feasible classes is feasible; the averaged witness certifies it
    g = metrics["torus2"]
    h1 = hodge.random_metric(g.model, rng)
    h2 = hodge.random_metric(g.model, rng)
    c1 = _aeppli_class(g, h1.omega)
    c2 = _aeppli_class(g, h2.omega)
    r1 = cones.skt_cone_feasibility(c1, seed=1)
    r2 = cones.skt_cone_feasibility(c2, seed=1)
    assert r1.verdict == r2.verdict == "feasible_with_witness"
    mid = coh.CohomologyClass(
        c1.space,
        0.5 * (c1.coords + c2.coords),
        0.5 * (c1.representative + c2.representative),
    )
    rm = cones.skt_cone_feasibility(mid, seed=1)
    assert rm.verdict == "feasible_with_witness"
    averaged = 0.5 * (r1.witness_matrix + r2.witness_matrix)
    assert np.linalg.eigvalsh(averaged)[0] > 0
    avg_cls = coh.class_of(mid.space, hodge.form_of_hermitian_matrix(averaged))
    assert np.max(np.abs(avg_cls.coords - mid.coords)) < 1e-8


def test_openness_probes(metrics, rng):
    # classes near a feasible class remain feasible
    g = metrics["torus2"]
    cls = _aeppli_class(g, g.omega)
    base = cones.skt_cone_feasibility(cls, seed=0)
    mu = base.best_min_eigenvalue
    space = cls.space
    for _ in range(20):
        direction = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(
            space.dimension
        )
        rep = hodge.from_frame(g, space.basis @ direction, 1, 1)
        rep = 0.5 * (rep + alg.conjugate(rep))
        norm = hodge.l2_norm(g, rep)
        if norm < 1e-12:
            continue
        rep = (0.05 * mu / norm) * rep
        perturbed = coh.class_of(space, cls.representative + rep)
        result = cones.skt_cone_feasibility(perturbed, seed=0)
        assert result.verdict == "feasible_with_witness"


def test_closed_positive_probes_certified(models):
    for name in ("torus2", "iwasawa", "kodaira_thurston"):
        model = models[name]
        for probe in cones.closed_positive_probes(model, count=4, seed=0):
            assert probe.closedness_residual < 1e-9
            assert probe.min_positivity_eigenvalue >= -1e-9
            assert alg.is_real_form(probe.form, tol=1e-9)


def test_kt_has_monomial_probe(models):
    labels = [p.label for p in cones.closed_positive_probes(models["kodaira_thurston"])]
    assert "monomial-1" in labels


# ---------------------------------------------------------------------------
# pairing tests against SKT probes


def _bc_power_class(g):
    n = g.n
    space = coh.cohomology_space(g, "bc", n - 1, n - 1)
    return coh.class_of(space, hodge.omega_power(g, n - 1))


def test_copsef_consistent_with_positive_pairing(metrics):
    g = metrics["torus2"]
    report = cones.copsef_pairing_test(
        _bc_power_class(g), [cones.skt_probe_from_metric(g, "identity")]
    )
    assert report.verdict == "consistent"
    assert report.pairings[0][1] == pytest.approx(2.0)
    assert "not a membership certificate" in report.note


def test_copsef_violated_on_negative_class(metrics):
    g = metrics["torus2"]
    report = cones.copsef_pairing_test(
        _bc_power_class(g).scaled(-1), [cones.skt_probe_from_metric(g, "identity")]
    )
    assert report.verdict == "violated"
    assert report.violations[0][1] == pytest.approx(-2.0)


def test_copsef_empty_probe_list_warns(metrics):
    report = cones.copsef_pairing_test(_bc_power_class(metrics["torus2"]), [])
    assert report.verdict == "consistent"
    assert report.warning is not None


def test_copsef_rejects_probe_without_witness(metrics):
    g = metrics["torus2"]
    with pytest.raises(PreconditionError):
        cones.copsef_pairing_test(_bc_power_class(g), [cones.SktProbe(witness=None)])


def test_copsef_rejects_indefinite_probe(metrics):
    # the zero witness has SKT residual 0 and fails on positivity
    g = metrics["torus2"]
    indefinite = alg.basis_form(2, (1,), (1,), 1j) - alg.basis_form(2, (2,), (2,), 1j)
    for probe_form in (indefinite, alg.zero_form(2, 1, 1)):
        with pytest.raises(PreconditionError, match="not positive definite"):
            cones.copsef_pairing_test(_bc_power_class(g), [cones.SktProbe(witness=probe_form)])


def test_weak_positivity_matrix_is_the_pairing_integral(rng):
    # entry (k, j) is the integral of t wedge i phi^j wedge phibar^k
    for n in (2, 3):
        t = alg.random_form(n, n - 1, n - 1, rng)
        m = cones.weak_positivity_matrix(t, n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                probe = alg.basis_form(n, (j,), (k,), 1j)
                assert m[k - 1, j - 1] == alg.integrate_top(alg.wedge(t, probe), n)
