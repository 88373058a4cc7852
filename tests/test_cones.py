import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed import cli
from pluriclosed import cohomology as coh
from pluriclosed import cones
from pluriclosed import fixtures as fx
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
    # solver must genuinely move to certify feasibility
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
    # of del phibar^k; summation order differs, so equality is to a
    # tolerance fixed from eps.  The barrier's gradient tr(S^-1 D_k) and
    # Hessian -tr(S^-1 D_a S^-1 D_b) of log det S are checked against central
    # differences of step h = 1e-4: the truncation error h^2 |f'''| and the
    # rounding error eps |f| / h^2 both stay below the 1e-6 tolerance for S >= I
    h = 1e-4
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

        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = x @ x.conj().T + np.eye(n)
        grad, hessian = cones._log_det_derivatives(s, directions)

        def log_det(step):
            return np.linalg.slogdet(s + np.tensordot(step, directions, axes=1))[1]

        unit = h * np.eye(2 * n)
        for a in range(2 * n):
            central = (log_det(unit[a]) - log_det(-unit[a])) / (2 * h)
            assert grad[a] == pytest.approx(central, abs=1e-6)
            for b in range(2 * n):
                second = (
                    log_det(unit[a] + unit[b])
                    - log_det(unit[a] - unit[b])
                    - log_det(unit[b] - unit[a])
                    + log_det(-unit[a] - unit[b])
                ) / (4 * h * h)
                assert hessian[a, b] == pytest.approx(second, abs=1e-6)


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


def test_stored_probe_contradicting_a_witness_raises(metrics, monkeypatch):
    # a stored probe pairing negatively with a class that has a witness is a
    # contradiction between the two certificates, caught however small the class
    g = metrics["torus2"]
    cls = _aeppli_class(g, 1e-12 * g.omega)
    negated = cones.ClosedPositiveProbe(
        form=-1 * hodge.omega_power(g, 1),
        label="negated-identity-power",
        closedness_residual=0.0,
        min_positivity_eigenvalue=0.0,
    )
    monkeypatch.setattr(cones, "closed_positive_probes", lambda model, seed=0: [negated])
    with pytest.raises(CrossCheckError, match="stored probe negated-identity-power pairs"):
        cones.skt_cone_feasibility(cls, seed=0)


def _block_metric(bench_module, model_name, seed=1):
    """The block metric of a KT product in the benchmark command mix of a seed."""
    inputs = bench_module("inputs")
    docs = {name: fx.load_document(name) for name in fx.available_models()}
    for model_doc, metric, _, _ in inputs.command_models(seed, docs):
        if model_doc["name"] == model_name and metric is not None:
            return hodge.metric_from_document(alg.parse_model(model_doc), metric)
    raise LookupError(model_name)


@pytest.mark.parametrize("where", ["torus2", "kodaira_thurston", "kt2"])
def test_zero_class_is_certified_by_the_dual(metrics, bench_module, where):
    # the zero class holds no positive form; the barrier's dual proves it
    g = _block_metric(bench_module, where) if where == "kt2" else metrics[where]
    result = cones.skt_cone_feasibility(_aeppli_class(g, 0 * g.omega), seed=0)
    assert result.verdict == "infeasible_certified"
    assert result.certificate["probe"] == "dual"
    assert result.certificate["pairing"] <= 0


def test_no_benchmark_cone_case_is_inconclusive(bench_module, tmp_path):
    inputs = bench_module("inputs")
    docs = {name: fx.load_document(name) for name in fx.available_models()}

    def write_document(doc: dict) -> str:
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    verdicts = {}
    for seed in (1, 2, 3):
        for case in inputs.command_cases(seed, docs, write_document):
            if case.argv[:2] != ["cone", "skt"] or case.expected_exit != 0:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(case.argv) == 0
            verdicts[f"{seed} {' '.join(case.argv)}"] = json.loads(out.getvalue())["verdict"]
    assert len(verdicts) == 3 * 12
    assert "inconclusive" not in verdicts.values(), verdicts


@pytest.mark.parametrize("name", ["torus2", "kodaira_thurston", "kt_standard", "double_kt"])
@pytest.mark.parametrize("factor", [1.0, -1.0, 0.0])
def test_no_fixture_cone_case_is_inconclusive(metrics, name, factor):
    g = metrics[name]
    result = cones.skt_cone_feasibility(_aeppli_class(g, factor * g.omega), seed=0)
    expected = "feasible_with_witness" if factor > 0 else "infeasible_certified"
    assert result.verdict == expected


def test_output_ignores_a_rotation_of_the_aeppli_basis(bench_module):
    g = _block_metric(bench_module, "kt2")
    space = coh.cohomology_space(g, "aeppli", 1, 1)
    rng = np.random.default_rng(1)
    shape = (space.dimension, space.dimension)
    unitary = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    rotated = dataclasses.replace(space, basis=space.basis @ unitary)
    for sign in (1, -1):
        result = cones.skt_cone_feasibility(coh.class_of(space, sign * g.omega), seed=1)
        turned = cones.skt_cone_feasibility(coh.class_of(rotated, sign * g.omega), seed=1)
        assert turned.verdict == result.verdict
        assert turned.best_min_eigenvalue == pytest.approx(result.best_min_eigenvalue, rel=1e-9)
        if sign > 0:
            drift = np.linalg.norm(turned.witness_matrix - result.witness_matrix)
            assert drift <= 1e-9 * np.linalg.norm(result.witness_matrix)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model_name", ["kt2", "kt2_t1"])
def test_rounding_moves_cone_output_by_rounding_only(bench_module, seed, model_name):
    # a real harmonic perturbation of 1e-15 of the class, on the --scale +-1
    # block-metric cases of the benchmark command mix
    g = _block_metric(bench_module, model_name, seed)
    space = coh.cohomology_space(g, "aeppli", 1, 1)
    rng = np.random.default_rng(seed)
    for sign in (1, -1):
        cls = coh.class_of(space, sign * g.omega)
        direction = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
        noise = hodge.from_frame(g, space.basis @ direction, 1, 1)
        noise = 0.5 * (noise + alg.conjugate(noise))
        noise = (1e-15 * hodge.l2_norm(g, g.omega) / hodge.l2_norm(g, noise)) * noise
        result = cones.skt_cone_feasibility(cls, seed=seed)
        nudged_cls = coh.class_of(space, cls.representative + noise)
        nudged = cones.skt_cone_feasibility(nudged_cls, seed=seed)
        assert nudged.verdict == result.verdict
        assert nudged.best_min_eigenvalue == pytest.approx(result.best_min_eigenvalue, rel=1e-9)


def test_kt2_optimum_is_the_compression_to_the_face(bench_module):
    # the directions of KT^2 span -2 phi^1 phibar^1 and -2 phi^3 phibar^3 only:
    # the supremum is lambda_min of the class matrix on the other two
    # coordinates, approached but not attained, and the witness keeps half
    g = _block_metric(bench_module, "kt2")
    cls = _aeppli_class(g, g.omega)
    rep = coh.harmonic_representative(cls)
    m0 = hodge.matrix_of_11_form(0.5 * (rep + alg.conjugate(rep)), 4)
    face = m0[np.ix_([1, 3], [1, 3])]
    result = cones.skt_cone_feasibility(cls, seed=1)
    assert result.best_min_eigenvalue == pytest.approx(np.linalg.eigvalsh(face)[0], rel=1e-12)
    witness_min = np.linalg.eigvalsh(result.witness_matrix)[0]
    assert witness_min >= 0.5 * result.best_min_eigenvalue * (1 - 1e-9)


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def _assert_dual_certifies(optimum, m0, directions, scale):
    z = optimum.dual
    assert np.linalg.eigvalsh(z)[0] >= -1e-12
    assert np.trace(z).real == pytest.approx(1.0, abs=1e-12)
    for d in directions:
        assert abs(np.vdot(z, d)) <= 1e-13 * np.linalg.norm(d)
    upper = np.vdot(z, m0).real
    assert optimum.value <= upper + 1e-12 * scale
    assert upper - optimum.value <= cones.GAP * scale


def test_barrier_matches_a_line_search_on_one_direction(rng):
    # lambda_min(m0 + theta d) is concave in theta: a ternary search is an
    # independent reference for the barrier on a traceless direction
    for n in (2, 3, 5):
        m0 = _random_hermitian(rng, n)
        d = _random_hermitian(rng, n)
        d -= (np.trace(d).real / n) * np.eye(n)
        scale = np.linalg.norm(m0)
        optimum = cones.maximize_min_eigenvalue(m0, d[None], scale)

        def value(theta):
            return np.linalg.eigvalsh(m0 + theta * d)[0]

        low, high = -100.0, 100.0
        for _ in range(200):
            a, b = low + (high - low) / 3, high - (high - low) / 3
            low, high = (a, high) if value(a) < value(b) else (low, b)
        assert optimum.value == pytest.approx(value(low), abs=cones.GAP * scale)
        assert value(optimum.theta[0]) == pytest.approx(optimum.value, abs=1e-14 * scale)
        assert 0 < optimum.steps < cones.MAX_NEWTON_STEPS
        _assert_dual_certifies(optimum, m0, d[None], scale)


def test_semidefinite_direction_restricts_to_its_kernel(rng):
    # d = e_1 e_1^* pushes the first eigenvalue up without bound: the
    # supremum is m0's entry on e_2, never attained while m0 couples the two.
    # A random unitary frame puts rounding noise on the kernel of d.
    m0 = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, 3.0]])
    d = np.diag([1.0, 0.0]).astype(complex)
    for _ in range(10):
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        turned, direction = u @ m0 @ u.conj().T, u @ d @ u.conj().T
        optimum = cones.maximize_min_eigenvalue(turned, direction[None], np.linalg.norm(m0))
        assert optimum.value == pytest.approx(3.0, rel=1e-12)
        witness = turned + optimum.theta[0] * direction
        assert np.linalg.eigvalsh(witness)[0] == pytest.approx(1.5, rel=1e-9)
        expected_dual = u @ np.diag([0.0, 1.0]) @ u.conj().T
        assert np.allclose(optimum.dual, expected_dual, rtol=0, atol=1e-12)


def test_dual_certifies_on_random_directions(rng):
    # random spans, some holding a semidefinite or a definite matrix: the
    # dual is feasible to rounding and within the gap of a finite value, and
    # the point is a witness for a positive value
    for trial in range(40):
        n = 2 + trial % 4
        directions = [_random_hermitian(rng, n) for _ in range(1 + trial % (2 * n))]
        if trial % 3 == 0:
            a = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
            directions.append(a @ a.conj().T)
        directions = np.array(directions)
        m0 = _random_hermitian(rng, n)
        scale = np.linalg.norm(m0)
        optimum = cones.maximize_min_eigenvalue(m0, directions, scale)
        witness = m0 + np.tensordot(optimum.theta, directions, axes=1)
        if optimum.value > 0:
            assert np.linalg.eigvalsh(witness)[0] > 0
        if optimum.value < math.inf:
            _assert_dual_certifies(optimum, m0, directions, scale)
        else:
            assert optimum.dual is None


def test_unbounded_optimum_stops_with_a_witness(rng):
    # a positive definite matrix in the span of the directions makes the
    # optimum unbounded: the solver stops with a witness and no dual
    m0 = np.diag([-3.0, 1.0, -0.5]).astype(complex)
    directions = np.array([np.diag([1.0, 2.0, 0.5]), _random_hermitian(rng, 3)], dtype=complex)
    scale = np.linalg.norm(m0)
    optimum = cones.maximize_min_eigenvalue(m0, directions, scale)
    assert optimum.value == math.inf
    assert optimum.dual is None
    witness = m0 + np.tensordot(optimum.theta, directions, axes=1)
    assert np.linalg.eigvalsh(witness)[0] >= scale * (1 - 1e-12)


def test_null_directions_leave_the_minimum_eigenvalue(rng):
    # on a torus every direction vanishes: lambda_min(m0) with no Newton step
    m0 = _random_hermitian(rng, 3)
    optimum = cones.maximize_min_eigenvalue(m0, np.zeros((6, 3, 3), dtype=complex), 1.0)
    assert optimum.value == pytest.approx(np.linalg.eigvalsh(m0)[0], abs=1e-14)
    assert optimum.steps == 0
    _assert_dual_certifies(optimum, m0, [], 1.0)


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
        for probe in cones.closed_positive_probes(model, seed=0):
            assert probe.closedness_residual < 1e-9
            assert probe.min_positivity_eigenvalue >= -1e-9
            assert alg.is_real_form(probe.form, tol=1e-9)


def test_kt_has_monomial_probe(models):
    labels = [p.label for p in cones.closed_positive_probes(models["kodaira_thurston"])]
    assert "monomial-1" in labels


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fixed_probes_are_the_identity_power_and_the_monomials(n):
    # built from their positivity matrices, bit for bit the forms of a metric
    # power and of hand-phased monomials, in the same order
    from itertools import combinations

    model = alg.parse_model({"name": "torus", "n": n, "dphi": [[] for _ in range(n)]})
    expected = [("identity-power", hodge.omega_power(hodge.identity_metric(model), n - 1))]
    phase = (1j) ** ((n - 1) ** 2 % 4)
    for subset in combinations(range(1, n + 1), n - 1):
        label = f"monomial-{''.join(map(str, subset))}"
        expected.append((label, alg.basis_form(n, subset, subset, phase)))
    probes = cones.closed_positive_probes(model)[: len(expected)]
    assert [p.label for p in probes] == [label for label, _ in expected]
    for probe, (_, form) in zip(probes, expected):
        assert probe.form.bidegree == form.bidegree
        assert np.array_equal(probe.form.vec, form.vec)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_form_of_positivity_matrix_inverts_the_positivity_map(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = 0.5 * (a + a.conj().T)
    t = cones._form_of_positivity_matrix(m, n)
    assert t.bidegree == (n - 1, n - 1) and alg.is_real_form(t)
    np.testing.assert_allclose(cones.weak_positivity_matrix(t, n), m, rtol=0, atol=1e-15)
