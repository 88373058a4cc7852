import gc
import itertools
import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from pluriclosed import algebra as alg
from pluriclosed import cli
from pluriclosed import cohomology as coh
from pluriclosed import fixtures as fx
from pluriclosed import hodge
from pluriclosed.errors import CrossCheckError, PreconditionError
from pluriclosed.linalg import hermitian_kernel, kernel_dimension, numeric_rank, numeric_ranks, rank_cut

from conftest import DOUBLE_KT_DOC, ExactModel, IWASAWA4_DOC


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


# a model written in another coframe: the frame model of a metric is the same
# Lie algebra in the rescaled unitary coframe, and its constants are dense
# floats, so blocks that vanish in exact arithmetic carry rounding there

COFRAME_MODELS = ("iwasawa", "kodaira_thurston", "nonunimodular", "double_kt", "iwasawa4")


@pytest.fixture(scope="module")
def coframe_oracle(exact_models) -> dict[str, dict[tuple, int]]:
    """Exact dimensions of every space of the coframe models, by name and (theory, p, q)."""
    exact = {**exact_models, "iwasawa4": ExactModel(IWASAWA4_DOC)}
    return {
        name: {key: exact[name].dim(*key) for key in _space_keys(exact[name].n)}
        for name in COFRAME_MODELS
    }


@pytest.mark.parametrize("c", [1.0, 10.0, 1e3, 1e6, 1e8])
def test_a_model_in_a_rotated_coframe_keeps_its_dimensions(models, coframe_oracle, c):
    # both routes rank a unit complex with one cut, so the rotated model
    # decides the ranks of its source model, under its own identity metric
    sources = {**models, "iwasawa4": alg.parse_model(IWASAWA4_DOC)}
    refused, wrong = [], []
    for name in COFRAME_MODELS:
        for seed in range(3):
            frame = hodge.frame_model(_conditioned_metric(sources[name], c, seed))
            g = hodge.identity_metric(alg.LieModel(name, frame.n, frame.d20, frame.d11))
            for key, expected in coframe_oracle[name].items():
                try:
                    dimension = coh.cohomology_space(g, *key).dimension
                except CrossCheckError:
                    refused.append((name, seed, key))
                    continue
                if dimension != expected:
                    wrong.append((name, seed, key))
    assert (refused, wrong) == ([], [])


# one unit complex per coframe: ``alg.unit_model`` assembles it on arrays of
# its own, and the identity metric's frame, built like any other, holds the
# model's unit blocks


def _fresh_model(name: str) -> alg.LieModel:
    return alg.parse_model(DOUBLE_KT_DOC) if name == "double_kt" else fx.load_model(name)


@pytest.mark.parametrize("name", [*fx.available_models(), "double_kt"])
def test_the_engine_never_edits_a_block_a_caller_holds(name):
    model = _fresh_model(name)
    n = model.n
    held = [
        op(model, p, q)
        for op in (alg.del_matrix, alg.delbar_matrix)
        for p in range(n + 1)
        for q in range(n + 1)
    ]
    copies = [block.copy() for block in held]
    for g in (hodge.identity_metric(model), _conditioned_metric(model, 10.0, seed=0)):
        for key in _space_keys(n):
            coh.cohomology_space(g, *key)
    for block, copy in zip(held, copies):
        assert np.array_equal(block, copy) and not block.flags.writeable


@pytest.mark.parametrize("name", fx.available_models())
def test_the_identity_metric_frame_is_the_models_unit_complex(name):
    # at L = I the rotated constants are the model's, so every one of the
    # 2 (n + 1)^2 del and delbar blocks is the unit model's byte for byte
    model = _fresh_model(name)
    unit, scale = alg.unit_model(model)
    span = range(model.n + 1)
    keys = [(kind, p, q) for kind in ("del", "delbar") for p in span for q in span]

    def blocks(source):
        return [(block.dtype, block.tobytes()) for block in (alg.operator_matrix(source, *key) for key in keys)]

    metrics = [hodge.identity_metric(model)]
    if model.n == 2:  # the bundled identity document is 2 x 2
        metrics.append(hodge.metric_from_document(model, fx.load_document("metric_identity")))
    for g in metrics:
        assert blocks(hodge.frame_model(g)) == blocks(unit)
        assert hodge.complex_scale(g) == scale
    if scale:  # a torus has only zero blocks, in every frame
        # a diagonal metric rescales each generator, which the division by S undoes on a
        # model of one structure constant; a rotated coframe mixes the generators
        assert blocks(hodge.frame_model(_conditioned_metric(model, 10.0, seed=0))) != blocks(unit)


def test_a_command_without_metric_assembles_one_unit_complex(monkeypatch, capsys):
    # every del and delbar block of the n = 3 unit complex once: 2 (n + 1)^2
    differential, unit_model = alg._differential, alg.unit_model
    building, assembled = [False], []

    def count(model, kind, p, q):
        if building[0] and (kind, p, q) not in model._cache:
            assembled.append((kind, p, q))
        return differential(model, kind, p, q)

    def unit(model):
        building[0] = "unit" not in model._cache
        try:
            return unit_model(model)
        finally:
            building[0] = False

    monkeypatch.setattr(alg, "_differential", count)
    monkeypatch.setattr(alg, "unit_model", unit)
    assert cli.main(["cohomology", "--model", "iwasawa"]) == 0
    capsys.readouterr()
    assert len(assembled) == len(set(assembled)) == 2 * 4**2


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
    ranks = {}  # and with one table of family ranks shared by every space
    shared = {key: coh.quotient_dimension(model, *key, ranks) for key in _space_keys(6)}
    assert got == shared == exact
    assert sorted(ranks) == sorted(_families(6))


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
# one rank per operator: the spaces of a metric share one table of ranks, a
# list per family of operators, and each space that reads a rank still
# checks it


def _operator_keys(n: int) -> set[tuple]:
    return {key for space in _space_keys(n) for key in alg.theory_operators(*space)}


def _families(n: int) -> dict[str, list[tuple]]:
    """Each family of the unit complex to its operator keys, in place order."""
    families = {}
    for key, (family, _) in sorted(alg.family_places(n).items(), key=lambda item: item[1]):
        families.setdefault(family, []).append(key)
    return families


def test_spaces_share_their_operators():
    # (n+1)^2 stacks (del;delbar), 2(n+1)^2 - n^2 deldelbar, (n+1)^2
    # [del | delbar], (n+1)(n+2) delbar and 2n + 2 real d, against two per space
    assert [len(_operator_keys(n)) for n in (3, 5)] == [83, 173]
    assert [2 * len(_space_keys(n)) for n in (3, 5)] == [110, 238]


def test_every_operator_outside_the_families_maps_to_or_from_zero():
    # so the quotient route counts it as rank 0
    for n in (1, 3, 5):
        places = alg.family_places(n)
        assert all(places[key][1] == _families(n)[places[key][0]].index(key) for key in places)
        outside = _operator_keys(n) - set(places)
        assert outside and all(0 in alg._operator_shape(n, *key) for key in outside)


def _ranked_batches(monkeypatch) -> tuple[list, list]:
    """(batches, ranked): the family of each batch the quotient route builds, and the size of each it ranks."""
    batches, ranked = [], []
    unit_family, numeric_ranks = alg.unit_family, coh.numeric_ranks

    def built(model, family):
        batches.append(family)
        return unit_family(model, family)

    def counted(batch):
        ranked.append(len(batch.shapes))
        return numeric_ranks(batch)

    monkeypatch.setattr(alg, "unit_family", built)
    monkeypatch.setattr(coh, "numeric_ranks", counted)
    return batches, ranked


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_thurston", "nonunimodular"])
def test_each_operator_is_ranked_once_per_metric(models, exact_models, monkeypatch, name):
    # the quotient route ranks a family at a time: one batch per family, and
    # each of the five families in exactly one batch
    batches, ranked = _ranked_batches(monkeypatch)
    g = _conditioned_metric(models[name], 10.0, seed=0)
    dims = {key: coh.cohomology_space(g, *key).dimension for key in _space_keys(g.n)}
    assert dims == {key: exact_models[name].dim(*key) for key in dims}
    ranks, families = g._cache["ranks"], _families(g.n)
    assert len(families) == 5 and sorted(batches) == sorted(ranks) == sorted(families)
    assert ranked == [len(families[family]) for family in batches]
    assert all(len(ranks[family]) == len(keys) for family, keys in families.items())
    # no operator matrix is kept
    assert all(type(rank) is int for family in ranks.values() for rank in family)


# (operator key, the two spaces that read it)
SHARED_OPERATORS = {
    "deldelbar": (("deldelbar", 0, 0), ("bc", 1, 1), ("aeppli", 0, 0)),
    "delbar": (("delbar", 1, 0), ("dolbeault", 1, 0), ("dolbeault", 1, 1)),
    "real_d": (("real_d", 1, None), ("derham", 1, None), ("derham", 2, None)),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", SHARED_OPERATORS)
def test_a_shared_rank_is_checked_by_every_space_that_reads_it(models, case, reverse):
    key, *spaces = SHARED_OPERATORS[case]
    model = models["kodaira_thurston"]
    g = _conditioned_metric(model, 10.0, seed=1)
    family, place = alg.family_places(model.n)[key]
    planted = numeric_ranks(alg.unit_family(model, family))
    assert planted[place] == numeric_rank(alg.operator_matrix(model, *key))
    planted[place] += 1
    g._cache["ranks"] = {family: planted}
    for space in reversed(spaces) if reverse else spaces:
        assert key in alg.theory_operators(*space)
        with pytest.raises(CrossCheckError):
            coh.cohomology_space(g, *space)


# the quotient route reads the model's unit complex by its nonzero entries,
# a family at a time (``alg.unit_family``), and ranks a family in one batch
# (``linalg.numeric_ranks``)

NONZERO_MODELS = (*fx.available_models(), "double_kt", "kt2_t1", "iwasawa5")


def _nonzero_model(bench_module, name: str) -> alg.LieModel:
    if name in ("kt2_t1", "iwasawa5"):
        inputs = bench_module("inputs")
        return alg.parse_model(inputs.kt_product(2, 1) if name == "kt2_t1" else inputs.iwasawa_type(5))
    return _fresh_model(name)


def _scattered(owner, rows, cols, values, shape, i: int, dtype) -> np.ndarray:
    """Operator i of entries laid out as a batch's, as a dense matrix."""
    out = np.zeros(shape, dtype=dtype)
    mine = owner == i
    out[rows[mine], cols[mine]] = values[mine]
    return out


@pytest.mark.parametrize("name", NONZERO_MODELS)
def test_batched_ranks_equal_the_dense_ranks(bench_module, name):
    # every operator of every family, against the dense matrix of the unit model
    model = _nonzero_model(bench_module, name)
    unit = alg.unit_model(model)[0]
    for family, keys in _families(model.n).items():
        batch = alg.unit_family(model, family)
        dense = [alg.operator_matrix(unit, *key) for key in keys]
        assert [tuple(shape) for shape in batch.shapes.tolist()] == [matrix.shape for matrix in dense]
        cells = set(zip(batch.owner.tolist(), batch.rows.tolist(), batch.cols.tolist()))
        assert len(cells) == batch.values.size and np.all(batch.values != 0)
        for i, (key, matrix) in enumerate(zip(keys, dense)):
            operator = _scattered(*batch[:4], matrix.shape, i, complex)
            # deldelbar sums its products in another order than the dense one
            assert np.max(np.abs(operator - matrix), initial=0.0) <= 1e-14, key
        assert numeric_ranks(batch) == [numeric_rank(matrix) for matrix in dense], family
        assert (batch.values.dtype == float) == (family == "real_d")  # de Rham's d stays real


@pytest.mark.parametrize("name", fx.available_models())
def test_nonzero_blocks_scatter_to_the_dense_blocks_bit_for_bit(name):
    # on the model and on the coframe of a condition-10 metric, whose constants are dense floats
    model = _fresh_model(name)
    frame = hodge.frame_model(_conditioned_metric(model, 10.0, seed=0))
    span = range(model.n + 1)
    keys = [(kind, p, q) for kind in ("del", "delbar") for p in span for q in span]
    for seed, source in enumerate((model, alg.LieModel(name, model.n, frame.d20, frame.d11))):
        entries, scale = alg._nonzero_blocks(source, keys)
        assert np.all(entries[3] != 0)
        for i, key in enumerate(keys):
            dense = alg.operator_matrix(source, *key)
            block = _scattered(*entries, dense.shape, i, dense.dtype)
            assert block.tobytes() == dense.tobytes(), (seed, key)
        # S, the largest block norm, is that of ``unit_model`` up to the order of its sums
        assert abs(scale - alg.unit_model(source)[1]) <= 4 * np.finfo(float).eps * scale


def test_a_lone_request_ranks_its_theory_without_dense_or_real_blocks(exact_models, monkeypatch):
    model = _fresh_model("iwasawa")
    g = _conditioned_metric(model, 10.0, seed=0)
    alg.is_unimodular(model)  # validation assembles dense blocks of d of its own
    cached = set(model._cache)
    batches, ranked = _ranked_batches(monkeypatch)
    assembled, differential = [], alg._differential

    def recorded(source, kind, p, q):
        if source is model and (kind, p, q) not in model._cache:
            assembled.append((kind, p, q))
        return differential(source, kind, p, q)

    monkeypatch.setattr(alg, "_differential", recorded)
    real, real_model = [], alg.real_model
    monkeypatch.setattr(alg, "real_model", lambda m: real.append(m) or real_model(m))
    assert coh.cohomology_space(g, "bc", 1, 1).dimension == exact_models["iwasawa"].dim("bc", 1, 1)
    families = _families(model.n)
    assert sorted(batches) == sorted(g._cache["ranks"]) == ["d", "deldelbar"]
    assert ranked == [len(families[family]) for family in batches]
    assert assembled == [] and real == []
    assert set(model._cache) - cached == {"unit nonzero"}  # no dense unit model


# (space, the families its quotient rank reads): only those are ranked
LONE_REQUESTS = {
    "bc": (("bc", 1, 1), {"d", "deldelbar"}),
    "bc_bottom": (("bc", 0, 0), {"d"}),  # its exact operator maps from 0
    "aeppli": (("aeppli", 1, 2), {"deldelbar", "del+delbar"}),
    "dolbeault": (("dolbeault", 2, 1), {"del"}),
    "derham": (("derham", 3, None), {"real_d"}),
}


@pytest.mark.parametrize("case", LONE_REQUESTS)
def test_a_lone_quotient_request_ranks_only_the_families_of_its_operators(exact_models, monkeypatch, case):
    space, families = LONE_REQUESTS[case]
    batches, _ = _ranked_batches(monkeypatch)
    ranks, exact = {}, exact_models["iwasawa"].dim(*space)
    assert coh.quotient_dimension(_fresh_model("iwasawa"), *space, ranks) == exact
    assert sorted(batches) == sorted(ranks) == sorted(families)
    # a call without a table runs the same path
    assert coh.quotient_dimension(_fresh_model("iwasawa"), *space) == exact
    assert sorted(batches) == sorted(2 * sorted(families))


# spaces off their theory's range, on iwasawa (n = 3)
INVALID_SPACES = {
    "bc": [("bc", 1, None), ("bc", 4, 0), ("bc", 0, -1)],
    "aeppli": [("aeppli", 4, 1), ("aeppli", 1, None), ("aeppli", -1, 2)],
    "dolbeault": [("dolbeault", 0, 4), ("dolbeault", 2, None), ("dolbeault", 3, -1)],
    "derham": [("derham", 2, 0), ("derham", 7, None), ("derham", -1, None)],
}


@pytest.mark.parametrize("theory", coh.THEORIES)
def test_a_space_off_its_theorys_range_is_a_value_error(models, theory):
    g = _conditioned_metric(models["iwasawa"], 10.0, seed=0)
    for space in INVALID_SPACES[theory]:
        with pytest.raises(ValueError, match=rf"no {theory} space \({space[1]},{space[2]}\)"):
            coh.cohomology_space(g, *space)
        with pytest.raises(ValueError, match=theory):
            coh.quotient_dimension(g.model, *space)
    assert not g._cache.get("ranks")  # refused before any rank is computed
    # the edges of the range are spaces
    n, top = g.n, (2 * g.n, None) if theory == "derham" else (g.n, g.n)
    assert coh.cohomology_space(g, theory, *top).dimension == 1
    assert coh.cohomology_space(g, theory, 0, None if theory == "derham" else 0).dimension == 1


# ---------------------------------------------------------------------------
# mirrors: conjugation for Bott-Chern (and Aeppli off unimodular models),
# star for Aeppli and Serre duality for Dolbeault on unimodular ones, real
# de Rham counts

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


def _direct_laplacian(g, theory: str, p: int, q: int) -> np.ndarray:
    if theory in LAPLACIANS:
        return getattr(hodge, LAPLACIANS[theory])(g, p, q)
    return hodge.laplacian(g, theory, p, q)


def _kernel_error(lap: np.ndarray) -> float:
    """Davis-Kahan bound on the projector error of ``harmonic_basis(lap)``:
    the rounding noise ``rank_cut`` of lap over the smallest nonzero eigenvalue."""
    cut = rank_cut(lap.shape, np.linalg.norm(lap))
    nonzero = [w for w in np.linalg.eigvalsh(lap) if w > cut]
    return cut / nonzero[0] if nonzero else 0.0


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_mirrored_basis_spans_the_direct_kernel(mirror_metrics, name):
    # At c = 1e6 on KT^2 the six-term and the two-term Laplacian kernels of
    # one space differ by up to 7e-8, so no route can meet a flat 1e-10
    # there; the bound adds twice the direct kernel's Davis-Kahan bound
    # (5e-6 there, at most 3e-12 at c = 10 and on the other models).
    g10 = mirror_metrics[name]
    for g in (g10, _conditioned_metric(g10.model, 1e6, seed=1)):
        for theory in ("bc", "aeppli", "dolbeault"):
            for p in range(g.n + 1):
                for q in range(g.n + 1):  # mirrored and direct spaces
                    basis = coh.cohomology_space(g, theory, p, q).basis
                    lap = _direct_laplacian(g, theory, p, q)
                    direct = hodge.harmonic_basis(lap)
                    assert basis.shape == direct.shape, (theory, p, q)
                    cut = rank_cut(lap.shape, np.linalg.norm(lap))
                    assert np.linalg.norm(lap @ basis) <= cut, (theory, p, q)
                    # L2-orthonormal frame columns B give the projector B B^H
                    gap = basis @ basis.conj().T - direct @ direct.conj().T
                    bound = 1e-10 + 2 * _kernel_error(lap)
                    assert np.max(np.abs(gap), initial=0.0) <= bound, (theory, p, q)


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


# (model, mirrored space, the space it is mirrored from)
MIRRORED_SPACES = {
    "bc": ("kodaira_thurston", ("bc", 2, 1), ("bc", 1, 2)),  # conjugation
    "aeppli": ("nonunimodular", ("aeppli", 2, 1), ("aeppli", 1, 2)),  # conjugation
    "aeppli_star": ("kodaira_thurston", ("aeppli", 1, 2), ("bc", 0, 1)),
    "dolbeault_serre": ("kodaira_thurston", ("dolbeault", 2, 1), ("dolbeault", 0, 1)),
}


@pytest.mark.parametrize("case", MIRRORED_SPACES)
def test_mirrored_space_keeps_its_cross_check(models, monkeypatch, case):
    name, mirrored, source = MIRRORED_SPACES[case]
    quotient = coh.quotient_dimension

    def off_by_one(model, theory, p, q, ranks=None):
        return quotient(model, theory, p, q, ranks) + ((theory, p, q) == mirrored)

    monkeypatch.setattr(coh, "quotient_dimension", off_by_one)
    model = models[name]
    g = _conditioned_metric(model, 10.0, seed=2)
    coh.cohomology_space(g, *source)  # its source is cached first
    with pytest.raises(CrossCheckError):
        coh.cohomology_space(g, *mirrored)
    with pytest.raises(CrossCheckError):  # and computed on demand
        coh.cohomology_space(_conditioned_metric(model, 10.0, seed=2), *mirrored)


@pytest.mark.parametrize("name", ["iwasawa", "double_kt", "nonunimodular"])
def test_only_unmirrored_spaces_build_a_laplacian(models, exact_models, monkeypatch, name):
    # every frame Laplacian is assembled from the frame (closed, exact) pair
    built = []
    original = hodge.closed_and_exact

    def record(g, theory, p, q=None):
        if theory != "derham":
            built.append((theory, p, q))
        return original(g, theory, p, q)

    monkeypatch.setattr(hodge, "closed_and_exact", record)
    g = _conditioned_metric(models[name], 10.0, seed=3)
    n = g.n
    dims = {}
    for theory in ("dolbeault", "aeppli", "bc"):  # each mirror is computed on demand
        for p in reversed(range(n + 1)):
            for q in range(n + 1):
                dims[theory, p, q] = coh.cohomology_space(g, theory, p, q).dimension
    below = [(p, q) for p in range(n + 1) for q in range(n + 1) if p <= q]
    if alg.is_unimodular(g.model):
        # Bott-Chern with p <= q and the lower Serre half of Dolbeault
        serre_half = [(p, q) for p in range(n + 1) for q in range(n + 1) if (p, q) <= (n - p, n - q)]
        expected = [("bc", *pq) for pq in below] + [("dolbeault", *pq) for pq in serre_half]
    else:  # no star or Serre mirror: Aeppli with p <= q and all of Dolbeault as well
        expected = [(theory, *pq) for theory in ("bc", "aeppli") for pq in below]
        expected += [("dolbeault", p, q) for p in range(n + 1) for q in range(n + 1)]
    # less the middle of each Dolbeault row, which takes its dimension from the row
    expected = [key for key in expected if key[0] != "dolbeault" or key[2] != n // 2]
    assert sorted(built) == sorted(expected)
    assert dims == {key: exact_models[name].dim(*key) for key in dims}


def _count_calls(monkeypatch, targets) -> list[str]:
    """Record the name of each call of the given (owner, function name) pairs."""
    calls = []
    for owner, fn in targets:

        def record(*args, fn=fn, original=getattr(owner, fn), **kwargs):
            calls.append(fn)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, fn, record)
    return calls


@pytest.mark.parametrize("name", ["iwasawa", "double_kt"])
def test_a_dimension_sweep_builds_no_eigenvectors(models, exact_models, monkeypatch, name):
    # every space's dimension, as a sweep reads them, comes from eigenvalues alone
    calls = _count_calls(monkeypatch, [(hodge, "harmonic_basis"), (np.linalg, "eigh")])
    g = _conditioned_metric(models[name], 10.0, seed=4)
    dims = {key: coh.cohomology_space(g, *key).dimension for key in _space_keys(g.n)}
    assert calls == []
    assert dims == {key: exact_models[name].dim(*key) for key in dims}


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_bases_read_after_the_dimensions_span_the_direct_kernel(mirror_metrics, name):
    g = _conditioned_metric(mirror_metrics[name].model, 10.0, seed=1)  # nothing cached yet
    keys = [key for key in _space_keys(g.n) if key[0] != "derham"]
    spaces = [coh.cohomology_space(g, *key) for key in keys]  # every dimension first
    assert not any(key[0] == "basis" for key in g._cache)
    for space in reversed(spaces):  # then every basis, mirrored ones before their sources
        direct = hodge.harmonic_basis(hodge.laplacian(g, space.theory, space.p, space.q))
        assert space.basis.shape == direct.shape == (direct.shape[0], space.dimension)
        gap = space.basis @ space.basis.conj().T - direct @ direct.conj().T
        assert np.max(np.abs(gap), initial=0.0) <= 1e-12, (space.theory, space.p, space.q)
    assert coh.cohomology_space(g, "derham", 1).basis is None


@pytest.mark.parametrize("mirrored", [False, True])
def test_a_basis_short_of_the_dimension_raises(models, monkeypatch, mirrored):
    # Aeppli (1,2) is the star of Bott-Chern (0,1) on Kodaira-Thurston, whose basis is direct
    g = _conditioned_metric(models["kodaira_thurston"], 10.0, seed=2)
    space = coh.cohomology_space(g, *(("aeppli", 1, 2) if mirrored else ("bc", 0, 1)))
    assert space.dimension >= 1
    original = hodge.harmonic_basis
    monkeypatch.setattr(hodge, "harmonic_basis", lambda lap: original(lap)[:, 1:])
    for _ in range(2):  # no short basis is cached
        with pytest.raises(CrossCheckError, match="basis columns"):
            space.basis


def _complex_derham_laplacian(g: hodge.HermitianMetric, k: int) -> np.ndarray:
    """The complex-frame reference for Delta_d: d over the bidegree blocks (``alg.d_matrix``)."""
    frame = hodge.frame_model(g)
    up, down = alg.d_matrix(frame, k), alg.d_matrix(frame, k - 1)
    return up.conj().T @ up + down @ down.conj().T


def _real_coframe_change(n: int, k: int) -> np.ndarray:
    """C on Lambda^k: real-coframe coefficients C^T a of the complex-frame coefficients a.

    (e, ebar) = V (x, y) with V = [[I, iI], [I, -iI]] / sqrt 2, and a canonical
    monomial e^A wedge ebar^B wedges its generators in the order of (e, ebar),
    so its real coefficients are k x k minors of V (Cauchy-Binet); the rows
    are put in the bidegree order of ``alg.d_matrix``.
    """
    eye = np.eye(n)
    v = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2)
    minors = hodge._compound(v, k)
    subsets = {s: i for i, s in enumerate(itertools.combinations(range(2 * n), k))}
    order = [
        subsets[tuple(a - 1 for a in mi.holo) + tuple(n + b - 1 for b in mi.anti)]
        for p, q in alg.bidegrees_of_degree(n, k)
        for mi in alg.multiindices(n, p, q)
    ]
    return minors[order]


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_real_frame_is_unitary_and_makes_the_derham_laplacian_real(mirror_metrics, name):
    # the real coframe of the unitary frame is orthonormal, and the frame
    # Delta_d moved into it is the real model's Delta_d, with its eigenvalues
    g = mirror_metrics[name]
    for k in range(2 * g.n + 1):
        change = _real_coframe_change(g.n, k)
        assert np.allclose(change.conj().T @ change, np.eye(change.shape[0]), atol=1e-14)
        reference = _complex_derham_laplacian(g, k)
        moved = change.T @ reference @ change.conj()
        real = hodge.laplacian_derham(g, k)
        scale = max(np.max(np.abs(reference), initial=0.0), 1.0)
        assert not real.imag.any(), k
        assert np.max(np.abs(moved.imag), initial=0.0) <= 1e-13 * scale, k
        assert np.max(np.abs(real - moved.real), initial=0.0) <= 1e-13 * scale, k
        gap = np.linalg.eigvalsh(real.real) - np.linalg.eigvalsh(reference)
        assert np.max(np.abs(gap), initial=0.0) <= 1e-13 * scale, k


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_slab_derham_laplacian_matches_the_dense_one(models, name):
    # the real-coframe Delta_d against the complex-frame one of the bidegree
    # blocks of d, under a condition-1e3 metric: the same eigenvalues
    model = models[name] if name in models else alg.parse_model(IWASAWA4_DOC)
    g = _conditioned_metric(model, 1e3, seed=1)
    for k in range(2 * g.n + 1):
        reference = _complex_derham_laplacian(g, k)
        real = hodge.laplacian_derham(g, k).real
        gap = np.linalg.eigvalsh(real) - np.linalg.eigvalsh(reference)
        assert np.linalg.norm(gap) <= 1e-13 * max(np.linalg.norm(reference), 1.0), k


@pytest.mark.parametrize("name", MIRROR_MODELS)
def test_real_derham_count_matches_the_complex_kernel(mirror_metrics, name):
    g = mirror_metrics[name]
    for k in range(2 * g.n + 1):
        reference = _complex_derham_laplacian(g, k)
        complex_kernel = hermitian_kernel(reference)
        assert kernel_dimension(hodge.laplacian(g, "derham", k)) == complex_kernel.shape[1], k


def _complex_lefschetz_power(n: int, k: int, degree: int) -> np.ndarray:
    """omega^k wedge . from Lambda^degree to Lambda^{degree+2k} over the bidegree blocks."""
    sources, targets = alg.bidegrees_of_degree(n, degree), alg.bidegrees_of_degree(n, degree + 2 * k)
    row = np.cumsum([0, *(alg.space_dim(n, *pq) for pq in targets)])
    col = np.cumsum([0, *(alg.space_dim(n, *pq) for pq in sources)])
    out = np.zeros((row[-1], col[-1]), dtype=complex)
    for j, (p, q) in enumerate(sources):
        if (p + k, q + k) in targets:
            i = targets.index((p + k, q + k))
            out[row[i] : row[i + 1], col[j] : col[j + 1]] = hodge._unitary_lefschetz(n, k, p, q)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_real_lefschetz_power_is_the_complex_one_in_the_real_coframe(n):
    # omega = i sum e^a wedge ebar^a is sum x^a wedge y^a in the real coframe
    for k in range(1, n + 1):
        for degree in range(2 * n - 2 * k + 1):
            moved = (
                _real_coframe_change(n, degree + 2 * k).T
                @ _complex_lefschetz_power(n, k, degree)
                @ _real_coframe_change(n, degree).conj()
            )
            real = hodge._lefschetz_power_matrix(n, k, degree)
            assert np.max(np.abs(real - moved)) <= 1e-13 * np.max(np.abs(moved)), (k, degree)


KAHLER_NONUNIMODULAR_DOC = {
    "name": "kahler_nonunimodular",
    "n": 2,
    "dphi": [[{"type": "11", "i": 1, "j": 1, "coeff": [1.0, 0.0]}], []],
}


@pytest.mark.parametrize("h", [np.eye(2), np.diag([1.0, 3.0])])
def test_kahler_lefschetz_maps_match_the_complex_frame_off_unimodular_models(h):
    # d phi^1 = phi^1 wedge phibar^1 is Kahler under every diagonal metric and
    # not unimodular; its de Rham harmonic forms are not the Dolbeault ones
    # (projector gap 0.707), so the real route must meet the complex-frame
    # de Rham reference on its own
    model = alg.parse_model(KAHLER_NONUNIMODULAR_DOC)
    g = hodge.metric_from_matrix(model, h)
    assert hodge.is_kahler(g) and not alg.is_unimodular(model)
    harmonic = [hodge.harmonic_basis(_complex_derham_laplacian(g, p)) for p in range(5)]
    for k in range(1, 3):
        for p in range(5 - 2 * k):
            image = _complex_lefschetz_power(2, k, p) @ harmonic[p]
            s = np.linalg.svd(image, compute_uv=False)
            cols = image.shape[1]  # sigma_min is 0 where the map cannot be injective
            expected = (s[cols - 1] if s.size >= cols else 0.0, s[0]) if cols else (0.0, 0.0)
            assert np.allclose(hodge.quasi_isometry_bounds(g, k, p), expected, atol=1e-13), (k, p)
            coords = harmonic[p + 2 * k].conj().T @ image
            rank = (numeric_rank(coords), harmonic[p + 2 * k].shape[1])
            assert hodge.lefschetz_harmonic_rank(g, k, p) == rank, (k, p)


# ---------------------------------------------------------------------------
# Poincare duality: de Rham above the middle degree on unimodular models


def _direct_derham_degrees(monkeypatch) -> list[int]:
    """Records the degree of every de Rham ``hodge.laplacian`` call."""
    called = []
    original = hodge.laplacian

    def record(g, theory, p, q=None):
        if theory == "derham":
            called.append(p)
        return original(g, theory, p, q)

    monkeypatch.setattr(hodge, "laplacian", record)
    return called


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_thurston", "nonunimodular"])
def test_derham_mirrors_only_unimodular_models(models, exact_models, monkeypatch, name):
    called = _direct_derham_degrees(monkeypatch)
    g = _conditioned_metric(models[name], 10.0, seed=0)
    n = g.n
    betti = [coh.cohomology_space(g, "derham", k).dimension for k in range(2 * n + 1)]
    assert betti == [exact_models[name].dim("derham", k, None) for k in range(2 * n + 1)]
    # degree n takes its dimension from the Euler characteristic of the others
    if alg.is_unimodular(g.model):
        assert sorted(called) == list(range(n))
    else:  # Poincare duality fails, and every other degree takes the direct route
        assert sorted(called) == [k for k in range(2 * n + 1) if k != n]
        assert betti != betti[::-1]


def test_poincare_mirrored_degree_keeps_its_cross_check(models, monkeypatch):
    quotient = coh.quotient_dimension
    model = models["iwasawa"]
    mirrored = model.n + 1

    def off_by_one(model, theory, p, q, ranks=None):
        return quotient(model, theory, p, q, ranks) + (theory == "derham" and p == mirrored)

    monkeypatch.setattr(coh, "quotient_dimension", off_by_one)
    g = _conditioned_metric(model, 10.0, seed=2)
    coh.cohomology_space(g, "derham", model.n - 1)  # the mirror is cached first
    with pytest.raises(CrossCheckError):
        coh.cohomology_space(g, "derham", mirrored)
    with pytest.raises(CrossCheckError):  # and computed on demand
        coh.cohomology_space(_conditioned_metric(model, 10.0, seed=2), "derham", mirrored)


# ---------------------------------------------------------------------------
# Euler characteristic: de Rham degree n and Dolbeault (p, n // 2) take their
# dimension from the rest of their complex, or row

# (model, Euler space, a partner space of it)
EULER_SPACES = {
    "derham": ("iwasawa", ("derham", 3, None), ("derham", 4, None)),  # a Poincare-mirrored partner
    "derham_nonunimodular": ("nonunimodular", ("derham", 2, None), ("derham", 1, None)),
    "dolbeault": ("kodaira_thurston", ("dolbeault", 1, 1), ("dolbeault", 1, 0)),
    "dolbeault_serre": ("iwasawa", ("dolbeault", 0, 1), ("dolbeault", 0, 3)),  # a Serre-mirrored partner
    "dolbeault_nonunimodular": ("nonunimodular", ("dolbeault", 2, 1), ("dolbeault", 2, 2)),
}


def _off_by_one(monkeypatch, space: tuple) -> None:
    """Adds one to the quotient dimension of ``space``."""
    quotient = coh.quotient_dimension

    def off_by_one(model, theory, p, q, ranks=None):
        return quotient(model, theory, p, q, ranks) + ((theory, p, q) == space)

    monkeypatch.setattr(coh, "quotient_dimension", off_by_one)


@pytest.mark.parametrize("case", EULER_SPACES)
def test_euler_space_keeps_its_cross_check(models, monkeypatch, case):
    name, euler, partner = EULER_SPACES[case]
    _off_by_one(monkeypatch, euler)
    model = models[name]
    g = _conditioned_metric(model, 10.0, seed=2)
    assert partner in [key for _, key in coh._euler_partners(g, *euler)]
    coh.cohomology_space(g, *partner)  # a partner is cached first
    with pytest.raises(CrossCheckError, match="quotient rank"):
        coh.cohomology_space(g, *euler)
    with pytest.raises(CrossCheckError, match="quotient rank"):  # and computed on demand
        coh.cohomology_space(_conditioned_metric(model, 10.0, seed=2), *euler)


@pytest.mark.parametrize("case", EULER_SPACES)
def test_a_refused_partner_refuses_its_euler_space(models, monkeypatch, case):
    name, euler, partner = EULER_SPACES[case]
    _off_by_one(monkeypatch, partner)
    model = models[name]
    g = _conditioned_metric(model, 10.0, seed=2)
    with pytest.raises(CrossCheckError):  # the partner is requested first, and refused
        coh.cohomology_space(g, *partner)
    with pytest.raises(CrossCheckError):
        coh.cohomology_space(g, *euler)
    with pytest.raises(CrossCheckError):  # and on a fresh metric
        coh.cohomology_space(_conditioned_metric(model, 10.0, seed=2), *euler)
    assert ("cohomology", *euler) not in g._cache


def test_a_refused_partner_is_named_with_its_euler_space(models, monkeypatch):
    _off_by_one(monkeypatch, ("dolbeault", 1, 0))
    g = _conditioned_metric(models["kodaira_thurston"], 10.0, seed=2)
    with pytest.raises(CrossCheckError) as refused:
        coh.cohomology_space(g, "dolbeault", 1, 1)
    cause = refused.value.__cause__
    assert isinstance(cause, CrossCheckError)
    assert str(cause).startswith("dolbeault (1,0): quotient rank")
    assert str(refused.value) == (
        "dolbeault (1,1): dimension fixed by the Euler characteristic of its row, "
        f"and dolbeault (1,0) was refused: {cause}"
    )
    _off_by_one(monkeypatch, ("derham", 1, None))
    with pytest.raises(CrossCheckError, match=r"^derham \(2,None\): .* its complex, and derham \(1,None\)"):
        coh.cohomology_space(g, "derham", 2)


def test_a_command_refused_through_an_euler_space_exits_3(monkeypatch, capsys):
    # the command reads Dolbeault (1,1) before its partner (1,2), the Serre mirror of (1,0)
    _off_by_one(monkeypatch, ("dolbeault", 1, 2))
    assert cli.main(["cohomology", "--model", "kodaira_thurston"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal cross-check failure: dolbeault (1,1): dimension fixed by")
    assert "and dolbeault (1,2) was refused: dolbeault (1,2): quotient rank" in err


@pytest.mark.parametrize("name", [*fx.available_models(), "double_kt"])
def test_a_lone_euler_space_request_has_the_exact_dimension(models, exact_models, monkeypatch, name):
    built = []
    original = hodge.laplacian

    def record(g, theory, p, q=None):
        built.append((theory, p, q))
        return original(g, theory, p, q)

    monkeypatch.setattr(hodge, "laplacian", record)
    n = models[name].n
    for key in [("derham", n, None)] + [("dolbeault", p, n // 2) for p in range(n + 1)]:
        g = _conditioned_metric(models[name], 10.0, seed=5)  # nothing cached yet
        assert coh.cohomology_space(g, *key).dimension == exact_models[name].dim(*key), key
        assert key not in built, key


@pytest.mark.parametrize("name", [*fx.available_models(), "double_kt"])
def test_a_dolbeault_middle_basis_has_its_euler_dimension(models, exact_models, name):
    g = _conditioned_metric(models[name], 10.0, seed=6)
    n = g.n
    for p in range(n + 1):
        space = coh.cohomology_space(g, "dolbeault", p, n // 2)
        assert space.dimension == exact_models[name].dim("dolbeault", p, n // 2)
        basis = space.basis
        assert basis.shape == (alg.space_dim(n, p, n // 2), space.dimension), p
        lap = hodge.laplacian(g, "dolbeault", p, n // 2)
        assert np.linalg.norm(lap @ basis) <= rank_cut(lap.shape, np.linalg.norm(lap)), p


def test_derham_count_peaks_below_three_complex_laplacians(bench_module):
    # Iwasawa-type n = 6, degree 6: 924 x 924; the real model's d_6 and d_5
    # (complex dtype, real values), their real parts and the real Delta_d
    # stay below 3 complex Laplacians
    inputs = bench_module("inputs")
    g = _conditioned_metric(alg.parse_model(inputs.iwasawa_type(6)), 10.0, seed=0)
    hodge.complex_scale(g)  # the frame blocks, cached on the metric beforehand
    size = sum(alg.space_dim(6, p, 6 - p) for p in range(7))
    tracemalloc.start()
    try:
        assert kernel_dimension(hodge.laplacian(g, "derham", 6)) == 490
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * size**2


# ---------------------------------------------------------------------------
# invariants of the dimension table, on the quotient route
#
# For a unimodular model: h_BC^{p,q} = h_A^{n-p,n-q}, h^{p,q} = h^{n-p,n-q}
# (Serre), b_k = b_{2n-k} (Poincare), b_k <= sum_{p+q=k} h^{p,q} (Frolicher)
# and h_BC^k + h_A^k >= 2 b_k, with equality in every degree iff the
# del delbar-lemma holds (Angella-Tomassini).  On a unimodular model the
# harmonic route satisfies BC/Aeppli, Serre and Poincare duality by
# construction, since it mirrors those spaces, so only the quotient route
# carries information here: ``quotient_dimension`` computes every space by
# its own ranks and mirrors none.  It is called without a table of operator
# ranks, so no two spaces share a rank, and each identity compares
# independent rank decisions.

UNIMODULAR_FIXTURES = tuple(name for name in fx.available_models() if name != "nonunimodular")
BENCH_MODELS = ("kt2", "kt2_t1", "kt1_t2", "iwasawa4", "iwasawa5")


def _bench_model_documents(bench_module) -> dict[str, dict]:
    """The models of the benchmark's three workloads that are not fixtures."""
    inputs = bench_module("inputs")
    fixture_docs = {name: fx.load_document(name) for name in fx.available_models()}
    docs = [model for model, *_ in inputs.command_models(0, fixture_docs)]
    docs += [model for model, _ in inputs.sweep_inputs(0)]
    docs += inputs.conditioning_models(fixture_docs)
    return {doc["name"]: doc for doc in docs if doc["name"] not in fixture_docs}


def _table_violations(model: alg.LieModel) -> tuple[list[tuple], list[int]]:
    """Failed identities as (name, degree or bidegree), and h_BC^k + h_A^k - 2 b_k by k."""
    n = model.n
    dims = {key: coh.quotient_dimension(model, *key) for key in _space_keys(n)}
    failed = []
    for p in range(n + 1):
        for q in range(n + 1):
            if dims["bc", p, q] != dims["aeppli", n - p, n - q]:
                failed.append(("bc_aeppli", (p, q)))
            if dims["dolbeault", p, q] != dims["dolbeault", n - p, n - q]:
                failed.append(("serre", (p, q)))
    excess = []
    for k in range(2 * n + 1):
        b = dims["derham", k, None]
        bidegrees = alg.bidegrees_of_degree(n, k)
        if b != dims["derham", 2 * n - k, None]:
            failed.append(("poincare", k))
        if b > sum(dims["dolbeault", p, q] for p, q in bidegrees):
            failed.append(("frolicher", k))
        excess.append(sum(dims["bc", p, q] + dims["aeppli", p, q] for p, q in bidegrees) - 2 * b)
        if excess[-1] < 0:
            failed.append(("bc_plus_aeppli", k))
    return failed, excess


def test_bench_models_are_the_benchmarks(bench_module):
    assert sorted(_bench_model_documents(bench_module)) == sorted(BENCH_MODELS)


@pytest.mark.parametrize("name", [*UNIMODULAR_FIXTURES, *BENCH_MODELS])
def test_dimension_table_invariants_hold_on_unimodular_models(bench_module, name):
    doc = fx.load_document(name) if name in UNIMODULAR_FIXTURES else _bench_model_documents(bench_module)[name]
    model = alg.parse_model(doc)
    assert alg.is_unimodular(model)
    failed, excess = _table_violations(model)
    assert failed == []
    # the tori are Kahler; the nilmanifolds fail the del delbar-lemma in some degree
    assert (max(excess) == 0) == name.startswith("torus")


def test_nonunimodular_breaks_the_dualities(models):
    # without Stokes the three dualities fail; the two inequalities still hold there
    failed, _ = _table_violations(models["nonunimodular"])
    assert {identity for identity, _ in failed} == {"bc_aeppli", "serre", "poincare"}
    assert len(failed) == 19


@pytest.mark.parametrize("name", [*fx.available_models(), *BENCH_MODELS])
def test_real_model_is_a_lie_algebra_with_the_models_unimodularity(bench_module, name):
    doc = fx.load_document(name) if name in fx.available_models() else _bench_model_documents(bench_module)[name]
    model = alg.parse_model(doc)
    real = alg.real_model(model)
    assert real.n == 2 * model.n and not real.d11.any() and not real.d20.imag.any()
    report = alg.validate_model(real)
    assert report.d_squared_zero
    assert report.unimodular == alg.is_unimodular(model)


@pytest.mark.parametrize("name", [*fx.available_models(), *BENCH_MODELS])
def test_real_model_blocks_are_float64_and_equal_the_complex_assembly(bench_module, name):
    doc = fx.load_document(name) if name in fx.available_models() else _bench_model_documents(bench_module)[name]
    real = alg.real_model(alg.parse_model(doc))
    assert real.d20.dtype == real.d11.dtype == np.float64
    # the same constants as complex arrays give the complex assembly, imaginary part 0
    twin = alg.LieModel(real.name, real.n, real.d20.astype(complex), real.d11)
    for k in range(real.n + 1):
        block, reference = alg.del_matrix(real, k, 0), alg.del_matrix(twin, k, 0)
        assert block.dtype == np.float64 and reference.dtype == complex
        assert not reference.imag.any() and np.array_equal(block, reference.real)


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
        kernel = hermitian_kernel(lap)  # orthonormal columns
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
    coh.cohomology_space(g, "aeppli", 1, 1).basis  # a basis is built on its first read
    coh.cohomology_space(g, "bc", n - 1, n - 1).basis
    fns = ("laplacian", "laplacian_a", "laplacian_bc", "hermitian_kernel")
    calls = _count_calls(monkeypatch, [(hodge, fn) for fn in fns])
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
