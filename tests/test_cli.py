"""CLI smoke tests over the bundled fixture corpus."""

import json
import re
import subprocess
import sys

import pytest

from pluriclosed import fixtures as fx


def run_cli(*args, check=False):
    cmd = [sys.executable, "-m", "pluriclosed.cli", *args]
    return subprocess.run(cmd, check=check, capture_output=True, text=True)


def test_validate_fixtures_exit_zero():
    for name in ("torus1", "torus2", "torus3", "iwasawa", "kodaira_thurston"):
        completed = run_cli("validate", "--model", name)
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["d_squared_zero"] and payload["integrable"] and payload["unimodular"]


def test_validate_nonunimodular_still_exits_zero():
    completed = run_cli("validate", "--model", "nonunimodular")
    assert completed.returncode == 0
    assert json.loads(completed.stdout)["unimodular"] is False


def test_validate_corrupted_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", broken', encoding="utf-8")
    completed = run_cli("validate", "--model", str(bad))
    assert completed.returncode == 2
    assert "parse error" in completed.stderr


def test_validate_schema_violation_exits_two(tmp_path):
    doc = {"name": "x", "n": 2, "dphi": [[], [{"type": "20", "i": 2, "j": 1, "coeff": [1, 0]}]]}
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    completed = run_cli("validate", "--model", str(bad))
    assert completed.returncode == 2


def test_malformed_form_document_exits_two(tmp_path):
    # phibar^7 does not exist on the n = 2 Kodaira-Thurston model
    doc = {"p": 1, "q": 1, "terms": [{"holo": [1], "anti": [7], "coeff": [1, 0]}]}
    bad = tmp_path / "class.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    completed = run_cli("cone", "skt", "--model", "kodaira_thurston", "--class", str(bad))
    assert completed.returncode == 2
    assert "parse error" in completed.stderr and "terms[0].anti" in completed.stderr


def test_cohomology_torus2_binomial_table():
    completed = run_cli("cohomology", "--model", "torus2")
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout)
    bc = {(row["p"], row["q"]): row["dim"] for row in payload["table"] if row["theory"] == "bc"}
    assert [[bc[(p, q)] for q in range(3)] for p in range(3)] == [
        [1, 2, 1],
        [2, 4, 2],
        [1, 2, 1],
    ]


@pytest.mark.parametrize("name", ["torus2", "iwasawa", "kodaira_thurston"])
def test_cohomology_matches_golden(name):
    completed = run_cli("cohomology", "--model", name)
    assert completed.returncode == 0, completed.stderr
    golden = json.loads(fx.golden_path(name, "cohomology").read_text(encoding="utf-8"))
    assert json.loads(completed.stdout) == golden


@pytest.mark.parametrize(
    "name,metric",
    [
        ("torus2", None),
        ("iwasawa", None),
        ("kodaira_thurston", str(fx.data_path("metric_kt_standard.json"))),
    ],
)
def test_classify_matches_golden(name, metric):
    args = ["classify", "--model", name]
    if metric:
        args += ["--metric", metric]
    completed = run_cli(*args)
    assert completed.returncode == 0, completed.stderr
    golden = json.loads(fx.golden_path(name, "classify").read_text(encoding="utf-8"))
    assert json.loads(completed.stdout) == golden


def test_decompose_torus_lambda_one():
    completed = run_cli("decompose", "--model", "torus2")
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout)
    assert abs(payload["lambda"][0] - 1.0) < 1e-9
    assert abs(payload["lambda"][1]) < 1e-9
    assert payload["side"] == "positive"
    assert payload["hyperplane_dimension"] == 3


def test_decompose_kt_harmonic_power_lambda_one():
    # the canonical line class has lambda = 1 for every SKT metric
    completed = run_cli(
        "decompose",
        "--model",
        "kodaira_thurston",
        "--metric",
        str(fx.data_path("metric_kt_standard.json")),
    )
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout)
    assert abs(payload["lambda"][0] - 1.0) < 1e-8
    assert payload["primitive_part_norm"] < 1e-8


def test_cone_skt_negative_class_certified():
    completed = run_cli("cone", "skt", "--model", "torus2", "--scale", "-1")
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout)
    assert payload["verdict"] == "infeasible_certified"


def test_cone_skt_feasible_identity():
    completed = run_cli("cone", "skt", "--model", "torus2")
    payload = json.loads(completed.stdout)
    assert payload["verdict"] == "feasible_with_witness"
    assert payload["best_min_eigenvalue"] >= 0.9


def test_cone_copsef_default_probe():
    completed = run_cli("cone", "copsef", "--model", "torus2")
    payload = json.loads(completed.stdout)
    assert payload["verdict"] == "consistent"
    assert payload["pairings"][0]["value"] == pytest.approx(2.0)


def test_cone_copsef_probe_file(tmp_path):
    probes = tmp_path / "probes.json"
    probes.write_text(
        json.dumps([json.loads(fx.data_path("metric_identity.json").read_text())]),
        encoding="utf-8",
    )
    completed = run_cli(
        "cone", "copsef", "--model", "torus2", "--scale", "-1", "--probes", str(probes)
    )
    payload = json.loads(completed.stdout)
    assert payload["verdict"] == "violated"


def test_check_lemmas_kt():
    completed = run_cli(
        "check-lemmas",
        "--model",
        "kodaira_thurston",
        "--metric",
        str(fx.data_path("metric_kt_standard.json")),
        "--seed",
        "5",
    )
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout)
    assert payload["failures"] == []
    assert payload["aeppli_harmonic_samples"] > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_lemmas_ill_conditioned_kt_metric(tmp_path, seed):
    # h = U diag(1, 1e4) U* is a valid metric; absolute residuals of the
    # true-scale Laplacians (about S^4) used to fail star_intertwining and
    # aeppli_harmonic here
    import numpy as np

    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    h = (u * np.array([1.0, 1e4])) @ u.conj().T
    path = tmp_path / "metric.json"
    doc = {"name": "kt_c1e4", "h": [[[z.real, z.imag] for z in row] for row in h]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    completed = run_cli("check-lemmas", "--model", "kodaira_thurston", "--metric", str(path))
    assert completed.returncode == 0, completed.stdout
    payload = json.loads(completed.stdout)
    assert payload["failures"] == []
    assert payload["aeppli_harmonic_samples"] > 0


@pytest.mark.parametrize("scale", [1e-14, 1e14])
@pytest.mark.parametrize("name,metric", [("iwasawa", None), ("kodaira_thurston", "metric_kt_standard")])
def test_check_lemmas_pass_under_a_uniformly_scaled_metric(tmp_path, name, metric, scale):
    # every lemma is decided in the unit frame complex; iwasawa at t = 1e-14
    # used to fail three_space_decomposition, and kt_standard runs the SKT
    # lemmas (adjoint formula, Aeppli harmonicity) too
    n = fx.load_document(name)["n"]
    rows = fx.load_document(metric)["h"] if metric else [
        [[1.0 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)
    ]
    doc = {"name": "scaled", "h": [[[scale * re, scale * im] for re, im in row] for row in rows]}
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    completed = run_cli("check-lemmas", "--model", name, "--metric", str(path))
    assert completed.returncode == 0, completed.stdout
    payload = json.loads(completed.stdout)
    assert payload["failures"] == []
    assert payload["decomposition_dimensions_ok"]
    if metric:
        assert payload["aeppli_harmonic_samples"] > 0


def test_determinism_same_seed_byte_identical():
    first = run_cli("check-lemmas", "--model", "iwasawa", "--seed", "11")
    second = run_cli("check-lemmas", "--model", "iwasawa", "--seed", "11")
    assert first.stdout == second.stdout
    assert first.stdout != run_cli("check-lemmas", "--model", "iwasawa", "--seed", "12").stdout


def test_fixture_corpus_roundtrip():
    from pluriclosed import algebra as alg

    for name in fx.available_models():
        doc = fx.load_document(name)
        model = alg.parse_model(doc)
        again = alg.parse_model(alg.model_to_document(model))
        assert alg.model_to_document(model) == alg.model_to_document(again)


def test_table_format_runs():
    completed = run_cli("validate", "--model", "torus1", "--format", "table")
    assert completed.returncode == 0
    assert "d_squared_zero" in completed.stdout


def test_route_disagreement_exits_three(monkeypatch):
    # a cross-check failure anywhere inside a command maps to exit code 3
    from pluriclosed import cli
    from pluriclosed import cohomology as coh
    from pluriclosed.errors import CrossCheckError

    def boom(*args, **kwargs):
        raise CrossCheckError("routes disagree")

    monkeypatch.setattr(coh, "cohomology_space", boom)
    assert cli.main(["cohomology", "--model", "torus1"]) == 3


def test_metric_error_exits_one(tmp_path):
    bad = tmp_path / "metric.json"
    bad.write_text(
        json.dumps({"name": "bad", "h": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]}),
        encoding="utf-8",
    )
    completed = run_cli("classify", "--model", "torus2", "--metric", str(bad))
    assert completed.returncode == 1
    assert "not positive definite" in completed.stderr


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _assert_parse_error(completed, path):
    assert completed.returncode == 2, (completed.returncode, completed.stderr)
    assert "parse error" in completed.stderr and path in completed.stderr
    assert "Traceback" not in completed.stderr


@pytest.mark.parametrize(
    "h,path",
    [
        ([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]], "h:"),  # ragged rows
        ([[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "h[0][0]"),  # [re, im, extra]
    ],
)
def test_malformed_metric_exits_two(tmp_path, h, path):
    metric = _write(tmp_path, "metric.json", {"name": "malformed", "h": h})
    completed = run_cli("classify", "--model", "torus2", "--metric", metric)
    _assert_parse_error(completed, path)



@pytest.mark.parametrize(
    "top",
    [None, 5, {"h": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}],
    ids=["null", "number", "metric-object"],
)
def test_probe_file_that_is_not_a_list_exits_two(tmp_path, top):
    # a single metric object is not a one-probe list either
    probes = _write(tmp_path, "probes.json", top)
    completed = run_cli("cone", "copsef", "--model", "torus2", "--probes", probes)
    _assert_parse_error(completed, "probes:")

@pytest.mark.parametrize(
    "command,value", [("cohomology", "NaN"), ("validate", "NaN"), ("cohomology", "Infinity")]
)
def test_non_finite_model_coefficient_exits_two(tmp_path, command, value):
    # Python's json reads and writes the non-standard literals NaN and Infinity
    doc = fx.load_document("kodaira_thurston")
    doc["dphi"][1][0]["coeff"] = [float(value), 0.0]
    model = _write(tmp_path, "model.json", doc)
    _assert_parse_error(run_cli(command, "--model", model), "dphi[1][0].coeff")


def test_validate_rejects_a_02_term_with_exit_two(tmp_path):
    # integrability holds by construction: no model carries a (0,2) part
    doc = fx.load_document("kodaira_thurston")
    doc["dphi"][1][0]["type"] = "02"
    model = _write(tmp_path, "model.json", doc)
    _assert_parse_error(run_cli("validate", "--model", model), "dphi[1][0].type")


def test_form_document_boolean_degree_exits_two(tmp_path):
    doc = {"p": True, "q": 1, "terms": [{"holo": [1], "anti": [1], "coeff": [1, 0]}]}
    form = _write(tmp_path, "class.json", doc)
    completed = run_cli("cone", "skt", "--model", "kodaira_thurston", "--class", form)
    _assert_parse_error(completed, "p:")


@pytest.mark.parametrize(
    "doc,path",
    [
        ({"p": 1, "q": 1}, "terms:"),  # used to parse as the zero form
        ({"p": 5, "q": 1, "terms": []}, "p:"),  # n = 2
        ({"p": -1, "q": 1, "terms": []}, "p:"),
        ({"p": 1, "q": 3, "terms": []}, "q:"),
    ],
)
def test_form_document_degree_and_terms_exit_two(tmp_path, doc, path):
    form = _write(tmp_path, "class.json", doc)
    completed = run_cli("cone", "skt", "--model", "kodaira_thurston", "--class", form)
    _assert_parse_error(completed, path)


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_thurston"])
@pytest.mark.parametrize("scale", [1e-30, 1e-14, 1e-3, 1e3, 1e14, 1e30])
def test_cohomology_dimensions_ignore_metric_scale(tmp_path, name, scale):
    # ranks are decided in the unit frame complex, so t * h gives the golden
    # dimensions for every t; t = 1e-14 used to exit 3 on iwasawa
    import numpy as np

    n = fx.load_document(name)["n"]
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = scale * (u * np.geomspace(1.0, 10.0, n)) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    doc = {"name": "scaled", "h": [[[z.real, z.imag] for z in row] for row in h]}
    metric = _write(tmp_path, "metric.json", doc)
    completed = run_cli("cohomology", "--model", name, "--metric", metric)
    assert completed.returncode == 0, completed.stderr
    golden = json.loads(fx.golden_path(name, "cohomology").read_text(encoding="utf-8"))
    dims = [row["dim"] for row in json.loads(completed.stdout)["table"]]
    assert dims == [row["dim"] for row in golden["table"]]


COMMON_FLAGS = {"--help", "--model", "--format"}
COMMAND_FLAGS = [
    (["validate"], set()),
    (["cohomology"], {"--metric", "--bless"}),
    (["classify"], {"--metric", "--strict", "--bless"}),
    (["decompose"], {"--metric", "--class", "--scale"}),
    (["cone", "skt"], {"--metric", "--class", "--scale"}),
    (["cone", "copsef"], {"--metric", "--class", "--scale", "--probes"}),
    (["check-lemmas"], {"--metric", "--seed"}),
]


@pytest.mark.parametrize(
    "command,flags", COMMAND_FLAGS, ids=[" ".join(command) for command, _ in COMMAND_FLAGS]
)
def test_parser_accepts_only_the_flags_a_command_reads(capsys, command, flags):
    # rank cuts and equation thresholds are fixed, never configured, and
    # only check-lemmas draws random samples
    from pluriclosed.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--help"])
    accepted = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert accepted == COMMON_FLAGS | flags
    assert "--tol-eq" not in accepted


BAD_FLAG_VALUES = [
    (command, flag, value)
    for command, flags in COMMAND_FLAGS
    for flag in sorted(flags & {"--scale", "--seed"})
    for value in ("nan", "inf", "-inf", *(["-1"] if flag == "--seed" else []))
]


@pytest.mark.parametrize(
    "command,flag,value", BAD_FLAG_VALUES, ids=[f"{' '.join(c)} {f}={v}" for c, f, v in BAD_FLAG_VALUES]
)
def test_non_finite_scale_and_negative_seed_exit_two(capsys, command, flag, value):
    # rejected by the parser, naming the flag, before any model is read
    from pluriclosed.cli import main

    with pytest.raises(SystemExit) as exc:
        main([*command, "--model", "torus2", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_parser_is_built_once():
    from pluriclosed.cli import build_parser

    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # each call parses into a fresh namespace: an option given to one call
    # is back at its default in the next, and a rejected call leaves the
    # parser as it was
    from pluriclosed.cli import main

    def report(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    assert report("check-lemmas", "--model", "torus2", "--seed", "5")["seed"] == 5
    assert report("check-lemmas", "--model", "torus2")["seed"] == 0
    assert report("decompose", "--model", "torus2", "--scale", "2")["lambda"][0] == pytest.approx(2.0)
    assert report("decompose", "--model", "torus2")["lambda"][0] == pytest.approx(1.0)
    for rejected in (["check-lemmas", "--model", "torus2", "--seed", "-1"], ["decompose", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert exc.value.code == 2
        capsys.readouterr()
        assert report("validate", "--model", "torus2")["model"] == "torus2"


def test_dispatch_reaches_a_command_replaced_after_the_parser_was_built(monkeypatch):
    # the parser stores command names, not functions, so a wrapped command
    # (a tracer's span, a test's stub) is the one that runs
    from pluriclosed import cli

    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
    assert cli.main(["validate", "--model", "torus2"]) == 7


# equation thresholds are relative: rescaling the class by s keeps every
# verdict, from the rejection of a class that is not closed to the sign of lambda
NON_REAL_11 = {"p": 1, "q": 1, "terms": [{"holo": [1], "anti": [2], "coeff": [1.0, 0.0]}]}
CLASS_SCALE_CASES = [
    ("iwasawa-omega-not-ddbar-closed", ["cone", "skt", "--model", "iwasawa"], 1, (1, None)),
    ("non-real-class", ["cone", "skt", "--model", "torus2", "--class", NON_REAL_11], 1, (1, None)),
    ("torus-lambda-sign", ["decompose", "--model", "torus2"], 1, (0, "positive")),
    ("negative-copsef-pairing", ["cone", "copsef", "--model", "torus2"], -1, (0, "violated")),
]


@pytest.mark.parametrize("scale", [1.0, 1e-12])
@pytest.mark.parametrize(
    "argv,sign,expected",
    [case[1:] for case in CLASS_SCALE_CASES],
    ids=[case[0] for case in CLASS_SCALE_CASES],
)
def test_equation_verdicts_ignore_class_scale(tmp_path, argv, sign, expected, scale):
    argv = [_write(tmp_path, "form.json", a) if isinstance(a, dict) else a for a in argv]
    completed = run_cli(*argv, f"--scale={sign * scale}")
    payload = json.loads(completed.stdout) if completed.returncode == 0 else {}
    verdict = payload.get("verdict", payload.get("side"))
    assert (completed.returncode, verdict) == expected, completed.stderr


@pytest.mark.parametrize("t", [1e-30, 1e-9, 1e-3, 1e3, 1e30])
def test_decompose_ignores_metric_scale(tmp_path, t):
    # the wedge functional is measured against omega_{n-1} and lambda's sign
    # band against the representative, both in L2, and its kernel is cut at
    # norm 1, so t * h_std splits the canonical class with lambda = 1
    import numpy as np

    h = t * np.asarray(fx.load_document("metric_kt_standard")["h"])
    metric = _write(tmp_path, "metric.json", {"name": "scaled", "h": h.tolist()})
    completed = run_cli("decompose", "--model", "kodaira_thurston", "--metric", metric)
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout)
    assert abs(payload["lambda"][0] - 1.0) < 1e-9
    assert payload["side"] == "positive"


def _rotated_iwasawa(tmp_path) -> str:
    """iwasawa in the rescaled unitary coframe of a c = 1 metric h = U U*.

    Its structure constants are dense floats: blocks that vanish in exact
    arithmetic carry rounding of about 1e-31.
    """
    import numpy as np

    from pluriclosed import algebra as alg
    from pluriclosed import hodge

    rng = np.random.default_rng([0, 2024])
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    frame = hodge.frame_model(hodge.metric_from_matrix(fx.load_model("iwasawa"), u @ u.conj().T))
    rotated = alg.LieModel("iwasawa_rotated", 3, frame.d20, frame.d11)
    return _write(tmp_path, "iwasawa_rotated.json", alg.model_to_document(rotated))


def test_a_rotated_coframe_keeps_every_answer(tmp_path):
    rotated = _rotated_iwasawa(tmp_path)
    completed = run_cli("validate", "--model", rotated)
    assert completed.returncode == 0, completed.stderr
    completed = run_cli("cohomology", "--model", rotated)
    assert completed.returncode == 0, completed.stderr
    golden = json.loads(fx.golden_path("iwasawa", "cohomology").read_text(encoding="utf-8"))
    assert json.loads(completed.stdout)["table"] == golden["table"]
    for command in (["decompose"], ["cone", "skt"]):
        here, there = (run_cli(*command, "--model", m) for m in (rotated, "iwasawa"))
        assert here.returncode == there.returncode, here.stderr
        assert (here.stdout, here.stderr) == (there.stdout, there.stderr)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
def test_class_scale_far_from_one_keeps_verdicts(capsys, scale):
    # --scale is split into a mantissa in [1, 2) and a power of two: the class
    # is built at the mantissa, so no norm of it overflows or underflows (a
    # RuntimeWarning fails the suite), and the reported linear quantities are
    # the mantissa run's times the power of two, exactly
    import math

    from pluriclosed.cli import main

    metric = str(fx.data_path("metric_kt_standard.json"))
    mantissa, exponent = math.frexp(scale)
    mantissa, unit = 2 * mantissa, math.ldexp(1.0, exponent - 1)

    def report(*command, at):
        argv = [*command, "--model", "kodaira_thurston", "--metric", metric, f"--scale={at!r}"]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    decompose = report("decompose", at=scale)
    assert decompose["side"] == "positive"
    assert abs(decompose["lambda"][0] / scale - 1.0) < 1e-8
    base = report("decompose", at=mantissa)
    assert decompose["lambda"] == [unit * x for x in base["lambda"]]
    assert decompose["primitive_part_norm"] == unit * base["primitive_part_norm"]

    cone = report("cone", "skt", at=scale)
    assert cone["verdict"] == "feasible_with_witness"
    assert abs(cone["best_min_eigenvalue"] / scale - 0.5) < 1e-8
    base = report("cone", "skt", at=mantissa)
    assert cone["best_min_eigenvalue"] == unit * base["best_min_eigenvalue"]


@pytest.mark.parametrize("name", [*fx.available_models(), "trace_1e-10"])
def test_validate_reports_the_unimodularity_the_engine_gates_on(tmp_path, name):
    # d phi^1 = 1e-10 phi^1 ^ phibar^1 has trace 1e-10, its only structure
    # constant: not unimodular at any coframe scale, still a valid model
    from pluriclosed import algebra as alg

    if name in fx.available_models():
        doc, model_arg = fx.load_document(name), name
    else:
        doc = {"name": name, "n": 1,
               "dphi": [[{"type": "11", "i": 1, "j": 1, "coeff": [1e-10, 0.0]}]]}
        model_arg = _write(tmp_path, "model.json", doc)
    completed = run_cli("validate", "--model", model_arg)
    assert completed.returncode == 0, completed.stderr
    unimodular = json.loads(completed.stdout)["unimodular"]
    assert unimodular == alg.is_unimodular(alg.parse_model(doc))
    assert unimodular == (name not in ("nonunimodular", "trace_1e-10"))
