"""The three workloads: set-up, one timed pass, and the correctness check.

``sweep`` and ``conditioning`` time cohomology-space computations through
``cohomology.cohomology_space``; ``commands`` times ``cli.main(argv)`` on
every CLI command.  Each pass parses its model documents and builds its
metrics afresh, so no pass reuses another pass's per-model or per-metric
caches.  Checking happens after the timed passes, against the exact
reference in ``reference.py``, the committed golden reports and the exit
code each command case must return.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from pluriclosed import algebra as alg
from pluriclosed import cli
from pluriclosed import cohomology as coh
from pluriclosed import fixtures as fx
from pluriclosed import hodge
from pluriclosed.errors import CrossCheckError

import inputs
from reference import reference_dimensions

GOLDEN_COHOMOLOGY = ("torus2", "kodaira_thurston", "iwasawa")
# (model argument, metric argument) of each committed classify report
GOLDEN_CLASSIFY = {("torus2", None), ("iwasawa", None), ("kodaira_thurston", "metric_kt_standard")}


def fixture_documents() -> dict[str, dict]:
    return {name: fx.load_document(name) for name in fx.available_models()}


def golden_report(model: str, command: str) -> dict:
    return json.loads(fx.golden_path(model, command).read_text(encoding="utf-8"))


def golden_dimensions(model: str) -> dict[tuple, int]:
    return {(row["theory"], row["p"], row["q"]): row["dim"]
            for row in golden_report(model, "cohomology")["table"]}


class References:
    """Exact dimensions per model name, computed once per model and cross-checked
    against the golden reports where the model has one."""

    def __init__(self):
        self.dims: dict[str, dict[tuple, int]] = {}

    def __call__(self, doc: dict) -> dict[tuple, int]:
        name = doc["name"]
        if name not in self.dims:
            dims = reference_dimensions(doc)
            if name in GOLDEN_COHOMOLOGY and golden_dimensions(name) != dims:
                raise RuntimeError(f"exact reference disagrees with the golden report of {name}")
            self.dims[name] = dims
        return self.dims[name]


@dataclass
class Verdict:
    """Operations attempted and failed.  ``wrong`` counts the failures whose
    output disagreed with the reference or expectation; the rest were
    refusals (``CrossCheckError``, exit code 3)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, refused: bool = False, note: str = "") -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.wrong += not refused
        if len(self.notes) < 5:
            self.notes.append(note)


# ---------------------------------------------------------------------------
# cohomology sweeps (sweep, conditioning)


THEORIES = ("bc", "aeppli", "dolbeault", "derham")


def theory_keys(n: int, theories=THEORIES) -> list[tuple]:
    keys = []
    for theory in theories:
        if theory == "derham":
            keys += [("derham", k, None) for k in range(2 * n + 1)]
        else:
            keys += [(theory, p, q) for p in range(n + 1) for q in range(n + 1)]
    return keys


def sweep_metric(g, theories=THEORIES) -> list[tuple[tuple, int | None]]:
    """Every cohomology space of one metric; None marks a CrossCheckError."""
    out = []
    for key in theory_keys(g.n, theories):
        theory, p, q = key
        try:
            out.append((key, coh.cohomology_space(g, theory, p, q).dimension))
        except CrossCheckError:
            out.append((key, None))
    return out


class SpaceWorkload:
    def __init__(self, pairs: list[tuple[dict, dict]]):
        self.pairs = pairs  # (model document, metric document), grouped by model

    def setup(self) -> None:
        for model_doc, metric_doc in self.pairs:
            hodge.metric_from_document(alg.parse_model(model_doc), metric_doc)

    def run_pass(self, tick) -> list:
        """Every space of every metric; ``tick()`` after each theory of a metric."""
        outcomes = []
        name, model = None, None
        for model_doc, metric_doc in self.pairs:
            if model_doc["name"] != name:  # the previous model and its caches are dropped
                name, model = model_doc["name"], alg.parse_model(model_doc)
            g = hodge.metric_from_document(model, metric_doc)
            for theory in THEORIES:
                outcomes.extend((name, key, dim) for key, dim in sweep_metric(g, (theory,)))
                tick()
        return outcomes

    def check(self, passes: list[list], refs: References) -> Verdict:
        docs = {m["name"]: m for m, _ in self.pairs}
        return check_spaces([o for outcomes in passes for o in outcomes], docs, refs)


def check_spaces(outcomes, docs: dict[str, dict], refs: References) -> Verdict:
    verdict = Verdict()
    for name, key, dim in outcomes:
        expected = refs(docs[name])[key]
        if dim is None:
            verdict.record(False, refused=True, note=f"{name} {key}: CrossCheckError")
        else:
            verdict.record(dim == expected, note=f"{name} {key}: dimension {dim}, exact {expected}")
    return verdict


# ---------------------------------------------------------------------------
# CLI command mix


class CommandWorkload:
    def __init__(self, seed: int, fixture_docs: dict[str, dict], workdir: Path):
        self.seed = seed
        self.fixture_docs = fixture_docs
        self.workdir = workdir
        self.cases: list[inputs.Case] = []

    def _write(self, doc: dict) -> str:
        path = self.workdir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cases = inputs.command_cases(self.seed, self.fixture_docs, self._write)
        for case in self.cases:
            model = alg.parse_model(fx.load_document(_arg(case.argv, "--model")))
            if "--metric" in case.argv:
                hodge.metric_from_document(model, fx.load_document(_arg(case.argv, "--metric")))

    def run_pass(self, tick) -> list:
        """Every command case; ``tick()`` after each."""
        outcomes = []
        for case in self.cases:
            outcomes.append((case, *run_case(case)))
            tick()
        return outcomes

    def check(self, passes: list[list], refs: References) -> Verdict:
        verdict = Verdict()
        for outcomes in passes:
            for case, code, stdout in outcomes:
                problem = check_case(case, code, stdout, refs)
                verdict.record(problem is None, note=f"{' '.join(case.argv)}: {problem}")
        return verdict


def run_case(case: inputs.Case) -> tuple[object, str]:
    """Exit code and captured stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(case.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_case(case: inputs.Case, code, stdout: str, refs: References) -> str | None:
    """None if the case behaved as required, else what went wrong."""
    if code != case.expected_exit:
        return f"exit code {code}, expected {case.expected_exit}"
    if code != 0 and not stdout.strip():
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    command = case.argv[0]
    model_arg, metric_arg = _arg(case.argv, "--model"), _arg(case.argv, "--metric")
    if command == "validate":
        if not report.get("d_squared_zero") or report.get("unimodular") != case.unimodular:
            return "validation report disagrees with the model's construction"
    elif command == "cohomology":
        table = {(row["theory"], row["p"], row["q"]): row["dim"] for row in report.get("table", [])}
        exact = refs(case.model)
        if table != exact:
            wrong = sorted(str(key) for key in exact if table.get(key) != exact[key])
            return f"dimensions differ from the exact reference at {', '.join(wrong[:5])}"
        if metric_arg is None and model_arg in GOLDEN_COHOMOLOGY and report != golden_report(model_arg, "cohomology"):
            return "differs from the golden cohomology report"
    elif command == "classify":
        if (model_arg, metric_arg) in GOLDEN_CLASSIFY and report != golden_report(model_arg, "classify"):
            return "differs from the golden classify report"
    elif command == "check-lemmas" and code == 0 and report.get("failures"):
        return f"lemma failures {report['failures']}"
    return None


# ---------------------------------------------------------------------------


def make(workload: str, seed: int, workdir: Path):
    fixture_docs = fixture_documents()
    if workload == "sweep":
        return SpaceWorkload(inputs.sweep_inputs(seed))
    if workload == "conditioning":
        return SpaceWorkload(inputs.conditioning_inputs(seed, fixture_docs))
    if workload == "commands":
        return CommandWorkload(seed, fixture_docs, workdir)
    raise ValueError(f"unknown workload {workload!r}")
