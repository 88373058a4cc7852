"""Self-check of the benchmark's checker on the smallest rung.

A wrong reference dimension, a refusal and an unexpected exit code must each
count as one failed operation, so ``failed`` cannot silently read 0.
``run.py`` calls ``problems()`` before every workload; it also runs alone:

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pluriclosed import algebra as alg
from pluriclosed import fixtures as fx
from pluriclosed import hodge

import inputs
import workloads


def problems() -> list[str]:
    """What the checker failed to catch; empty when it works."""
    found = []
    doc = fx.load_document("torus2")
    g = hodge.identity_metric(alg.parse_model(doc))
    outcomes = [("torus2", key, dim) for key, dim in workloads.sweep_metric(g)]
    docs = {"torus2": doc}

    refs = workloads.References()
    exact = refs(doc)
    verdict = workloads.check_spaces(outcomes, docs, refs)
    if (verdict.attempted, verdict.failed) != (len(outcomes), 0):
        found.append(f"the exact reference itself fails: {verdict.notes}")

    wrong = workloads.References()
    wrong.dims["torus2"] = {**exact, ("bc", 1, 1): exact[("bc", 1, 1)] + 1}
    verdict = workloads.check_spaces(outcomes, docs, wrong)
    if (verdict.failed, verdict.wrong) != (1, 1):
        found.append("a wrong reference dimension was not counted as one failure")

    refused = [(name, key, None if key == ("bc", 1, 1) else dim) for name, key, dim in outcomes]
    verdict = workloads.check_spaces(refused, docs, refs)
    if (verdict.failed, verdict.wrong) != (1, 0):
        found.append("a CrossCheckError was not counted as one refusal")

    torus1 = fx.load_document("torus1")
    for expected in (0, 1):
        case = inputs.Case(["validate", "--model", "torus1"], expected, torus1, True)
        problem = workloads.check_case(case, *workloads.run_case(case), refs)
        if (problem is None) != (expected == 0):
            found.append(f"validate torus1 expecting exit {expected}: checker said {problem!r}")
    return found


if __name__ == "__main__":
    issues = problems()
    for issue in issues:
        print(f"self-check: {issue}", file=sys.stderr)
    print("self-check passed" if not issues else "self-check FAILED")
    sys.exit(1 if issues else 0)
