"""Seeded input generators for the benchmark.

Every model and metric is produced as a JSON document in the package's own
schemas, so the engine only ever sees generated documents.  The same seed
always gives the same documents.

Model families:

* KT^m x T^k, m Kodaira-Thurston surfaces times a complex k-torus (every
  torus generator closed), with
  d(phi^{2j}) = phi^{2j-1} wedge phibar^{2j-1} in each surface;
* the Iwasawa-type family, d(phi^n) = -phi^1 wedge phi^2 and the other
  generators closed (n = 3 is the bundled ``iwasawa`` fixture).

Metric families:

* ``conditioned``: U diag(geomspace(1, c, n)) U* with U a seeded random
  unitary, condition number exactly c;
* ``block``: one seeded positive definite block per Kodaira-Thurston
  factor (2x2) and one for the torus factor (k x k).  Dense metrics on KT
  products are not SKT; block-diagonal ones are product metrics, hence SKT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

def kt_product(m: int, k: int = 0) -> dict:
    """KT^m x T^k; m = 0 gives the complex torus T^k."""
    n = 2 * m + k
    dphi: list[list[dict]] = [[] for _ in range(n)]
    for j in range(m):
        a = 2 * j + 1
        dphi[a] = [{"type": "11", "i": a, "j": a, "coeff": [1.0, 0.0]}]
    name = f"kt{m}" + (f"_t{k}" if k else "")
    return {"name": name, "n": n, "dphi": dphi}


def iwasawa_type(n: int) -> dict:
    if not 3 <= n <= 7:
        raise ValueError("the Iwasawa-type family is defined for n = 3..7")
    dphi: list[list[dict]] = [[] for _ in range(n)]
    dphi[n - 1] = [{"type": "20", "i": 1, "j": 2, "coeff": [-1.0, 0.0]}]
    return {"name": f"iwasawa{n}", "n": n, "dphi": dphi}


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conditioned_matrix(n: int, c: float, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(n, rng)
    return (u * np.geomspace(1.0, c, n)) @ u.conj().T


def block_matrix(m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal metric for KT^m x T^k: 2x2 blocks, then one k x k block,
    each of condition 4."""
    sizes = [2] * m + ([k] if k else [])
    h = np.zeros((2 * m + k, 2 * m + k), dtype=complex)
    off = 0
    for size in sizes:
        h[off : off + size, off : off + size] = conditioned_matrix(size, 4.0, rng)
        off += size
    return h


def metric_document(name: str, h: np.ndarray) -> dict:
    h = 0.5 * (h + h.conj().T)
    return {
        "name": name,
        "h": [[[float(z.real), float(z.imag)] for z in row] for row in h],
    }


# ---------------------------------------------------------------------------
# workload inputs


def sweep_inputs(seed: int) -> list[tuple[dict, dict]]:
    """(model, metric) documents of the sweep: the n = 5 rung, KT^2 x T and
    the Iwasawa-type model (= Iwasawa x T^2), each under one metric of
    condition 10.  The n = 6 rung is left out: one n = 6 sweep takes about
    28 s on one BLAS thread, so a run could not repeat it and take a median."""
    rng = np.random.default_rng([seed, 6])
    out = []
    for model in (kt_product(2, 1), iwasawa_type(5)):
        h = conditioned_matrix(model["n"], 10.0, rng)
        out.append((model, metric_document(f"{model['name']}_c10", h)))
    return out


# From c = 30 on the engine refuses some spaces (CrossCheckError; at c = 1e4
# about one space in eight), and a benchmark workload must not fail.
CONDITIONING_C = (1.0, 3.0, 10.0)
CONDITIONING_SEEDS = 3


def conditioning_models(fixture_docs: dict[str, dict]) -> list[dict]:
    """Bundled fixtures (torus1 aside: at n = 1 c has no effect) and the n = 4 rungs."""
    fixtures = [doc for name, doc in fixture_docs.items() if name != "torus1"]
    return fixtures + [kt_product(2), iwasawa_type(4), kt_product(1, 2)]


def conditioning_inputs(seed: int, fixture_docs: dict[str, dict]) -> list[tuple[dict, dict]]:
    rng = np.random.default_rng([seed, 4])
    out = []
    for model in conditioning_models(fixture_docs):
        for c in CONDITIONING_C:
            for s in range(CONDITIONING_SEEDS):
                h = conditioned_matrix(model["n"], c, rng)
                out.append((model, metric_document(f"{model['name']}_c{c:g}_{s}", h)))
    return out


COMMANDS = (
    (("validate",), ()),
    (("cohomology",), ()),
    (("classify",), ()),
    (("decompose",), ()),
    (("cone", "skt"), ("--scale", "1")),
    (("cone", "skt"), ("--scale", "-1")),
    (("cone", "copsef"), ()),
    (("check-lemmas",), ()),
)
SKT_ONLY = ("decompose", "cone")


@dataclass
class Case:
    """One CLI invocation with the exit code it must return."""

    argv: list[str]
    expected_exit: int
    model: dict
    unimodular: bool


def command_models(seed: int, fixture_docs: dict[str, dict]) -> list[tuple[dict, dict | None, bool, bool]]:
    """(model, metric or None for identity, skt, unimodular) for the command mix.

    SKT and unimodularity are known by construction: tori and KT products
    under identity or block-diagonal metrics are SKT, the Iwasawa-type models
    are not (d phi^n has a (2,0) part), and ``nonunimodular`` is the only
    non-unimodular model.
    """
    rng = np.random.default_rng([seed, 5])
    out: list[tuple[dict, dict | None, bool, bool]] = []
    for name, doc in fixture_docs.items():
        out.append((doc, None, name != "iwasawa", name != "nonunimodular"))
    for m, k in ((2, 0), (2, 1)):
        model = kt_product(m, k)
        metric = metric_document(f"{model['name']}_block", block_matrix(m, k, rng))
        out.append((model, metric, True, True))
    model = iwasawa_type(4)
    out.append((model, metric_document("iwasawa4_c10", conditioned_matrix(4, 10.0, rng)), False, True))
    return out


def command_cases(seed: int, fixture_docs: dict[str, dict], write_document) -> list[Case]:
    """Every command on every model; ``write_document(doc) -> path`` stores an input."""
    cases: list[Case] = []
    for model, metric, skt, unimodular in command_models(seed, fixture_docs):
        model_arg = model["name"] if model["name"] in fixture_docs else write_document(model)
        metric_args = [] if metric is None else ["--metric", write_document(metric)]
        for command, extra in COMMANDS:
            if command[0] in SKT_ONLY:
                expected = 0 if skt and unimodular else 1
            elif command[0] == "check-lemmas":
                # the star intertwining of the Laplacians needs Stokes, i.e. unimodularity
                expected = 0 if unimodular else 1
            else:
                expected = 0
            given = [] if command[0] == "validate" else metric_args  # validate is metric-free
            argv = [*command, "--model", model_arg, *given, *extra]
            cases.append(Case(argv, expected, model, unimodular))
    # the Kodaira-Thurston classify golden report is made under the standard metric
    argv = ["classify", "--model", "kodaira_thurston", "--metric", "metric_kt_standard"]
    cases.append(Case(argv, 0, fixture_docs["kodaira_thurston"], True))
    return cases
