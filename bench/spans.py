"""Span tracer for the traced run: per-layer self time and counts.

Each public function listed in ``LAYERS`` is wrapped in a span (layer,
function, start, end, parent).  Modules of the package bind some functions
by name (``from .linalg import nullspace``), so every attribute of every
``pluriclosed`` module that *is* a listed function is replaced, not just the
one in the defining module.  Spans stay in memory; self times are computed
once, at the end, as duration minus the durations of direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "algebra.parse": ("algebra", ("parse_model",)),
    "algebra.assembly": (
        "algebra",
        ("del_matrix", "delbar_matrix", "deldelbar_matrix", "d_matrix", "wedge_matrix", "operator_matrix"),
    ),
    "algebra.form_conversion": ("algebra", ("from_vector", "to_vector")),
    "algebra.form_ops": (
        "algebra",
        ("wedge", "wedge_power", "conjugate", "del_form", "delbar_form", "d_form"),
    ),
    "hodge.metric": ("hodge", ("metric_from_matrix", "metric_from_document")),
    "hodge.frame": ("hodge", ("gram_matrix", "star_matrix", "inner", "l2_norm")),
    "hodge.laplacian": ("hodge", ("laplacian_bc", "laplacian_a", "laplacian_delbar", "laplacian_derham")),
    "hodge.kernel": ("hodge", ("harmonic_basis",)),
    "hodge.harmonic_space": ("hodge", ("harmonic_space", "harmonic_projection")),
    "hodge.lefschetz": (
        "hodge",
        (
            "lefschetz_matrix",
            "lambda_matrix",
            "lambda_contraction",
            "lefschetz_L",
            "is_primitive",
            "primitive_star_check",
            "random_primitive_form",
            "omega_power",
        ),
    ),
    "hodge.decomposition": ("hodge", ("three_space_decomposition", "orthonormal_span", "subspace_residual")),
    "linalg.svd": ("linalg", ("numeric_rank", "nullspace", "column_space", "min_norm_lstsq")),
    "linalg.eigh": ("linalg", ("hermitian_kernel",)),
    "cohomology.quotient_rank": ("cohomology", ("quotient_dimension",)),
    "cohomology.space": ("cohomology", ("cohomology_space",)),
    "cohomology.class": (
        "cohomology",
        (
            "class_of",
            "harmonic_representative",
            "primitive_hyperplane",
            "lefschetz_decompose_class",
            "harmonic_part_of_omega",
            "harmonic_part_of_omega_power",
            "lambda_sign_partition",
        ),
    ),
    "classify.classify": ("classify", ("classify_metric",)),
    "classify.lemmas": ("classify", ("aeppli_harmonic_check", "skt_class_nonzero", "power_exactness_witness")),
    "cones.skt": ("cones", ("skt_cone_feasibility",)),
    "cones.probes": ("cones", ("closed_positive_probes", "copsef_pairing_test", "weak_positivity_matrix")),
    "cli.command": (
        "cli",
        (
            "main",
            "cmd_validate",
            "cmd_cohomology",
            "cmd_classify",
            "cmd_decompose",
            "cmd_cone_skt",
            "cmd_cone_copsef",
            "cmd_check_lemmas",
        ),
    ),
    "cli.emit": ("cli", ("emit",)),
}

# layers whose call counts are reported next to their self time
COUNTED = ("algebra.assembly", "algebra.form_conversion", "algebra.form_ops", "hodge.laplacian",
           "linalg.svd", "cohomology.space")


def _svd_work(args, result) -> float:
    m, n = np.atleast_2d(args[0]).shape
    return float(m * n * min(m, n))


def _eigh_work(args, result) -> float:
    return float(np.atleast_2d(args[0]).shape[0] ** 3)


def _skt_iterations(args, result) -> float:
    return float(result.iterations)


WORK = {"linalg.svd": _svd_work, "linalg.eigh": _eigh_work, "cones.skt": _skt_iterations}


class Tracer:
    """Wraps the package's layer functions and records spans while installed."""

    def __init__(self):
        # span: [layer, function, start, end, parent index, error class name, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[3] = clock()
            if work is not None:
                rec[6] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "pluriclosed" or key.startswith("pluriclosed.")]
        for layer, (module, names) in LAYERS.items():
            home = sys.modules[f"pluriclosed.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself."""
        rec = [layer, name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def layer_metrics(self, first: int, last: int | None) -> dict[str, float]:
        """Self time, counts and work per layer over spans[first:last]."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for rec in spans:
            if rec[4] >= first:
                child[rec[4]] += rec[3] - rec[2]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        work: dict[str, float] = defaultdict(float)
        errors: dict[str, int] = defaultdict(int)
        for i, rec in enumerate(spans, start=first):
            layer = rec[0]
            self_s[layer] += (rec[3] - rec[2]) - child[i]
            calls[layer] += 1
            work[layer] += rec[6]
            if rec[5] == "CrossCheckError":
                errors[layer] += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = self_s[layer]
        for layer in COUNTED:
            out[f"{layer}_calls"] = calls[layer]
        out["linalg.svd_work"] = work["linalg.svd"]
        out["linalg.eigh_work"] = work["linalg.eigh"]
        out["cones.skt_iterations"] = work["cones.skt"]
        space_calls = calls["cohomology.space"]
        quotient_calls = calls["cohomology.quotient_rank"]
        out["cohomology.space_cache_hit_ratio"] = (1.0 - quotient_calls / space_calls) if space_calls else 0.0
        out["cohomology.crosscheck_failures"] = errors["cohomology.space"]
        out["bench.harness_s"] = self_s["bench"]
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: Path, first: int, last: int | None) -> None:
        """Spans[first:last] as one JSON document; parents index the full list."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["layer", "function", "start", "end", "parent", "error", "work"]
        path.write_text(json.dumps({"fields": fields, "first": first, "spans": self.spans[first:last]}),
                        encoding="utf-8")


def span_cost() -> float:
    """Seconds one traced call adds over an untraced one, from a no-op function.

    Differencing a traced and an untraced pass is too noisy on a shared
    machine to resolve the overhead, so it is estimated as spans x this cost.
    """

    def noop():
        return None

    traced = Tracer()._wrap("bench", "noop", noop)
    calls = 50_000
    clock = time.perf_counter
    best = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best
