"""Command-line surface: reproducible reports over the bundled fixture corpus.

Exit codes: 0 ok, 1 validation or lemma failure, 2 parse failure,
3 internal cross-check failure (two computation routes disagreed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import algebra as alg
from . import classify as cls_mod
from . import cohomology as coh
from . import cones, fixtures, hodge
from .errors import CrossCheckError, MetricError, ParseError, PreconditionError
from .linalg import nullspace

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_CROSSCHECK = 3


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, alg.Form):
        return alg.form_to_document(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    lines = []

    def walk(obj, prefix=""):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{prefix}{key}.")
        elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
            for i, item in enumerate(obj):
                walk(item, f"{prefix}{i}.")
        else:
            lines.append(f"{prefix[:-1]:<42} {obj}")

    walk(report)
    return "\n".join(lines)


def _load_model(args) -> alg.LieModel:
    return alg.parse_model(fixtures.load_document(args.model))


def _load_metric(model: alg.LieModel, args) -> hodge.HermitianMetric:
    if getattr(args, "metric", None):
        return hodge.metric_from_document(model, fixtures.load_document(args.metric))
    return hodge.identity_metric(model)


def _load_class(args, theory: str) -> coh.CohomologyClass:
    """The class of --scale times --class: an Aeppli (1,1)- or a Bott-Chern (n-1,n-1)-class.

    --class is "omega", a form-document path, or "omega-power", the harmonic
    part of omega^{n-1}/(n-1)!, which is d-closed for every metric (the raw
    power is closed only for balanced ones) and is the power itself on the
    torus fixtures.
    """
    model = _load_model(args)
    g = _load_metric(model, args)
    p = 1 if theory == "aeppli" else model.n - 1
    if args.cls == "omega":
        base = g.omega
    elif args.cls == "omega-power":
        base = coh.harmonic_part_of_omega_power(g)
    else:
        base = alg.form_from_document(fixtures.load_document(args.cls), model.n)
    if base.bidegree != (p, p):
        raise PreconditionError(f"class representative must have bidegree ({p},{p})")
    return coh.class_of(coh.cohomology_space(g, theory, p, p), args.scale * base)


def _bless_golden(report: dict, model_name: str, command: str) -> None:
    """Write the report as the golden file of this model and command."""
    path = fixtures.golden_path(model_name, command)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(emit(report, "json") + "\n", encoding="utf-8")
    print(f"blessed golden file {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    model = _load_model(args)
    report = alg.validate_model(model).as_dict()
    report["model"] = model.name
    report["n"] = model.n
    print(emit(report, args.format))
    return EXIT_OK if report["d_squared_zero"] else EXIT_VALIDATION  # integrable by construction


def cmd_cohomology(args) -> int:
    model = _load_model(args)
    g = _load_metric(model, args)
    n = model.n
    bidegrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    spaces = [(theory, p, q) for theory in ("bc", "aeppli", "dolbeault") for p, q in bidegrees]
    spaces += [("derham", k, None) for k in range(2 * n + 1)]
    table = []
    for theory, p, q in spaces:
        space = coh.cohomology_space(g, theory, p, q)
        # cohomology_space raises CrossCheckError unless the two routes agree
        table.append(
            {
                "theory": theory,
                "p": p,
                "q": q,
                "dim": space.dimension,
                "quotient_dim": space.dimension,
                "harmonic_dim": space.dimension,
                "agree": True,
            }
        )
    report = {"model": model.name, "n": n, "table": table}
    if args.bless:
        _bless_golden(report, model.name, "cohomology")
    print(emit(report, args.format))
    return EXIT_OK


def cmd_classify(args) -> int:
    model = _load_model(args)
    g = _load_metric(model, args)
    result = cls_mod.classify_metric(g, strict=args.strict)
    report = {
        "model": model.name,
        "flags": result.flags(),
        "residuals": result.residuals,
        "witnesses": {k: alg.form_to_document(v) for k, v in result.witnesses.items()},
    }
    if args.bless:
        _bless_golden(report, model.name, "classify")
    print(emit(report, args.format))
    return EXIT_OK


def cmd_decompose(args) -> int:
    cls = _load_class(args, "bc")
    g = cls.space.metric
    primitive, lam = coh.lefschetz_decompose_class(g, cls)
    hyper = coh.primitive_hyperplane(g)
    report = {
        "model": g.model.name,
        "lambda": [lam.real, lam.imag],
        "primitive_part_norm": float(np.linalg.norm(primitive.coords)),
        "hyperplane_dimension": hyper.dimension,
        "space_dimension": cls.space.dimension,
        "side": coh.lambda_sign_partition(g, cls) if coh.is_real_class(cls) else "not-real",
    }
    print(emit(report, args.format))
    return EXIT_OK


def cmd_cone_skt(args) -> int:
    cls = _load_class(args, "aeppli")
    result = cones.skt_cone_feasibility(cls, seed=args.seed)
    report = {
        "model": cls.space.metric.model.name,
        "verdict": result.verdict,
        "best_min_eigenvalue": result.best_min_eigenvalue,
        "iterations": result.iterations,
        "certificate": result.certificate,
        "witness": alg.form_to_document(result.witness) if result.witness else None,
    }
    print(emit(report, args.format))
    return EXIT_OK


def cmd_cone_copsef(args) -> int:
    cls = _load_class(args, "bc")
    g = cls.space.metric
    model = g.model
    if args.probes:
        docs = json.loads(Path(args.probes).read_text(encoding="utf-8"))
        if not isinstance(docs, list):
            raise ParseError("expected a list of probe metric documents", "probes")
        probes = [
            cones.skt_probe_from_metric(
                hodge.metric_from_document(model, doc), doc.get("name", f"probe-{i}")
            )
            for i, doc in enumerate(docs)
        ]
    else:
        probes = [cones.skt_probe_from_metric(g, "metric")]
    result = cones.copsef_pairing_test(cls, probes)
    report = {
        "model": model.name,
        "verdict": result.verdict,
        "pairings": [{"probe": label, "value": value} for label, value in result.pairings],
        "violations": [{"probe": label, "value": value} for label, value in result.violations],
        "warning": result.warning,
        "note": result.note,
    }
    print(emit(report, args.format))
    return EXIT_OK


def cmd_check_lemmas(args) -> int:
    model = _load_model(args)
    g = _load_metric(model, args)
    n = model.n
    rng = np.random.default_rng(args.seed)
    report: dict = {"model": model.name, "seed": args.seed}
    failures = []

    # star intertwining of the two fourth-order Laplacians, relative to the
    # largest Laplacian entry: the residual grows with the Laplacians (as S^4)
    worst = 0.0
    lap_scale = 0.0
    for p in range(n + 1):
        for q in range(n + 1):
            star = hodge.star_matrix(g, p, q)
            lap_bc = hodge.laplacian_bc(g, p, q)
            lap_a = hodge.laplacian_a(g, n - q, n - p)
            if lap_bc.size:
                worst = max(worst, float(np.max(np.abs(star @ lap_bc - lap_a @ star))))
                lap_scale = max(lap_scale, float(np.max(np.abs(lap_bc))))
                lap_scale = max(lap_scale, float(np.max(np.abs(lap_a))))
    if lap_scale > 0:
        worst /= lap_scale
    report["star_intertwining_residual"] = worst
    if worst > hodge.TOL_EQ:
        failures.append("star_intertwining")

    # closed star formula on random primitive forms
    worst = 0.0
    count = 0
    for p in range(n + 1):
        for q in range(n + 1):
            for _ in range(4):
                v = hodge.random_primitive_form(g, p, q, rng)
                if v is None:
                    continue
                worst = max(worst, hodge.primitive_star_check(g, v))
                count += 1
    report["primitive_star_residual"] = worst
    report["primitive_star_samples"] = count
    if worst > hodge.TOL_EQ:
        failures.append("primitive_star")

    # three-space splittings
    worst = 0.0
    dims_ok = True
    for theory in ("bc", "aeppli"):
        for p in range(n + 1):
            for q in range(n + 1):
                rep = hodge.three_space_decomposition(g, theory, p, q)
                worst = max(worst, rep.orthogonality_residual)
                dims_ok = dims_ok and rep.dims_sum_ok and rep.closed_split_ok
    report["decomposition_orthogonality_residual"] = worst
    report["decomposition_dimensions_ok"] = dims_ok
    if worst > hodge.TOL_EQ or not dims_ok:
        failures.append("three_space_decomposition")

    # adjoint formula del* = -star delbar star on unimodular models
    if alg.is_unimodular(model):
        worst = 0.0
        for p in range(n):
            for q in range(n + 1):
                lhs = hodge.del_matrix(g, p, q).conj().T
                rhs = (
                    -hodge.star_matrix(g, n - q, n - p)
                    @ hodge.delbar_matrix(g, n - q, n - p - 1)
                    @ hodge.star_matrix(g, p + 1, q)
                )
                if lhs.size:
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        report["adjoint_formula_residual"] = worst
        if worst > hodge.TOL_EQ * hodge.complex_scale(g):  # entries of del* scale as S
            failures.append("adjoint_formula")

    # Aeppli harmonicity of omega wedge phi for closed primitive phi, when SKT;
    # residuals relative to |omega wedge phi| S^k, k the order of the operator
    if hodge.skt_residual(model, g.omega) <= hodge.TOL_EQ:
        worst = 0.0
        tested = 0
        s = hodge.complex_scale(g)
        order_scales = (s, s, max(s**2, s**4))  # del*, delbar*; Delta_A has orders 2 and 4
        for p, q in alg.bidegrees_of_degree(n, n - 1):
            closed, _ = hodge.closed_and_exact(g, "bc", p, q)
            constraints = np.vstack([closed, hodge.lambda_matrix(g, p, q)])
            for col in nullspace(constraints, tol=hodge.rank_cut(g, constraints, 1)).T:
                phi = hodge.from_frame(g, col, p, q)
                res = cls_mod.aeppli_harmonic_check(g, phi)
                for value, order_scale in zip(res.as_tuple(), order_scales):
                    scale = res.wedge_norm * order_scale
                    worst = max(worst, value / scale if scale > 0 else value)
                tested += 1
        report["aeppli_harmonic_residual"] = worst
        report["aeppli_harmonic_samples"] = tested
        if worst > cls_mod.TOL_AEPPLI:
            failures.append("aeppli_harmonic")
    else:
        report["aeppli_harmonic_residual"] = None
        report["aeppli_harmonic_note"] = "metric is not SKT; lemma suite skipped"

    report["failures"] = failures
    print(emit(report, args.format))
    return EXIT_OK if not failures else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser


def _checked(convert, valid, expected: str):
    """An argparse type: ``convert`` the text, exiting 2 and naming the flag unless ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_scale = _checked(float, math.isfinite, "a finite number")
_seed = _checked(int, lambda value: value >= 0, "an integer >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pluriclosed",
        description="Hodge-theoretic reports on invariant complex Lie-algebra models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, metric=True):
        p.add_argument("--model", required=True, help="fixture name or path to a model JSON")
        if metric:
            p.add_argument("--metric", help="path to a metric JSON (default: identity)")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("validate", help="structure-equation sanity report")
    common(p, metric=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="dimension table for all theories")
    common(p)
    p.add_argument("--bless", action="store_true", help="write the golden file")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("classify", help="metric taxonomy with witnesses")
    common(p)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--bless", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="primitive splitting of a BC (n-1,n-1)-class")
    common(p)
    p.add_argument("--class", dest="cls", default="omega-power",
                   help="'omega-power' (harmonic part of omega^{n-1}/(n-1)!) or a form JSON path")
    p.add_argument("--scale", type=_scale, default=1.0)
    p.set_defaults(func=cmd_decompose)

    cone = sub.add_parser("cone", help="cone feasibility and pairing tests")
    cone_sub = cone.add_subparsers(dest="cone_command", required=True)

    p = cone_sub.add_parser("skt", help="SKT membership of an Aeppli (1,1)-class")
    common(p)
    p.add_argument("--class", dest="cls", default="omega", help="'omega' or a form JSON path")
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_cone_skt)

    p = cone_sub.add_parser("copsef", help="pairing test against SKT probes")
    common(p)
    p.add_argument("--class", dest="cls", default="omega-power")
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("--probes", help="path to a JSON list of probe metric documents")
    p.set_defaults(func=cmd_cone_copsef)

    p = sub.add_parser("check-lemmas", help="run the pointwise-identity suites")
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_check_lemmas)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (json.JSONDecodeError, FileNotFoundError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CrossCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (PreconditionError, MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
