"""Hooks of the benchmark into the package.

The traced run wraps package functions by name: ``bench/spans.py`` lists
them in ``LAYERS``, and a renamed or deleted function would crash it, so
every listed name must stay an attribute of its module.  The ``commands``
workload runs a mix of CLI calls, each with the exit code it must return.
``bench/`` itself is not collected: its modules are imported from a path
entry added for these tests only.
"""

import contextlib
import importlib
import io
import json

from pluriclosed import cli
from pluriclosed import fixtures as fx


def test_every_traced_layer_function_exists(bench_module):
    spans = bench_module("spans")
    missing = []
    for layer, (module, names) in spans.LAYERS.items():
        home = importlib.import_module(f"pluriclosed.{module}")
        missing += [
            f"{layer}: pluriclosed.{module}.{name}"
            for name in names
            if not callable(getattr(home, name, None))
        ]
    assert not missing, missing


def test_benchmark_command_mix_keeps_its_exit_codes(bench_module, tmp_path):
    inputs = bench_module("inputs")
    docs = {name: fx.load_document(name) for name in fx.available_models()}

    def write_document(doc: dict) -> str:
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    wrong = []
    for case in inputs.command_cases(1, docs, write_document):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(case.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        if code != case.expected_exit:
            wrong.append(f"{' '.join(case.argv)}: exit {code}, expected {case.expected_exit}")
    assert not wrong, wrong
