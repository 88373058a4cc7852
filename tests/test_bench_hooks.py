"""The benchmark's traced run wraps package functions by name.

``bench/spans.py`` lists them in ``LAYERS``; a renamed or deleted function
would crash the traced run, so every listed name must stay an attribute of
its module.  ``bench/`` itself is not collected: its module is imported
from a path entry added for this test only.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_layer_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)  # a generic name: keep it out of other tests
    missing = []
    for layer, (module, names) in spans.LAYERS.items():
        home = importlib.import_module(f"pluriclosed.{module}")
        missing += [
            f"{layer}: pluriclosed.{module}.{name}"
            for name in names
            if not callable(getattr(home, name, None))
        ]
    assert not missing, missing
