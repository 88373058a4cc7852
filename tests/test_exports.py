"""Every public name the package declares resolves.

A module's ``__all__`` and the package's re-exports are the API a caller
sees.  A deletion that left either one naming a missing object would fail
only at a caller's first use (``from pluriclosed.hodge import *`` raises
then), so both are resolved here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pluriclosed

MODULES = sorted(info.name for info in pkgutil.iter_modules(pluriclosed.__path__))


def test_every_module_all_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"pluriclosed.{name}")
        missing += [
            f"pluriclosed.{name}.{attr}"
            for attr in getattr(module, "__all__", ())
            if not hasattr(module, attr)
        ]
    assert not missing, missing


def test_every_package_export_is_its_module_api():
    # the re-exports of pluriclosed/__init__.py, each the object of its home
    # module and listed in that module's __all__ where the module has one
    tree = ast.parse(Path(pluriclosed.__file__).read_text(encoding="utf-8"))
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert exports
    bad = []
    for module_name, name in exports:
        home = importlib.import_module(f"pluriclosed.{module_name}")
        if getattr(pluriclosed, name, None) is not getattr(home, name, object()):
            bad.append(f"pluriclosed.{name} is not pluriclosed.{module_name}.{name}")
        elif name not in getattr(home, "__all__", (name,)):
            bad.append(f"pluriclosed.{name} is missing from pluriclosed.{module_name}.__all__")
    assert not bad, bad
