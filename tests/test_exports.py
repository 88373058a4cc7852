"""Every public name the package declares, and every one its docs name, resolves.

A module's ``__all__`` and the package's re-exports are the API a caller
sees.  A deletion that left either one naming a missing object would fail
only at a caller's first use (``from pluriclosed.hodge import *`` raises
then), so both are resolved here, and a module's public definitions must
all be in its ``__all__``.  The README and the docstrings name API
as ``module.name``; a deletion that left one of those behind would mislead
only a reader, so they are resolved too.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pluriclosed

MODULES = sorted(info.name for info in pkgutil.iter_modules(pluriclosed.__path__))
PACKAGE = Path(pluriclosed.__file__).parent
ALIASES = {"alg": "algebra", "coh": "cohomology"}
# a module or its alias, then a dotted name; not inside a longer name or a path
REFERENCE = re.compile(
    r"(?<![\w./])(?:pluriclosed\.)?(algebra|alg|hodge|linalg|cohomology|coh|cones|classify|cli)"
    r"((?:\.[A-Za-z_]\w*)+)"
)


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


def test_every_public_definition_is_in_its_module_all():
    # a public top-level def or class left out of __all__ is API that
    # ``import *`` and the export checks above never see
    unlisted, modules = [], 0
    for name in MODULES:
        module = importlib.import_module(f"pluriclosed.{name}")
        if not hasattr(module, "__all__"):
            continue
        modules += 1
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        unlisted += [
            f"pluriclosed.{name}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in module.__all__
        ]
    assert modules >= 5
    assert not unlisted, unlisted


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


def _docs() -> list[tuple[str, str]]:
    """(where, text): the README and every module, class and function docstring of the package."""
    docs = [("README.md", (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8"))]
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                text = ast.get_docstring(node, clean=False)
                if text:
                    docs.append((f"{path.name}:{getattr(node, 'name', '<module>')}", text))
    return docs


def test_docs_name_only_existing_api():
    references, missing = 0, []
    for where, text in _docs():
        for module, attrs in REFERENCE.findall(text):
            references += 1
            target = importlib.import_module(f"pluriclosed.{ALIASES.get(module, module)}")
            for attr in attrs[1:].split("."):
                target = getattr(target, attr, None)
            if target is None:
                missing.append(f"{where}: {module}{attrs}")
    assert references >= 40  # the pattern still finds the references the docs hold
    assert not missing, missing
