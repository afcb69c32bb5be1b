"""Every name a `src/` module imports is used in that module, and comes from
the standard library, numpy or `floodgate` itself.

A deletion that leaves its import behind (an `os`, a `dataclass`, a removed
class) fails here, and so does an import of a package `pyproject.toml` does
not depend on. The checks read each module's syntax tree with `ast`, so they
need no linter: a name counts as used when it is read anywhere in the
module, or appears in a string annotation such as `-> "Dataset"`.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "floodgate"
# numpy is the one dependency in `pyproject.toml`.
ALLOWED_PACKAGES = sys.stdlib_module_names | {"numpy", "floodgate"}


def imported_names(tree):
    """The name each import binds, with its line; `from __future__` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    """The annotation of every argument, return value and annotated assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_import(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{module}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse('import os\nfrom typing import Iterator\nfrom x import y as z, w\ndef f(a: "w") -> z:\n    "os"\n')
    assert sorted(name for name, _ in imported_names(tree) if name not in used_names(tree)) == ["Iterator", "os"]


def imported_packages(tree):
    """The top-level package of each absolute import, with its line; a relative import is the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_imports_only_the_standard_library_numpy_and_the_package(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    outside = [f"{module}:{line}: {name}" for name, line in imported_packages(tree) if name not in ALLOWED_PACKAGES]
    assert outside == []


def test_an_import_from_outside_is_found():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path, numpy as np\nimport scipy.stats\n"
        "from . import cli\nfrom .dataset import Dataset\nfrom floodgate.mlp import train\n"
        "def f():\n    from pandas import DataFrame\n"
    )
    found = sorted(imported_packages(tree), key=lambda pair: pair[1])
    assert [name for name, _ in found if name not in ALLOWED_PACKAGES] == ["scipy", "pandas"]
