"""Every `raise` in `src/` follows the rule in the `errors.py` docstring.

Bad input raises `FloodgateError` (or its subclass `NonFiniteLoss`), a
caller's bug raises `ValueError`, and the command line also raises
argparse's `ArgumentTypeError` and `SystemExit`. A `raise` of any other name
fails here, and so does a bare re-raise, which passes on whatever type it
caught. So does a third class in `errors.py`. Like `test_imports.py`, the
check reads each module's syntax tree with `ast`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "floodgate"
ALLOWED = {"FloodgateError", "NonFiniteLoss", "ValueError", "argparse.ArgumentTypeError", "SystemExit"}


def raised_names(tree):
    """The name each `raise` raises (`x` of `raise x` or `raise x(...)`), with its line; None for a bare re-raise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield (None if exc is None else ast.unparse(exc)), node.lineno


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_raise_follows_the_rule(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    wrong = [f"{module}:{line}: {name or 'bare raise'}" for name, line in raised_names(tree) if name not in ALLOWED]
    assert wrong == []


def test_errors_defines_exactly_two_classes():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ["FloodgateError", "NonFiniteLoss"]


def test_a_raise_outside_the_rule_is_found():
    tree = ast.parse(
        "raise FloodgateError('x') from None\n"
        "try:\n    pass\nexcept OSError:\n    raise\n"
        "raise KeyError\n"
        "raise errors.BadInput('y')\n"
        "raise argparse.ArgumentTypeError('z')\n"
    )
    found = sorted(raised_names(tree), key=lambda pair: pair[1])
    assert [name for name, _ in found if name not in ALLOWED] == [None, "KeyError", "errors.BadInput"]
