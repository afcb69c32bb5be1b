"""Mutation check of the `src/` lines that differ from a base commit.

    python tests/mutants.py BASE

Each mutant changes one operator or constant on a line that `git diff BASE`
names: a comparison swapped (`<` and `<=`, `>` and `>=`, `==` and `!=`,
`is` and `is not`, `in` and `not in`), `+` and `-`, `|` and `^`, `<<` and
`>>`, or an integer constant plus one. The tree is copied to a temporary
directory, where tier-1 must first pass unmutated; then each mutant runs
tier-1 there with `-x`, one at a time. The working tree is never edited. A
mutant is killed when tier-1 fails. The report lists every mutant, killed or
surviving, with its line, and the exit status is 1 if any survived.
Standard library only, and not a test module, so pytest does not collect it.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
         ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
         ast.BitOr: ("|", "^"), ast.BitXor: ("^", "|"), ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<")}


def changed_lines(base: str) -> dict[str, set[int]]:
    """Each `src/` file's line numbers that `git diff base` adds or changes."""
    diff = subprocess.run(["git", "diff", "-U0", "--no-renames", base, "--", "src"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout
    lines, path = {}, None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            path = row[6:] if row.startswith("+++ b/") else None
        elif row.startswith("@@") and path and path.endswith(".py"):
            start, count = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))?", row).groups()
            lines.setdefault(path, set()).update(range(int(start), int(start) + int(count or 1)))
    return lines


def mutants(source: str, lines: set[int]):
    """(line, start, end, replacement, description) of each mutant on `lines`."""
    rows = source.split("\n")
    starts = [0] + [m.end() for m in re.finditer("\n", source)]

    def offset(line, col):  # `ast` counts columns in UTF-8 bytes
        return starts[line - 1] + len(rows[line - 1].encode()[:col].decode())

    def operator(op, left, right):
        old, new = SWAPS[type(op)]
        lo, hi = offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset)
        found = re.search(rf"(?<![\w<>=!]){re.escape(old)}(?![\w<>=])", source[lo:hi])
        if found:
            at = lo + found.start()
            yield source.count("\n", 0, at) + 1, at, at + len(old), new, f"`{old}` -> `{new}`"

    for node in ast.walk(ast.parse(source)):
        made = []
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            made = operator(node.op, node.left, node.right)
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            made = operator(node.op, node.target, node.value)
        elif isinstance(node, ast.Compare):
            made = (m for op, l, r in zip(node.ops, [node.left, *node.comparators], node.comparators)
                     for m in operator(op, l, r))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo, hi = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
            made = [(node.lineno, lo, hi, str(node.value + 1), f"`{source[lo:hi]}` -> `{node.value + 1}`")]
        yield from (m for m in made if m[0] in lines)


def tier1(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(run, cwd=tree, env=env, capture_output=True).returncode == 0


def main(base: str) -> int:
    began = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".perfbench"))
        if not tier1(tree):
            sys.exit("tier-1 fails on the unmutated copy; no mutant can be judged")
        survivors = 0
        for path, lines in sorted(changed_lines(base).items()):
            source = (ROOT / path).read_text()
            for line, lo, hi, new, what in sorted(mutants(source, lines)):
                (tree / path).write_text(source[:lo] + new + source[hi:])
                killed = not tier1(tree)
                survivors += not killed
                column = lo - source.rfind("\n", 0, lo)
                print(f"{'killed' if killed else 'SURVIVED'}  {path}:{line}:{column}  {what}", flush=True)
            (tree / path).write_text(source)
    print(f"{survivors} surviving; {time.monotonic() - began:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]) if len(sys.argv) == 2 else __doc__)
