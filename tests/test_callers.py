"""Every function and method defined in `src/` has a caller.

A module-level function or a non-dunder method counts as called when its
name is read, or taken as an attribute, somewhere in `src/` outside its own
body. A definition that only a caller outside `src/` keeps is listed in
OUTSIDE_CALLERS with that caller. The list must be exact: a listed name that
is gone, or that `src/` calls again, fails too, so the list shrinks as those
callers move their needs out of `src/`. Like `test_imports.py`, the check
reads each module's syntax tree with `ast`.

Every name that a module-level assignment in `src/` binds is read somewhere
in `src/` too, as a name or an attribute; UNREAD_CONSTANTS lists, exactly,
those kept without a reader.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "floodgate"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# module.qualified name -> the caller outside `src/` that keeps it.
OUTSIDE_CALLERS = {
    "dataset.Dataset.from_records": "perfbench/tracing.py, which patches it",
    "pcapio.decode_frame": "perfbench/test_perfbench.py",
    "pcapio.read_frames": "perfbench/pipeline.py, run.py and workloads.py",
    "pcapio.write_pcap": "perfbench/test_perfbench.py",
    "synth.build_tcp_frame": "perfbench/test_perfbench.py",
    "synth.build_udp_frame": "perfbench/test_perfbench.py",
}

# module.name -> why a constant that `src/` never reads is kept.
UNREAD_CONSTANTS = {
    "features.FEATURE_NAMES": "the schema's column names, which tests and CSV readers index by",
    "features.SCHEMA_VERSION": "the model file is to record it (ROADMAP item 5)",
}


def definitions(tree):
    """Each module-level function and non-dunder method: (qualified name, name, node)."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def references(node):
    """How often each name is read or taken as an attribute in `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled(trees):
    """`module.qualified name` of each definition in `trees` that nothing outside its own body refers to."""
    total = sum((references(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}.{qual}" for module, tree in trees.items()
                  for qual, name, node in definitions(tree) if total[name] == references(node)[name])


def test_every_function_in_src_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert uncalled(trees) == sorted(OUTSIDE_CALLERS)


def test_an_uncalled_function_is_found():
    source = (
        "def used(): pass\n"
        "def unused(): used()\n"
        "def recursive(): recursive()\n"
        "class C:\n"
        "    def __len__(self): return 0\n"
        "    def method(self): pass\n"
        "    def other(self): self.method()\n"
        "    def nested(self):\n"
        "        def inner(): pass\n"
    )
    tree = ast.parse(source)
    assert uncalled({"m": tree}) == ["m.C.nested", "m.C.other", "m.recursive", "m.unused"]
    assert uncalled({"m": tree, "n": ast.parse("import m\nm.unused(); m.C().other()")}) == ["m.C.nested", "m.recursive"]


def constants(tree):
    """Each name that an assignment at the top level of `tree` binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def unread(trees):
    """`module.name` of each module-level constant in `trees` that no module reads."""
    read = {n.id if isinstance(n, ast.Name) else n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return sorted({f"{module}.{name}" for module, tree in trees.items()
                   for name in constants(tree) if name not in read})


def test_every_constant_in_src_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert unread(trees) == sorted(UNREAD_CONSTANTS)


def test_an_unread_constant_is_found():
    source = (
        "A = 1\n"
        "B, (C, D) = 2, (A, 3)\n"
        "E: int = 4\n"
        "F = 5\n"
        "F += 1\n"
        "for G in (): pass\n"
        "def f(): H = B; return H\n"
        "class K:\n"
        "    I = D\n"
    )
    tree = ast.parse(source)
    assert unread({"m": tree}) == ["m.C", "m.E", "m.F"]
    assert unread({"m": tree, "n": ast.parse("import m\nprint(m.C, E)")}) == ["m.F"]
