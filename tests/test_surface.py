"""``src/`` keeps only what the program runs.

Every top-level function and class of ``hookkron`` must be named somewhere in
the package: called, referenced as an attribute, or imported (which covers
the public API that ``__init__`` re-exports).  The one other way in is to be
an entry point that ``bench/tracer.py`` wraps by name.  A helper that only the
tests call belongs in ``tests/util.py``.
"""

import ast
from pathlib import Path

from test_bench_hooks import load_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "hookkron"


def used_names(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def traced_names() -> set[tuple[str, str]]:
    tracer = load_tracer()
    entries = [entry[:2] for entry in tracer.FUNCTIONS] + [tracer.ORDERED_MAP[:2]]
    return set(entries) | {entry[:2] for entry in tracer.METHODS}


def unused_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used, traced = used_names(trees), traced_names()
    return [
        f"hookkron.{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
        and (module, node.name) not in traced
    ]


def test_every_definition_is_used_in_src_or_traced():
    unused = unused_definitions()
    assert not unused, "named nowhere in src/ and not traced: " + ", ".join(unused)
