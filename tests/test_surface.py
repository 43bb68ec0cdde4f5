"""``src/`` keeps only what the program runs.

Every top-level function and class of ``hookkron``, and every method but a
dunder, must be named somewhere in the package: called, referenced as an
attribute, or imported (which covers the public API that ``__init__``
re-exports).  The other ways in are to be an entry point that
``bench/tracer.py`` wraps by name, or one of the public accessors below.  A
helper that only the tests call belongs in ``tests/util.py``.
"""

import ast
from pathlib import Path

from test_bench_hooks import load_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "hookkron"

# how a caller reads the public table and picture, though src/ itself never does
ACCESSORS = {"hookkron.oracle.CharacterTable.chi", "hookkron.pictures.Picture.inverse"}


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
    methods = {(module, f"{cls}.{method}") for module, cls, method, _ in tracer.METHODS}
    return set(entries) | {entry[:2] for entry in tracer.METHODS} | methods


def definitions(tree):
    """(qualified name, bare name) of each top-level definition and each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                name = getattr(method, "name", "")
                if isinstance(method, ast.FunctionDef) and not name.startswith("__"):
                    yield f"{node.name}.{name}", name


def unused_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used, traced = used_names(trees), traced_names()
    return [
        f"hookkron.{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name in definitions(tree)
        if name not in used
        and (module, qualname) not in traced
        and f"hookkron.{module}.{qualname}" not in ACCESSORS
    ]


def test_every_definition_is_used_in_src_or_traced():
    unused = unused_definitions()
    assert not unused, "named nowhere in src/ and not traced: " + ", ".join(unused)
