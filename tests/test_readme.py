"""The README's paper-to-code table names only what exists.

Every function it names is an attribute of its ``hookkron`` module, every
test id is a test function (or a class's test method) in its file under
``tests/``, and every ``hookkron ...`` command exits 0 with some output.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from hookkron.cli import main

ROOT = Path(__file__).resolve().parents[1]
HEADING = "## From the paper to the code"


def table_rows() -> list[list[str]]:
    """The table's body rows, each a list of its four cells."""
    text = ROOT.joinpath("README.md").read_text()
    section = text.split(HEADING, 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    assert rows and all(len(row) == 4 for row in rows), rows
    return rows


def quoted(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_the_table_covers_every_object_of_the_paper():
    objects = ("Skew shapes", "Pictures", "Remmel–Whitney", "Row insertion and deletion",
               "The balanced cocorner", "E and F", "The hook theorem", "The exterior-power theorem")
    rows = table_rows()
    assert len(rows) == len(objects)
    for row, start in zip(rows, objects):
        assert row[0].startswith(start), row[0]
        assert quoted(row[1]) and quoted(row[2]), row[0]


@pytest.mark.parametrize("name", [name for row in table_rows() for name in quoted(row[1])])
def test_every_named_function_exists(name):
    module, attribute = name.split(".")
    assert callable(getattr(importlib.import_module(f"hookkron.{module}"), attribute))


@pytest.mark.parametrize("test_id", [name for row in table_rows() for name in quoted(row[2])])
def test_every_named_test_exists(test_id):
    path, *names = test_id.split("::")
    body = ast.parse(ROOT.joinpath("tests", path).read_text()).body
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name), None)
        assert node is not None, f"{test_id}: no {name}"
        body = getattr(node, "body", [])
    assert isinstance(node, ast.FunctionDef) and node.name.startswith("test_"), test_id


@pytest.mark.parametrize(
    "command",
    [name for row in table_rows() for name in quoted(row[3]) if name.startswith("hookkron ")],
)
def test_every_named_command_runs(command, capsys):
    assert main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err
