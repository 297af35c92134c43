"""JSON artifacts are read and written in ``measures`` only.

Every JSON file the package reads or writes - trajectory metadata, model
checkpoints, CLI config files and their echoes, evaluate reports and study
reports - goes through ``measures.read_json`` or ``measures.write_json``.
The reader names the file on text that is not JSON and on JSON that is not
an object, and the writer fixes one layout (indent 2, a final newline).  A
``json.load`` or ``json.dump`` anywhere else could skip both.  This check
reads the source and lists each such call by module and enclosing function;
it fails unless the two helpers are the only sites, one call each.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "jkoflow").glob("*.py"))

ALLOWED = {
    ("measures", "read_json", "load"): 1,
    ("measures", "write_json", "dump"): 1,
}


class _JsonCalls(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module = module
        self.scope = ["<module>"]
        self.found: Counter = Counter()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("load", "dump")
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            self.found[(self.module, self.scope[-1], func.attr)] += 1
        self.generic_visit(node)


def json_file_calls(paths=PACKAGE) -> dict[tuple[str, str, str], int]:
    found: Counter = Counter()
    for path in paths:
        visitor = _JsonCalls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return dict(found)


def test_json_files_go_through_the_measures_helpers():
    assert json_file_calls() == ALLOWED


def test_the_check_sees_nested_calls_and_leaves_string_codecs(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import json\n"
        "top = json.load(open('a'))\n"
        "def outer(fh):\n"
        "    def inner(x):\n"
        "        json.dump(x, fh)\n"
        "        return json.dumps(x)\n"
        "    return json.loads(fh.read()), inner(json.load(fh))\n"
    )
    assert json_file_calls([source]) == {
        ("sample", "<module>", "load"): 1,
        ("sample", "outer", "load"): 1,
        ("sample", "inner", "dump"): 1,
    }
