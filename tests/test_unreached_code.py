"""Every definition in ``src/jkoflow`` has a caller outside the tests.

A top-level function, class, method or module constant counts as reached
when its name appears anywhere in ``src/jkoflow/*.py`` or ``perfbench/*.py``
other than its own definition, or when ``jkoflow.__all__`` exports it.  The
check is by name only: it reads the source as text, so a method that shares
its name with another definition (``to_json`` on each model) or with a word
in a comment or docstring escapes it.  Dunder names are called by Python
itself and are not listed.  Reference code that only the tests need lives
in ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import jkoflow

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "jkoflow").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Reached only from tests, on purpose.
ALLOWED = {
    # the ot solve counter's reset; it goes when a per-fit record replaces
    # the module-global counter
    "reset_solve_count",
}


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unreached_names() -> set[str]:
    text = "\n".join(path.read_text() for path in PACKAGE + PERFBENCH)
    defined = {name for path in PACKAGE for name in _definitions(ast.parse(path.read_text()))}
    return {
        name
        for name in defined - set(jkoflow.__all__)
        if len(re.findall(rf"(?<!\w){re.escape(name)}(?!\w)", text)) <= 1
    }


def test_only_the_allowlisted_definitions_lack_a_caller():
    assert unreached_names() == ALLOWED
