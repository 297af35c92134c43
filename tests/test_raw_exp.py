"""Raw ``np.exp`` calls in ``src/jkoflow`` are the allowlisted ones only.

numpy's vector exp leaves its fast path for arguments below about -707, and
costs 15-150x more there.  ``measures.exp_flushed`` keeps such arguments off
that path; the pair-mean kernel of ``features.jacobian_features`` goes through
it, since spread populations put most of its entries there.  Every other exp
stays raw only with a stated reason, so a new exp on a kernel-like argument
has to be looked at.  This check reads the source and lists each raw
``np.exp`` (or ``numpy.exp``) call by module and enclosing function.  It
fails when that list differs from the allowlist below, in either direction.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "jkoflow").glob("*.py"))

# (module, enclosing function): raw np.exp calls there, each with its reason.
ALLOWED = {
    # the helper itself: its fast path and its clamped path
    ("measures", "exp_flushed"): 2,
    # nn activations take exp(-|z|) of a preactivation, which stays far above
    # the floor; a pre-check would cost every loss call
    ("nn", "softplus"): 1,
    ("nn", "_exp_neg_abs"): 1,
    ("nn", "sigmoid"): 1,
    # the holder_table envelope exp(|1 - r / pi|) is >= 1
    ("functionals", "_holder_table"): 1,
    ("functionals", "_holder_table_grad"): 1,
    # double_exp takes exp(-|x -+ 3|^k / 20); the floor needs |x -+ 3| > 119
    ("functionals", "_double_exp"): 2,
    ("functionals", "_double_exp_grad"): 2,
    # Sinkhorn and GMM log-sum-exps, the Sinkhorn plan and the GMM
    # responsibilities: on ragged_ot no Sinkhorn argument reached the floor,
    # and on general_mlp 1.7% of the GMM's did, in arrays of ~1,500 entries,
    # where the flush measured no gain in fit_s
    ("measures", "logsumexp"): 1,
    ("ot", "solve_sinkhorn"): 1,
    ("density", "score"): 1,
    ("density", "fit_gmm"): 1,
}


class _RawExpCalls(ast.NodeVisitor):
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
            and func.attr == "exp"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            self.found[(self.module, self.scope[-1])] += 1
        self.generic_visit(node)


def raw_exp_calls(paths=PACKAGE) -> dict[tuple[str, str], int]:
    found: Counter = Counter()
    for path in paths:
        visitor = _RawExpCalls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return dict(found)


def test_only_the_allowlisted_exp_calls_bypass_the_flush():
    assert raw_exp_calls() == ALLOWED


def test_the_check_sees_nested_and_aliased_calls(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import numpy as np\n"
        "import numpy\n"
        "top = np.exp(1.0)\n"
        "def outer(x):\n"
        "    def inner(y):\n"
        "        return numpy.exp(y) + np.expm1(y)\n"
        "    return np.exp(np.exp(x)) + inner(x)\n"
    )
    assert raw_exp_calls([source]) == {
        ("sample", "<module>"): 1,
        ("sample", "outer"): 2,
        ("sample", "inner"): 1,
    }
