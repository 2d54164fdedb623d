"""The unit rule of `*` has one copy: `ScalarQ.__mul__`.

A product with a factor equal to one returns the other factor itself, inside
`ScalarQ.__mul__`.  A caller that tests `is_one()` to skip a product repeats
that rule.  An `if` statement or conditional expression whose test calls
`is_one` and whose branches hold a `*` is such a skip.  Outside `scalars.py`
it is written as the plain product.  A test of `is_one()` that chooses no
product (`UqContext.is_reduced`) is not this job and passes.
"""

import ast
import inspect
import textwrap
from pathlib import Path

from uqbench.uq import UqContext

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uqbench"
SEARCHED = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "scalars.py"]


def _calls_is_one(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Call)
               and (getattr(n.func, "attr", None) == "is_one"
                    or getattr(n.func, "id", None) == "is_one")
               for n in ast.walk(node))


def _multiplies(nodes) -> bool:
    return any((isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult))
               or (isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mult))
               for node in nodes for n in ast.walk(node))


def _is_unit_skip(node: ast.AST) -> bool:
    """Whether `node` is an `if` or `a if t else b` that tests `is_one` and
    forms a product in one of its branches."""
    if isinstance(node, ast.If):
        branches = [*node.body, *node.orelse]
    elif isinstance(node, ast.IfExp):
        branches = [node.body, node.orelse]
    else:
        return False
    return _calls_is_one(node.test) and _multiplies(branches)


def unit_skips(tree: ast.AST) -> list[int]:
    """Line numbers of the products skipped on `is_one()` under `tree`."""
    return sorted(n.lineno for n in ast.walk(tree) if _is_unit_skip(n))


def test_no_product_skipped_on_is_one():
    found = [f"{p.relative_to(ROOT)}:{line}" for p in SEARCHED
             for line in unit_skips(ast.parse(p.read_text()))]
    assert found == []


def test_guard_flags_a_unit_skip_and_passes_is_reduced():
    expression = ast.parse("x = a if b.is_one() else b if a.is_one() else a * b\n")
    statement = ast.parse("if c.is_one():\n"
                          "    acc = x\n"
                          "else:\n"
                          "    acc = c * x\n")
    augmented = ast.parse("if not c.is_one():\n"
                          "    x *= c\n")
    assert unit_skips(expression) == [1, 1]
    assert unit_skips(statement) == [1]
    assert unit_skips(augmented) == [1]
    source = textwrap.dedent(inspect.getsource(UqContext.is_reduced))
    assert "is_one()" in source
    assert unit_skips(ast.parse(source)) == []
