""""acc += c * x" has one copy: `sparse.add_scaled`.

A loop `for k, v in ...:` whose whole body is one call `add_term(acc, k, e)`,
with `v` used in `e`, adds a scaled combination term by term without
reshaping the key, which is what `add_scaled` does.  Outside `sparse.py`
such a loop is written as an `add_scaled` call instead.  Loops that build a
new key from k (tensor pairs, module labels) are not this job and pass.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uqbench"
SEARCHED = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "sparse.py"]


def _is_scaled_add(loop: ast.For) -> bool:
    """Whether `loop` is `for k, v in ...: add_term(acc, k, e)` with v in e."""
    target = loop.target
    if (len(loop.body) != 1 or not isinstance(target, ast.Tuple)
            or len(target.elts) != 2
            or not all(isinstance(t, ast.Name) for t in target.elts)):
        return False
    k, v = (t.id for t in target.elts)
    stmt = loop.body[0]
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    call = stmt.value
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "add_term" or len(call.args) != 3:
        return False
    key, value = call.args[1], call.args[2]
    return (isinstance(key, ast.Name) and key.id == k
            and any(isinstance(n, ast.Name) and n.id == v
                    for n in ast.walk(value)))


def scaled_adds(tree: ast.AST) -> list[int]:
    """Line numbers of the hand-written scaled-add loops under `tree`."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.For) and _is_scaled_add(n))


def test_no_hand_written_scaled_add():
    found = [f"{p.relative_to(ROOT)}:{line}" for p in SEARCHED
             for line in scaled_adds(ast.parse(p.read_text()))]
    assert found == []


def test_guard_flags_a_scaled_add_and_passes_a_reshaped_key():
    flagged = ast.parse("for m, c in x.items():\n"
                        "    add_term(acc, m, -s * c)\n")
    reshaped = ast.parse("for t, c in x.items():\n"
                         "    add_term(acc, (t, u), s * c)\n")
    assert scaled_adds(flagged) == [1]
    assert scaled_adds(reshaped) == []
