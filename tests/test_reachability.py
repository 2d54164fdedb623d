"""Every top-level function and class of the package is reached from somewhere.

A top-level `def` or `class` in `src/uqbench/*.py` passes when its name is
used as an identifier (a name, an attribute or an imported name) in `src/`,
`tests/` or `scripts/`, outside its own body.  Docstrings and comments do not
count, and neither does recursion.  Code that nothing reaches is deleted, not
kept "just in case".
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uqbench"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "scripts"]


def _names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers used under node, leaving out the subtree `skip`."""
    out: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(n))
    return out


def _parsed() -> dict[Path, ast.Module]:
    files = sorted(p for base in SEARCHED for p in base.rglob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files}


def unreached() -> list[str]:
    trees = _parsed()
    everywhere = {p: _names(t) for p, t in trees.items()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        elsewhere = set().union(*(v for p, v in everywhere.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name in elsewhere or node.name in _names(tree, skip=node):
                continue
            out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_top_level_definition_is_reached():
    assert unreached() == []


def test_guard_sees_an_unreached_definition():
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1)\n\n"
                     "def used():\n    return 1\n\nx = used()\n")
    lonely, used = tree.body[0], tree.body[1]
    assert "lonely" not in _names(tree, skip=lonely)
    assert "used" in _names(tree, skip=used)
