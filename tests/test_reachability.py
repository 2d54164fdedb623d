"""Every top-level function and class of the package, and every method of a
top-level class, is reached from somewhere.

A top-level `def` or `class` in `src/uqbench/*.py`, or a `def` directly in
the body of such a class, passes when its name is used as an identifier (a
name, an attribute or an imported name) in `src/`, `tests/` or `scripts/`,
outside its own body.  Docstrings and comments do not count, and neither
does recursion.  Dunder methods are exempt: Python calls them.  Code that
nothing reaches is deleted, not kept "just in case".
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreached_in(name: str, tree: ast.Module, elsewhere: set[str]) -> list[str]:
    """The definitions of one module that neither `elsewhere` (the names
    used in every other file) nor the rest of the module reaches."""
    def reached(node: ast.AST) -> bool:
        return node.name in elsewhere or node.name in _names(tree, skip=node)

    out = []
    for node in tree.body:
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue
        if not reached(node):
            out.append(f"{name}:{node.lineno} {node.name}")
        if not isinstance(node, ast.ClassDef):
            continue
        for meth in node.body:
            if (isinstance(meth, FUNCTIONS) and not meth.name.startswith("__")
                    and not reached(meth)):
                out.append(f"{name}:{meth.lineno} {node.name}.{meth.name}")
    return out


def unreached() -> list[str]:
    trees = _parsed()
    everywhere = {p: _names(t) for p, t in trees.items()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(v for p, v in everywhere.items() if p != path))
        out += _unreached_in(path.name, trees[path], elsewhere)
    return out


def test_every_top_level_definition_is_reached():
    assert unreached() == []


def test_guard_sees_an_unreached_definition():
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1)\n\n"
                     "def used():\n    return 1\n\nx = used()\n")
    lonely, used = tree.body[0], tree.body[1]
    assert "lonely" not in _names(tree, skip=lonely)
    assert "used" in _names(tree, skip=used)
    assert _unreached_in("m.py", tree, set()) == ["m.py:1 lonely"]
    methods = ast.parse(
        "class C:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def lonely(self):\n"
        "        \"\"\"Calls lonely.\"\"\"\n        return self.lonely()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def called_elsewhere(self):\n        return 2\n\n"
        "x = C().used()\n")
    assert _unreached_in("m.py", methods, {"called_elsewhere"}) == \
        ["m.py:5 C.lonely"]
