"""Every top-level function and class of the package, and every method of a
top-level class, is run by the package; every top-level definition of the
test oracles is run by a test.

A top-level `def` or `class` in `src/uqbench/*.py`, or a `def` directly in
the body of such a class, is reached when its name is used as an identifier
(a name, an attribute or an imported name) in `src/`, outside its own
body.  Docstrings and comments do not count, and neither does recursion,
and neither do the re-exports of `src/uqbench/__init__.py`: an exported
name is reached only where it is used.  Dunder methods are exempt:
Python calls them.  Tests do not reach: a reference computation that only
tests run lives in `tests/oracles.py`, whose definitions are reached in the
same sense from the other test modules.  Code that nothing reaches is
deleted, not kept "just in case".
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uqbench"
SEARCHED = [ROOT / "src"]
EXPORTS = PACKAGE / "__init__.py"
ORACLES = ROOT / "tests" / "oracles.py"


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
    """The definitions of one module, as "module.name" or
    "module.Class.method", that neither `elsewhere` (the names used in the
    other searched files) nor the rest of the module reaches."""
    def reached(node: ast.AST) -> bool:
        return node.name in elsewhere or node.name in _names(tree, skip=node)

    module = name.removesuffix(".py")
    out = []
    for node in tree.body:
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue
        if not reached(node):
            out.append(f"{module}.{node.name}")
        if not isinstance(node, ast.ClassDef):
            continue
        for meth in node.body:
            if (isinstance(meth, FUNCTIONS) and not meth.name.startswith("__")
                    and not reached(meth)):
                out.append(f"{module}.{node.name}.{meth.name}")
    return out


def unreached(trees: dict[Path, ast.Module] | None = None) -> list[str]:
    """The unreached definitions of the package modules among `trees`
    (default: the parsed files of `SEARCHED`)."""
    trees = _parsed() if trees is None else trees
    everywhere = {p: _names(t) for p, t in trees.items() if p != EXPORTS}
    out = []
    for path in sorted(p for p in trees if p.parent == PACKAGE):
        elsewhere = set().union(*(v for p, v in everywhere.items() if p != path))
        out += _unreached_in(path.name, trees[path], elsewhere)
    return out


def test_every_top_level_definition_is_reached():
    assert unreached() == []


def test_every_oracle_is_used_by_another_test_module():
    others = set().union(*(_names(ast.parse(p.read_text()))
                           for p in ORACLES.parent.glob("test_*.py")))
    tree = ast.parse(ORACLES.read_text())
    assert _unreached_in(ORACLES.name, tree, others) == []


def test_guard_sees_an_unreached_definition():
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1)\n\n"
                     "def used():\n    return 1\n\nx = used()\n")
    lonely, used = tree.body[0], tree.body[1]
    assert "lonely" not in _names(tree, skip=lonely)
    assert "used" in _names(tree, skip=used)
    assert _unreached_in("m.py", tree, set()) == ["m.lonely"]
    methods = ast.parse(
        "class C:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def lonely(self):\n"
        "        \"\"\"Calls lonely.\"\"\"\n        return self.lonely()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def called_elsewhere(self):\n        return 2\n\n"
        "x = C().used()\n")
    assert _unreached_in("m.py", methods, {"called_elsewhere"}) == ["m.C.lonely"]


def test_guard_does_not_count_a_re_export():
    trees = {
        EXPORTS: ast.parse("from .m import exported, used\n"
                           "__all__ = ['exported', 'used']\n"),
        PACKAGE / "m.py": ast.parse("def exported():\n    return 1\n\n"
                                    "def used():\n    return 2\n"),
        PACKAGE / "user.py": ast.parse("from uqbench.m import used\n"
                                       "used()\n"),
    }
    assert unreached(trees) == ["m.exported"]
