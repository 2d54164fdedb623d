"""Every top-level function and class of the package, and every method of a
top-level class, is run by the package or a script, or is a named test
oracle.

A top-level `def` or `class` in `src/uqbench/*.py`, or a `def` directly in
the body of such a class, is reached when its name is used as an identifier
(a name, an attribute or an imported name) in `src/` or `scripts/`, outside
its own body.  Docstrings and comments do not count, and neither does
recursion, and neither do the re-exports of `src/uqbench/__init__.py`: an
exported name is reached only where it is used.  Dunder methods are exempt:
Python calls them.  Tests do not reach: a definition that only tests use
must be listed in `TEST_ORACLES` with the reason it is kept, and an entry
that is reached, or names nothing, is stale.  Code that nothing reaches is
deleted, not kept "just in case".
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uqbench"
SEARCHED = [ROOT / "src", ROOT / "scripts"]
EXPORTS = PACKAGE / "__init__.py"

# definitions only tests use, as "module.name" or "module.Class.method"
TEST_ORACLES = {
    "deform.TruncatedUg.check_relations":
        "the defining relations of the truncated algebra, checked on the "
        "multiplication table in tests/test_deform.py",
    "deform.TruncatedUg.check_associativity":
        "associativity of the truncated multiplication table, checked in "
        "tests/test_deform.py",
    "deform.SeriesMap.apply":
        "applies a gauge series to an element; the tests recompute the "
        "trivialization identity V(mu(x, y)) = V(x) V(y) with it",
    "linalg.mat_mul":
        "the dense product the tests check braid_rep and _braid_slot against",
    "nichols.NicholsContext.pairing_eval":
        "the rational Nichols pairing, which the tests check the integer "
        "Gram, the radical and the dual bases against",
    "weightmods.WeightModule.apply_k":
        "the Cartan action, which pins the weights of the Verma and window "
        "modules in the tests",
    "weightmods.coaction_contract":
        "contracts the coaction through uq.double_pairing, which the tests "
        "check against every E-word",
    "weightmods.verma_e_coefficient":
        "rank-1 closed form of the Verma E-action",
    "weightmods.verma_k_exponent":
        "rank-1 closed form of the Verma weights",
    "weightmods.verma_coaction":
        "rank-1 closed form of the Verma coaction",
}


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


def oracle_problems(found: list[str], oracles: dict) -> list[str]:
    """Definitions in `found` (unreached from src/ and scripts/) missing
    from `oracles`, and entries of `oracles` not in `found`: reached, or
    naming nothing."""
    return ([f"not reached from src/ or scripts/: {n}"
             for n in found if n not in oracles]
            + [f"stale oracle entry: {n}" for n in oracles if n not in found])


def test_every_top_level_definition_is_reached():
    assert oracle_problems(unreached(), TEST_ORACLES) == []


def test_every_oracle_is_used_by_a_test():
    used = set().union(*(_names(ast.parse(p.read_text()))
                         for p in (ROOT / "tests").rglob("*.py")))
    assert [n for n in TEST_ORACLES if n.rsplit(".", 1)[-1] not in used] == []
    assert all(reason for reason in TEST_ORACLES.values())


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
        ROOT / "scripts" / "s.py": ast.parse("from uqbench.m import used\n"
                                             "used()\n"),
    }
    assert unreached(trees) == ["m.exported"]


def test_guard_sees_a_missing_and_a_stale_oracle():
    found = ["m.lonely", "m.C.oracle"]
    assert oracle_problems(found, {"m.lonely": "r", "m.C.oracle": "r"}) == []
    # a definition only tests use, not listed
    assert oracle_problems(found, {"m.C.oracle": "r"}) == \
        ["not reached from src/ or scripts/: m.lonely"]
    # an entry now reached from src/ or scripts/, and one naming nothing
    assert oracle_problems(["m.lonely"], {"m.lonely": "r", "m.C.oracle": "r",
                                          "m.gone": "r"}) == \
        ["stale oracle entry: m.C.oracle", "stale oracle entry: m.gone"]
    # the real package: drop an entry and it is reported missing, add a
    # reached definition and it is reported stale
    real = unreached()
    oracles = dict(TEST_ORACLES)
    oracles.pop("linalg.mat_mul")
    oracles["linalg.invert"] = "reached from src/"
    assert oracle_problems(real, oracles) == [
        "not reached from src/ or scripts/: linalg.mat_mul",
        "stale oracle entry: linalg.invert"]
