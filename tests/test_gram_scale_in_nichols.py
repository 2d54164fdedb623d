"""The Gram scale is put back only in `nichols`, next to the code that
removes it.

`NicholsContext._pair_words` divides every pairing of multidegree deg by
prod_i <v_i, v_i>^{deg_i}, and `NicholsContext.dual_basis` multiplies that
factor back into the inverse Gram.  Code outside `nichols.py` reads the
Nichols form through `dual_basis`, `nichols_basis` and `reduce_word`, so no
module of the package other than `nichols.py` names `_pair_words` or the
removed `word_gram` as an identifier (a name, an attribute or an imported
name).  Docstrings and comments do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uqbench"
SEARCHED = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "nichols.py"]
INTEGER_GRAM = {"_pair_words", "word_gram"}


def integer_gram_reads(tree: ast.AST) -> list[int]:
    """Line numbers under `tree` that name the integer Gram."""
    lines = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            name = n.id
        elif isinstance(n, ast.Attribute):
            name = n.attr
        elif isinstance(n, ast.alias):
            name = n.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in INTEGER_GRAM:
            lines.add(n.lineno)
    return sorted(lines)


def test_only_nichols_reads_the_integer_gram():
    found = [f"{p.relative_to(ROOT)}:{line}" for p in SEARCHED
             for line in integer_gram_reads(ast.parse(p.read_text()))]
    assert found == []


def test_guard_flags_a_gram_read_and_passes_the_dual_basis():
    flagged = ast.parse("inv = invert(nichols.word_gram(words), ONE)\n"
                        "g = ctx._pair_words(u, w)\n")
    clean = ast.parse('def dual(nichols, beta):\n'
                      '    """The inverse of the `_pair_words` Gram, scaled."""\n'
                      '    return nichols.dual_basis(beta)\n')
    assert integer_gram_reads(flagged) == [1, 2]
    assert integer_gram_reads(clean) == []
