"""The README's "Library entry points" block runs as written."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_points_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_entry_points_block_runs():
    tree = ast.parse(_entry_points_block())
    *body, last = tree.body
    namespace: dict = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), "README.md", "exec"),
         namespace)
    slope = eval(compile(ast.Expression(last.value), "README.md", "eval"),
                 namespace)
    assert slope == Fraction(3, 4)
