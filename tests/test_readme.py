"""The README's library quick start runs as written and gives the values its
comments claim."""

import ast
import re
from fractions import Fraction
from pathlib import Path

from simplex_grid_opt import Enclosure

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_gives_the_values_it_claims():
    text = README.read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    lines, namespace, shown = block.splitlines(), {}, []
    # run the block statement by statement, as a session would, keeping the
    # value of each bare expression with the comment on its line
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            shown.append((eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace),
                          comment))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert [value for value, _ in shown] == [
        Fraction(-17, 32), ((7, 9),), Fraction(31, 80), Enclosure(Fraction(1, 81), Fraction(1, 81)),
    ]
    claims = ["Fraction(-17, 32)", "((7, 9),)", "Fraction(31, 80)", "the point 1/81"]
    assert [comment.startswith(claim) for (_, comment), claim in zip(shown, claims)] == [True] * 4
