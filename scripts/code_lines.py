#!/usr/bin/env python3
"""Count the code lines of Python files.

A code line is a line that holds a token other than a comment or a line
break, outside module, class and function docstrings: blank lines, comment
lines and docstrings do not count, and every line of a statement or string
that spans several lines does.  Indentation and end markers are not tokens of
a line.  Only the standard library is used (tokenize and ast).

Usage: python scripts/code_lines.py PATH...
Each PATH is a .py file or a directory, searched for .py files recursively.
Prints one count per file, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that mark layout, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> "list[tuple[tuple[int, int], tuple[int, int]]]":
    """The (start, end) positions, as (line, column), of every module, class
    and function docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at path."""
    source = path.read_bytes()
    spans = _docstrings(ast.parse(source))
    lines = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type in _LAYOUT:
                continue
            if token.type == tokenize.STRING and any(
                    start <= token.start and token.end <= end for start, end in spans):
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths: "list[str]") -> "list[Path]":
    """The .py files named by paths, directories searched recursively, each
    directory's files in sorted order."""
    files = []
    for name in paths:
        path = Path(name)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: "list[str]") -> int:
    if not argv:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = code_lines(path)
        total += count
        print(f"{count:6} {path}")
    print(f"{total:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
