#!/usr/bin/env python3
"""Line census of ``src/``: code, docstring, comment and blank lines per module.

    python3 scripts/loc.py [directory]

The directory defaults to ``src/`` beside this script. Each line of each
``.py`` file under it is counted once, in the first class it belongs to:
- docstring: a line of a module, class or function docstring, as ``ast``
  finds it (from its first line to its last, blank lines inside included)
- blank: a line of whitespace only
- comment: a line whose only token, by ``tokenize``, is a comment
- code: any other line

So the four counts of a module sum to its line count, as ``wc -l`` counts
it. The script prints one row per module, sorted by path, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of tree's module, classes and
    functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def census(text: str) -> dict[str, int]:
    """The count of each of KINDS over the lines of one module's text."""
    lines = text.splitlines()
    docstrings = docstring_lines(ast.parse(text))
    tokens: dict[int, set[int]] = {}  # line -> the token types that start on it
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        tokens.setdefault(token.start[0], set()).add(token.type)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstrings:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif tokens.get(number, set()) in ({tokenize.COMMENT}, {tokenize.COMMENT, tokenize.NL}):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else ROOT / "src"
    total = dict.fromkeys(KINDS, 0)
    print("module\t" + "\t".join(KINDS) + "\tlines")
    for path in sorted(root.rglob("*.py")):
        counts = census(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        row = [counts[kind] for kind in KINDS]
        print(f"{path.relative_to(root)}\t" + "\t".join(map(str, row)) + f"\t{sum(row)}")
    row = [total[kind] for kind in KINDS]
    print("total\t" + "\t".join(map(str, row)) + f"\t{sum(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
