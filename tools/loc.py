#!/usr/bin/env python3
"""Code lines per module of a Python package, and their total.

    python3 tools/loc.py [DIR]

DIR defaults to ``src/tinyring``. Every ``*.py`` file directly in DIR is
tokenized, and a line counts once if it holds a token other than a
comment, NL, NEWLINE, INDENT, DEDENT or ENDMARKER, unless it belongs to
a docstring: the first statement of a module, class or function body when
that statement is a string literal alone. Blank lines, comment lines and
docstring lines therefore count nothing, and a statement spread over
several lines counts each line that holds part of it.

Only the standard library is used. The ROADMAP's code-size figures come
from this count.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The code lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(source))


def main(argv: list[str]) -> int:
    top = argv[0] if argv else "src/tinyring"
    total = 0
    for name in sorted(os.listdir(top)):
        if name.endswith(".py"):
            with open(os.path.join(top, name), encoding="utf-8") as f:
                n = count(f.read())
            total += n
            print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
