"""Count the code lines of Python sources.

A line is a code line when it holds a Python token other than a comment
and is not part of a module, class or function docstring.  So blank
lines, comment lines and docstrings do not count, and every line of a
multi-line expression or of a string that is not a docstring does.

    python3 tools/code_lines.py [PATH ...]    (default: src/effparse)

prints the count of each file, and of each directory the count of every
``*.py`` file under it and their total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _WITH_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    for arg in (argv if argv is not None else sys.argv[1:]) or ["src/effparse"]:
        path = pathlib.Path(arg)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        total = 0
        for f in files:
            n = code_lines(f.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {f}")
        if path.is_dir():
            print(f"{total:6d}  total {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
