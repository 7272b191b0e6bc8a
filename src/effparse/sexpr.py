"""Line-tracking s-expression reader and writer.

All external file formats (language, model, syntax, diagram) share this
dialect: symbols, double-quoted strings, integers, and parenthesised
lists.  Comments run from ``;`` to end of line.
"""

from __future__ import annotations

from .record import Record

# The deepest a form may nest.  The shipped files nest at most 7 deep, and
# the readers of types and terms, and the hashing of a form, recurse once
# or a few times per level, so 100 levels leave them far from Python's
# recursion limit (1,000 frames by default), where a deeper file would
# end the program with a RecursionError instead of naming its line.
MAX_DEPTH = 100


class SexprError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class String(Record):
    """A double-quoted literal, kept distinct from bare symbols."""

    value: str


class Node(Record):
    """A parenthesised list plus the line it started on."""

    items: tuple
    line: int


def _tokenize(text: str):
    i, line = 0, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, line
            i += 1
        elif c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    if text[j] == "\n":
                        line += 1
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise SexprError("unterminated string literal", line)
            yield String("".join(buf)), line
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            yield text[i:j], line
            i = j


def parse(text: str) -> list:
    """Parse every top-level form; atoms come back as str/int/String.
    A form nested deeper than :data:`MAX_DEPTH` is an error."""
    stack: list[list] = []
    lines: list[int] = []
    top: list = []
    for tok, line in _tokenize(text):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise SexprError(f"forms nest deeper than {MAX_DEPTH} levels", line)
            stack.append([])
            lines.append(line)
        elif tok == ")":
            if not stack:
                raise SexprError("unbalanced )", line)
            items = stack.pop()
            node = Node(tuple(items), lines.pop())
            (stack[-1] if stack else top).append(node)
        else:
            atom = _atom(tok)
            (stack[-1] if stack else top).append(atom)
    if stack:
        raise SexprError("unbalanced (", lines[-1])
    return top


def _atom(tok):
    if isinstance(tok, String):
        return tok
    try:
        return int(tok)
    except ValueError:
        return tok


def unparse(form) -> str:
    if isinstance(form, Node):
        return "(" + " ".join(unparse(x) for x in form.items) + ")"
    if isinstance(form, (tuple, list)):
        return "(" + " ".join(unparse(x) for x in form) + ")"
    if isinstance(form, String):
        escaped = form.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return str(form)
