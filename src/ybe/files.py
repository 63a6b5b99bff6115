"""Text formats for solutions and braces.

Solution file: line 1 is m, followed by m lines each holding a degree-m
permutation as an image list separated by spaces or tabs (row x is σ_x).
Only a line feed ends a line; a carriage return before it is dropped, so
CRLF files parse.

Brace file: line 1 is k, then k rows of the addition table, a blank
line, then k rows of the multiplication table.

``#`` starts a comment on input; output is canonical (no comments,
single spaces, trailing newline). parse∘emit is the identity on tables.
"""

from __future__ import annotations

import re

from . import brace as br
from . import perm as pm
from . import solution as sol
from .brace import Brace
from .errors import ParseError
from .solution import Solution


def _content_lines(text):
    """(line_number, stripped content) for every non-blank, non-comment
    line. Only a line feed ends a line and only ASCII spaces and tabs
    are blank, as only ASCII digits make an integer."""
    out = []
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").split("#", 1)[0].strip(" \t")
        if line:
            out.append((i, line))
    return out


#: An integer token: ASCII digits with an optional minus sign, and no
#: underscores, plus sign or non-ASCII digits, which ``int`` also accepts.
_INTEGER = re.compile(r"-?[0-9]+")

#: A separator of two entries: ASCII spaces and tabs, and not the other
#: whitespace, such as U+3000 or a form feed, at which ``str.split`` splits.
_BLANKS = re.compile(r"[ \t]+")


def _parse_int(token, lineno, what):
    if _INTEGER.fullmatch(token) is None:
        raise ParseError(f"{what}: not an integer: {token!r}", line=lineno)
    return int(token)


def _parse_row(lineno, line, width, what):
    """A row of ``width`` integers, each in [0, width)."""
    tokens = _BLANKS.split(line)
    if len(tokens) != width:
        raise ParseError(
            f"{what}: expected {width} entries, got {len(tokens)}", line=lineno
        )
    row = [_parse_int(t, lineno, what) for t in tokens]
    for v in row:
        if not 0 <= v < width:
            raise ParseError(f"{what}: entry {v} out of range [0, {width})", line=lineno)
    return tuple(row)


def _parse_header(text, what):
    """(value, body): the positive integer on the first content line,
    named ``what`` in errors, and the content lines after it."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty file")
    lineno, header = lines[0]
    tokens = _BLANKS.split(header)
    if len(tokens) != 1:
        raise ParseError(f"expected a single {what} on the first line", line=lineno)
    value = _parse_int(tokens[0], lineno, what)
    if value < 1:
        raise ParseError(f"{what} must be at least 1, got {value}", line=lineno)
    return value, lines[1:]


def parse_sigma_table(text):
    """Parse a solution file into its raw σ-table (rows validated as
    bijections) without running the axiom checks."""
    m, body = _parse_header(text, "size")
    if len(body) != m:
        raise ParseError(f"expected {m} permutation rows, got {len(body)}")
    rows = []
    for x, (ln, line) in enumerate(body):
        row = _parse_row(ln, line, m, f"sigma[{x}]")
        if not pm.is_perm(row):
            raise ParseError(f"sigma[{x}] is not a bijection", line=ln)
        rows.append(row)
    return rows


def parse_solution(text) -> Solution:
    """Parse and fully validate a solution file (axiom failures raise
    AxiomError carrying the VerifyReport)."""
    return sol.from_sigma(parse_sigma_table(text))


def emit_solution(s: Solution, header: str | None = None) -> str:
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append(str(s.m))
    lines.extend(" ".join(str(v) for v in row) for row in s.sigma)
    return "\n".join(lines) + "\n"


def parse_brace(text) -> Brace:
    k, body = _parse_header(text, "order")
    if len(body) != 2 * k:
        raise ParseError(
            f"expected {2 * k} table rows (add then mul), got {len(body)}"
        )
    add = [_parse_row(ln, line, k, f"add[{a}]") for a, (ln, line) in enumerate(body[:k])]
    mul = [_parse_row(ln, line, k, f"mul[{a}]") for a, (ln, line) in enumerate(body[k:])]
    return br.brace_from_tables(add, mul)


def emit_brace(b: Brace) -> str:
    lines = [str(b.k)]
    lines.extend(" ".join(str(v) for v in row) for row in b.add)
    lines.append("")
    lines.extend(" ".join(str(v) for v in row) for row in b.mul)
    return "\n".join(lines) + "\n"
