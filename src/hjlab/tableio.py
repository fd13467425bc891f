"""Plain-text Cayley table files.

Format::

    semigroup n
    <n rows of n space-separated indices>
    T: i1 i2 ...            (optional, the nice subsemigroup)
    retraction: j1 ... jn   (optional, repeatable, needs T; image of k is jk)

Blank lines and lines starting with '#' are ignored.  Parse errors carry
1-based line and column numbers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import TableParseError

_TOKEN = re.compile(r"\S+")


@dataclass
class ParsedSemigroupFile:
    order: int
    rows: list = field(default_factory=list)
    t_members: list | None = None
    retractions: list = field(default_factory=list)


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _int_at(tok, lineno, col, what):
    try:
        return int(tok)
    except ValueError:
        raise TableParseError(lineno, col, f"expected an integer {what}, got {tok!r}")


def parse_semigroup_text(text):
    lines = text.splitlines()
    content = [
        (i + 1, line)
        for i, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not content:
        raise TableParseError(1, 1, "empty file")

    lineno, header = content[0]
    toks = _tokens(header)
    if not toks or toks[0][0] != "semigroup":
        raise TableParseError(lineno, toks[0][1] if toks else 1, "expected 'semigroup n' header")
    if len(toks) != 2:
        raise TableParseError(lineno, toks[-1][1], "header must be exactly 'semigroup n'")
    n = _int_at(toks[1][0], lineno, toks[1][1], "order")
    if n < 1:
        raise TableParseError(lineno, toks[1][1], "order must be positive")

    parsed = ParsedSemigroupFile(order=n)
    body = content[1:]
    if len(body) < n:
        last = body[-1][0] if body else lineno
        raise TableParseError(last + 1, 1, f"expected {n} table rows, found {len(body)}")
    for lineno, line in body[:n]:
        toks = _tokens(line)
        if len(toks) != n:
            col = toks[-1][1] if toks else 1
            raise TableParseError(lineno, col, f"expected {n} entries in row, found {len(toks)}")
        parsed.rows.append([_int_at(t, lineno, c, "table entry") for t, c in toks])

    first_retraction = None
    for lineno, line in body[n:]:
        toks = _tokens(line)
        head, col0 = toks[0]
        if head == "T:":
            if parsed.t_members is not None:
                raise TableParseError(lineno, col0, "duplicate T: line")
            if len(toks) == 1:
                raise TableParseError(lineno, col0, "T: line lists no element")
            parsed.t_members = [_int_at(t, lineno, c, "T member") for t, c in toks[1:]]
        elif head == "retraction:":
            if len(toks) - 1 != n:
                col = toks[-1][1]
                raise TableParseError(
                    lineno, col, f"retraction needs {n} images, found {len(toks) - 1}"
                )
            parsed.retractions.append(
                [_int_at(t, lineno, c, "retraction image") for t, c in toks[1:]]
            )
            first_retraction = first_retraction or (lineno, col0)
        else:
            raise TableParseError(lineno, col0, f"unknown directive {head!r}")
    if first_retraction is not None and parsed.t_members is None:
        raise TableParseError(*first_retraction, "retraction lines need a declared T line")
    return parsed


def parse_semigroup_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_semigroup_text(fh.read())


def format_semigroup_file(S, view=None, family=None):
    out = [f"semigroup {S.order}"]
    for row in S.table:
        out.append(" ".join(str(int(v)) for v in row))
    if view is not None:
        out.append("T: " + " ".join(str(i) for i in view.members()))
    if family is not None:
        for row in family:
            out.append("retraction: " + " ".join(str(int(v)) for v in row))
    return "\n".join(out) + "\n"
