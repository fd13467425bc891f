"""Concrete instances of the abstract framework.

The coloring kinds: words take the modular digit sum, a table or a pullback,
integers the residue or a table (``KINDS_FOR``, tested by ``require_fit``
alone).  An integer coloring reaches words only by a pullback along the
digit sum, in ``search.find_ap_via_words``, the classical reduction of van
der Waerden to Hales-Jewett.  Combinatorial lines are one-variable words
(``words``); ``search.LineHypergraph`` turns them into base-n coded edges.
"""
from __future__ import annotations

import os

from .errors import ColoringSpecError, InvalidColoring, InvalidInstance, _integer
from .words import format_word


# the coloring kinds that color each kind of point; a pullback colors words
# through its mapping, and a semigroup element is colored by its index
KINDS_FOR = {"words": ("mod", "table", "pullback"), "integers": ("apres", "table")}
KINDS_FOR["semigroup elements"] = KINDS_FOR["integers"]


def require_fit(coloring, points):
    """Raise InvalidInstance unless ``coloring`` colors ``points``, a key of KINDS_FOR."""
    if coloring.kind not in KINDS_FOR[points]:
        hint = "; integer colorings go through hjlab witness --vdw" if points == "words" else ""
        raise InvalidInstance(f"{coloring.kind} colorings do not color {points}{hint}")


class ModSumColoring:
    """Digit sum modulo r, defined on every constant word."""

    kind = "mod"

    def __init__(self, r):
        self.r = _integer(r, InvalidColoring, "r", least=1)

    def color_of(self, w):
        return sum(w) % self.r

    def spec(self):
        return f"mod:{self.r}"


class ApResidueColoring:
    """Integer residue coloring m -> m mod r, for progression instances."""

    kind = "apres"

    def __init__(self, r):
        self.r = _integer(r, InvalidColoring, "r", least=1)

    def color_of(self, m):
        return m % self.r

    def spec(self):
        return f"apres:{self.r}"


class TableColoring:
    """Explicit finite table, with an optional default color for elements
    outside the listed window."""

    kind = "table"

    def __init__(self, entries, r=None, default=None):
        self.entries = dict(entries)
        self.default = default
        observed = list(self.entries.values()) + ([] if default is None else [default])
        if not observed:
            raise InvalidColoring("empty color table")
        observed = [_integer(c, InvalidColoring, "a color", least=0) for c in observed]
        self.r = max(observed) + 1 if r is None else _integer(r, InvalidColoring, "r", least=1)
        if max(observed) >= self.r:
            raise InvalidColoring("color out of range in table")

    @staticmethod
    def key_for(x):
        if isinstance(x, tuple):
            return format_word(x)
        return str(x)

    def color_of(self, x):
        key = self.key_for(x)
        if key in self.entries:
            return self.entries[key]
        if self.default is not None:
            return self.default
        raise InvalidColoring(f"no color assigned to {key}")


class PullbackColoring:
    """A coloring pulled back along a mapping (word -> integer or point)."""

    kind = "pullback"

    def __init__(self, base, mapping):
        self.base = base
        self.mapping = mapping
        self.r = base.r

    def color_of(self, x):
        return self.base.color_of(self.mapping(x))


def _table_color(token, line):
    try:
        return int(token)
    except ValueError:
        raise ColoringSpecError(line, f"color {token!r} is not an integer") from None


def parse_coloring_table_text(text):
    entries = {}
    default = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "default":
            if len(parts) != 2:
                raise ColoringSpecError("default", "expected: default <color>")
            if default is not None:
                raise ColoringSpecError("default", "the default color is given twice")
            default = _table_color(parts[1], line)
            continue
        if len(parts) != 2:
            raise ColoringSpecError(line, "expected: <word-or-int> <color>")
        if parts[0] in entries:
            raise ColoringSpecError(parts[0], "the key is given twice")
        entries[parts[0]] = _table_color(parts[1], line)
    return TableColoring(entries, default=default)


def parse_coloring_spec(spec):
    """mod:<r> | table:<path> | apres:<r> -> a coloring object."""
    if ":" not in spec:
        raise ColoringSpecError(spec, "expected kind:argument")
    kind, arg = spec.split(":", 1)
    if kind in ("mod", "apres"):
        try:
            count = int(arg)
        except ValueError:
            raise ColoringSpecError(spec, f"{kind} wants an integer color count") from None
        if count < 1:
            raise ColoringSpecError(spec, f"{kind} needs at least one color, not {count}")
        return (ModSumColoring if kind == "mod" else ApResidueColoring)(count)
    if kind == "table":
        if not os.path.exists(arg):
            raise ColoringSpecError(spec, f"no such table file: {arg}")
        with open(arg) as fh:
            return parse_coloring_table_text(fh.read())
    raise ColoringSpecError(kind, "unknown coloring kind")
