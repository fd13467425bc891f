"""Concrete instances of the abstract framework.

Combinatorial lines in [n]^N, coloring kinds (modular digit sum, explicit
tables, integer residues), and the classical reduction of van der Waerden to
Hales-Jewett via digit sums.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as iproduct

from .errors import ColoringSpecError, InvalidColoring
from .words import (
    contains_variable,
    format_word,
    is_variable,
    parse_word,
    substitute,
    variable,
    variable_positions,
)


@dataclass(frozen=True)
class CombinatorialLine:
    """A line template: one variable word over letters {0..n-1} and x.

    The n points of the line are the substitutions of each letter; they
    agree off the variable positions and sweep the alphabet uniformly on
    them.
    """

    n: int
    template: tuple

    def __post_init__(self):
        if not contains_variable(self.template):
            raise ValueError("a line template needs a variable occurrence")
        for sym in self.template:
            if is_variable(sym):
                if sym != variable(0):
                    raise ValueError("line templates use the single variable x")
            elif not (0 <= sym < self.n):
                raise ValueError(f"letter {sym} outside alphabet of size {self.n}")

    @property
    def points(self):
        return [substitute(self.template, (a,)) for a in range(self.n)]

    def __str__(self):
        return format_word(self.template)


def enumerate_lines(n, N):
    """Every line template of length N over [n], each exactly once.

    Count is (n+1)^N - n^N: all words over letters plus x, minus the
    variable-free ones.
    """
    if n < 2:
        raise ValueError("alphabet size must be >= 2")
    if N < 1:
        raise ValueError("length must be >= 1")
    symbols = list(range(n)) + [variable(0)]
    for word in iproduct(symbols, repeat=N):
        if contains_variable(word):
            yield CombinatorialLine(n, word)


def line_count(n, N):
    return (n + 1) ** N - n ** N


def encode_word(w, n):
    """Base-n value of a constant word, most significant digit first."""
    value = 0
    for sym in w:
        value = value * n + sym
    return value


def decode_word(value, n, N):
    out = []
    for _ in range(N):
        out.append(value % n)
        value //= n
    return tuple(reversed(out))


class ModSumColoring:
    """Digit sum modulo r, defined on every constant word."""

    kind = "mod"

    def __init__(self, r):
        if r < 1:
            raise ValueError("need at least one color")
        self.r = r

    def color_of(self, w):
        return sum(w) % self.r

    def spec(self):
        return f"mod:{self.r}"


class ApResidueColoring:
    """Integer residue coloring m -> m mod r, for progression instances."""

    kind = "apres"

    def __init__(self, r):
        if r < 1:
            raise ValueError("need at least one color")
        self.r = r

    def color_of(self, m):
        return m % self.r

    def spec(self):
        return f"apres:{self.r}"


class TableColoring:
    """Explicit finite table, with an optional default color for elements
    outside the listed window."""

    kind = "table"

    def __init__(self, entries, r=None, default=None, source=None):
        self.entries = dict(entries)
        self.default = default
        observed = list(self.entries.values()) + ([] if default is None else [default])
        if not observed:
            raise InvalidColoring("empty color table")
        self.r = r if r is not None else max(observed) + 1
        if any(c < 0 or c >= self.r for c in observed):
            raise InvalidColoring("color out of range in table")
        self.source = source

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

    def spec(self):
        return f"table:{self.source}" if self.source else "table:<inline>"


class PullbackColoring:
    """A coloring pulled back along a mapping (word -> integer or point)."""

    kind = "pullback"

    def __init__(self, base, mapping):
        self.base = base
        self.mapping = mapping
        self.r = base.r

    def color_of(self, x):
        return self.base.color_of(self.mapping(x))

    def spec(self):
        return f"pullback({self.base.spec()})"


def parse_coloring_table_text(text, source=None):
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
            default = int(parts[1])
            continue
        if len(parts) != 2:
            raise ColoringSpecError(line, "expected: <word-or-int> <color>")
        entries[parts[0]] = int(parts[1])
    return TableColoring(entries, default=default, source=source)


def parse_coloring_spec(spec):
    """mod:<r> | table:<path> | apres:<r> -> a coloring object."""
    if ":" not in spec:
        raise ColoringSpecError(spec, "expected kind:argument")
    kind, arg = spec.split(":", 1)
    if kind == "mod":
        try:
            return ModSumColoring(int(arg))
        except ValueError:
            raise ColoringSpecError(spec, "mod wants an integer color count") from None
    if kind == "apres":
        try:
            return ApResidueColoring(int(arg))
        except ValueError:
            raise ColoringSpecError(spec, "apres wants an integer color count") from None
    if kind == "table":
        if not os.path.exists(arg):
            raise ColoringSpecError(spec, f"no such table file: {arg}")
        with open(arg) as fh:
            return parse_coloring_table_text(fh.read(), source=arg)
    raise ColoringSpecError(kind, "unknown coloring kind")


@dataclass(frozen=True)
class VdwEncoding:
    """Digit-sum reduction from words over [k] to integers.

    A line template with v variable positions maps to the arithmetic
    progression a, a+v, ..., a+(k-1)v where a is the sum of the fixed
    letters; v >= 1 keeps the difference nonzero.
    """

    k: int
    N: int

    def digit_sum(self, w):
        return sum(w)

    def pullback(self, integer_coloring):
        return PullbackColoring(integer_coloring, self.digit_sum)

    def line_image(self, template):
        fixed = sum(s for s in template if not is_variable(s))
        diff = len(variable_positions(template))
        return [fixed + diff * a for a in range(self.k)]


__all__ = [
    "CombinatorialLine",
    "enumerate_lines",
    "line_count",
    "encode_word",
    "decode_word",
    "ModSumColoring",
    "ApResidueColoring",
    "TableColoring",
    "PullbackColoring",
    "parse_coloring_spec",
    "parse_coloring_table_text",
    "VdwEncoding",
    "substitute",
    "parse_word",
    "format_word",
]
