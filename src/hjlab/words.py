"""The free semigroup of words over letters plus the one variable symbol x.

Words are tuples of ints: letters are 0..n-1 and x is encoded as X = -1.
The semigroup is never materialized; the constant words (those without x)
form a nice subsemigroup, and substituting a letter for x gives exactly the
retractions onto it.  So the diagonal family is built, not checked: these
laws hold by construction, and ``tests/test_semigroups.py`` property-tests
them instead of any run-time check.
"""
from __future__ import annotations

from itertools import product as iproduct

from .errors import InvalidInstance, _integer

X = -1


def contains_variable(word):
    return X in word


def format_word(word):
    """Compact form: digits for letters, x for the variable.

    Falls back to dot-separated tokens once a letter is above 9; a word of
    one such token ends in a dot ("10."), so it never reads as digits.
    """
    glyphs = ["x" if s == X else str(s) for s in word]
    if not any(s > 9 for s in word):
        return "".join(glyphs)
    return ".".join(glyphs) + ("." if len(glyphs) == 1 else "")


def parse_word(text):
    """Inverse of format_word; raises ValueError on an unknown glyph."""
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    tokens = text.split(".") if "." in text else list(text)
    if len(tokens) == 2 and not tokens[1]:  # one dotted token: "10."
        tokens.pop()
    word = []
    for tok in tokens:
        if tok.isdigit():
            word.append(int(tok))
        elif tok == "x":
            word.append(X)
        else:
            raise ValueError(f"unknown word symbol {tok!r}")
    return tuple(word)


def substitute(word, letter):
    """Replace every occurrence of x by ``letter``; the identity on a
    constant word."""
    return tuple(letter if s == X else s for s in word)


class WordSemigroup:
    """Lazily-generated free semigroup on n letters and the variable x."""

    def __init__(self, alphabet_size):
        self.alphabet_size = _integer(alphabet_size, InvalidInstance, "alphabet size", least=1)

    def valid_word(self, word):
        return len(word) > 0 and all(s == X or 0 <= s < self.alphabet_size for s in word)

    def iter_words(self, max_len):
        """The variable words up to ``max_len``, length-lexicographic with the
        letters before x."""
        syms = [*range(self.alphabet_size), X]
        for L in range(1, max_len + 1):
            for w in iproduct(syms, repeat=L):
                if contains_variable(w):
                    yield w


class ConstantWordsView:
    """The nice subsemigroup of constant words, given by a predicate."""

    def contains(self, word):
        return not contains_variable(word)


class DiagonalFamily:
    """The diagonal retraction family of a word semigroup: one substitution
    x -> a per letter a, the classical Hales-Jewett family.

    It is valid by construction, so it checks nothing: substituting a letter
    for x is a homomorphism onto the constant words that fixes them.

    One variable loses nothing here: under a diagonal family, renaming
    every variable of a word to x keeps its image set, and the renamed
    word comes no later in length-lex order (x sorts before any other
    variable), so the first witness over many variables has one."""

    def __init__(self, ws):
        self.ws = ws
        self.view = ConstantWordsView()

    def images(self, word):
        """The image set {word[x := a]} as a sorted duplicate-free list."""
        return sorted({substitute(word, a) for a in range(self.ws.alphabet_size)})


def substitution_family(ws):
    """The diagonal retraction family of a word semigroup."""
    return DiagonalFamily(ws)
