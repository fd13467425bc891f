"""The free semigroup of words over letters plus the one variable symbol x.

Words are tuples of ints: letters are 0..n-1 and x is encoded as X = -1.
The semigroup is never materialized; the constant words (those without x)
form a nice subsemigroup by construction, and substituting a letter for x
gives exactly the retractions onto it.  These laws hold by construction, so
nothing here re-tests them at run time; ``tests/test_semigroups.py``
property-tests them instead.
"""
from __future__ import annotations

from itertools import product as iproduct

from .errors import InvalidInstance
from .semigroups import CheckResult, RetractionFamily

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
        if alphabet_size < 1:
            raise InvalidInstance(f"need alphabet size >= 1, not {alphabet_size}")
        self.alphabet_size = alphabet_size

    def symbols(self):
        """All symbols, letters first; this fixes the length-lex order."""
        return list(range(self.alphabet_size)) + [X]

    def valid_word(self, word):
        return len(word) > 0 and all(s == X or 0 <= s < self.alphabet_size for s in word)

    def iter_words(self, max_len, min_len=1, require_variable=False):
        """Length-lexicographic stream; letters sort before x."""
        syms = self.symbols()
        for L in range(min_len, max_len + 1):
            for w in iproduct(syms, repeat=L):
                if require_variable and not contains_variable(w):
                    continue
                yield w

    def constant_view(self):
        return ConstantWordsView(self)

    def substitutions(self):
        """The diagonal family: one substitution per letter a, mapping x to a.
        This is the classical retraction family.

        One variable loses nothing here: under a diagonal family, renaming
        every variable of a word to x keeps its image set, and the renamed
        word comes no later in length-lex order (x sorts before any other
        variable), so the first witness over many variables has one."""
        return [Substitution(self, a) for a in range(self.alphabet_size)]


class ConstantWordsView:
    """The nice subsemigroup of constant words, given by a predicate."""

    def __init__(self, parent):
        self.parent = parent

    def contains(self, word):
        return not contains_variable(word)

    def check_retraction(self, sub):
        """Exact membership test for a retraction family onto the constants.

        In a free semigroup substituting a letter of the alphabet for x is a
        homomorphism onto the constant words fixing them, so the type and
        range clauses are the whole retraction condition.
        """
        if not isinstance(sub, Substitution):
            return CheckResult(False, "type", (type(sub).__name__,))
        if not (0 <= sub.letter < self.parent.alphabet_size):
            return CheckResult(False, "range", (sub.letter,))
        return CheckResult(True)


class Substitution:
    """Retraction of a word semigroup: substitutes one letter for x."""

    def __init__(self, parent, letter):
        if not (0 <= letter < parent.alphabet_size):
            raise ValueError(f"letter {letter} outside the alphabet")
        self.parent = parent
        self.letter = letter

    def apply(self, word):
        return substitute(word, self.letter)

    def same_as(self, other):
        return isinstance(other, Substitution) and self.letter == other.letter

    def describe(self):
        return f"subst:{self.letter}"

    def __repr__(self):
        return f"Substitution({self.letter})"


def substitution_family(ws):
    """The diagonal retraction family of a word semigroup."""
    return RetractionFamily(ws.constant_view(), ws.substitutions())
