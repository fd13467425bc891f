"""The free semigroup of words over letters plus variable symbols.

Words are tuples of ints: letters are 0..n-1 and variable j is encoded as
-(j+1).  The semigroup is never materialized; the constant words (those with
no variable) form a nice subsemigroup by construction, and substitutions
assigning a letter to every variable are exactly the retractions onto it.
These laws hold by construction, so nothing here re-tests them at run time;
``tests/test_semigroups.py`` property-tests them instead.
"""
from __future__ import annotations

from itertools import product as iproduct

from .errors import InvalidInstance, UnassignedVariable
from .semigroups import CheckResult, RetractionFamily

VARIABLE_GLYPHS = "xyz"


def variable(j):
    return -(j + 1)


def variable_index(sym):
    return -sym - 1


def is_variable(sym):
    return sym < 0


def contains_variable(word):
    return any(s < 0 for s in word)


def format_word(word):
    """Compact form: digits for letters, x/y/z for variables 0..2.

    Falls back to dot-separated tokens when a symbol has no single glyph.
    """
    glyphs = []
    compact = True
    for s in word:
        if s >= 0:
            glyphs.append(str(s))
            if s > 9:
                compact = False
        else:
            j = variable_index(s)
            glyphs.append(VARIABLE_GLYPHS[j] if j < len(VARIABLE_GLYPHS) else f"x{j}")
            if j >= len(VARIABLE_GLYPHS):
                compact = False
    return "".join(glyphs) if compact else ".".join(glyphs)


def parse_word(text):
    """Inverse of format_word; raises ValueError on an unknown glyph."""
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    tokens = text.split(".") if "." in text else list(text)
    word = []
    for tok in tokens:
        if tok.isdigit():
            word.append(int(tok))
        elif tok in VARIABLE_GLYPHS:
            word.append(variable(VARIABLE_GLYPHS.index(tok)))
        elif tok.startswith("x") and tok[1:].isdigit():
            word.append(variable(int(tok[1:])))
        else:
            raise ValueError(f"unknown word symbol {tok!r}")
    return tuple(word)


def substitute(word, assignment):
    """Replace every variable occurrence; assignment is a dict or sequence.

    Raises UnassignedVariable when a variable of the word has no letter.
    Substituting into a constant word is the identity.
    """
    out = []
    for s in word:
        if s >= 0:
            out.append(s)
            continue
        j = variable_index(s)
        if isinstance(assignment, dict):
            if j not in assignment:
                raise UnassignedVariable(f"variable {j} has no assigned letter")
            out.append(assignment[j])
        else:
            if j >= len(assignment):
                raise UnassignedVariable(f"variable {j} has no assigned letter")
            out.append(assignment[j])
    return tuple(out)


class WordSemigroup:
    """Lazily-generated free semigroup on n letters and m variable symbols."""

    def __init__(self, alphabet_size, variable_count=1):
        if alphabet_size < 1 or variable_count < 1:
            raise InvalidInstance(
                f"need alphabet size >= 1 and variable count >= 1, "
                f"not {alphabet_size} and {variable_count}"
            )
        self.alphabet_size = alphabet_size
        self.variable_count = variable_count

    def symbols(self):
        """All symbols, letters first; this fixes the length-lex order."""
        return list(range(self.alphabet_size)) + [
            variable(j) for j in range(self.variable_count)
        ]

    def valid_word(self, word):
        for s in word:
            if s >= self.alphabet_size:
                return False
            if s < 0 and variable_index(s) >= self.variable_count:
                return False
        return len(word) > 0

    def iter_words(self, max_len, min_len=1, require_variable=False):
        """Length-lexicographic stream; letters sort before variables."""
        syms = self.symbols()
        for L in range(min_len, max_len + 1):
            for w in iproduct(syms, repeat=L):
                if require_variable and not contains_variable(w):
                    continue
                yield w

    def constant_view(self):
        return ConstantWordsView(self)

    def substitutions(self):
        """The diagonal family: one substitution per letter, every variable
        mapped to that letter.  This is the classical retraction family."""
        return [
            Substitution(self, (a,) * self.variable_count)
            for a in range(self.alphabet_size)
        ]


class ConstantWordsView:
    """The nice subsemigroup of constant words, given by a predicate."""

    def __init__(self, parent):
        self.parent = parent

    def contains(self, word):
        return not contains_variable(word)

    def check_retraction(self, sub):
        """Exact membership test for a retraction family onto the constants.

        In a free semigroup a substitution that assigns a letter of the
        alphabet to every variable is a homomorphism onto the constant words
        fixing them, so the type, totality and range clauses are the whole
        retraction condition.
        """
        ws = self.parent
        if not isinstance(sub, Substitution):
            return CheckResult(False, "type", (type(sub).__name__,))
        if len(sub.assignment) != ws.variable_count:
            return CheckResult(False, "totality", (len(sub.assignment),))
        for a in sub.assignment:
            if not (0 <= a < ws.alphabet_size):
                return CheckResult(False, "range", (a,))
        return CheckResult(True)


class Substitution:
    """Retraction of a word semigroup: assigns a letter to every variable."""

    def __init__(self, parent, assignment):
        assignment = tuple(assignment)
        if len(assignment) != parent.variable_count:
            raise UnassignedVariable(
                f"assignment covers {len(assignment)} of {parent.variable_count} variables"
            )
        for a in assignment:
            if not (0 <= a < parent.alphabet_size):
                raise ValueError(f"assigned letter {a} outside the alphabet")
        self.parent = parent
        self.assignment = assignment

    def apply(self, word):
        return substitute(word, self.assignment)

    def same_as(self, other):
        return isinstance(other, Substitution) and self.assignment == other.assignment

    def describe(self):
        return "subst:" + ",".join(str(a) for a in self.assignment)

    def __repr__(self):
        return f"Substitution({self.assignment})"


def substitution_family(ws):
    """The diagonal retraction family of a word semigroup."""
    return RetractionFamily(ws.constant_view(), ws.substitutions())
