"""Exception types shared across the package, and ``_integer``, the one
reader of an integer parameter.

Every size, count, color and length a public entry takes is read by
``_integer``: a Python int or a numpy integer is its value; a float (even a
whole one), a string or None is refused, not truncated, and so is a value
below the entry's least.  Either refusal raises the entry's own error class.
This module imports no other package module, so every module can use it.
"""
import operator


class HjlabError(Exception):
    pass


class InvalidStructure(HjlabError, ValueError):
    """A semigroup, subsemigroup or retraction family fails its checks."""


class ClosureViolation(InvalidStructure):
    """A Cayley table entry falls outside the carrier."""

    def __init__(self, i, j, value, order):
        self.i, self.j, self.value, self.order = i, j, value, order
        super().__init__(
            f"table[{i}][{j}] = {value} is outside the carrier [0..{order})"
        )


class AssociativityViolation(InvalidStructure):
    """First triple (i, j, k) with (i*j)*k != i*(j*k)."""

    def __init__(self, i, j, k):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"associativity fails at triple ({i}, {j}, {k})")


class CarrierMismatch(HjlabError):
    pass


class CarrierTooLarge(HjlabError):
    pass


class SearchSpaceTooLarge(HjlabError):
    pass


class InvalidColoring(HjlabError):
    pass


class ColoringSpecError(HjlabError):
    """A coloring spec string failed to parse; names the offending token."""

    def __init__(self, token, message):
        self.token = token
        super().__init__(f"bad coloring spec token {token!r}: {message}")


class TableParseError(HjlabError):
    """Semigroup file parse failure with 1-based line and column."""

    def __init__(self, line, column, message):
        self.line, self.column = line, column
        super().__init__(f"line {line}, column {column}: {message}")


class CertificateError(HjlabError):
    """Certificate file is malformed (distinct from failing verification)."""


class InvalidInstance(HjlabError, ValueError):
    """Instance or command parameters out of range (e.g. n < 2 or r < 1)."""


class VerificationError(HjlabError):
    """A search result failed its re-check independent of the search."""


def _integer(value, error, what, least=None):
    """``value`` as a Python int (a numpy integer too), or ``error`` naming
    ``what``: a float, even a whole one, is refused, not truncated, and so
    is a value below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, not {value!r}") from None
    if least is not None and value < least:
        raise error(f"need {what} >= {least}, not {value}")
    return value
