"""Exception types shared across the package, and the two readers of
integer input: ``_integer`` for a parameter, ``_integers`` for an array.

Every size, count, color and length a public entry takes is read by
``_integer``: a Python int or a numpy integer is its value; a float (even a
whole one), a string or None is refused, not truncated, and so is a value
below the entry's least.  Every integer array an entry takes (a Cayley
table, retraction rows, cells, edges, a map or a stack of them, owners) is
read by ``_integers``: ragged rows, another shape and a non-integer dtype
are refused, not cast, and so is an entry outside the entry's range.  Each
refusal raises the entry's own error class; ``validate_retraction`` reports
it as its failed clause rather than raising.  This module imports no other
package module, so every module can use it, and numpy only inside the array
readers, so it loads without numpy.
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


def _shape(value):
    """``value``'s shape as numpy reads it, "ragged" for rows of other shapes."""
    import numpy as np
    try:
        return np.shape(value)
    except ValueError:
        return "ragged"


def _fits(got, want):
    """Shape ``got`` is ``want``, where a None matches any length."""
    return got != "ragged" and len(got) == len(want) and all(
        w in (None, g) for w, g in zip(want, got))


def _integers(value, error, what, shape, below=None):
    """``value`` as an int64 array of ``shape``, a None leaving that axis
    free, or ``error`` naming ``what``, one row of it.  Another shape is
    refused, naming the first row whose shape differs from ``shape[1:]``
    or from the rows before it, where there is one (``map 2 has shape
    (3,), not (4,)``); so are ragged rows and a non-integer dtype, not cast,
    and an entry outside [0, below), named by its index and value.  An
    empty list is no rows."""
    import numpy as np
    try:
        array = np.asarray(value)
    except ValueError:  # ragged rows, one of them named below
        array = None
    if array is not None and array.shape == (0,):
        array = np.empty((0, *(w or 0 for w in shape[1:])), dtype=np.int64)
    got = "ragged" if array is None else array.shape
    if not _fits(got, shape):
        want = shape[1:]
        for i, row in enumerate(value if shape and got != () else ()):
            if not _fits(row_shape := _shape(row), want):
                raise error(f"{what} {i} has shape {row_shape}, not {want}")
            want = row_shape
        raise error(f"{what}s have shape {got}, not {shape}")
    if array.size and array.dtype.kind not in "iu":
        raise error(f"{what}s must hold integers, not {array.dtype}")
    array = array.astype(np.int64, copy=False)
    if below is not None and array.size and (array.min() < 0 or array.max() >= below):
        bad = np.argwhere((array < 0) | (array >= below))[0]
        index = "".join(f"[{i}]" for i in bad)
        raise error(f"{what}{index} = {array[tuple(bad)]} is outside [0, {below})")
    return array
