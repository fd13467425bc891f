"""Finite semigroups, subsets and retraction families.

A finite semigroup is a Cayley table over carrier [0..n); a subset of a
carrier is a SubsetQuery bitmask.  A subset T is a *nice* subsemigroup when
it is nonempty and its complement R = S\\T is a two-sided ideal; equivalently
a*b lands in T exactly when both factors do.  A retraction is a homomorphism
S -> T fixing T pointwise.  The theorem's setting, T nice and each map a
retraction onto T listed once, is walked in one place, ``setting_clauses``:
a RetractionFamily raises at its first failing clause and holds the members
as one table of images, and ``hjlab validate`` prints every clause.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AssociativityViolation, CarrierMismatch, ClosureViolation,
                     InvalidStructure, _integer, _integers)


@dataclass
class CheckResult:
    """Outcome of a structural check: ok, or a named clause plus witness."""

    ok: bool
    clause: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok

    def describe(self):
        if self.ok:
            return "ok"
        return self.clause if self.witness is None else f"{self.clause} fails at {self.witness}"


class FiniteSemigroup:
    """Carrier [0..n) with an associative Cayley table.

    ``table[i][j]`` encodes the product i*j.  Closure and associativity are
    enforced at construction; instances are safe to share between workers.
    """

    def __init__(self, table, labels=None):
        table = _integers(table, InvalidStructure, "Cayley table row", (None, None))
        n = len(table)
        if table.shape != (n, n) or n < 1:
            raise InvalidStructure("Cayley table must be a nonempty square matrix")
        bad = np.argwhere((table < 0) | (table >= n))
        if len(bad):
            i, j = map(int, bad[0])
            raise ClosureViolation(i, j, int(table[i, j]), n)
        # (i*j)*k against i*(j*k), one block of rows i at a time, of about
        # 2^20 cells per temporary but at least one row (n <= 101 is one
        # block); argwhere scans each block in lexicographic order, so the
        # first failing triple is deterministic.
        rows = max(1, (1 << 20) // (n * n))
        for lo in range(0, n, rows):
            block = table[lo:lo + rows]
            diff = np.argwhere(table[block] != block[:, table])
            if len(diff):
                i, j, k = map(int, diff[0])
                raise AssociativityViolation(lo + i, j, k)
        self.table = table
        self.table.setflags(write=False)
        self.labels = list(labels) if labels is not None else None

    @property
    def order(self):
        return int(self.table.shape[0])

    def mul(self, a, b):
        return int(self.table[a, b])

    def element_name(self, i):
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order})"


def _size_of(carrier):
    """A carrier is its size, an integer >= 0, or a FiniteSemigroup; any
    other is CarrierMismatch."""
    if isinstance(carrier, FiniteSemigroup):
        return carrier.order
    return _integer(carrier, CarrierMismatch, "a carrier size", least=0)


@dataclass(frozen=True)
class SubsetQuery:
    """A subset of a finite carrier, held as a bitmask."""

    carrier: object
    mask: int

    def __post_init__(self):
        if _integer(self.mask, InvalidStructure, "a mask", least=0) >> _size_of(self.carrier):
            raise InvalidStructure("mask does not fit the carrier")

    @classmethod
    def from_members(cls, carrier, members):
        size = _size_of(carrier)
        mask = 0
        for i in members:
            i = _integer(i, InvalidStructure, "a member")
            if not 0 <= i < size:
                raise InvalidStructure(f"member {i} is outside the carrier [0..{size})")
            mask |= 1 << i
        return cls(carrier, mask)

    def members(self):
        return [i for i in range(_size_of(self.carrier)) if self.contains(i)]

    def complement(self):
        return [i for i in range(_size_of(self.carrier)) if not self.contains(i)]

    def contains(self, i):
        return bool((self.mask >> i) & 1)


def _semigroup_of(view):
    """The FiniteSemigroup that T (``view``) is a subset of, or
    InvalidStructure when T lies in a bare carrier size."""
    if not isinstance(view.carrier, FiniteSemigroup):
        raise InvalidStructure("T must be a subset of a FiniteSemigroup")
    return view.carrier


def is_nice_subsemigroup(view):
    """Decide whether the subset ``view`` of a finite S (a SubsetQuery) is a
    nonempty subsemigroup whose complement is a two-sided ideal.

    Returns a CheckResult whose witness is the first violating pair, if any.
    """
    S = _semigroup_of(view)
    members = view.members()
    comp = view.complement()
    if not members:
        return CheckResult(False, "nonempty")
    for a in members:
        for b in members:
            if not view.contains(S.mul(a, b)):
                return CheckResult(False, "T-closure", (a, b))
    for s in range(S.order):
        for t in comp:
            if view.contains(S.mul(s, t)):
                return CheckResult(False, "ideal (right product)", (s, t))
            if view.contains(S.mul(t, s)):
                return CheckResult(False, "ideal (left product)", (t, s))
    return CheckResult(True)


def validate_retraction(view, mapping):
    """Check homomorphism, identity-on-T and range-in-T for one map, the
    images of 0..n-1, on the finite S of ``view``, exhaustively.  Returns a
    CheckResult naming the first failing clause; a row that ``_integers``
    refuses (another shape, a non-integer dtype, an image outside the
    carrier) is reported as that clause, not raised.
    """
    S = _semigroup_of(view)
    try:
        sigma = _integers(mapping, InvalidStructure, "image", (S.order,), below=S.order)
    except InvalidStructure as e:
        return CheckResult(False, str(e))
    for x in range(S.order):
        if not view.contains(int(sigma[x])):
            return CheckResult(False, "range-in-T", (x, int(sigma[x])))
    for t in view.members():
        if int(sigma[t]) != t:
            return CheckResult(False, "identity-on-T", (t, int(sigma[t])))
    # vectorized homomorphism law sigma(a*b) == sigma(a)*sigma(b)
    lhs = sigma[S.table]
    rhs = S.table[np.ix_(sigma, sigma)]
    diff = np.argwhere(lhs != rhs)
    if len(diff):
        a, b = map(int, diff[0])
        return CheckResult(False, "homomorphism", (a, b))
    return CheckResult(True)


def setting_clauses(view, maps):
    """The theorem's setting, clause by clause, for T (``view``, a SubsetQuery
    of a FiniteSemigroup) and the rows of ``maps``: ("nice subsemigroup",
    result), then ("retraction i", result), a retraction onto T listed once."""
    yield "nice subsemigroup", is_nice_subsemigroup(view)
    first = {}
    for i, row in enumerate(maps):
        res = validate_retraction(view, row)
        if res and (j := first.setdefault(tuple(row), i)) < i:
            res = CheckResult(False, f"repeats retraction {j}")
        yield f"retraction {i}", res


def check_setting(view, maps):
    """Raise InvalidStructure at the first failing clause of the setting."""
    for name, res in setting_clauses(view, maps):
        if not res:
            raise InvalidStructure(f"{name}: {res.describe()}")


class RetractionFamily:
    """A finite family of retractions of a finite S onto a nice subsemigroup
    T, the theorem's hypotheses, all checked by ``check_setting``: T (``view``,
    a SubsetQuery of S) is nice and each map a retraction onto T, listed once.

    ``maps`` is a read-only (k, |S|) table; row i holds the images of the
    i-th retraction, and iterating the family yields its rows.
    """

    def __init__(self, view, maps):
        maps = _integers(maps, InvalidStructure, "retraction", (None, None))
        if not len(maps):
            raise InvalidStructure("retraction family must be nonempty")
        check_setting(view, maps)
        maps.setflags(write=False)
        self.view = view
        self.maps = maps

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def images(self, v):
        """The image set {sigma(v)} as a sorted duplicate-free list."""
        return sorted(set(self.maps[:, v].tolist()))


def cyclic_semigroup(m):
    """(Z_m, +); the smallest non-idempotent examples live here."""
    idx = np.arange(_integer(m, InvalidStructure, "m", least=1))
    return FiniteSemigroup((idx[:, None] + idx[None, :]) % m)


def flag_index(a, i):
    return 2 * a + i


def flag_semigroup(m):
    """The order-2(m+1) semigroup of pairs (a, flag) under (max, or).

    Element (a, i) sits at index 2a+i.  Returns (S, view, family) where the
    view selects the flag-0 elements T and the family is {sigma_0..sigma_m}
    with sigma_g(a, 1) = (max(a, g), 0).
    """
    m = _integer(m, InvalidStructure, "m", least=0)
    n = 2 * (m + 1)
    table = np.empty((n, n), dtype=np.int64)
    labels = []
    for a in range(m + 1):
        for i in (0, 1):
            labels.append(f"({a},{i})")
    for a in range(m + 1):
        for i in (0, 1):
            for b in range(m + 1):
                for j in (0, 1):
                    table[flag_index(a, i), flag_index(b, j)] = flag_index(
                        max(a, b), i | j
                    )
    S = FiniteSemigroup(table, labels=labels)
    view = SubsetQuery.from_members(S, [flag_index(a, 0) for a in range(m + 1)])
    maps = np.empty((m + 1, n), dtype=np.int64)
    for g in range(m + 1):
        for a in range(m + 1):
            maps[g, flag_index(a, 0)] = flag_index(a, 0)
            maps[g, flag_index(a, 1)] = flag_index(max(a, g), 0)
    return S, view, RetractionFamily(view, maps)
