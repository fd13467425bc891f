"""Finite semigroups, nice subsemigroups and retraction families.

A finite semigroup is a Cayley table over carrier [0..n).  A subsemigroup T
is *nice* when its complement R = S\\T is a two-sided ideal; equivalently
a*b lands in T exactly when both factors do.  A retraction is a homomorphism
S -> T fixing T pointwise.  All types are immutable after validation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssociativityViolation,
    ClosureViolation,
    EmptySubset,
    InvalidStructure,
)


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
        return f"{self.clause} fails at {self.witness}"


class FiniteSemigroup:
    """Carrier [0..n) with an associative Cayley table.

    ``table[i][j]`` encodes the product i*j.  Closure and associativity are
    enforced at construction; instances are safe to share between workers.
    """

    def __init__(self, table, labels=None):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] < 1:
            raise InvalidStructure("Cayley table must be a nonempty square matrix")
        n = table.shape[0]
        bad = np.argwhere((table < 0) | (table >= n))
        if len(bad):
            i, j = map(int, bad[0])
            raise ClosureViolation(i, j, int(table[i, j]), n)
        # left[i,j,k] = (i*j)*k, right[i,j,k] = i*(j*k); argwhere scans in
        # lexicographic order so the first failing triple is deterministic.
        left = table[table]
        right = table[:, table]
        diff = np.argwhere(left != right)
        if len(diff):
            i, j, k = map(int, diff[0])
            raise AssociativityViolation(i, j, k)
        self.table = table
        self.table.setflags(write=False)
        self.labels = list(labels) if labels is not None else None

    @property
    def order(self):
        return int(self.table.shape[0])

    def mul(self, a, b):
        return int(self.table[a, b])

    def fold(self, elements):
        """Product of a nonempty sequence, left to right.

        Index arrays as factors are folded elementwise, so
        ``fold(np.indices((n,) * k))`` tabulates the k-fold product on S^k.
        """
        it = iter(elements)
        acc = next(it)
        for x in it:
            acc = self.table[acc, x]
        return int(acc) if np.ndim(acc) == 0 else acc

    def element_name(self, i):
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order})"


class NiceSubsemigroupView:
    """A subsemigroup T of a finite semigroup, held as a bitmask.

    The view is only a container; run :func:`is_nice_subsemigroup` to check
    that T is closed and that R = S\\T is a two-sided ideal.
    """

    def __init__(self, parent, mask):
        if not isinstance(parent, FiniteSemigroup):
            raise TypeError("NiceSubsemigroupView needs a FiniteSemigroup parent")
        mask = int(mask)
        if mask <= 0:
            raise EmptySubset("subsemigroup mask selects no element")
        if mask >> parent.order:
            raise InvalidStructure("mask selects elements outside the carrier")
        self.parent = parent
        self.mask = mask

    def contains(self, i):
        return bool((self.mask >> i) & 1)

    def members(self):
        return [i for i in range(self.parent.order) if self.contains(i)]

    def complement(self):
        return [i for i in range(self.parent.order) if not self.contains(i)]

    @classmethod
    def from_members(cls, parent, members):
        mask = 0
        for i in members:
            if not 0 <= i < parent.order:
                raise InvalidStructure(
                    f"T member {i} is outside the carrier [0..{parent.order})"
                )
            mask |= 1 << i
        return cls(parent, mask)


def is_nice_subsemigroup(view):
    """Decide whether the T of ``view`` (a NiceSubsemigroupView, which is
    never empty) is a subsemigroup of its finite S with ideal complement.

    Returns a CheckResult whose witness is the first violating pair.
    """
    S = view.parent
    members = view.members()
    comp = view.complement()
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


class Retraction:
    """Total map S -> T on a finite semigroup, held as an index array."""

    def __init__(self, mapping):
        self.mapping = np.asarray(mapping, dtype=np.int64)
        self.mapping.setflags(write=False)

    def apply(self, x):
        return int(self.mapping[x])

    def same_as(self, other):
        return isinstance(other, Retraction) and np.array_equal(
            self.mapping, other.mapping
        )

    def describe(self):
        return ",".join(str(int(v)) for v in self.mapping)

    def __repr__(self):
        return f"Retraction([{self.describe()}])"


def validate_retraction(view, retraction):
    """Check homomorphism, identity-on-T and range-in-T for one map on the
    finite S of ``view``, exhaustively.  Returns a CheckResult naming the
    first failing clause.
    """
    S = view.parent
    sigma = retraction.mapping
    if sigma.shape != (S.order,):
        return CheckResult(False, "totality", (len(sigma), S.order))
    if ((sigma < 0) | (sigma >= S.order)).any():
        bad = int(np.argwhere((sigma < 0) | (sigma >= S.order))[0])
        return CheckResult(False, "range", (bad, int(sigma[bad])))
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


class RetractionFamily:
    """A validated, duplicate-free finite family of retractions onto one
    view; each member is checked exhaustively by ``validate_retraction``.
    """

    def __init__(self, view, retractions):
        retractions = list(retractions)
        if not retractions:
            raise InvalidStructure("retraction family must be nonempty")
        for r in retractions:
            res = validate_retraction(view, r)
            if not res:
                raise InvalidStructure(f"invalid retraction: {res.describe()}")
        for i in range(len(retractions)):
            for j in range(i + 1, len(retractions)):
                if retractions[i].same_as(retractions[j]):
                    raise InvalidStructure(f"duplicate retractions at positions {i} and {j}")
        self.view = view
        self.retractions = retractions

    def __len__(self):
        return len(self.retractions)

    def __iter__(self):
        return iter(self.retractions)

    def images(self, v):
        """The image set {sigma(v)} as a sorted duplicate-free list."""
        return sorted({r.apply(v) for r in self.retractions})


def max_semigroup(m):
    """({0..m}, max); handy idempotent commutative test case."""
    n = m + 1
    table = np.maximum.outer(np.arange(n), np.arange(n))
    return FiniteSemigroup(table)


def cyclic_semigroup(m):
    """(Z_m, +); the smallest non-idempotent examples live here."""
    idx = np.arange(m)
    return FiniteSemigroup((idx[:, None] + idx[None, :]) % m)


def flag_index(a, i):
    return 2 * a + i


def flag_semigroup(m):
    """The order-2(m+1) semigroup of pairs (a, flag) under (max, or).

    Element (a, i) sits at index 2a+i.  Returns (S, view, family) where the
    view selects the flag-0 elements T and the family is {sigma_0..sigma_m}
    with sigma_g(a, 1) = (max(a, g), 0).
    """
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
    view = NiceSubsemigroupView.from_members(S, [flag_index(a, 0) for a in range(m + 1)])
    retractions = []
    for g in range(m + 1):
        mapping = np.empty(n, dtype=np.int64)
        for a in range(m + 1):
            mapping[flag_index(a, 0)] = flag_index(a, 0)
            mapping[flag_index(a, 1)] = flag_index(max(a, g), 0)
        retractions.append(Retraction(mapping))
    return S, view, RetractionFamily(view, retractions)
