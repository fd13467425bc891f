"""Ultrafilter calculus on finite carriers.

Every ultrafilter on a finite set is principal, so each one is stored as a
defining point but queried only through set membership.  The value of the
module is that the product, image and tensor operations are *evaluated by
their defining membership formulas* (nested set constructions), and separate
checkers confirm, subset by subset, that the formula route agrees with the
principal shortcut.  That makes the classical identities mechanically
verifiable at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iproduct
from math import prod

import numpy as np

from .errors import (
    CarrierMismatch,
    CarrierTooLarge,
    InvalidInstance,
    SearchSpaceTooLarge,
    VerificationError,
)
from .semigroups import FiniteSemigroup

IMAGE_LAW_BOUND = 16  # exhaustive subset checks up to 2^16 memberships
PRODUCT_LAW_BOUND = 12
FIP_EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True)
class ProductCarrier:
    """Cartesian product of finite carriers, indexed row-major."""

    sizes: tuple

    @property
    def size(self):
        return prod(self.sizes)


def _size_of(carrier):
    return carrier if isinstance(carrier, int) else carrier.size


@dataclass(frozen=True)
class SubsetQuery:
    """A subset of a finite carrier, held as a bitmask."""

    carrier: object
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> _size_of(self.carrier):
            raise ValueError("mask does not fit the carrier")

    @classmethod
    def from_members(cls, carrier, members):
        mask = 0
        for i in members:
            mask |= 1 << i
        return cls(carrier, mask)

    def members(self):
        return [i for i in range(_size_of(self.carrier)) if (self.mask >> i) & 1]

    def complement(self):
        full = (1 << _size_of(self.carrier)) - 1
        return SubsetQuery(self.carrier, full & ~self.mask)

    def contains(self, i):
        return bool((self.mask >> i) & 1)


class PrincipalUltrafilter:
    """All supersets of one point; membership is the only query surface."""

    def __init__(self, carrier, point):
        size = _size_of(carrier)
        if not (0 <= point < size):
            raise ValueError(f"point {point} outside carrier of size {size}")
        self.carrier = carrier
        self.point = point

    def member_mask(self, mask):
        return bool((mask >> self.point) & 1)

    def __eq__(self, other):
        return (
            isinstance(other, PrincipalUltrafilter)
            and _size_of(self.carrier) == _size_of(other.carrier)
            and self.point == other.point
        )

    def __repr__(self):
        return f"PrincipalUltrafilter(point={self.point}, size={_size_of(self.carrier)})"


def _require_same_carrier(a_size, b_size):
    if a_size != b_size:
        raise CarrierMismatch(f"carrier sizes differ: {a_size} vs {b_size}")


def member(U, A):
    """A ∈ U, i.e. the defining point lies in A."""
    _require_same_carrier(_size_of(U.carrier), _size_of(A.carrier))
    return U.member_mask(A.mask)


def subset_bits(size):
    """Every subset of [0..size) as a boolean row: row m is the set with
    bitmask m."""
    return ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1).astype(bool)


def _mask_rows(masks, cells):
    # bitmasks of any width -> boolean rows, through their little-endian
    # bytes; bits beyond the cells are ignored, as a bit-shifting read would
    width = (cells + 7) // 8
    full = (1 << cells) - 1
    raw = np.frombuffer(
        b"".join((m & full).to_bytes(width, "little") for m in masks), dtype=np.uint8
    )
    bits = np.unpackbits(raw.reshape(-1, width), axis=1, bitorder="little")
    return bits[:, :cells].astype(bool)


def _unique_singleton(hits, operation):
    """The point of an ultrafilter located by its membership evaluator run on
    every singleton: exactly one singleton may be a member."""
    found = np.flatnonzero(hits)
    if len(found) != 1:
        raise VerificationError(f"{operation} membership hit {len(found)} singletons")
    return int(found[0])


def _map_into(f, size):
    f = np.asarray(f, dtype=np.int64)
    bad = np.flatnonzero((f < 0) | (f >= size))
    if len(bad):
        s = int(bad[0])
        raise CarrierMismatch(f"map sends {s} to {int(f[s])}, outside a carrier of size {size}")
    return f


def _at(sets, points):
    """Test sets (rows × carrier) at a point, or at a vector of points; sets
    with a trailing axis hold one column per point, and each point tests its
    own column (a diagonal pick)."""
    if sets.ndim == 2:
        return sets[:, points]
    return sets[:, points, np.arange(len(points))]


def image_member(B, f, points):
    """Which rows of B (subsets of the target) lie in the image under f of
    the principal ultrafilter at ``points`` (a point, or a vector of points
    giving one column each): the full preimage f⁻¹(B) is built for every
    row, then tested at the point.  B may carry one column per point."""
    return _at(B[:, f], points)


def image(f, U, target):
    """Image ultrafilter of U under f, located through the membership law.

    The point is found as the unique q whose singleton has its f-preimage in
    U; no shortcut through f(point) is taken.  When the target is small
    enough the law is also checked on every subset.
    """
    _require_same_carrier(len(f), _size_of(U.carrier))
    tsize = _size_of(target)
    f = _map_into(f, tsize)
    found = _unique_singleton(image_member(np.eye(tsize, dtype=bool), f, U.point), "image")
    if tsize <= IMAGE_LAW_BOUND and not check_image_law(f, U, target):
        raise VerificationError("image law failed a subset check")
    return PrincipalUltrafilter(target, found)


def check_image_law(f, U, target):
    """Exhaustively confirm A ∈ f(U) ⟺ f⁻¹(A) ∈ U over every subset."""
    tsize = _size_of(target)
    if tsize > IMAGE_LAW_BOUND:
        raise CarrierTooLarge(f"target size {tsize} exceeds {IMAGE_LAW_BOUND}")
    _require_same_carrier(len(f), _size_of(U.carrier))
    f = _map_into(f, tsize)
    B = subset_bits(tsize)
    return bool(np.array_equal(image_member(B, f, U.point), B[:, f[U.point]]))


def translate_chain(B, table, k):
    """The translate sets of k right-associated product levels, as rows:
    level 0 is B and level i+1 holds {u : s*u ∈ R} for every row R of level
    i and every s, so it has t times the rows (t the order of ``table``)."""
    chain = [B]
    for _ in range(k - 1):
        chain.append(chain[-1][:, table].reshape(-1, B.shape[1]))
    return chain


def product_member(B, table, f, points, chain=None):
    """Which rows of B lie in f(U₁)*(f(U₂)*(...*f(U_k))), right associated,
    for the principal U_i at ``points`` (outermost first), f mapping into
    the semigroup with Cayley ``table``; f is the identity for a plain
    product.  Each level's point may be a vector, one result column each.

    At each level the translate sets {u : s*u ∈ B} are built for every s
    and row (or taken from ``chain``, a prebuilt ``translate_chain`` of B of
    at least k levels), the inner levels decide which of them are members,
    and the full set of qualifying s is tested through the image law.
    """
    if chain is None:
        chain = translate_chain(B, table, len(points))
    inner = image_member(chain[len(points) - 1], f, points[-1])
    for level in reversed(range(len(points) - 1)):
        rows = chain[level].shape[0]
        inner = image_member(inner.reshape(rows, -1, *inner.shape[1:]), f, points[level])
    return inner


def uf_product(U, V, S=None, check=True):
    """U*V on a finite semigroup, evaluated by the nested membership formula.

    The formula is evaluated on every singleton {p}, building the set
    {s : s⁻¹{p} ∈ V} in full; the unique hit is the product.  On small
    carriers the agreement with the principal shortcut is also checked on
    every subset.
    """
    if S is None:
        S = U.carrier
    if not isinstance(S, FiniteSemigroup):
        raise TypeError("uf_product needs a FiniteSemigroup carrier")
    _require_same_carrier(S.order, _size_of(U.carrier))
    _require_same_carrier(S.order, _size_of(V.carrier))
    n = S.order
    hits = product_member(np.eye(n, dtype=bool), S.table, np.arange(n), (U.point, V.point))
    found = _unique_singleton(hits, "product")
    if check and n <= PRODUCT_LAW_BOUND and not check_product_law(S, U, V):
        raise VerificationError("product law failed a subset check")
    return PrincipalUltrafilter(S, found)


def uf_power(U, k, S=None):
    """The k-fold product U*U*...*U (right associated)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    acc = U
    for _ in range(k - 1):
        acc = uf_product(U, acc, S, check=False)
    return acc


def check_product_law(S, U, V):
    """Confirm, for every subset, that the nested formula for U*V agrees
    with the principal shortcut point(U)*point(V)."""
    n = S.order
    if n > PRODUCT_LAW_BOUND:
        raise CarrierTooLarge(f"carrier size {n} exceeds {PRODUCT_LAW_BOUND}")
    B = subset_bits(n)
    formula = product_member(B, S.table, np.arange(n), (U.point, V.point))
    return bool(np.array_equal(formula, B[:, S.mul(U.point, V.point)]))


def tensor_rows(X, dims, points):
    """Which rows of X (subsets of dims[0]×dims[1]×..., row-major) lie in
    U₁⊗(U₂⊗...), right associated, for the principal U_i at ``points``.
    Each level's point may be a vector, one result column each.

    At each level the full qualifying set {i : section_i ∈ inner} is built
    for every row (and point) before it is tested at the outer point.
    """
    if len(dims) == 1:
        return _at(X, points[0])
    batch = X.shape[0]
    inner = tensor_rows(X.reshape(batch * dims[0], -1), dims[1:], points[1:])
    return _at(inner.reshape(batch, dims[0], *inner.shape[1:]), points[0])


def _require_triple(dims, points):
    if len(dims) != 3 or len(points) != 3:
        raise InvalidInstance(f"(U⊗V)⊗W takes 3 factors, got dims {dims}, points {points}")


def _tensor_left_rows(X, dims, points):
    # (U₁⊗U₂)⊗U₃: section ij lies in U₃ iff it holds U₃'s point, so the
    # qualifying set over dims[0]×dims[1] is a pick of every dims[2]-th column
    i, j, k = dims
    return tensor_rows(X[:, points[2]::k], (i, j), points[:2])


def uf_tensor(U, V):
    """U⊗V on the product carrier, evaluated by the section formula."""
    carrier = ProductCarrier((_size_of(U.carrier), _size_of(V.carrier)))
    hits = tensor_rows(np.eye(carrier.size, dtype=bool), carrier.sizes, (U.point, V.point))
    return PrincipalUltrafilter(carrier, _unique_singleton(hits, "tensor"))


def tensor_member(mask, dims, points):
    """X ∈ U₁⊗(U₂⊗...) by vertical sections, right associated, for the
    bitmask ``mask`` of X ⊆ dims[0]×dims[1]×... (row-major)."""
    return bool(tensor_rows(_mask_rows([mask], prod(dims)), dims, points)[0])


def tensor_member_left(mask, dims, points):
    """X ∈ (U₁⊗U₂)⊗U₃ for a triple, pairing the first two coordinates."""
    _require_triple(dims, points)
    return bool(_tensor_left_rows(_mask_rows([mask], prod(dims)), dims, points)[0])


def check_tensor_assoc(dims, points):
    """(U⊗V)⊗W and U⊗(V⊗W) agree on every subset of the triple product,
    which may have at most IMAGE_LAW_BOUND cells (2^cells memberships).
    Returns (ok, first failing mask or None).
    """
    _require_triple(dims, points)
    cells = prod(dims)
    if cells > IMAGE_LAW_BOUND:
        raise CarrierTooLarge(f"triple product of {cells} cells exceeds {IMAGE_LAW_BOUND}")
    X = subset_bits(cells)
    diff = np.flatnonzero(tensor_rows(X, dims, points) != _tensor_left_rows(X, dims, points))
    if len(diff):
        return False, int(diff[0])
    return True, None


class TensorPowerTables:
    """The tensor-power identity of S mapped into ``target`` (default S).

    What depends on the target alone is built once and shared by every
    (h, k, V): the subset table and, lazily up to the largest k asked for,
    its translate chain (the translate sets of every product level).  Both
    sides are still evaluated by their defining formulas, full preimage,
    translate and section sets at every level, for all requested points in
    one batch.  The target is bounded by PRODUCT_LAW_BOUND because the k = 3
    tables hold 2^t·n³ booleans.
    """

    def __init__(self, S, target=None):
        self.S = S
        self.target = S if target is None else target
        t = self.target.order
        if t > PRODUCT_LAW_BOUND:
            raise CarrierTooLarge(f"target size {t} exceeds {PRODUCT_LAW_BOUND}")
        self.bits = subset_bits(t)
        self.chain = [self.bits]

    def first_failures(self, h, k, points):
        """[(V point, first subset mask where the image of V's k-fold tensor
        power and the k-fold power of h(V) differ, or None)] for every point."""
        if k not in (2, 3):
            raise InvalidInstance(f"tensor powers take k = 2 or 3 factors, not {k}")
        n = self.S.order
        _require_same_carrier(len(h), n)
        h = _map_into(h, self.target.order)
        if len(self.chain) < k:
            self.chain = translate_chain(self.bits, self.target.table, k)
        points = np.asarray(points, dtype=np.int64)
        bad = np.flatnonzero((points < 0) | (points >= n))
        if len(bad):
            raise CarrierMismatch(f"point {int(points[bad[0]])} is outside S of order {n}")
        folded = h[self.S.fold(np.indices((n,) * k))].reshape(-1)
        pre = self.bits[:, folded]  # pre[m, w] ⟺ h(w₁*...*w_k) ∈ A_m, over S^k
        lhs = tensor_rows(pre, (n,) * k, (points,) * k)
        rhs = product_member(self.bits, self.target.table, h, (points,) * k, chain=self.chain)
        diff = lhs != rhs  # one column per point
        first = np.where(diff.any(axis=0), diff.argmax(axis=0), -1)
        return [(int(vp), int(m) if m >= 0 else None) for vp, m in zip(points, first)]


def check_tensor_power_law(S, h, k, V, target=None):
    """Image of the k-fold tensor power equals the k-th product power.

    For every subset A of the target: A lies in the image of V^⊗k under the
    fold-then-map homomorphism iff A lies in the k-fold product of the image
    ultrafilter of V.  Both sides are evaluated by their defining formulas.
    Returns (ok, first failing SubsetQuery or None).
    """
    tables = TensorPowerTables(S, target)
    [(_, bad)] = tables.first_failures(h, k, [V.point])
    if bad is None:
        return True, None
    return False, SubsetQuery(tables.target, bad)


def build_agreement_set(S, family, A):
    """{v : the image set {sigma(v)} lies inside A or misses A entirely}.

    All images land in T, so missing A is the same as landing in T\\A.
    """
    _require_same_carrier(S.order, _size_of(A.carrier))
    mask = 0
    for v in range(S.order):
        images = family.images(v)
        inside = sum(1 for x in images if A.contains(x))
        if inside == 0 or inside == len(images):
            mask |= 1 << v
    return SubsetQuery(S, mask)


@dataclass
class FipResult:
    ok: bool
    witness: tuple | None = None  # indices of an empty-intersection subfamily
    subfamilies_checked: int = 0


def check_fip(sets, exhaustive_limit=FIP_EXHAUSTIVE_LIMIT):
    """Finite intersection property over a list of SubsetQuery.

    Up to ``exhaustive_limit`` sets every nonempty subfamily is intersected
    (smallest subfamilies first, so a returned witness is minimal); beyond
    that only pairwise and total intersections are tried.
    """
    if not sets:
        return FipResult(True)
    size = _size_of(sets[0].carrier)
    for s in sets[1:]:
        _require_same_carrier(size, _size_of(s.carrier))
    masks = [s.mask for s in sets]
    checked = 0
    if len(masks) <= exhaustive_limit:
        for take in range(1, len(masks) + 1):
            for combo in combinations(range(len(masks)), take):
                checked += 1
                inter = (1 << size) - 1
                for i in combo:
                    inter &= masks[i]
                    if not inter:
                        break
                if not inter:
                    return FipResult(False, combo, checked)
        return FipResult(True, None, checked)
    # large families: pairwise plus the total intersection only
    for combo in combinations(range(len(masks)), 2):
        checked += 1
        if not (masks[combo[0]] & masks[combo[1]]):
            return FipResult(False, combo, checked)
    total = (1 << size) - 1
    for m in masks:
        total &= m
    checked += 1
    if not total:
        return FipResult(False, tuple(range(len(masks))), checked)
    return FipResult(True, None, checked)


def find_agreement_ultrafilter(S, family, within=None):
    """Least point whose retraction images all coincide, as a principal
    ultrafilter; None when no point qualifies.

    ``within`` optionally restricts the candidate points (a bitmask).  The
    agreement of image ultrafilters is re-checked through the image
    membership formula, not just pointwise.
    """
    for u in range(S.order):
        if within is not None and not ((within >> u) & 1):
            continue
        if len(family.images(u)) == 1:
            U = PrincipalUltrafilter(S, u)
            imgs = [image(r.mapping, U, S) for r in family]
            if any(im != imgs[0] for im in imgs):  # formula-route cross-check
                raise VerificationError("image law disagrees with pointwise images")
            return U
    return None


@dataclass
class AgreementEquivalenceReport:
    """Joint truth of the two faces of the finite agreement equivalence.

    (a) every r-coloring of T admits some v in R with a monochromatic image
    set; (b) some point of R has all retraction images equal.  (b) implies
    (a) for every r; the converse is checked here at the given r only.
    """

    r: int
    a_holds: bool
    a_counterexample: tuple | None  # coloring of T (by member order) or None
    a_first_witness: int | None  # witness for the all-zero coloring
    b_point_in_r: int | None
    colorings_checked: int

    @property
    def b_holds(self):
        return self.b_point_in_r is not None

    @property
    def equivalent(self):
        return self.a_holds == self.b_holds


def check_agreement_equivalence(S, family, r, max_order=10, max_colors=3):
    """Exhaustively compare statements (a) and (b) above on a finite S."""
    if r < 1:
        raise InvalidInstance(f"need r >= 1 colors, not {r}")
    if S.order > max_order:
        raise SearchSpaceTooLarge(f"order {S.order} exceeds {max_order}")
    if r > max_colors:
        raise SearchSpaceTooLarge(f"{r} colors exceed {max_colors}")
    view = family.view
    t_members = view.members()
    r_members = view.complement()
    color_of = {}

    def witness_for(coloring):
        for i, t in enumerate(t_members):
            color_of[t] = coloring[i]
        for v in r_members:
            colors = {color_of[x] for x in family.images(v)}
            if len(colors) == 1:
                return v
        return None

    a_holds = True
    a_counterexample = None
    a_first_witness = None
    checked = 0
    for coloring in iproduct(range(r), repeat=len(t_members)):
        checked += 1
        w = witness_for(coloring)
        if checked == 1:
            a_first_witness = w
        if w is None:
            a_holds = False
            a_counterexample = coloring
            break

    b_in_r = find_agreement_ultrafilter(S, family, within=view.complement_mask)
    return AgreementEquivalenceReport(
        r=r,
        a_holds=a_holds,
        a_counterexample=a_counterexample,
        a_first_witness=a_first_witness,
        b_point_in_r=None if b_in_r is None else b_in_r.point,
        colorings_checked=checked,
    )
