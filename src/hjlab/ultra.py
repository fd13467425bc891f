"""Ultrafilter calculus on finite carriers.

Every ultrafilter on a finite set is principal, so each one is stored as a
defining point but queried only through set membership.  The value of the
module is that the product, image and tensor operations are *evaluated by
their defining membership formulas* (nested set constructions), once per
call, on every subset of a carrier of at most LAW_BOUND points, and the
rows are confirmed to be those of the principal shortcut.  That makes the
classical identities mechanically verifiable at desk scale.

A family of subsets of a carrier of order t is held as a *set table*: a
uint8 array whose carrier axes come first (one per coordinate; membership
tests read the last of them), then a map axis (one column per map of a
stack, or a unit axis shared by every map), a point axis (a unit axis for a
test at one point, or one column per point of the carrier once every point
is tested at once), and last the subset axis, its 2^t subsets packed 8 per
byte, little-endian: bit m of a cell's packed row says whether the cell
lies in the m-th subset.  A gather along a carrier axis then copies packed
rows of 2^t/8 bytes.  Every level of every formula evaluates every subset.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iproduct

import numpy as np

from .errors import (
    CarrierMismatch,
    CarrierTooLarge,
    InvalidInstance,
    SearchSpaceTooLarge,
    VerificationError,
    _integer,
    _integers,
)
from .instances import TableColoring
from .search import finite_witness_search
from .semigroups import FiniteSemigroup, SubsetQuery, _size_of

# image, product and tensor check all 2^16 subsets of 16 cells; the product's
# translate sets then hold 16² cells × 2^16/8 packed bytes, 2 MiB
LAW_BOUND = 16
# tensor-power checks: the k = 3 translate sets of a semigroup of order n
# hold n³ cells × 2^n/8 packed bytes, 864 KiB at n = 12
PRODUCT_LAW_BOUND = 12
TENSOR_POWERS = (2, 3)  # the k of the tensor-power identity
# bytes one chunk of a map stack holds at once: the translate sets of its
# maps' semigroups next to the largest intermediate of the two sides
CHUNK_BYTES = 1 << 20
FIP_EXHAUSTIVE_LIMIT = 20
# the agreement equivalence enumerates all r^|T| colorings of T
AGREEMENT_MAX_ORDER = 10
AGREEMENT_MAX_COLORS = 3


class PrincipalUltrafilter:
    """All supersets of one point; membership is the only query surface."""

    def __init__(self, carrier, point):
        size = _size_of(carrier)
        point = _integer(point, CarrierMismatch, "a point")
        if not (0 <= point < size):
            raise CarrierMismatch(f"point {point} outside carrier of size {size}")
        self.carrier = carrier
        self.point = point

    def member_mask(self, mask):
        return bool((mask >> self.point) & 1)

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
    """Every subset of [0..size) as a set table: subset m is the set with
    bitmask m, so bit m of cell x's row is bit x of m; unit map and point
    axes sit between the cell and subset axes."""
    cells = np.arange(size, dtype=np.uint32)[:, None]
    inside = (np.arange(1 << size, dtype=np.uint32) >> cells) & 1
    return np.packbits(inside, axis=-1, bitorder="little")[:, None, None, :]


def _law_checked(member_of, size, point, operation):
    """``point``, the shortcut, once one run of the membership evaluator
    ``member_of`` (set table -> membership rows) on every subset of the
    ``size`` cells gives the rows of the principal ultrafilter at it.  Above
    LAW_BOUND cells nothing is evaluated."""
    if size > LAW_BOUND:
        raise CarrierTooLarge(f"{operation} law on {size} cells exceeds {LAW_BOUND}")
    B = subset_bits(size)
    if not np.array_equal(member_of(B), B[point]):
        raise VerificationError(f"{operation} law failed a subset check")
    return int(point)


def _at(sets, point=None):
    """Test a set table at a point of its last carrier axis c:
    (..., c, E, P, W) -> (..., E, P, W), by basic indexing.  With no point,
    every point is tested at once and P becomes c: column p reads point p of
    point column p (or of a unit point axis), a strided diagonal view."""
    if point is not None:
        return sets[..., point, :, :, :]
    *outer, c, maps, _, width = sets.shape
    sets = np.broadcast_to(sets, (*outer, c, maps, c, width))
    return np.moveaxis(np.diagonal(sets, axis1=-4, axis2=-2), -1, -2)


def _preimage(sets, f, column=None):
    """The full preimage of every set of a table, along its last carrier axis,
    under every map of the stack f (E, m): (..., c, G, P, W) ->
    (..., m, E, P, W); a single map is a stack of one.  Map e reads the sets
    of map column ``column[e]`` in place; by default, of its own column
    (G = E), or of a unit map axis shared by every map."""
    f = np.atleast_2d(f)
    if column is None:
        *outer, c, _, cols, width = sets.shape
        sets = np.broadcast_to(sets, (*outer, c, len(f), cols, width))
        column = np.arange(len(f))
    return sets[..., f.T, column, :, :]


def image_member(B, f, point):
    """Which sets of the table B (subsets of the target) lie in the image
    under f of the principal ultrafilter at ``point`` (at every point when
    None): the full preimage f⁻¹(B) is built for every set, then tested at
    the point.  f may be a stack of maps, one map column each."""
    return _at(_preimage(B, f), point)


def image(f, U, target):
    """Image ultrafilter of U under f, at f(point) once the membership law
    agrees with it on every subset of a target of at most LAW_BOUND points.
    """
    tsize = _size_of(target)
    f = _integers(f, CarrierMismatch, "image", (_size_of(U.carrier),), below=tsize)
    point = _law_checked(lambda B: image_member(B, f, U.point), tsize, f[U.point], "image")
    return PrincipalUltrafilter(target, point)


def translates(B, tables, k):
    """The translate sets of the innermost of k right-associated product
    levels, as a set table: {u : s₁*(...*(s_{k-1}*u)) ∈ R} for every set R of
    B and every s₁, ..., s_{k-1}, one new carrier axis per s before the axis u.
    ``tables`` is one Cayley table, or a stack of them, one per map column of
    the result; each level is the full preimage under the table read as a
    map on S×S."""
    n = np.shape(tables)[-1]
    pairs = np.reshape(tables, (-1, n * n))
    for _ in range(k - 1):
        T = _preimage(B, pairs)
        B = T.reshape(*T.shape[:-4], n, n, *T.shape[-3:])
    return B


def product_member(T, f, points, column=None):
    """Which sets of a set table B lie in f(U₁)*(f(U₂)*(...*f(U_k))), right
    associated, for the principal U_i at ``points`` (outermost first), f
    mapping into the semigroup with Cayley ``table``; f is the identity for a
    plain product.  ``T`` is ``translates(B, table, k)``, k = len(points).
    f may be a stack of maps, one map column each, with T's map column
    ``column[e]`` (by default e) holding the translate sets of map e's
    semigroup, read in place.  A point None at every level tests U₁ = ... =
    U_k at every point of the semigroup at once.

    From the innermost level out, the full set of s whose translate set is a
    member of the level below is built for every set and tested through the
    image law.
    """
    for p in reversed(points):
        T = _at(_preimage(T, f, column), p)
        column = None
    return T


def uf_product(U, V):
    """U*V on the finite semigroup U lives on, evaluated by the nested
    membership formula, which builds the set {s : s⁻¹A ∈ V} in full for
    every set A.  The formula is checked on every subset of at most
    LAW_BOUND points against the principal shortcut point(U)*point(V).
    """
    S = U.carrier
    if not isinstance(S, FiniteSemigroup):
        raise CarrierMismatch("uf_product needs a FiniteSemigroup carrier")
    _require_same_carrier(S.order, _size_of(V.carrier))
    points = (U.point, V.point)
    point = _law_checked(
        lambda B: product_member(translates(B, S.table, 2), np.arange(S.order), points),
        S.order, S.mul(*points), "product")
    return PrincipalUltrafilter(S, point)


def tensor_rows(X, dims, points):
    """Which sets of the table X over dims[0]×dims[1]×... (cells row-major)
    lie in U₁⊗(U₂⊗...), right associated, for the principal U_i at
    ``points``.  A point None at every level tests U₁ = ... = U_k at every
    point at once.

    At each level the full qualifying set {i : section_i ∈ inner} is built
    for every set (and column) before it is tested at the outer point.
    """
    sets = X.reshape(*dims, *X.shape[-3:])
    for p in reversed(points):
        sets = _at(sets, p)
    return sets


def uf_tensor(U, V):
    """U⊗V on the product carrier of sx * sy cells, indexed row-major,
    evaluated by the section formula and checked on every subset of at most
    LAW_BOUND cells against the principal cell U.point * sy + V.point."""
    sx, sy = _size_of(U.carrier), _size_of(V.carrier)
    points = (U.point, V.point)
    point = _law_checked(lambda X: tensor_rows(X, (sx, sy), points), sx * sy,
                         U.point * sy + V.point, "tensor")
    return PrincipalUltrafilter(sx * sy, point)


def check_tensor_assoc(dims, points):
    """(U⊗V)⊗W and U⊗(V⊗W) agree on every subset of the triple product.
    Both sides come from ``uf_tensor``, which checks its section formula on
    every subset against the one principal cell of the product, and refuses
    a product of more than LAW_BOUND cells with CarrierTooLarge.  A failing
    law raises VerificationError.
    """
    if len(dims) != 3 or len(points) != 3:
        raise InvalidInstance(f"(U⊗V)⊗W takes 3 factors, got dims {dims}, points {points}")
    if min(_integer(d, CarrierMismatch, "a factor size") for d in dims) < 1:
        raise InvalidInstance(f"need factor sizes >= 1, not {dims}")
    U, V, W = (PrincipalUltrafilter(d, p) for d, p in zip(dims, points))
    uf_tensor(uf_tensor(U, V), W)
    uf_tensor(U, uf_tensor(V, W))


def map_chunk_bytes(n, k):
    """Bytes one map adds to a ``tensor_power_failures`` chunk at order n and
    power k, at most: its semigroup's translate column, n^k rows of 2^n
    packed subset bits, next to the largest intermediate of either side, n^k
    such rows as well."""
    return 2 * -(-(1 << n) // 8) * n ** k


def tensor_power_failures(S, maps, k, owner=None):
    """The tensor-power identity for a stack of maps h, each an endomap of
    one of the semigroups S.

    S is one FiniteSemigroup, or a sequence of G semigroups of one order n;
    ``owner`` gives each of the E maps of ``maps`` the index of its semigroup
    (all 0 when omitted, so one semigroup takes a plain stack).  For every
    map and every principal V of S at v, the image of V's k-fold tensor
    power under (v₁..v_k) -> h(v₁*...*v_k) and the k-fold product power of
    h(V) are evaluated by their defining formulas (full preimage, translate
    and section sets at every level, for every subset); each side must
    agree on every subset with its principal point, h(v^k) or h(v)^k, or
    VerificationError names it.  The stack is evaluated in chunks, every
    point of S at once; each chunk builds its maps' semigroups' translate
    sets, one column each, read in place, and holds them and its largest
    intermediate in about CHUNK_BYTES.  The order n is bounded by
    PRODUCT_LAW_BOUND: the k = 3 translate sets hold n³ rows of 2^n/8 bytes.

    Returns an (E, n) int64 array, column p for V at p: -1 where h(p^k) =
    h(p)^k, else 1 << min(h(p^k), h(p)^k), the first subset mask where the
    two sides differ.
    """
    semigroups = [S] if isinstance(S, FiniteSemigroup) else list(S)
    if not semigroups:
        raise InvalidInstance("tensor powers need at least one semigroup")
    n = semigroups[0].order
    if n > PRODUCT_LAW_BOUND:
        raise CarrierTooLarge(f"order {n} exceeds {PRODUCT_LAW_BOUND}")
    for g, other in enumerate(semigroups):
        if other.order != n:
            raise CarrierMismatch(f"semigroup {g} has order {other.order}, not {n}")
    if _integer(k, InvalidInstance, "k") not in TENSOR_POWERS:
        raise InvalidInstance(f"tensor powers take k = 2 or 3 factors, not {k}")
    maps = _integers(maps, CarrierMismatch, "map", (None, n), below=n)
    owner = np.zeros(len(maps), dtype=np.int64) if owner is None else _integers(
        owner, CarrierMismatch, "owner", (len(maps),), below=len(semigroups)
    )
    tables = np.stack([other.table for other in semigroups])
    words = np.indices((n,) * k).reshape(k, -1)
    folds = words[0]
    for w in words[1:]:  # (G, n^k): w₁*...*w_k over S^k, for every semigroup
        folds = tables[np.arange(len(tables))[:, None], folds, w]
    bits = subset_bits(n)
    diagonal = np.arange(n) * sum(n ** i for i in range(k))  # the word (v, ..., v)
    step = max(1, CHUNK_BYTES // map_chunk_bytes(n, k))
    first = np.full((len(maps), n), -1, dtype=np.int64)
    for lo in range(0, len(maps), step):
        h, own = maps[lo:lo + step], owner[lo:lo + step]
        hw = np.take_along_axis(h, folds[own], axis=1)  # h(w₁*...*w_k) of every map
        lhs = tensor_rows(_preimage(bits, hw), (n,) * k, (None,) * k)
        groups, group_of = np.unique(own, return_inverse=True)
        T = translates(bits, tables[groups], k)  # one column per semigroup
        rhs = product_member(T, h, (None,) * k, column=group_of)
        image_at, power = hw[:, diagonal], h
        for _ in range(k - 1):  # h(v)^k, through each map's own table
            power = tables[own[:, None], h, power]
        for side, rows, point in (("image", lhs, image_at), ("product", rhs, power)):
            if not np.array_equal(rows, bits[point, 0, 0]):
                raise VerificationError(f"tensor-power {side} law failed a subset check")
        first[lo:lo + step] = np.where(image_at == power, -1, 1 << np.minimum(image_at, power))
    return first


def build_agreement_set(S, family, A):
    """{v in R : the image set {sigma(v)} lies inside A or misses A entirely}.

    All images land in T, so missing A is the same as landing in T\\A.
    Only R = S\\T is scanned, as in the paper's statement: a point of T is
    its own only image and would lie in every agreement set.  So the total
    intersection over all A ⊆ T is exactly the points of R with one image,
    and the family has the FIP exactly when statement (b) holds.
    """
    _require_same_carrier(S.order, _size_of(A.carrier))
    mask = 0
    for v in family.view.complement():
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


def check_fip(sets):
    """Finite intersection property over a list of SubsetQuery.

    A finite family has the FIP exactly when its total intersection is
    non-empty.  Up to FIP_EXHAUSTIVE_LIMIT sets every nonempty subfamily is
    still intersected (smallest subfamilies first, so a returned witness is
    minimal); beyond that the total intersection is the one check, and a
    failure names the whole family.
    """
    if not sets:
        return FipResult(True)
    size = _size_of(sets[0].carrier)
    for s in sets[1:]:
        _require_same_carrier(size, _size_of(s.carrier))
    masks = [s.mask for s in sets]
    checked = 0
    if len(masks) <= FIP_EXHAUSTIVE_LIMIT:
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
    total = (1 << size) - 1
    for m in masks:
        total &= m
    if not total:
        return FipResult(False, tuple(range(len(masks))), 1)
    return FipResult(True, None, 1)


def find_agreement_ultrafilter(S, family):
    """Least point of R = S\\T whose retraction images all coincide, as a
    principal ultrafilter; None when no point of R qualifies.

    Every point of T qualifies trivially, since a retraction fixes T, so only
    R is scanned.  Each image ultrafilter of the point found is also checked
    through the image membership law, on every subset of an S of at most
    LAW_BOUND points.
    """
    for u in family.view.complement():
        if len(family.images(u)) == 1:
            U = PrincipalUltrafilter(S, u)
            for row in family:
                image(row, U, S)
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
    b_point_in_r: int | None
    colorings_checked: int

    @property
    def b_holds(self):
        return self.b_point_in_r is not None

    @property
    def equivalent(self):
        return self.a_holds == self.b_holds


def check_agreement_equivalence(S, family, r):
    """Exhaustively compare statements (a) and (b) above on a finite S of
    order up to AGREEMENT_MAX_ORDER, with up to AGREEMENT_MAX_COLORS colors.

    (a) runs the witness scan of ``search.finite_witness_search`` on every
    r-coloring of T in turn, up to the first that has no witness."""
    r = _integer(r, InvalidInstance, "r", least=1)
    if S.order > AGREEMENT_MAX_ORDER:
        raise SearchSpaceTooLarge(f"order {S.order} exceeds {AGREEMENT_MAX_ORDER}")
    if r > AGREEMENT_MAX_COLORS:
        raise SearchSpaceTooLarge(f"{r} colors exceed {AGREEMENT_MAX_COLORS}")
    keys = [TableColoring.key_for(t) for t in family.view.members()]
    a_holds = True
    a_counterexample = None
    checked = 0
    for coloring in iproduct(range(r), repeat=len(keys)):
        checked += 1
        if finite_witness_search(family, TableColoring(zip(keys, coloring), r=r)).witness is None:
            a_holds = False
            a_counterexample = coloring
            break

    b_in_r = find_agreement_ultrafilter(S, family)
    return AgreementEquivalenceReport(
        r=r,
        a_holds=a_holds,
        a_counterexample=a_counterexample,
        b_point_in_r=None if b_in_r is None else b_in_r.point,
        colorings_checked=checked,
    )
