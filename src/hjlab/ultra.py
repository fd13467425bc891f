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

import random
from dataclasses import dataclass
from itertools import combinations, product as iproduct
from math import prod

import numpy as np

from .errors import (
    CarrierMismatch,
    CarrierTooLarge,
    SearchSpaceTooLarge,
)
from .semigroups import FiniteSemigroup, product

IMAGE_LAW_BOUND = 16  # exhaustive subset checks up to 2^16 memberships
PRODUCT_LAW_BOUND = 12
FIP_EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True)
class Carrier:
    """A bare finite index set, for targets that carry no operation."""

    size: int
    name: str = ""


@dataclass(frozen=True)
class ProductCarrier:
    """Cartesian product of finite carriers, indexed row-major."""

    sizes: tuple

    @property
    def size(self):
        return prod(self.sizes)

    def encode(self, indices):
        flat = 0
        for s, i in zip(self.sizes, indices):
            flat = flat * s + i
        return flat

    def decode(self, flat):
        out = []
        for s in reversed(self.sizes):
            out.append(flat % s)
            flat //= s
        return tuple(reversed(out))


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

    def member(self, A):
        return member(self, A)

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


def translate_preimage(S, s, A):
    """{t : s*t ∈ A} as a SubsetQuery on S."""
    _require_same_carrier(S.order, _size_of(A.carrier))
    mask = 0
    row = S.table[s]
    for t in range(S.order):
        if (A.mask >> int(row[t])) & 1:
            mask |= 1 << t
    return SubsetQuery(A.carrier, mask)


def image(f, U, target, check=True):
    """Image ultrafilter of U under f, located through the membership law.

    The point is found as the unique q whose singleton has its f-preimage in
    U; no shortcut through f(point) is taken.  When the target is small
    enough the full formula-level law is asserted on every subset.
    """
    f = np.asarray(f, dtype=np.int64)
    _require_same_carrier(len(f), _size_of(U.carrier))
    tsize = _size_of(target)
    found = None
    for q in range(tsize):
        pre = 0
        for s in range(len(f)):
            if f[s] == q:
                pre |= 1 << s
        if U.member_mask(pre):
            if found is not None:
                raise AssertionError("image membership hit two singletons")
            found = q
    if found is None:
        raise AssertionError("image membership hit no singleton")
    out = PrincipalUltrafilter(target, found)
    if check and tsize <= IMAGE_LAW_BOUND:
        if not _image_law_exhaustive(f, U.point, tsize):
            raise AssertionError("image law failed a subset check")
    return out


def _image_law_exhaustive(f, upoint, tsize):
    masks = np.arange(1 << tsize)
    abits = ((masks[:, None] >> np.arange(tsize)) & 1).astype(bool)
    pre = abits[:, f]  # pre[m, s] ⟺ f(s) ∈ A_m
    formula = pre[:, upoint]
    shortcut = abits[:, f[upoint]]
    return bool(np.array_equal(formula, shortcut))


def check_image_law(f, U, target):
    """Exhaustively confirm A ∈ f(U) ⟺ f⁻¹(A) ∈ U over every subset."""
    f = np.asarray(f, dtype=np.int64)
    tsize = _size_of(target)
    if tsize > IMAGE_LAW_BOUND:
        raise CarrierTooLarge(f"target size {tsize} exceeds {IMAGE_LAW_BOUND}")
    image(f, U, target, check=False)  # singleton search must succeed
    return _image_law_exhaustive(f, U.point, tsize)


def uf_product(U, V, S=None, check=True):
    """U*V on a finite semigroup, evaluated by the nested membership formula.

    For each candidate point p the set {s : s⁻¹{p} ∈ V} is constructed in
    full and then tested against U; the unique singleton hit is the product.
    On small carriers the agreement with the principal shortcut is asserted
    over every subset.
    """
    if S is None:
        S = U.carrier
    if not isinstance(S, FiniteSemigroup):
        raise TypeError("uf_product needs a FiniteSemigroup carrier")
    _require_same_carrier(S.order, _size_of(U.carrier))
    _require_same_carrier(S.order, _size_of(V.carrier))
    n = S.order
    found = None
    for p in range(n):
        hits = S.table == p  # hits[s, t] ⟺ s*t ∈ {p}
        qualifying = hits[:, V.point]  # s qualifies ⟺ translate set ∈ V
        if qualifying[U.point]:
            if found is not None:
                raise AssertionError("product membership hit two singletons")
            found = p
    if found is None:
        raise AssertionError("product membership hit no singleton")
    if check and n <= PRODUCT_LAW_BOUND:
        if not check_product_law(S, U, V):
            raise AssertionError("product law failed a subset check")
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
    masks = np.arange(1 << n)
    abits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    trans = abits[:, S.table]  # trans[m, s, t] ⟺ s*t ∈ A_m
    mem_v = trans[:, :, V.point]  # per s: translate set ∈ V
    formula = mem_v[:, U.point]
    shortcut = abits[:, S.mul(U.point, V.point)]
    return bool(np.array_equal(formula, shortcut))


def uf_tensor(U, V):
    """U⊗V on the product carrier, evaluated by the section formula."""
    isize = _size_of(U.carrier)
    jsize = _size_of(V.carrier)
    carrier = ProductCarrier((isize, jsize))
    found = None
    for flat in range(carrier.size):
        mask = 1 << flat
        if tensor_member(mask, (isize, jsize), (U.point, V.point)):
            if found is not None:
                raise AssertionError("tensor membership hit two singletons")
            found = flat
    if found is None:
        raise AssertionError("tensor membership hit no singleton")
    return PrincipalUltrafilter(carrier, found)


def tensor_member(mask, dims, points):
    """X ∈ U₁⊗(U₂⊗...) by vertical sections, right associated.

    ``mask`` encodes X ⊆ dims[0]×dims[1]×... row-major.  At each level the
    full qualifying set {i : section_i ∈ inner} is built before testing it
    against the outer ultrafilter's point.
    """
    if len(dims) == 1:
        return bool((mask >> points[0]) & 1)
    rest = dims[1:]
    rest_size = prod(rest)
    section_mask = (1 << rest_size) - 1
    qualifying = 0
    for i in range(dims[0]):
        section = (mask >> (i * rest_size)) & section_mask
        if tensor_member(section, rest, points[1:]):
            qualifying |= 1 << i
    return bool((qualifying >> points[0]) & 1)


def tensor_member_left(mask, dims, points):
    """X ∈ (U₁⊗U₂)⊗U₃ for a triple, pairing the first two coordinates."""
    i, j, k = dims
    section_mask = (1 << k) - 1
    qualifying = 0
    for ij in range(i * j):
        section = (mask >> (ij * k)) & section_mask
        if (section >> points[2]) & 1:
            qualifying |= 1 << ij
    return tensor_member(qualifying, (i, j), points[:2])


def check_tensor_assoc(dims, points, exhaustive_cells=16, samples=200_000, seed=0):
    """(U⊗V)⊗W and U⊗(V⊗W) agree on subsets of the triple product.

    Exhaustive when the product has at most ``exhaustive_cells`` cells
    (2^cells memberships); otherwise a seeded random sample of subsets.
    Returns (ok, first failing mask or None).
    """
    cells = prod(dims)
    if cells <= exhaustive_cells:
        masks = range(1 << cells)
    else:
        rng = random.Random(seed)
        top = (1 << cells) - 1
        masks = (rng.randint(0, top) for _ in range(samples))
    for mask in masks:
        if tensor_member(mask, dims, points) != tensor_member_left(mask, dims, points):
            return False, mask
    return True, None


def psi_map(S, sigma, k):
    """The evaluator (v₁..v_k) -> sigma(v₁*...*v_k), for any semigroup.

    ``sigma`` is a Retraction/Substitution (anything with .apply) or a bare
    callable; k = 1 gives sigma itself.  Works on word semigroups as well as
    finite ones.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    apply_sigma = sigma.apply if hasattr(sigma, "apply") else sigma

    def psi(vs):
        if len(vs) != k:
            raise ValueError(f"expected a {k}-tuple")
        acc = vs[0]
        for v in vs[1:]:
            acc = product(S, acc, v)
        return apply_sigma(acc)

    return psi


def fold_product_map(S, h, k):
    """The map S^k -> target sending (v₁..v_k) to h(v₁*...*v_k).

    Returns (apply, flat) where flat is the row-major value table over S^k;
    with k = 1 this is h itself.
    """
    h = np.asarray(h, dtype=np.int64)
    if k == 1:
        prod_idx = np.arange(S.order)
    elif k == 2:
        prod_idx = S.table
    elif k == 3:
        prod_idx = S.table[S.table]
    else:
        raise ValueError("fold_product_map supports k in {1, 2, 3}")
    flat = h[prod_idx].reshape(-1)

    def apply(vs):
        if len(vs) != k:
            raise ValueError(f"expected a {k}-tuple")
        return int(h[S.fold(vs)]) if k > 1 else int(h[vs[0]])

    return apply, flat


def _tensor_member_vec(X, n, k, vpoint):
    # X: (batch, n^k) boolean membership tables; same section recursion as
    # tensor_member, vectorized over the batch of subsets.
    if k == 1:
        return X[:, vpoint]
    batch = X.shape[0]
    inner = _tensor_member_vec(X.reshape(batch * n, -1), n, k - 1, vpoint)
    return inner.reshape(batch, n)[:, vpoint]


def _image_member_vec(Bsets, h, vpoint):
    # B ∈ image ultrafilter: build the h-preimage of every B, test at V.
    return Bsets[:, h][:, vpoint]


def _power_member_vec(Bsets, target_table, h, vpoint, k):
    if k == 1:
        return _image_member_vec(Bsets, h, vpoint)
    batch, t = Bsets.shape
    trans = Bsets[:, target_table]  # trans[b, t1, t2] ⟺ t1*t2 ∈ B_b
    inner = _power_member_vec(
        trans.reshape(batch * t, t), target_table, h, vpoint, k - 1
    ).reshape(batch, t)
    return _image_member_vec(inner, h, vpoint)


class TensorPowerTables:
    """Subset tables for the tensor-power identity of S mapped into
    ``target`` (default S), built once and shared by every (h, k, V).

    The sharing covers only the subset bit tables: both sides are still
    evaluated by their defining formulas, full section sets at every level.
    """

    def __init__(self, S, target=None):
        self.S = S
        self.target = S if target is None else target
        t = self.target.order
        masks = np.arange(1 << t)
        self.abits = ((masks[:, None] >> np.arange(t)) & 1).astype(bool)

    def first_failures(self, h, k, points):
        """Yield (V point, first subset mask where the image of V's k-fold
        tensor power and the k-fold power of h(V) differ, or None)."""
        h = np.asarray(h, dtype=np.int64)
        _, psi_flat = fold_product_map(self.S, h, k)
        pre = self.abits[:, psi_flat]  # pre[m, w] ⟺ psi(w) ∈ A_m, over S^k
        for vp in points:
            lhs = _tensor_member_vec(pre, self.S.order, k, vp)
            rhs = _power_member_vec(self.abits, self.target.table, h, vp, k)
            diff = np.nonzero(lhs != rhs)[0]
            yield vp, int(diff[0]) if len(diff) else None


def check_tensor_power_law(S, h, k, V, target=None):
    """Image of the k-fold tensor power equals the k-th product power.

    For every subset A of the target: A lies in the image of V^⊗k under the
    fold-then-map homomorphism iff A lies in the k-fold product of the image
    ultrafilter of V.  Both sides are evaluated by their defining formulas.
    Returns (ok, first failing SubsetQuery or None).
    """
    if target is None:
        target = S
    if target.order > PRODUCT_LAW_BOUND:
        raise CarrierTooLarge(f"target size {target.order} exceeds {PRODUCT_LAW_BOUND}")
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    [(_, bad)] = TensorPowerTables(S, target).first_failures(h, k, [V.point])
    if bad is None:
        return True, None
    return False, SubsetQuery(target, bad)


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


def build_agreement_set_window(ws, family, in_A, max_len):
    """Word-semigroup window variant: members of the agreement set among all
    words of length <= max_len.  ``in_A`` is a predicate on constant words."""
    out = []
    for w in ws.iter_words(max_len):
        images = {r.apply(w) for r in family}
        inside = sum(1 for x in images if in_A(x))
        if inside == 0 or inside == len(images):
            out.append(w)
    return out


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
                raise AssertionError("image law disagrees with pointwise images")
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
    b_point_any: int | None
    colorings_checked: int

    @property
    def b_holds(self):
        return self.b_point_in_r is not None

    @property
    def equivalent(self):
        return self.a_holds == self.b_holds


def check_agreement_equivalence(S, family, r, max_order=10, max_colors=3):
    """Exhaustively compare statements (a) and (b) above on a finite S."""
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

    r_mask = 0
    for v in r_members:
        r_mask |= 1 << v
    b_in_r = find_agreement_ultrafilter(S, family, within=r_mask)
    b_any = find_agreement_ultrafilter(S, family)
    return AgreementEquivalenceReport(
        r=r,
        a_holds=a_holds,
        a_counterexample=a_counterexample,
        a_first_witness=a_first_witness,
        b_point_in_r=None if b_in_r is None else b_in_r.point,
        b_point_any=None if b_any is None else b_any.point,
        colorings_checked=checked,
    )
