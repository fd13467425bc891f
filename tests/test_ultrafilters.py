"""Ultrafilter calculus on finite carriers, tested against literal set-family
oracles: an ultrafilter is re-represented as the explicit set of its member
subsets and every operation is recomputed from its defining formula."""
import numpy as np
import pytest

from hjlab import (
    ApResidueColoring,
    FiniteSemigroup,
    ModSumColoring,
    PrincipalUltrafilter,
    RetractionFamily,
    SubsetQuery,
    build_agreement_set,
    check_agreement_equivalence,
    check_fip,
    check_tensor_assoc,
    cyclic_semigroup,
    enumerate_endomorphisms,
    find_agreement_ultrafilter,
    flag_index,
    flag_semigroup,
    generate_corpus,
    image,
    member,
    sweep_tensor_power,
    tensor_power_failures,
    uf_product,
    uf_tensor,
)
from hjlab import ultra
from hjlab.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    HjlabError,
    InvalidColoring,
    InvalidInstance,
    InvalidStructure,
    SearchSpaceTooLarge,
    VerificationError,
)
from hjlab.ultra import (
    CHUNK_BYTES,
    product_member,
    subset_bits,
    tensor_rows,
    translates,
)

import oracles


def left_zero(n):
    return FiniteSemigroup([[a] * n for a in range(n)])


def family_of(U, size):
    """The library ultrafilter as an explicit set of member masks."""
    return {m for m in range(1 << size) if U.member_mask(m)}


def wrap_evaluator(monkeypatch, name, corrupt=False):
    """Replace the module's evaluator ``name`` by one that records the set
    table of each call; with ``corrupt``, it also flips the membership of
    the non-singleton subset {1, 2} (mask 6) in the rows it returns."""
    calls = []
    evaluate = getattr(ultra, name)

    def wrapped(table, *args, **kwargs):
        calls.append(table)
        rows = evaluate(table, *args, **kwargs)
        if corrupt:
            rows = rows.copy()
            rows[..., 0] ^= 1 << 6
        return rows

    monkeypatch.setattr(ultra, name, wrapped)
    return calls


# each operation on a small carrier: (evaluator, operation, call, point)
OPERATIONS = [
    ("image_member", "image",
     lambda: image([x % 3 for x in range(6)], PrincipalUltrafilter(cyclic_semigroup(6), 4),
                   cyclic_semigroup(3)), 1),
    ("product_member", "product",
     lambda: uf_product(PrincipalUltrafilter(cyclic_semigroup(6), 4),
                        PrincipalUltrafilter(cyclic_semigroup(6), 5)), 3),
    ("tensor_rows", "tensor",
     lambda: uf_tensor(PrincipalUltrafilter(3, 1), PrincipalUltrafilter(3, 2)), 5),
]


# -- subset queries and membership ----------------------------------------

def test_subset_query_roundtrip():
    S = cyclic_semigroup(5)
    A = SubsetQuery.from_members(S, [0, 3])
    assert A.members() == [0, 3]
    assert A.mask == 0b1001
    assert A.contains(3) and not A.contains(1)


def test_subset_query_reads_numpy_members_as_python_ints():
    # an int64 shift would drop member 70
    A = SubsetQuery.from_members(cyclic_semigroup(80), np.array([70, 3]))
    assert A.members() == [3, 70] and A.mask == (1 << 70) | (1 << 3)


def test_membership_is_the_principal_family():
    S = cyclic_semigroup(4)
    U = PrincipalUltrafilter(S, 2)
    assert family_of(U, 4) == oracles.principal_family(4, 2)
    assert member(U, SubsetQuery.from_members(S, [1, 2]))
    assert not member(U, SubsetQuery.from_members(S, [0, 1]))


def test_carrier_mismatch_rejected():
    A = SubsetQuery.from_members(cyclic_semigroup(4), [1])
    with pytest.raises(CarrierMismatch):
        member(PrincipalUltrafilter(cyclic_semigroup(5), 0), A)


# -- image ultrafilter -----------------------------------------------------

def test_image_matches_family_oracle():
    S = cyclic_semigroup(6)
    T = cyclic_semigroup(3)
    f = [x % 3 for x in range(6)]  # reduction hom Z6 -> Z3
    for p in range(6):
        U = PrincipalUltrafilter(S, p)
        out = image(f, U, T)
        fam = oracles.image_family(f, oracles.principal_family(6, p), 6, 3)
        assert family_of(out, 3) == fam
        assert out.point == oracles.family_point(fam, 3)
    assert image(np.asarray(f), PrincipalUltrafilter(S, 4), T).point == 1


def test_image_rejects_a_map_outside_the_target():
    S, T = cyclic_semigroup(3), cyclic_semigroup(3)
    # a (3, 1) stack of maps ended in "image law failed a subset check"
    for f in ([0, 1, 5], [0, -1, 2], [0, 1], [[0], [1], [2]]):
        for p in range(3):
            with pytest.raises(CarrierMismatch):
                image(f, PrincipalUltrafilter(S, p), T)


def test_image_law_bound_enforced(monkeypatch):
    # every subset up to LAW_BOUND points; above it, refused before evaluating
    calls = wrap_evaluator(monkeypatch, "image_member")
    big = cyclic_semigroup(16)
    assert image((np.arange(16) + 1) % 16, PrincipalUltrafilter(big, 5), big).point == 6
    assert calls.pop().shape[-1] == 2 ** 16 // 8
    big = cyclic_semigroup(17)
    with pytest.raises(CarrierTooLarge, match="image law on 17 cells"):
        image((np.arange(17) + 1) % 17, PrincipalUltrafilter(big, 5), big)
    assert not calls


# -- one evaluation per operation ---------------------------------------------

@pytest.mark.parametrize("name,operation,call,point", OPERATIONS,
                         ids=[op[1] for op in OPERATIONS])
def test_each_operation_evaluates_its_formula_once(monkeypatch, name, operation, call, point):
    calls = wrap_evaluator(monkeypatch, name)
    assert call().point == point
    assert len(calls) == 1


@pytest.mark.parametrize("name,operation,call,point", OPERATIONS,
                         ids=[op[1] for op in OPERATIONS])
def test_each_operation_rejects_a_corrupted_subset_row(monkeypatch, name, operation, call, point):
    wrap_evaluator(monkeypatch, name, corrupt=True)
    with pytest.raises(VerificationError, match=f"{operation} law failed a subset check"):
        call()


# -- product ultrafilter ----------------------------------------------------

@pytest.mark.parametrize("S", [cyclic_semigroup(3), cyclic_semigroup(5),
                               left_zero(3), flag_semigroup(1)[0]])
def test_product_matches_family_oracle(S):
    n = S.order
    table = [[int(S.mul(a, b)) for b in range(n)] for a in range(n)]
    for up in range(n):
        for vp in range(n):
            U, V = PrincipalUltrafilter(S, up), PrincipalUltrafilter(S, vp)
            out = uf_product(U, V)
            fam = oracles.product_family(
                table, oracles.principal_family(n, up), oracles.principal_family(n, vp)
            )
            assert family_of(out, n) == fam
            assert out.point == oracles.family_point(fam, n)


def test_product_is_not_commutative_on_left_zero():
    S = left_zero(3)
    U, V = PrincipalUltrafilter(S, 0), PrincipalUltrafilter(S, 2)
    assert uf_product(U, V).point == 0
    assert uf_product(V, U).point == 2


def test_power_folds_the_point():
    S = cyclic_semigroup(5)
    U = PrincipalUltrafilter(S, 2)
    assert uf_product(U, uf_product(U, U)).point == (2 + 2 + 2) % 5


@pytest.mark.parametrize("S", [cyclic_semigroup(3), left_zero(3), flag_semigroup(1)[0]])
def test_three_level_power_matches_nested_family_oracle(S):
    n = S.order
    table = S.table.tolist()
    maps = [np.arange(n), (np.arange(n) + 1) % n]  # the identity and a shift
    for p in range(n):
        U = oracles.principal_family(n, p)
        fam = oracles.product_family(table, U, oracles.product_family(table, U, U))
        P = PrincipalUltrafilter(S, p)
        assert family_of(uf_product(P, uf_product(P, P)), n) == fam
        for h in maps:
            W = oracles.image_family(h, U, n, n)
            fam = oracles.product_family(table, W, oracles.product_family(table, W, W))
            T = translates(subset_bits(n), S.table, 3)
            rows = np.unpackbits(product_member(T, h, (p, p, p)), bitorder="little")
            assert set(np.flatnonzero(rows[:1 << n])) == fam


def test_product_law_bound_enforced(monkeypatch):
    # every subset up to LAW_BOUND points; above it, refused before evaluating
    calls = wrap_evaluator(monkeypatch, "product_member")
    S = cyclic_semigroup(16)
    assert uf_product(PrincipalUltrafilter(S, 7), PrincipalUltrafilter(S, 9)).point == 0
    assert calls.pop().shape[-1] == 2 ** 16 // 8
    S = cyclic_semigroup(17)
    with pytest.raises(CarrierTooLarge, match="product law on 17 cells"):
        uf_product(PrincipalUltrafilter(S, 7), PrincipalUltrafilter(S, 9))
    assert not calls


def test_product_law_rejects_an_ultrafilter_on_another_carrier():
    # point 7 of a 9-point carrier would index past the order-4 table
    S = cyclic_semigroup(4)
    U, V = PrincipalUltrafilter(9, 7), PrincipalUltrafilter(S, 1)
    with pytest.raises(CarrierMismatch):
        uf_product(V, U)


# -- tensor product ----------------------------------------------------------

@pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 2), (4, 3)])
def test_tensor_matches_family_oracle(sizes):
    sx, sy = sizes
    for up in range(sx):
        for vp in range(sy):
            U = PrincipalUltrafilter(cyclic_semigroup(sx), up)
            V = PrincipalUltrafilter(cyclic_semigroup(sy), vp)
            out = uf_tensor(U, V)
            fam = oracles.tensor_family(
                sx, sy, oracles.principal_family(sx, up), oracles.principal_family(sy, vp)
            )
            assert family_of(out, sx * sy) == fam
            assert out.point == up * sy + vp == oracles.family_point(fam, sx * sy)
            assert out.carrier == sx * sy


def test_tensor_law_bound_enforced(monkeypatch):
    # every subset up to LAW_BOUND cells; above it, refused before evaluating
    calls = wrap_evaluator(monkeypatch, "tensor_rows")
    assert uf_tensor(PrincipalUltrafilter(4, 1), PrincipalUltrafilter(4, 2)).point == 6
    assert calls.pop().shape[-1] == 2 ** 16 // 8
    with pytest.raises(CarrierTooLarge, match="tensor law on 18 cells"):
        uf_tensor(PrincipalUltrafilter(3, 1), PrincipalUltrafilter(6, 2))
    assert not calls


def test_tensor_member_three_levels():
    # a set lies in U₁⊗(U₂⊗U₃) exactly when it holds the principal cell
    dims, points = (2, 2, 2), (1, 0, 1)
    flat = (1 * 2 + 0) * 2 + 1
    X = subset_bits(8)
    assert np.array_equal(tensor_rows(X, dims, points), X[flat])


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 2, 4)])
def test_tensor_assoc_exhaustive(dims):
    points = tuple(d - 1 for d in dims)
    check_tensor_assoc(dims, points)  # a failing law raises VerificationError


def test_tensor_assoc_rejects_27_cells():
    # no sampled positives: above LAW_BOUND cells it checks nothing
    with pytest.raises(CarrierTooLarge, match="27 cells"):
        check_tensor_assoc((3, 3, 3), (0, 1, 2))


@pytest.mark.parametrize("call", [
    lambda: check_tensor_assoc((2, 2), (0, 0)),
    lambda: check_tensor_assoc((2, 2, 2), (0, 0)),
    lambda: check_tensor_assoc((2, 2, 2, 2), (0, 0, 0, 0)),
    lambda: check_tensor_assoc((2, 2, 2), (0, 0, 0, 0)),
])
def test_left_associated_triple_rejects_other_arities(call):
    with pytest.raises(InvalidInstance, match="3 factors"):
        call()


@pytest.mark.parametrize("call,error", [
    # -1 wrapped to the last index and answered for it
    (lambda: check_tensor_assoc((2, 2, 2), (-1, 0, 0)), CarrierMismatch),
    (lambda: check_tensor_assoc((2, 2, 2), (0, 0, -1)), CarrierMismatch),
    # past the factor: a numpy IndexError
    (lambda: check_tensor_assoc((2, 2, 2), (0, 0, 5)), CarrierMismatch),
    (lambda: check_tensor_assoc((2, 2, 2), (0, 0, 2)), CarrierMismatch),
    (lambda: check_tensor_assoc((2, 3, 2), (0, 3, 0)), CarrierMismatch),
    # "negative shift count"
    (lambda: check_tensor_assoc((2, -2, 2), (0, 0, 0)), InvalidInstance),
    # no cells at all
    pytest.param(lambda: check_tensor_assoc((2, 0, 2), (0, 0, 0)), InvalidInstance,
                 id="size-0-factor"),
])
def test_tensor_queries_check_their_inputs(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call,error", [
    (lambda: PrincipalUltrafilter(3, 3), CarrierMismatch),
    (lambda: PrincipalUltrafilter(cyclic_semigroup(3), -1), CarrierMismatch),
    (lambda: uf_product(PrincipalUltrafilter(4, 0), PrincipalUltrafilter(4, 1)), CarrierMismatch),
    (lambda: ModSumColoring(0), InvalidColoring),
    (lambda: ApResidueColoring(0), InvalidColoring),
])
def test_constructors_refuse_with_package_errors(call, error):
    # a caller catching HjlabError sees every refusal
    with pytest.raises(HjlabError) as refused:
        call()
    assert isinstance(refused.value, error)


@pytest.mark.parametrize("call,error", [
    (lambda: FiniteSemigroup([[0, 0.5], [0, 1]]), InvalidStructure),
    (lambda: RetractionFamily(flag_semigroup(1)[1], [[0, 0.5, 2, 2.2]]), InvalidStructure),
    (lambda: SubsetQuery.from_members(3, [1.0]), InvalidStructure),
    (lambda: PrincipalUltrafilter(3, 1.5), CarrierMismatch),
    (lambda: image([0.7, 1.2], PrincipalUltrafilter(2, 0), 2), CarrierMismatch),
    (lambda: tensor_power_failures(cyclic_semigroup(2), [[0.9, 1.9]], 2), CarrierMismatch),
    (lambda: tensor_power_failures(cyclic_semigroup(2), [[0, 1]], 2.0), InvalidInstance),
    (lambda: sweep_tensor_power(generate_corpus(count=3, max_order=4, seed=0), ks=(2.0,)),
     InvalidInstance),
], ids=["table", "retraction", "member", "point", "image-map", "tensor-power-map",
        "tensor-power-k", "sweep-ks"])
def test_non_integer_inputs_are_refused_not_truncated(call, error):
    with pytest.raises(error, match="integer"):
        call()


@pytest.mark.parametrize("call,error", [
    # each a bare AttributeError, TypeError or "negative shift count"
    (lambda: PrincipalUltrafilter(2.0, 0), CarrierMismatch),
    (lambda: check_tensor_assoc((2.0, 2, 2), (0, 0, 0)), CarrierMismatch),
    (lambda: SubsetQuery(3, 1.0), InvalidStructure),
    (lambda: SubsetQuery(-1, 0), CarrierMismatch),
    (lambda: check_agreement_equivalence(*flag_semigroup(1)[::2], 2.0), InvalidInstance),
], ids=["point-carrier", "tensor-dims", "mask", "negative-carrier", "agreement-r"])
def test_carriers_and_counts_are_integers(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call,want", [
    (lambda: repr(PrincipalUltrafilter(np.int64(3), 1)), "PrincipalUltrafilter(point=1, size=3)"),
    (lambda: SubsetQuery(np.int64(3), 1).members(), [0]),
], ids=["point", "subset"])
def test_a_numpy_integer_carrier_reads_as_its_size(call, want):
    # both ended in an AttributeError: only a Python int read as a size
    assert call() == want


# two good maps on the cyclic group of order 4; each input-check test puts
# its bad input after them, so the bad map is never first in the stack
GOOD_MAPS = [np.arange(4), np.zeros(4, dtype=int)]


@pytest.mark.parametrize("k", [1, 4])
def test_tensor_power_tables_reject_k_outside_2_3(k):
    with pytest.raises(InvalidInstance, match="k = 2 or 3"):
        tensor_power_failures(cyclic_semigroup(4), [*GOOD_MAPS, np.arange(4)], k)


@pytest.mark.parametrize("value", [-1, 4])
def test_tensor_power_tables_reject_map_values_outside_the_target(value):
    with pytest.raises(CarrierMismatch, match=rf"map\[2\]\[1\] = {value} is outside \[0, 4\)"):
        tensor_power_failures(cyclic_semigroup(4), [*GOOD_MAPS, [0, value, 2, 3]], 2)


@pytest.mark.parametrize("bad", [[0, 1, 2], [0, 1, 2, 3, 0], 0, [[0, 1, 2, 3]]])
def test_tensor_power_tables_reject_maps_of_the_wrong_shape(bad):
    with pytest.raises(CarrierMismatch, match="map 2 has shape"):
        tensor_power_failures(cyclic_semigroup(4), [*GOOD_MAPS, bad], 2)


@pytest.mark.parametrize("shape,match", [((3, 5), r"\(5,\)"), ((2, 2, 4), r"\(2, 4\)"),
                                         ((4,), r"\(\)")])
def test_tensor_power_tables_reject_an_array_stack_of_the_wrong_shape(shape, match):
    with pytest.raises(CarrierMismatch, match=rf"map 0 has shape {match}, not \(4,\)"):
        tensor_power_failures(cyclic_semigroup(4), np.zeros(shape, dtype=int), 2)


@pytest.mark.parametrize("semigroups,owner,error,match", [
    ([], [], InvalidInstance, "at least one semigroup"),
    ([cyclic_semigroup(4), cyclic_semigroup(3)], [0, 0], CarrierMismatch,
     "semigroup 1 has order 3, not 4"),
    ([cyclic_semigroup(4)] * 2, [0, 0, 1], CarrierMismatch,
     r"owners have shape \(3,\), not \(2,\)"),
    ([cyclic_semigroup(4)] * 2, [0, 2], CarrierMismatch, r"owner\[1\] = 2 is outside \[0, 2\)"),
    ([cyclic_semigroup(4)] * 2, [-1, 0], CarrierMismatch, r"owner\[0\] = -1 is outside"),
])
def test_tensor_power_tables_reject_bad_semigroup_stacks(semigroups, owner, error, match):
    with pytest.raises(error, match=match):
        tensor_power_failures(semigroups, GOOD_MAPS, 2, owner=owner)


def test_tensor_power_failures_reject_an_order_above_the_bound():
    with pytest.raises(CarrierTooLarge, match="order 13 exceeds 12"):
        tensor_power_failures(cyclic_semigroup(13), [np.arange(13)], 2)


# -- the tensor-power identity ----------------------------------------------

def test_tensor_power_law_on_flag_retractions():
    S, view, family = flag_semigroup(2)
    for k in (2, 3):
        first = tensor_power_failures(S, family.maps, k)
        assert first.shape == (len(family.maps), S.order) and (first < 0).all()


def test_tensor_power_law_flags_a_non_homomorphism():
    S = cyclic_semigroup(4)
    h = [0, 1, 2, 0]  # h(3+3) = h(2) = 2 but h(3)+h(3) = 0: not a homomorphism
    bad = int(tensor_power_failures(S, [h], 2)[0, 3])  # V at 3
    assert bad >= 0
    # the returned subset really separates the two sides
    A = SubsetQuery(S, bad)
    assert A.contains(2) != A.contains(0)


def batch_against_oracle(S, maps, k):
    """Every map's and point's first failing mask from one call on the
    stack, checked against the pure-Python oracle map by map and point by
    point; the number of failing points."""
    table = S.table.tolist()
    got = tensor_power_failures(S, maps, k)
    want = [
        [oracles.tensor_power_first_failure(table, table, [int(x) for x in h], k, p)
         for p in range(S.order)]
        for h in maps
    ]
    assert got.dtype == np.int64 and got.shape == (len(maps), S.order)
    assert got.tolist() == [[-1 if bad is None else bad for bad in row] for row in want]
    return int((got >= 0).sum())


@pytest.mark.parametrize("k", [2, 3])
def test_tensor_power_batch_matches_oracle_on_corpus_endomorphisms(k):
    for entry in generate_corpus(count=25, max_order=4, seed=1):
        S = entry.semigroup
        assert not batch_against_oracle(S, enumerate_endomorphisms(S), k)


def random_map_stacks():
    """Four random maps on each semigroup of a small corpus."""
    rng = np.random.default_rng(11)
    semigroups = [entry.semigroup for entry in generate_corpus(count=25, max_order=4, seed=1)]
    return [(S, rng.integers(0, S.order, (4, S.order))) for S in semigroups]


def test_tensor_power_batch_matches_oracle_on_random_maps():
    failed = 0
    for S, maps in random_map_stacks():
        for k in (2, 3):
            failed += batch_against_oracle(S, maps, k)
    assert failed > 0  # some random maps are no homomorphisms, and fail


def roll_point_columns(monkeypatch):
    """Make ``_at`` give each point the column of its neighbour when it
    tests every point at once, a fault both tensor-power sides share."""
    at = ultra._at

    def rolled(sets, point=None):
        return at(sets, point) if point is not None else np.roll(at(sets), 1, axis=-2)

    monkeypatch.setattr(ultra, "_at", rolled)


def test_tensor_power_batch_catches_a_shifted_point_pick(monkeypatch):
    # each side is checked against its own principal point, so a shifted
    # pick raises on some random-map stack and no stack gives a wrong answer
    roll_point_columns(monkeypatch)
    caught = 0
    for S, maps in random_map_stacks():
        for k in (2, 3):
            try:
                batch_against_oracle(S, maps, k)
            except VerificationError:
                caught += 1
    assert caught > 0


def test_sweep_catches_a_shifted_point_pick(monkeypatch):
    # on endomorphisms the two sides agree at the mixed points a shifted
    # pick reads too, so only the principal-point check can tell
    roll_point_columns(monkeypatch)
    with pytest.raises(VerificationError, match="tensor-power image law failed a subset check"):
        sweep_tensor_power(generate_corpus(count=50, max_order=6, seed=0))


@pytest.mark.parametrize("name,side", [("tensor_rows", "image"), ("product_member", "product")])
def test_tensor_power_names_its_corrupted_side(monkeypatch, name, side):
    wrap_evaluator(monkeypatch, name, corrupt=True)
    S, view, family = flag_semigroup(2)
    for k in (2, 3):
        with pytest.raises(VerificationError, match=f"tensor-power {side} law failed"):
            tensor_power_failures(S, family.maps, k)


def test_tensor_power_stack_split_into_chunks_matches_maps_run_alone():
    # the first order-10 semigroup of the benchmark's order-10 corpus: its 18
    # endomorphisms and 8 random maps, which fail at most points
    S = next(e.semigroup for e in generate_corpus(count=200, max_order=10, seed=1)
             if e.semigroup.order == 10)
    rng = np.random.default_rng(3)
    maps = np.vstack([enumerate_endomorphisms(S), rng.integers(0, 10, (8, 10))])
    assert len(maps) * 10**3 * (2**10 // 8) > 2 * CHUNK_BYTES  # the k = 3 preimages alone
    got = tensor_power_failures(S, maps, 3)
    assert np.array_equal(got, np.vstack([tensor_power_failures(S, [h], 3)
                                          for h in maps]))
    table = S.table.tolist()
    failing = [(maps[e], p, int(got[e, p])) for e, p in np.argwhere(got >= 0)]
    assert len(failing) > 20
    for h, p, bad in failing:  # a failing point stops the oracle early
        assert oracles.tensor_power_first_failure(table, table, h.tolist(), 3, p) == bad


def test_tensor_power_stack_of_several_semigroups_matches_each_alone(monkeypatch):
    # the maps of three order-5 semigroups in a shuffled stack; an order-5
    # map adds 1000 bytes to a k = 3 chunk and 200 to a k = 2 one, so a
    # chunk holds 3 or 15 maps, from up to three semigroups in any order
    monkeypatch.setattr(ultra, "CHUNK_BYTES", 3000)
    rng = np.random.default_rng(7)
    semigroups = [e.semigroup for e in generate_corpus(count=80, max_order=5, seed=2)
                  if e.semigroup.order == 5][:3]
    assert len(semigroups) == 3
    stacks = [np.vstack([enumerate_endomorphisms(S), rng.integers(0, 5, (3, 5))])
              for S in semigroups]
    maps = np.vstack(stacks)
    owner = np.repeat(np.arange(3), [len(m) for m in stacks])
    order = rng.permutation(len(maps))
    for k in (2, 3):
        want = np.vstack([tensor_power_failures(S, m, k)
                          for S, m in zip(semigroups, stacks)])
        got = tensor_power_failures(semigroups, maps[order], k, owner=owner[order])
        assert (want >= 0).any() and np.array_equal(got, want[order])


# -- agreement sets, FIP, the equivalence report -----------------------------

def test_agreement_set_flag_example():
    S, view, family = flag_semigroup(2)
    A = SubsetQuery.from_members(S, [flag_index(2, 0)])
    X = build_agreement_set(S, family, A)
    assert X.members() == [5]  # R is {1, 3, 5}; only the top flag agrees


def test_agreement_set_two_member_family():
    # with only sigma_0, sigma_1 every point of R agrees or misses for A = {(2,0)}
    S, view, family = flag_semigroup(2)
    sub = RetractionFamily(view, list(family)[:2])
    A = SubsetQuery.from_members(S, [flag_index(2, 0)])
    assert build_agreement_set(S, sub, A).members() == [1, 3, 5]


def test_agreement_sets_have_fip():
    # over R the total intersection is the points with one image, so FIP is
    # statement (b); only the positive side is exercised, since no finite
    # structure tried (flags, corpus semigroups of order <= 5) fails (b)
    for m in (1, 2, 3):
        S, view, family = flag_semigroup(m)
        t_members = view.members()
        sets = []
        for amask in range(1 << len(t_members)):
            chosen = [t for i, t in enumerate(t_members) if (amask >> i) & 1]
            sets.append(build_agreement_set(S, family, SubsetQuery.from_members(S, chosen)))
        total = (1 << S.order) - 1
        for X in sets:
            total &= X.mask
        one_image = [v for v in view.complement() if len(family.images(v)) == 1]
        assert SubsetQuery(S, total).members() == one_image == [flag_index(m, 1)]
        res = check_fip(sets)
        assert res.ok == (find_agreement_ultrafilter(S, family) is not None)
        assert res.ok and res.subfamilies_checked == 2 ** len(sets) - 1


def test_fip_of_no_sets_holds():
    res = check_fip([])
    assert res.ok and res.subfamilies_checked == 0


def test_fip_counterexample_is_minimal():
    S = cyclic_semigroup(4)
    sets = [
        SubsetQuery.from_members(S, [0, 1]),
        SubsetQuery.from_members(S, [1, 2]),
        SubsetQuery.from_members(S, [2, 3]),
        SubsetQuery.from_members(S, [3, 0]),
    ]
    res = check_fip(sets)
    assert not res.ok
    assert res.witness == (0, 2)  # {0,1} and {2,3} already miss


def test_fip_large_family_path():
    S = cyclic_semigroup(4)
    sets = [SubsetQuery.from_members(S, [0, i % 3 + 1]) for i in range(25)]
    res = check_fip(sets)  # 25 > exhaustive limit; all share the point 0
    assert res.ok and res.subfamilies_checked == 1
    # each misses one point: pairwise they meet, all together they miss
    sets = [SubsetQuery(S, 0b1111 & ~(1 << (i % 4))) for i in range(25)]
    res = check_fip(sets)
    assert not res.ok
    assert res.witness == tuple(range(25)) and res.subfamilies_checked == 1


def test_agreement_ultrafilter_is_the_top_flag():
    S, view, family = flag_semigroup(2)
    U = find_agreement_ultrafilter(S, family)
    assert U.point == flag_index(2, 1)  # (m,1) maps to (m,0) under every sigma


def test_agreement_ultrafilter_never_returns_a_t_point():
    # every T point agrees trivially, and flag_index(0, 0) = 0 comes first
    for m in (1, 2, 3):
        S, view, family = flag_semigroup(m)
        assert not view.contains(find_agreement_ultrafilter(S, family).point)
    # T = S leaves R empty: no point qualifies, though every point agrees
    S = cyclic_semigroup(3)
    view = SubsetQuery(S, 0b111)
    assert find_agreement_ultrafilter(S, RetractionFamily(view, [range(3)])) is None


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [2, 3])
def test_agreement_equivalence_on_flags(m, r):
    S, view, family = flag_semigroup(m)
    report = check_agreement_equivalence(S, family, r)
    assert report.a_holds and report.b_holds and report.equivalent
    assert report.b_point_in_r == flag_index(m, 1)
    assert report.colorings_checked == r ** (m + 1)


def test_equivalence_negative_side():
    # drop the top retraction; (m,1) no longer has a singleton image set and
    # a two-coloring separating the images defeats every witness
    S, view, family = flag_semigroup(1)
    sub = RetractionFamily(view, list(family)[:1])  # only sigma_0
    report = check_agreement_equivalence(S, sub, 2)
    # sigma_0 alone: every image set is the singleton {sigma_0(v)}, so (b)
    # still holds and (a) stays true
    assert report.b_holds and report.a_holds


def test_equivalence_with_t_equal_to_s():
    # R is empty: the first coloring has no witness, and no point of R agrees
    S = FiniteSemigroup([[0, 1], [1, 1]])
    family = RetractionFamily(SubsetQuery.from_members(S, [0, 1]), [[0, 1]])
    report = check_agreement_equivalence(S, family, 2)
    assert (report.a_holds, report.a_counterexample, report.colorings_checked) == (False, (0, 0), 1)
    assert not report.b_holds and report.equivalent


@pytest.mark.parametrize("m,r,message", [(5, 2, "order 12 exceeds 10"), (1, 4, "4 colors exceed 3")])
def test_equivalence_refuses_a_search_past_its_bounds(m, r, message):
    S, view, family = flag_semigroup(m)
    with pytest.raises(SearchSpaceTooLarge, match=f"^{message}$"):
        check_agreement_equivalence(S, family, r)
