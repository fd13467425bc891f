"""Core structures: Cayley tables, nice subsemigroups, retractions, words."""
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjlab import (
    FiniteSemigroup,
    RetractionFamily,
    SubsetQuery,
    WordSemigroup,
    cyclic_semigroup,
    flag_index,
    flag_semigroup,
    is_nice_subsemigroup,
    substitution_family,
    validate_retraction,
)
from hjlab.errors import AssociativityViolation, InvalidStructure
from hjlab.words import X, contains_variable, format_word, parse_word, substitute

import oracles


def max_semigroup(m):
    """({0..m}, max)."""
    return FiniteSemigroup(np.maximum.outer(np.arange(m + 1), np.arange(m + 1)))


def test_table_must_be_associative():
    FiniteSemigroup([[0, 1], [1, 1]])  # max on {0,1}: fine
    with pytest.raises(AssociativityViolation) as exc:
        FiniteSemigroup([[0, 0], [1, 0]])
    i, j, k = exc.value.i, exc.value.j, exc.value.k
    # the reported triple really is a violation
    t = [[0, 0], [1, 0]]
    assert t[t[i][j]][k] != t[i][t[j][k]]


def first_nonassociative_triple(t):
    """(i, j, k) with (i*j)*k != i*(j*k), least in lexicographic order, or
    None: one row i at a time."""
    for i in range(len(t)):
        bad = np.argwhere(t[t[i]] != t[i][t])
        if len(bad):
            return (i, *map(int, bad[0]))
    return None


def test_associativity_check_memory_stays_bounded_at_order_200():
    # the (n, n, n) arrays of a one-shot check peaked at 130 MB here
    idx = np.arange(200)
    table = (idx[:, None] + idx) % 200
    tracemalloc.start()
    try:
        FiniteSemigroup(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("row", [27, 130, 199])
def test_associativity_check_names_the_first_triple_of_a_late_row(row):
    # a left-zero band of order 200 with r*0 = 0 for the one row r first
    # fails at (r, 1, 0), in a later block of rows than the first
    t = np.repeat(np.arange(200)[:, None], 200, axis=1)
    t[row, 0] = 0
    with pytest.raises(AssociativityViolation) as exc:
        FiniteSemigroup(t)
    got = (exc.value.i, exc.value.j, exc.value.k)
    assert got == first_nonassociative_triple(t) == (row, 1, 0)


def test_table_shape_and_range_checked():
    with pytest.raises(Exception):
        FiniteSemigroup([[0, 1]])
    with pytest.raises(Exception):
        FiniteSemigroup([[0, 2], [1, 1]])
    with pytest.raises(InvalidStructure, match=r"^Cayley table row 1 has shape ragged, not \(2,\)$"):
        FiniteSemigroup([[0, 1], [1, [0]]])


def test_fold_and_mul():
    S = cyclic_semigroup(5)
    assert S.mul(2, 4) == 1
    assert S.order == 5


def test_helpers_agree_with_definitions():
    M = max_semigroup(4)
    for a in range(4):
        for b in range(4):
            assert M.mul(a, b) == max(a, b)
    Z = cyclic_semigroup(6)
    for a in range(6):
        for b in range(6):
            assert Z.mul(a, b) == (a + b) % 6


def test_nice_subsemigroup_flag_family():
    for m in (1, 2, 3):
        S, view, family = flag_semigroup(m)
        assert S.order == 2 * (m + 1)
        res = is_nice_subsemigroup(view)
        assert res.ok
        assert sorted(view.members()) == [flag_index(a, 0) for a in range(m + 1)]
        assert sorted(view.complement()) == [flag_index(a, 1) for a in range(m + 1)]


def test_subgroup_of_group_is_not_nice():
    # {0} inside Z/3: closed, but the complement is no ideal (1*2 = 0 lands in T)
    Z3 = cyclic_semigroup(3)
    res = is_nice_subsemigroup(SubsetQuery.from_members(Z3, [0]))
    assert not res.ok
    assert res.clause.startswith("ideal")
    s, t = res.witness
    assert Z3.mul(s, t) == 0


def test_closure_violation_detected():
    M = max_semigroup(3)
    # {0,2} is closed under max, but max(2,1) = 2 takes R = {1,3} back into T
    res = is_nice_subsemigroup(SubsetQuery.from_members(M, [0, 2]))
    assert not res.ok


def test_empty_subset_rejected():
    M = max_semigroup(3)
    T = SubsetQuery.from_members(M, [])
    res = is_nice_subsemigroup(T)
    assert not res.ok and res.describe() == "nonempty"
    with pytest.raises(InvalidStructure, match="^nice subsemigroup: nonempty$"):
        RetractionFamily(T, [[0, 1, 2, 3]])


@pytest.mark.parametrize("member", [-1, 4])
def test_subset_member_outside_the_carrier_is_named(member):
    with pytest.raises(InvalidStructure, match=f"member {member} is outside"):
        SubsetQuery.from_members(max_semigroup(3), [member])


def test_subset_mask_outside_the_carrier_is_refused():
    with pytest.raises(InvalidStructure, match="^mask does not fit the carrier$"):
        SubsetQuery(cyclic_semigroup(2), 0b100)


def test_retraction_validation():
    S, view, family = flag_semigroup(2)
    for sigma in family:
        assert validate_retraction(view, sigma).ok
    # constant-zero map moves T points: not a retraction
    res = validate_retraction(view, [0] * S.order)
    assert not res.ok and res.clause == "identity-on-T"
    # swap inside R that is not a homomorphism
    mapping = list(range(S.order))
    mapping[flag_index(0, 1)] = flag_index(0, 0)
    mapping[flag_index(1, 1)] = flag_index(0, 0)  # sigma(1,1)=(0,0) breaks hom
    mapping[flag_index(2, 1)] = flag_index(2, 0)
    res = validate_retraction(view, mapping)
    assert not res.ok


@pytest.mark.parametrize("mapping,clause", [
    ([0, 7, 2, 2], r"image\[1\] = 7 is outside \[0, 4\)"),
    ([0, -1, 2, 2], r"image\[1\] = -1 is outside \[0, 4\)"),
    (5, r"images have shape \(\), not \(4,\)"),
    ([[0], [0, 1]], r"image 0 has shape \(1,\), not \(\)"),
], ids=["above", "negative", "scalar", "ragged"])
def test_a_row_the_reader_refuses_is_a_failed_clause(mapping, clause):
    # an image outside the carrier was a TypeError from int(argwhere(...)[0]),
    # a ragged row numpy's bare ValueError
    res = validate_retraction(flag_semigroup(1)[1], mapping)
    assert not res.ok and re.fullmatch(clause, res.describe())


@pytest.mark.parametrize("maps", [5, [0, 0, 2, 2]], ids=["scalar", "bare-row"])
def test_a_family_is_a_table_of_rows(maps):
    with pytest.raises(InvalidStructure):
        RetractionFamily(flag_semigroup(1)[1], maps)


def test_the_setting_checks_need_t_in_a_semigroup():
    # T in a bare carrier size: AttributeErrors on 'int' .mul and .order
    view = SubsetQuery.from_members(3, [0])
    with pytest.raises(InvalidStructure, match="FiniteSemigroup"):
        is_nice_subsemigroup(view)
    with pytest.raises(InvalidStructure, match="FiniteSemigroup"):
        validate_retraction(view, [0, 0, 0])


@pytest.mark.parametrize("check,clause", [
    (lambda: is_nice_subsemigroup(SubsetQuery.from_members(cyclic_semigroup(3), [1])),
     "T-closure fails at (1, 1)"),
    (lambda: is_nice_subsemigroup(SubsetQuery.from_members(
        FiniteSemigroup([[0, 0, 0, 0], [0, 1, 2, 3], [3, 2, 1, 0], [3, 3, 3, 3]]), [3])),
     "ideal (left product) fails at (2, 0)"),
    (lambda: validate_retraction(flag_semigroup(1)[1], [1, 1, 2, 2]), "range-in-T fails at (0, 1)"),
], ids=["t-closure", "left-ideal", "range-in-t"])
def test_a_setting_clause_names_its_first_failure(check, clause):
    res = check()
    assert not res.ok and res.describe() == clause


def test_a_family_of_no_retractions_is_refused():
    with pytest.raises(InvalidStructure, match="^retraction family must be nonempty$"):
        RetractionFamily(flag_semigroup(1)[1], [])


def test_family_rejects_invalid_and_duplicate_members():
    S, view, family = flag_semigroup(1)
    sigmas = list(family)
    with pytest.raises(ValueError, match="retraction 1: repeats retraction 0"):
        RetractionFamily(view, [sigmas[0], sigmas[0]])
    with pytest.raises(ValueError):
        RetractionFamily(view, [[0] * S.order])
    # ({0, 1}, max) with T = {1}: 1 is a retraction onto T, but max(1, 0) = 1
    # takes R = {0} into T, so T is not nice
    M = max_semigroup(1)
    T = SubsetQuery.from_members(M, [1])
    assert is_nice_subsemigroup(T).clause == "ideal (right product)"
    with pytest.raises(InvalidStructure, match="ideal"):
        RetractionFamily(T, [[1, 1]])
    # T must lie in a semigroup, not a bare carrier size
    with pytest.raises(InvalidStructure):
        RetractionFamily(SubsetQuery.from_members(2, [1]), [[1, 1]])


def test_image_sets():
    S, view, family = flag_semigroup(2)
    # sigma_g(a,1) = (max(a,g), 0)
    assert family.images(flag_index(0, 1)) == [flag_index(g, 0) for g in range(3)]
    assert family.images(flag_index(2, 1)) == [flag_index(2, 0)]
    # T elements are fixed by the whole family
    for a in range(3):
        assert family.images(flag_index(a, 0)) == [flag_index(a, 0)]


# -- words ----------------------------------------------------------------

def test_word_iteration_is_length_lex():
    # the variable words only, letters before x
    words = list(WordSemigroup(2).iter_words(2))
    assert words == [(X,), (0, X), (1, X), (X, 0), (X, 1), (X, X)]


def test_word_format_parse_roundtrip():
    for n in range(1, 13):
        for L in range(1, 4):
            for w in itertools.product([*range(n), X], repeat=L):
                assert parse_word(format_word(w)) == w
    assert format_word((0, X, 2)) == "0x2"
    assert format_word((1, 0)) == "10"
    assert format_word((10, X)) == "10.x"
    # one token above 9 ends in a dot, or it would read as digits
    assert format_word((10,)) == "10."
    with pytest.raises(ValueError, match="^empty word$"):
        parse_word("")
    with pytest.raises(ValueError, match="^unknown word symbol 'y'$"):
        parse_word("0y")


def test_substitution_family_is_retraction_like():
    ws = WordSemigroup(2)
    family = substitution_family(ws)
    assert family.ws is ws
    w = parse_word("x0x")
    assert family.images(w) == [(0, 0, 0), (1, 0, 1)]
    # constant words are fixed
    assert family.images((1, 0)) == [(1, 0)]


@st.composite
def word_pairs(draw):
    n = draw(st.integers(2, 4))
    word = st.lists(st.sampled_from([*range(n), X]), min_size=1, max_size=12).map(tuple)
    return n, draw(word), draw(word)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(word_pairs())
def test_word_semigroup_laws(case):
    """The laws the word side relies on by construction: the diagonal
    substitutions are homomorphisms onto the constant words fixing them, and
    the words with a variable form an ideal, so the constants are nice."""
    n, a, b = case
    for letter in range(n):
        assert substitute(a + b, letter) == substitute(a, letter) + substitute(b, letter)
        assert not contains_variable(substitute(a, letter))
        assert substitute(a, letter) == tuple(letter if s == X else s for s in a)
        for c in (a, b):
            if not contains_variable(c):
                assert substitute(c, letter) == c
    assert contains_variable(a + b) == (contains_variable(a) or contains_variable(b))


def test_line_points_from_variable_word():
    # substituting each letter in a variable word gives a combinatorial line
    ws = WordSemigroup(3)
    family = substitution_family(ws)
    w = parse_word("x1x")
    images = family.images(w)
    assert images == [(a, 1, a) for a in range(3)]
