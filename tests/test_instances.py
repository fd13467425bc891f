"""Concrete instances: lines in [n]^N, colorings, and the digit-sum reduction."""
import itertools

import pytest

from hjlab import (
    ApResidueColoring,
    LineHypergraph,
    ModSumColoring,
    PullbackColoring,
    TableColoring,
    WordSemigroup,
    parse_coloring_spec,
    substitution_family,
)
from hjlab.errors import ColoringSpecError, InvalidColoring, InvalidInstance

import oracles


# -- lines ------------------------------------------------------------------

@pytest.mark.parametrize("n,N,count", [(2, 1, 1), (2, 2, 5), (3, 4, 175)])
def test_line_counts(n, N, count):
    # every word over the letters and x, minus the variable-free ones
    assert len(LineHypergraph.build(n, N).edges) == count == (n + 1) ** N - n ** N


@pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_lines_match_the_naive_enumeration(n, N):
    want = oracles.line_point_sets(n, N)
    assert {frozenset(e) for e in map(tuple, LineHypergraph.build(n, N).edges.tolist())} == want
    # the lines are the image sets of the diagonal retraction family, row by
    # row in the order the word scan meets the length-N words
    ws = WordSemigroup(n)
    family = substitution_family(ws)
    images = [[oracles.encode_word(p, n) for p in family.images(w)]
              for w in ws.iter_words(N) if len(w) == N]
    assert images == LineHypergraph.build(n, N).edges.tolist()


def test_lines_need_two_letters_and_one_coordinate():
    for n, N in ((1, 3), (2, 0)):
        with pytest.raises(InvalidInstance):
            LineHypergraph.build(n, N)


def test_encode_decode_roundtrip():
    # the base-n codes of the words in lexicographic order are 0, 1, 2, ...,
    # so a code decodes to exactly one word
    for n, N in ((2, 4), (3, 3)):
        codes = [oracles.encode_word(w, n) for w in itertools.product(range(n), repeat=N)]
        assert codes == list(range(n ** N))


# -- colorings ----------------------------------------------------------------

def test_mod_sum_coloring():
    c = ModSumColoring(3)
    assert c.color_of((1, 2, 2)) == 2
    assert c.spec() == "mod:3"


def test_ap_residue_coloring():
    c = ApResidueColoring(2)
    assert [c.color_of(m) for m in range(5)] == [0, 1, 0, 1, 0]
    assert c.spec() == "apres:2"


def test_table_coloring_lookup_and_default():
    c = TableColoring({"0": 1, "1": 0}, r=2)
    assert c.color_of(0) == 1 and c.color_of(1) == 0
    with pytest.raises(InvalidColoring):
        c.color_of(2)
    d = TableColoring({"0": 1}, r=2, default=0)
    assert d.color_of(5) == 0
    with pytest.raises(InvalidColoring, match="^empty color table$"):
        TableColoring({})
    with pytest.raises(InvalidColoring, match="^color out of range in table$"):
        TableColoring({"0": 3}, r=2)


def test_table_coloring_accepts_words():
    c = TableColoring({"00": 0, "01": 1}, r=2)
    assert c.color_of((0, 1)) == 1


def test_pullback_composes():
    base = ApResidueColoring(2)
    pulled = PullbackColoring(base, sum)
    assert pulled.color_of((1, 2)) == (1 + 2) % 2


def test_parse_coloring_spec():
    assert parse_coloring_spec("mod:4").r == 4
    assert parse_coloring_spec("apres:2").kind == "apres"
    with pytest.raises(ColoringSpecError):
        parse_coloring_spec("nope:1")
    with pytest.raises(ColoringSpecError):
        parse_coloring_spec("mod:zero")
    with pytest.raises(ColoringSpecError, match="expected kind:argument"):
        parse_coloring_spec("mod2")
    # a valid integer below one is named as such, not as a non-integer
    for spec in ("mod:0", "apres:0"):
        with pytest.raises(ColoringSpecError, match="at least one color, not 0"):
            parse_coloring_spec(spec)


def test_parse_coloring_table_file(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# colors\n0 1\n1 0\ndefault 1\n")
    c = parse_coloring_spec(f"table:{p}")
    assert c.color_of(0) == 1 and c.color_of(1) == 0 and c.color_of(9) == 1
    for bad, match in (("0 zz\n", "not an integer"), ("0 1\ndefault 1.5\n", "not an integer"),
                       ("0 1\n2 1\n0 0\n", "'0'.*given twice"),
                       ("default 0\ndefault 1\n", "default.*given twice"),
                       ("default\n", "expected: default <color>"),
                       ("0 1 2\n", "expected: <word-or-int> <color>")):
        p.write_text(bad)
        with pytest.raises(ColoringSpecError, match=match):
            parse_coloring_spec(f"table:{p}")


# -- the vdW digit-sum reduction ----------------------------------------------

def _variable_positions(w):
    return sum(1 for s in w if s < 0)


def test_digit_sum_reduction_sends_lines_to_progressions():
    # the images sort by substitution letter, so their digit sums step by the
    # number of variable positions
    ws = WordSemigroup(3)
    family = substitution_family(ws)
    for w in ws.iter_words(4):
        sums = [sum(image) for image in family.images(w)]
        fixed = sum(s for s in w if s >= 0)
        assert sums == [fixed + a * _variable_positions(w) for a in range(3)]


def test_pullback_color_matches_projection():
    # pulled back along the digit sum, a line is monochromatic exactly when
    # its progression is
    ws = WordSemigroup(3)
    family = substitution_family(ws)
    base = ApResidueColoring(2)
    pulled = PullbackColoring(base, sum)
    for w in itertools.product(range(3), repeat=4):
        assert pulled.color_of(w) == base.color_of(sum(w))
    for w in ws.iter_words(4):
        images = family.images(w)
        step = _variable_positions(w)
        ap = [sum(images[0]) + a * step for a in range(3)]
        assert {pulled.color_of(x) for x in images} == {base.color_of(m) for m in ap}
