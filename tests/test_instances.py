"""Concrete instances: lines in [n]^N, colorings, and the digit-sum reduction."""
import itertools

import pytest

from hjlab import (
    ApResidueColoring,
    CombinatorialLine,
    ModSumColoring,
    PullbackColoring,
    TableColoring,
    VdwEncoding,
    decode_word,
    encode_word,
    enumerate_lines,
    line_count,
    parse_coloring_spec,
)
from hjlab.errors import ColoringSpecError, InvalidColoring
from hjlab.words import variable

import oracles


# -- lines ------------------------------------------------------------------

@pytest.mark.parametrize("n,N,count", [(2, 1, 1), (2, 2, 5), (3, 4, 175)])
def test_line_counts(n, N, count):
    lines = list(enumerate_lines(n, N))
    assert len(lines) == count == line_count(n, N)


@pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (3, 2)])
def test_lines_match_the_naive_enumeration(n, N):
    got = {frozenset(encode_word(p, n) for p in line.points)
           for line in enumerate_lines(n, N)}
    assert got == oracles.line_point_sets(n, N)


def test_line_points_sweep_the_variable():
    line = CombinatorialLine(3, (0, variable(0), 2, variable(0)))
    assert line.points == [(0, a, 2, a) for a in range(3)]
    assert str(line) == "0x2x"


def test_line_template_validation():
    with pytest.raises(ValueError):
        CombinatorialLine(2, (0, 1))  # no variable
    with pytest.raises(ValueError):
        CombinatorialLine(2, (0, 2, variable(0)))  # letter out of range
    with pytest.raises(ValueError):
        CombinatorialLine(2, (variable(1),))  # only x is allowed


def test_encode_decode_roundtrip():
    for n, N in ((2, 4), (3, 3)):
        for w in itertools.product(range(n), repeat=N):
            assert decode_word(encode_word(w, n), n, N) == w


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


def test_parse_coloring_table_file(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# colors\n0 1\n1 0\ndefault 1\n")
    c = parse_coloring_spec(f"table:{p}")
    assert c.color_of(0) == 1 and c.color_of(1) == 0 and c.color_of(9) == 1


# -- the vdW digit-sum reduction ----------------------------------------------

def test_digit_sum_reduction_sends_lines_to_progressions():
    enc = VdwEncoding(3, 4)
    for line in enumerate_lines(3, 4):
        image = enc.line_image(line.template)
        # the image really is the pointwise digit sum over the line
        assert image == [enc.digit_sum(p) for p in line.points]
        diffs = {b - a for a, b in zip(image, image[1:])}
        assert len(diffs) == 1 and diffs.pop() >= 1


def test_pullback_color_matches_projection():
    enc = VdwEncoding(3, 4)
    base = ApResidueColoring(2)
    pulled = enc.pullback(base)
    for w in itertools.product(range(3), repeat=4):
        assert pulled.color_of(w) == base.color_of(sum(w))
