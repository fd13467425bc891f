"""Semigroup file format: parse, format, and error positions."""
import pytest

from hjlab import flag_semigroup
from hjlab.errors import TableParseError
from hjlab.tableio import format_semigroup_file, parse_semigroup_text

FLAG1 = """\
# flag semigroup, m = 1
semigroup 4
0 1 2 3
1 1 3 3
2 3 2 3
3 3 3 3
T: 0 2
retraction: 0 0 2 2
retraction: 0 2 2 2
"""


def test_parse_full_file():
    parsed = parse_semigroup_text(FLAG1)
    assert parsed.order == 4
    assert parsed.rows[1] == [1, 1, 3, 3]
    assert parsed.t_members == [0, 2]
    assert parsed.retractions == [[0, 0, 2, 2], [0, 2, 2, 2]]


def test_format_then_parse_roundtrip():
    S, view, family = flag_semigroup(2)
    text = format_semigroup_file(S, view, family)
    parsed = parse_semigroup_text(text)
    assert parsed.order == S.order
    assert parsed.rows == [[int(S.mul(a, b)) for b in range(S.order)] for a in range(S.order)]
    assert sorted(parsed.t_members) == sorted(view.members())
    assert parsed.retractions == [[int(s[x]) for x in range(S.order)] for s in family]


def test_table_only_file():
    parsed = parse_semigroup_text("semigroup 2\n0 1\n1 1\n")
    assert parsed.t_members is None
    assert parsed.retractions == []


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("semigroup\n", 1),
        ("semigroup 2\n0 1\n", 3),          # missing row
        ("semigroup 2\n0 1 1\n1 1\n", 2),   # row too long
        ("semigroup 2\n0 q\n1 1\n", 2),     # non-integer entry
        ("semigroup 2\n0 1\n1 1\nT:\n", 4),         # empty T
        ("semigroup 2\n0 1\n1 1\nT: 0\nT: 1\n", 5),  # duplicate T
        ("semigroup 2\n0 1\n1 1\nretraction: 0\n", 4),  # short retraction
        ("semigroup 2\n0 1\n1 1\nretraction: 0 1\n", 4),  # retraction without T
        ("semigroup 2\n0 1\n1 1\nbogus: 1\n", 4),   # unknown directive
    ],
)
def test_parse_errors_carry_positions(text, lineno):
    with pytest.raises(TableParseError) as exc:
        parse_semigroup_text(text)
    assert exc.value.line == lineno
    assert exc.value.column >= 1


@pytest.mark.parametrize("text,message", [
    ("group 2\n", "line 1, column 1: expected 'semigroup n' header"),
    ("semigroup 0\n", "line 1, column 11: order must be positive"),
])
def test_a_bad_header_is_refused(text, message):
    with pytest.raises(TableParseError) as exc:
        parse_semigroup_text(text)
    assert str(exc.value) == message


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nsemigroup 2\n# rows\n0 1\n1 1\n\n# subset\nT: 0\n"
    parsed = parse_semigroup_text(text)
    assert parsed.order == 2 and parsed.t_members == [0]
