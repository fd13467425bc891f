"""Certificates: deterministic rendering, round-trips, verification, and
tamper rejection."""
import hashlib
import time

import pytest

from hjlab import (
    ApResidueColoring,
    ModSumColoring,
    PullbackColoring,
    TableColoring,
    WordSemigroup,
    finite_witness_search,
    flag_semigroup,
    hj_check,
    hj_coloring_certificate,
    render_certificate,
    save_certificate,
    substitution_family,
    vdw_check,
    vdw_coloring_certificate,
    verify_certificate_text,
    finite_witness_certificate,
    word_witness_search,
    words_witness_certificate,
)
from hjlab.certificates import (
    ColoringCertificate,
    WitnessWordsCertificate,
    parse_certificate,
    verify_certificate,
)
from hjlab.errors import CertificateError
from hjlab.words import DiagonalFamily, parse_word


def words_cert():
    ws = WordSemigroup(2)
    coloring = ModSumColoring(2)
    out = word_witness_search(substitution_family(ws), coloring)
    return words_witness_certificate(ws, coloring, out)


def apres_vdw_cert():
    # as `hjlab witness --vdw --alphabet 3 --coloring apres:2 --max-len 5` builds it
    ws = WordSemigroup(3)
    base = ApResidueColoring(2)
    search = PullbackColoring(base, sum)
    out = word_witness_search(substitution_family(ws), search, max_len=5)
    return words_witness_certificate(ws, base, out, reduction="vdw")


def words_table_cert():
    ws = WordSemigroup(2)
    coloring = TableColoring({"0": 0, "1": 1, "00": 1}, r=2, default=0)
    out = word_witness_search(substitution_family(ws), coloring)
    return words_witness_certificate(ws, coloring, out)


def finite_cert():
    S, view, family = flag_semigroup(2)
    coloring = TableColoring({"0": 0, "2": 1, "4": 0}, r=2)
    out = finite_witness_search(family, coloring)
    return finite_witness_certificate(S, family, coloring, out)


def hj_cert():
    return hj_coloring_certificate(2, 1, 2, hj_check(2, 2, 1))


def vdw_cert():
    return vdw_coloring_certificate(3, 8, 2, vdw_check(3, 2, 8))


ALL_BUILDERS = [words_cert, apres_vdw_cert, words_table_cert, finite_cert, hj_cert, vdw_cert]

# sha256 of the rendered coloring certificates, recorded before the hj and vdw
# certificate kinds shared one class; the bytes must never change
PINNED_COLORINGS = [
    (lambda: hj_coloring_certificate(3, 3, 2, hj_check(3, 2, 3)), "hj-coloring", (3, 3),
     "f4d452e72930fbf5d0652595bb9dcb2fd6d98435af5ee0640ab4dd06518eeba4"),
    (vdw_cert, "vdw-coloring", (3, 8),
     "2e1650a81a8afda7b9d57bcd31850ea0e2cb68698f10124261f3f5855b5ac6bb"),
]


# sha256 of the rendered witness certificates, one per coloring block, recorded
# while certificates still kept their own copy of each coloring
PINNED_WITNESSES = [
    (words_cert, "059e364b2492ebc63f708a6c1b05b17c62a20cd01a7229a626dbb26750813555"),
    (apres_vdw_cert, "8ca7b916bfbb979320a232893e1dad5cf8e7c6bed8c6adc47e2734f5edcec874"),
    (words_table_cert, "d4d69bf9be4ed8176bb72c2f20f5b4ceae806dd53e000503ebde6b92057d7414"),
    (finite_cert, "3414f81a82be1ce21a8b919395b75e7c0e21f211e5bee9ef983a45dc0c11f537"),
]


@pytest.mark.parametrize("build,digest", PINNED_WITNESSES)
def test_witness_certificate_bytes_are_pinned(build, digest):
    text = render_certificate(build())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert render_certificate(parse_certificate(text)) == text


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_render_parse_roundtrip(build):
    cert = build()
    text = render_certificate(cert)
    again = render_certificate(parse_certificate(text))
    assert again == text


@pytest.mark.parametrize("build,kind,params,digest", PINNED_COLORINGS)
def test_coloring_certificate_bytes_are_pinned(build, kind, params, digest):
    text = render_certificate(build())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    cert = parse_certificate(text)
    assert isinstance(cert, ColoringCertificate)
    assert (cert.kind, cert.params) == (kind, params)
    assert render_certificate(cert) == text


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_rendering_is_byte_deterministic(build):
    assert render_certificate(build()) == render_certificate(build())


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_verification_passes(build):
    ok, msg = verify_certificate(build())
    assert ok, msg


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_every_witness_byte_is_bound(build):
    text = render_certificate(build())
    lines = text.rstrip("\n").split("\n")
    target = next(
        i for i, ln in enumerate(lines)
        if ln.startswith(("witness:", "assignment:"))
    )
    for pos in range(len(lines[target])):
        for repl in ("0", "1", "z", " "):
            if lines[target][pos] == repl:
                continue
            mutated = lines[:]
            mutated[target] = mutated[target][:pos] + repl + mutated[target][pos + 1:]
            ok, msg = verify_certificate_text("\n".join(mutated) + "\n")
            assert not ok, f"mutation at byte {pos} -> {repl!r} survived: {msg}"


def test_save_load(tmp_path):
    path = tmp_path / "w.cert"
    cert = words_cert()
    save_certificate(cert, path)
    loaded = parse_certificate(path.read_text())
    assert render_certificate(loaded) == render_certificate(cert)
    ok, msg = verify_certificate(loaded)
    assert ok, msg


def test_malformed_documents_are_rejected():
    good = render_certificate(words_cert())
    assert verify_certificate_text("not a certificate\n")[0] is False
    assert verify_certificate_text(good.replace("end", "")) [0] is False
    assert verify_certificate_text(good.replace("kind:", "sort:"))[0] is False
    with pytest.raises(CertificateError):
        parse_certificate("hjlab certificate v1\nkind: witness-words\nend\n")


def test_semantic_lies_are_caught_not_just_bytes():
    # re-render after falsifying a field, so the digest is consistent and
    # only the semantic re-check can object
    cert = words_cert()
    import dataclasses
    wrong_color = dataclasses.replace(cert, color=1 - cert.color)
    ok, msg = verify_certificate(wrong_color)
    assert not ok
    wrong_witness = dataclasses.replace(cert, witness=(0, -1))
    ok, msg = verify_certificate(wrong_witness)
    assert not ok
    wrong_images = dataclasses.replace(cert, images=[(0, 0), (1, 0)])
    ok, msg = verify_certificate(wrong_images)
    assert not ok


@pytest.mark.parametrize("witness", [99, -1])
def test_finite_witness_outside_the_carrier_is_rejected(witness):
    import dataclasses
    bad = dataclasses.replace(finite_cert(), witness=witness)
    ok, msg = verify_certificate_text(render_certificate(bad))
    assert not ok and "outside the carrier" in msg


def test_vdw_semantic_check_catches_bad_assignment():
    import dataclasses
    cert = vdw_cert()
    bad = dataclasses.replace(cert, assignment=[0] * len(cert.assignment))
    ok, msg = verify_certificate(bad)
    assert not ok and "monochromatic" in msg


def test_an_hj_assignment_far_short_of_n_to_the_N_fails_fast():
    # 3 ** 10**7 took seconds to compute, and formatting it into the
    # mismatch message exceeded Python's integer string limit; [3]^(10^7)
    # is refused by its line count first, before any power of N digits
    text = render_certificate(ColoringCertificate("hj", (3, 10**7), 2, [0, 1], 0))
    assert len(text.encode()) == 167
    start = time.perf_counter()
    ok, msg = verify_certificate_text(text)
    assert time.perf_counter() - start < 0.5
    assert not ok and msg.startswith("verification error: ") and "byte bound" in msg
    assert "digits" not in msg and str(10**7) not in msg


@pytest.mark.parametrize("witness,message", [
    ("x", "stated images differ from the recomputed retraction images"),
    ("0", "witness lies in T (must be in R)"),
])
def test_a_huge_alphabet_with_few_images_fails_before_any_image(monkeypatch, witness, message):
    # a word of R has one image per letter, so two stated images cannot be
    # the 4000000 of a variable word; listing them took seconds and 512 MB,
    # and the earlier clauses still come first
    def listed(self, word):
        raise AssertionError("the images were listed")

    monkeypatch.setattr(DiagonalFamily, "images", listed)
    cert = WitnessWordsCertificate(
        coloring=ModSumColoring(2), witness=parse_word(witness), images=[(0,), (1,)],
        color=0, checked=1, alphabet=4_000_000, reduction="none",
    )
    text = render_certificate(cert)
    assert len(text.encode()) == 223
    assert verify_certificate_text(text) == (False, message)


def test_an_unknown_object_is_no_certificate():
    with pytest.raises(CertificateError, match="^unknown certificate object: "):
        render_certificate(object())
    assert verify_certificate(object()) == (False, "unknown certificate object")


def test_reduction_field_drives_the_recheck():
    cert = apres_vdw_cert()
    ok, msg = verify_certificate(cert)
    assert ok, msg
    text = render_certificate(cert)
    assert "reduction: vdw" in text


def reseal(text, edit):
    """``text`` with ``edit`` applied to its payload and a fresh digest, so
    that only parsing and the semantic re-check can object."""
    payload = edit(text.rsplit("check: ", 1)[0])
    return payload + f"check: {hashlib.sha256(payload.encode('utf-8')).hexdigest()}\nend\n"


@pytest.mark.parametrize("build,line", [
    (hj_cert, "alphabet: 2\nwitness: xx\n"),
    (words_cert, "row: 0 1\n"),
    (finite_cert, "reduction: none\n"),
    (vdw_cert, "n: 2\n"),
])
def test_a_field_of_another_kind_is_rejected(build, line):
    text = reseal(render_certificate(build()), lambda p: p + line)
    ok, msg = verify_certificate_text(text)
    assert not ok and "is not a" in msg, msg


@pytest.mark.parametrize("build", [words_cert, apres_vdw_cert])
def test_a_words_certificate_has_one_variable(build):
    text = render_certificate(build())
    assert "variables: 1\n" in text
    ok, msg = verify_certificate_text(
        reseal(text, lambda p: p.replace("variables: 1\n", "variables: 2\n"))
    )
    assert not ok and "one variable" in msg, msg


def test_an_embedded_coloring_never_names_a_file(tmp_path):
    # the file holds the very coloring the certificate was built with, so
    # verification could only pass by opening it
    table = tmp_path / "colors.txt"
    table.write_text("0 0\n2 1\n4 0\n")
    block = "coloring: table\ntable-colors: 2\ntable: 0 0\ntable: 2 1\ntable: 4 0\n"
    text = render_certificate(finite_cert())
    assert block in text
    ok, msg = verify_certificate_text(
        reseal(text, lambda p: p.replace(block, f"coloring: table:{table}\n"))
    )
    assert not ok and "bad coloring spec" in msg, msg


@pytest.mark.parametrize("build,old,new", [
    (words_cert, "reduction: none", "reduction: vdw"),
    (apres_vdw_cert, "reduction: vdw", "reduction: none"),
    (finite_cert, "coloring: table\ntable-colors: 2\ntable: 0 0\ntable: 2 1\ntable: 4 0\n",
     "coloring: mod:2\n"),
])
def test_a_coloring_that_does_not_fit_its_points_fails(build, old, new):
    text = render_certificate(build())
    assert old in text
    ok, msg = verify_certificate_text(reseal(text, lambda p: p.replace(old, new)))
    assert not ok and "do not color" in msg, msg


@pytest.mark.parametrize("build,old,new", [
    (words_cert, "color: 0\n", "color: +0\n"),
    (words_cert, "checked: 6\n", "checked: 06\n"),
    (words_cert, "alphabet: 2\n", "alphabet: 0_2\n"),
    (words_cert, "witness: xx\n", "witness: x.x\n"),
    (words_cert, "images: 00 11\n", "images: 0.0 1.1\n"),
    (words_cert, "color: 0\nchecked: 6\n", "checked: 6\ncolor: 0\n"),
    (finite_cert, "table: 0 0\n", "table: 0 1\ntable: 0 0\n"),
])
def test_a_certificate_has_one_byte_form(build, old, new):
    # each spelling parses to the very values rendered, so only the byte
    # form can object
    text = render_certificate(build())
    assert old in text
    ok, msg = verify_certificate_text(reseal(text, lambda p: p.replace(old, new)))
    assert not ok and "rendered form" in msg, msg


@pytest.mark.parametrize("build,old,new,message", [
    (finite_cert, "witness: 5\n", "witness: 4\n", "witness lies in T (must be in R)"),
    (vdw_cert, "assignment: 1 0 1 0 0 1 0 1\n", "assignment: 1 0 1 0 0 1 0\n",
     "assignment length 7 is not the vdw vertex count"),
    (vdw_cert, "assignment: 1 0 1 0 0 1 0 1\n", "assignment: 1 0 1 0 0 1 0 2\n",
     "color out of range"),
    (apres_vdw_cert, "reduction: vdw\n", "reduction: foo\n",
     "verification error: unknown reduction 'foo'"),
    (finite_cert, "order: 6\n", "order: 7\n", "row count does not match order"),
    (words_cert, "checked: 6\n", "", "missing field 'checked'"),
    (words_cert, "color: 0\n", "color: 0\ncolor: 0\n", "field 'color' repeated"),
    (words_cert, "color: 0\n", "color 0\n", "malformed line: 'color 0'"),
    (words_cert, "kind: witness-words\n", "kind: witness-foo\n",
     "unknown certificate kind 'witness-foo'"),
    (words_cert, "color: 0\n", "color: zero\n",
     "bad field value: invalid literal for int() with base 10: 'zero'"),
    (finite_cert, "table: 0 0\n", "table: 0 0 0\n", "bad table line: '0 0 0'"),
], ids=["witness-in-t", "short-assignment", "color-out-of-range", "reduction", "order",
        "missing-field", "repeated-field", "malformed-line", "unknown-kind", "bad-value",
        "bad-table-line"])
def test_a_resealed_lie_fails_its_own_clause(build, old, new, message):
    text = render_certificate(build())
    assert old in text
    assert verify_certificate_text(reseal(text, lambda p: p.replace(old, new))) == (False, message)


def test_a_pullback_coloring_cannot_be_embedded():
    # the verifier could not rebuild its map, so no certificate names one
    ws = WordSemigroup(2)
    out = word_witness_search(substitution_family(ws), ModSumColoring(2))
    cert = words_witness_certificate(ws, PullbackColoring(ApResidueColoring(2), sum), out)
    with pytest.raises(CertificateError, match="^coloring kind 'pullback' cannot be embedded$"):
        render_certificate(cert)


def test_stated_images_keep_their_order():
    text = render_certificate(words_cert())
    ok, msg = verify_certificate_text(
        reseal(text, lambda p: p.replace("images: 00 11\n", "images: 11 00\n"))
    )
    assert not ok and "images differ" in msg, msg


def test_blank_lines_and_crlf_line_ends_are_accepted():
    text = render_certificate(finite_cert())
    assert verify_certificate_text(text.replace("\n", "\r\n\r\n")) == (True, "ok")
