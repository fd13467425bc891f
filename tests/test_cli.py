"""End-to-end command-line behavior: outputs, exit codes, certificates."""
import argparse
import fnmatch
import hashlib
import json
import os
import pathlib
import re
import shlex

import pytest

from hjlab import FiniteSemigroup, cyclic_semigroup, flag_semigroup
from hjlab import cli, corpus, search
from hjlab.cli import main
from hjlab.tableio import format_semigroup_file

from test_corpus import add_non_homomorphisms
from test_demos import run_fresh


@pytest.fixture
def flag2(tmp_path):
    S, view, family = flag_semigroup(2)
    path = tmp_path / "flag2.sg"
    path.write_text(format_semigroup_file(S, view, family))
    return str(path)


# -- validate ----------------------------------------------------------------

def test_validate_good_file(flag2, capsys):
    assert main(["validate", flag2]) == 0
    out = capsys.readouterr().out
    assert "associativity: pass" in out
    assert "nice subsemigroup: pass" in out
    assert "retraction 2: pass" in out


def test_validate_broken_table(tmp_path, capsys):
    p = tmp_path / "bad.sg"
    p.write_text("semigroup 2\n0 0\n1 0\n")
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "triple" in out


def test_validate_retraction_without_t(tmp_path, capsys):
    p = tmp_path / "bad.sg"
    p.write_text("semigroup 2\n0 1\n1 1\nretraction: 0 1\n")
    assert main(["validate", str(p)]) == 2
    assert "T line" in capsys.readouterr().out


def test_validate_parse_error_position(tmp_path, capsys):
    p = tmp_path / "bad.sg"
    p.write_text("semigroup 2\n0 qq\n1 1\n")
    assert main(["validate", str(p)]) == 2
    assert "line 2" in capsys.readouterr().out


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.sg"]) == 2
    assert "error" in capsys.readouterr().out


def test_validate_flags_bad_retraction(tmp_path, capsys):
    p = tmp_path / "s.sg"
    p.write_text("semigroup 4\n0 1 2 3\n1 1 3 3\n2 3 2 3\n3 3 3 3\nT: 0 2\nretraction: 0 0 0 0\n")
    assert main(["validate", str(p)]) == 1
    assert "retraction 0: fail" in capsys.readouterr().out


# -- witness -----------------------------------------------------------------

def test_witness_hj_mod2(tmp_path, capsys):
    cert = tmp_path / "w.cert"
    code = main(["witness", "--hj", "--alphabet", "2", "--coloring", "mod:2",
                 "-o", str(cert)])
    out = capsys.readouterr().out
    assert code == 0
    assert "witness: xx" in out
    assert "images: 00 11" in out
    assert main(["verify", str(cert)]) == 0


def test_witness_over_a_wide_alphabet_verifies(tmp_path, capsys):
    # the image 10 rendered as "10" read back as the word 1 0, and the
    # certificate failed with "stated images differ"
    cert = tmp_path / "a.cert"
    assert main(["witness", "--hj", "--alphabet", "11", "--coloring", "mod:1",
                 "--max-len", "1", "-o", str(cert)]) == 0
    assert "images: 0 1 2 3 4 5 6 7 8 9 10." in capsys.readouterr().out
    assert main(["verify", str(cert)]) == 0


def test_witness_rejects_a_zero_color_count(capsys):
    assert main(["witness", "--hj", "--coloring", "mod:0"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert "at least one color, not 0" in out


def test_witness_prints_certificate_without_output_path(capsys):
    assert main(["witness", "--hj", "--coloring", "mod:2"]) == 0
    out = capsys.readouterr().out
    assert "hjlab certificate v1" in out and "end" in out


def test_witness_exhausted_exits_1(capsys):
    assert main(["witness", "--hj", "--coloring", "mod:2", "--max-len", "1"]) == 1
    assert capsys.readouterr().out == "exhausted: no witness up to length 1 (1 words checked)\n"
    assert main(["witness", "--vdw", "--alphabet", "3", "--coloring", "apres:50",
                 "--max-len", "3"]) == 1
    assert capsys.readouterr().out == "exhausted: no witness up to length 3 (45 words checked)\n"


def test_witness_with_t_equal_to_s_says_r_is_empty(tmp_path, capsys):
    # no element was checked, so the negative is that R is empty
    path = tmp_path / "ts.sg"
    path.write_text("semigroup 2\n0 1\n1 1\nT: 0 1\nretraction: 0 1\n")
    assert main(["witness", "--semigroup", str(path), "--coloring", "apres:2"]) == 1
    assert capsys.readouterr().out == "exhausted: R is empty (T = S)\n"


def test_witness_needs_exactly_one_instance(flag2, capsys):
    # argparse's refusal, as for a missing hj --max-N
    for modes in ([], ["--hj", "--vdw"], ["--hj", "--semigroup", flag2]):
        with pytest.raises(SystemExit) as exc:
            main(["witness", *modes, "--coloring", "mod:2"])
        assert exc.value.code == 2
        assert "--hj" in capsys.readouterr().err


@pytest.mark.parametrize("size", [["--alphabet", "0"]])
def test_witness_hj_rejects_a_zero_size(size, capsys):
    assert main(["witness", "--hj", *size, "--coloring", "mod:2"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


def test_witness_takes_no_variable_count(capsys):
    # words have the one variable x
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--hj", "--variables", "2", "--coloring", "mod:2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --variables 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witness", "--hj", "--coloring", "mod:2", "--max-len", "0"],
    ["witness", "--hj", "--coloring", "mod:2", "--max-len", "-2"],
    ["witness", "--vdw", "--alphabet", "3", "--coloring", "apres:2", "--max-len", "0"],
    ["witness", "--vdw", "--alphabet", "3", "--coloring", "apres:2", "--max-len", "-2"],
])
def test_word_length_budget_below_one_exits_2(argv, capsys):
    # a search over no words is no negative
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


def test_witness_finite_table_coloring(flag2, tmp_path, capsys):
    ctab = tmp_path / "c.txt"
    ctab.write_text("0 0\n2 1\n4 0\n")
    cert = tmp_path / "f.cert"
    code = main(["witness", "--semigroup", flag2,
                 "--coloring", f"table:{ctab}", "-o", str(cert)])
    out = capsys.readouterr().out
    assert code == 0
    # index 5 is the element (2,1) of the flag semigroup
    assert "witness: 5" in out
    assert "images: 4" in out
    assert main(["verify", str(cert)]) == 0


def test_witness_finite_rejects_non_table_coloring(flag2, capsys):
    assert main(["witness", "--semigroup", flag2, "--coloring", "mod:2"]) == 2
    assert "mod colorings do not color semigroup elements" in capsys.readouterr().out


def test_witness_finite_residue_coloring(flag2, tmp_path, capsys):
    # a residue colors semigroup elements as the verifier does
    cert = tmp_path / "f.cert"
    assert main(["witness", "--semigroup", flag2, "--coloring", "apres:2",
                 "-o", str(cert)]) == 0
    out = capsys.readouterr().out
    # (0,1) at index 1 has the images 0, 2 and 4, all even
    assert "witness: 1 (index 1)" in out and "images: 0 2 4" in out
    assert main(["verify", str(cert)]) == 0


def test_witness_finite_table_with_a_repeated_key_exits_2(flag2, tmp_path, capsys):
    # read with either entry for 0, this table gives a different witness
    ctab = tmp_path / "dup.txt"
    ctab.write_text("0 1\n2 1\n4 1\n0 0\n")
    cert = tmp_path / "c.cert"
    assert main(["witness", "--semigroup", flag2, "--coloring", f"table:{ctab}",
                 "-o", str(cert)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and "'0'" in out and out.count("\n") == 1
    assert not cert.exists()


def test_witness_apres_names_vdw_via_hj(tmp_path, capsys):
    # integer colorings reach words only through the digit-sum reduction
    cert = tmp_path / "r.cert"
    code = main(["witness", "--hj", "--alphabet", "3",
                 "--coloring", "apres:2", "--max-len", "5", "-o", str(cert)])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert "hjlab witness --vdw" in out
    assert not cert.exists()


# -- hj / vdw -----------------------------------------------------------------

def test_hj_22(tmp_path, capsys):
    certs = tmp_path / "certs"
    assert main(["hj", "-n", "2", "-r", "2", "--max-N", "4",
                 "--cert-dir", str(certs)]) == 0
    out = capsys.readouterr().out
    assert "HJ(2,2) = 2" in out
    assert "N=1: SAT" in out and "N=2: UNSAT" in out
    files = sorted(os.listdir(certs))
    assert len(files) == 1
    assert main(["verify", str(certs / files[0])]) == 0


def test_hj_lower_bound_only(capsys):
    assert main(["hj", "-n", "3", "-r", "2", "--max-N", "2"]) == 1
    assert "HJ(3,2) > 2 (lower bound only)" in capsys.readouterr().out


def test_hj_42_lower_bound_node_counts(capsys):
    assert main(["hj", "-n", "4", "-r", "2", "--max-N", "5"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"N={N}: SAT nodes={nodes}" for N, nodes in zip(range(1, 6), (3, 8, 20, 73, 191))
    ] + ["HJ(4,2) > 5 (lower bound only)"]


def test_vdw_32(capsys):
    assert main(["vdw", "-k", "3", "-r", "2", "--max-M", "16"]) == 0
    out = capsys.readouterr().out
    assert "W(3,2) = 9" in out
    assert "M=9: UNSAT" in out


def test_vdw_budget_exit(capsys):
    code = main(["vdw", "-k", "3", "-r", "2", "--max-M", "9",
                 "--budget-nodes", "2"])
    out = capsys.readouterr().out
    assert code == 3
    assert "budget exceeded, not UNSAT" in out
    # the stop reports the nodes searched, not 3
    assert "M=5: BudgetExceeded nodes=2" in out


def test_vdw_needs_max_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vdw", "-k", "3"])
    assert exc.value.code == 2
    assert "the following arguments are required: --max-M" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hj", "-n", "1", "-r", "2", "--max-N", "3"],
    ["hj", "-n", "2", "-r", "0", "--max-N", "3"],
    ["hj", "-n", "2", "-r", "2", "--max-N", "0"],
    ["vdw", "-k", "1", "--max-M", "5"],
    # a nan deadline compares false with every time, so the sweep never stops
    ["hj", "-n", "2", "-r", "2", "--max-N", "3", "--budget-seconds", "nan"],
    # a negative budget was reported as a budget stop
    ["hj", "-n", "2", "-r", "2", "--max-N", "3", "--budget-seconds", "-1"],
    ["hj", "-n", "2", "-r", "2", "--max-N", "3", "--budget-nodes", "-1"],
    # the vdw sweep refuses the same budgets
    ["vdw", "-k", "3", "--max-M", "9", "--budget-seconds", "-1"],
    ["vdw", "-k", "3", "--max-M", "9", "--budget-seconds", "nan"],
    ["vdw", "-k", "3", "--max-M", "9", "--budget-nodes", "-1"],
])
def test_invalid_number_parameters_exit_2(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


def test_witness_vdw_takes_no_budget(capsys):
    # it runs no sweep, so a budget would be an option that does nothing
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--vdw", "--alphabet", "3", "--coloring", "apres:2",
              "--budget-seconds", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget-seconds 1" in capsys.readouterr().err


def test_vdw_via_hj(tmp_path, capsys):
    # the digit-sum reduction: witness --vdw writes the pinned apres_vdw_cert bytes
    cert = tmp_path / "v.cert"
    assert main(["witness", "--vdw", "--alphabet", "3", "--coloring", "apres:2",
                 "--max-len", "5", "-o", str(cert)]) == 0
    assert "progression: 0 2 4\n" in capsys.readouterr().out
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
        "8ca7b916bfbb979320a232893e1dad5cf8e7c6bed8c6adc47e2734f5edcec874")
    assert main(["verify", str(cert)]) == 0


@pytest.mark.parametrize("argv", [
    ["--alphabet", "0"],
    ["--alphabet", "1"],
    ["--alphabet", "3", "--coloring", "table:/no/such/table"],
    ["--alphabet", "3", "--coloring", "mod:2"],  # mod colors words, not integers
])
def test_vdw_via_hj_bad_input_exits_2(argv, capsys):
    assert main(["witness", "--vdw", "--coloring", "apres:2", "--max-len", "4", *argv]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


def test_no_symmetry_flag(capsys):
    assert main(["hj", "-n", "2", "-r", "2", "--max-N", "2", "--no-symmetry"]) == 0
    assert "HJ(2,2) = 2" in capsys.readouterr().out


# -- ultra --------------------------------------------------------------------

def test_ultra_corpus_single_k(capsys):
    assert main(["ultra", "corpus", "--max-order", "4", "--seed", "0",
                 "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "tensor-power identity: pass" in out
    assert "failures: 0" in out


def test_ultra_corpus_single_semigroup(flag2, capsys):
    assert main(["ultra", "corpus", "--semigroup", flag2, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert f"corpus: semigroup {flag2}" in out
    assert "tensor-power identity: pass" in out


def test_ultra_corpus_checks_a_t_without_retractions(tmp_path, capsys):
    # a T line alone is checked for niceness; the sweep needs no family
    flag = "semigroup 4\n0 1 2 3\n1 1 3 3\n2 3 2 3\n3 3 3 3\n"
    path = tmp_path / "t.sg"
    path.write_text(flag + "T: 0 2\n")
    assert main(["ultra", "corpus", "--semigroup", str(path), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "endomorphisms: 25; checks: 100; failures: 0\n" in out
    assert out.endswith("tensor-power identity: pass\n")
    path.write_text(flag + "T: 1\n")
    assert main(["ultra", "corpus", "--semigroup", str(path), "--k", "2"]) == 2
    assert capsys.readouterr().out == (
        "error: nice subsemigroup: ideal (right product) fails at (1, 0)\n")


def test_ultra_corpus_rejects_a_carrier_above_the_bound(tmp_path, capsys):
    path = tmp_path / "z13.sg"
    path.write_text(format_semigroup_file(cyclic_semigroup(13)))
    assert main(["ultra", "corpus", "--semigroup", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert "12" in out


def test_ultra_corpus_checks_the_file_order_before_building_the_table(tmp_path, monkeypatch,
                                                                     capsys):
    # the table check is n^3 products, seconds at order 400; the order bound
    # of 12 must refuse the file from its header first
    path = tmp_path / "z13.sg"
    path.write_text(format_semigroup_file(cyclic_semigroup(13)))
    built = []
    monkeypatch.setattr(cli, "FiniteSemigroup", lambda *a, **kw: built.append(a))
    assert main(["ultra", "corpus", "--semigroup", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert "the semigroup's order must be in 1..12, not 13" in out
    assert built == []


def test_ultra_corpus_rejects_a_left_zero_band_past_the_map_bound(tmp_path, monkeypatch, capsys):
    # every map of a left-zero band is an endomorphism: 256 at order 4
    path = tmp_path / "lz4.sg"
    path.write_text(format_semigroup_file(FiniteSemigroup([[a] * 4 for a in range(4)])))
    monkeypatch.setattr(search, "EDGE_BYTES_LIMIT", 255 * 4 * 8)
    assert main(["ultra", "corpus", "--semigroup", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1 and "byte bound" in out


def test_ultra_corpus_rejects_a_sweep_past_the_streamed_byte_bound(tmp_path, monkeypatch, capsys):
    # the order-3 left-zero band's 27 maps stream 1944 bytes at ks (2, 3)
    path = tmp_path / "lz3.sg"
    path.write_text(format_semigroup_file(FiniteSemigroup([[a] * 3 for a in range(3)])))
    monkeypatch.setattr(corpus, "SWEEP_BYTES_LIMIT", 1943)
    assert main(["ultra", "corpus", "--semigroup", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1 and "1943-byte bound" in out


def test_ultra_lemma2(flag2, capsys):
    assert main(["ultra", "lemma2", "--semigroup", flag2, "--colors", "2"]) == 0
    out = capsys.readouterr().out
    assert "(a) every 2-coloring has a monochromatic image set: true" in out
    assert "(b) agreement ultrafilter with point in R: true" in out
    assert "equivalent: yes" in out


@pytest.mark.parametrize("colors", ["0", "-1"])
def test_ultra_lemma2_rejects_fewer_than_one_color(flag2, colors, capsys):
    assert main(["ultra", "lemma2", "--semigroup", flag2, "--colors", colors]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


def test_ultra_lemma2_with_t_equal_to_s(tmp_path, capsys):
    # R is empty, so both statements fail and they agree
    path = tmp_path / "ts.sg"
    path.write_text("semigroup 2\n0 1\n1 1\nT: 0 1\nretraction: 0 1\n")
    assert main(["ultra", "lemma2", "--semigroup", str(path)]) == 0
    assert capsys.readouterr().out == (
        "(a) every 2-coloring has a monochromatic image set: "
        "false (R is empty)\n"
        "(b) agreement ultrafilter with point in R: false (no agreement point in R)\n"
        "colorings checked: 1; equivalent: yes\n"
    )


def test_ultra_lemma2_needs_structures(tmp_path, capsys):
    p = tmp_path / "t.sg"
    p.write_text("semigroup 2\n0 1\n1 1\n")
    assert main(["ultra", "lemma2", "--semigroup", str(p)]) == 2


def test_ultra_corpus(capsys):
    assert main(["ultra", "corpus", "--count", "10", "--max-order", "5",
                 "--seed", "1", "--k", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "10 transformation semigroups" in out
    assert "tensor-power identity: pass" in out


@pytest.mark.parametrize("k", ["4", "0", "x", "2,2"])
def test_ultra_corpus_rejects_bad_k(k, capsys):
    assert main(["ultra", "corpus", "--count", "5", "--max-order", "4", "--k", k]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ultra", "corpus", "--count", "0"],
    ["ultra", "corpus", "--count", "-1"],
    ["ultra", "corpus", "--count", "0", "--k", "2"],
    ["ultra", "corpus", "--count", "-1", "--k", "2"],
])
def test_ultra_sweeps_reject_an_empty_corpus(argv, capsys):
    # a sweep of no semigroups is no evidence for the identity
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ultra", "corpus", "--count", "3", "--max-order", "0"],
    ["ultra", "corpus", "--count", "3", "--max-order", "13"],
    ["ultra", "corpus", "--count", "3", "--max-order", "0", "--k", "2"],
    ["ultra", "corpus", "--count", "3", "--max-order", "13", "--k", "2"],
])
def test_ultra_sweeps_reject_an_order_outside_the_bound(argv, monkeypatch, capsys):
    # the sweep's tables stop at order 12, so the order is rejected before
    # any corpus is drawn
    def no_draw(**kwargs):
        raise AssertionError("corpus drawn")
    monkeypatch.setattr(cli, "generate_corpus", no_draw)
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert "1..12" in out


def test_ultra_corpus_baseline_row(capsys):
    assert main(["ultra", "corpus", "--count", "200", "--max-order", "10",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "endomorphisms: 1139; checks: 11834; failures: 0" in out
    assert "tensor-power identity: pass" in out


def test_ultra_corpus_reports_its_first_five_failures(monkeypatch, capsys):
    add_non_homomorphisms(monkeypatch, seed=5)
    assert main(["ultra", "corpus", "--count", "20", "--max-order", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("; failures: 71")
    assert [line.startswith("  failure: entry ") for line in lines[2:]] == [True] * 5 + [False]
    assert lines[-1] == "tensor-power identity: fail"


# -- verify ---------------------------------------------------------------------

def test_verify_rejects_tampering(tmp_path, capsys):
    cert = tmp_path / "w.cert"
    main(["witness", "--hj", "--coloring", "mod:2", "-o", str(cert)])
    capsys.readouterr()
    text = cert.read_text().replace("witness: xx", "witness: x0")
    cert.write_text(text)
    assert main(["verify", str(cert)]) == 1
    assert "fail" in capsys.readouterr().out


@pytest.mark.parametrize("argv,old,new", [
    # the last option names the certificate file
    (["witness", "--vdw", "--alphabet", "3", "--coloring", "apres:2", "--max-len", "5", "-o"],
     "reduction: vdw", "reduction: none"),
    (["witness", "--hj", "--coloring", "mod:2", "-o"], "reduction: none", "reduction: vdw"),
])
def test_verify_fails_a_coloring_that_does_not_fit_its_reduction(tmp_path, capsys, argv, old, new):
    cert = tmp_path / "out"
    assert main([*argv, str(cert)]) == 0
    capsys.readouterr()
    payload = cert.read_text().rsplit("check: ", 1)[0].replace(old, new)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    cert.write_text(payload + f"check: {digest}\nend\n")
    assert main(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "do not color" in out


def test_verify_missing_file(capsys):
    assert main(["verify", "/no/such.cert"]) == 2



# -- input errors ---------------------------------------------------------------

BAD_FILES = {
    # name: (file bytes, exit code of validate, which reports clause by clause)
    "non-associative": (b"semigroup 2\n0 0\n1 0\n", 1),
    "invalid retraction": (
        b"semigroup 4\n0 1 2 3\n1 1 3 3\n2 3 2 3\n3 3 3 3\nT: 0 2\nretraction: 0 0 0 0\n", 1),
    "repeated retraction": (
        b"semigroup 4\n0 1 2 3\n1 1 3 3\n2 3 2 3\n3 3 3 3\nT: 0 2\n"
        b"retraction: 0 0 2 2\nretraction: 0 0 2 2\n", 1),
    "T outside the carrier": (b"semigroup 2\n0 1\n1 1\nT: 0 5\n", 2),
    "non-nice T": (b"semigroup 2\n0 1\n1 0\nT: 0\nretraction: 0 0\n", 1),
    "not UTF-8": (b"semigroup 2\n\xff\xfe\n", 2),
}


@pytest.mark.parametrize("command", ["witness", "lemma2", "corpus", "validate"])
@pytest.mark.parametrize("name", list(BAD_FILES))
def test_bad_semigroup_files_give_one_error_line(name, command, tmp_path, capsys):
    content, validate_code = BAD_FILES[name]
    path = tmp_path / "bad.sg"
    path.write_bytes(content)
    colors = tmp_path / "c.txt"
    colors.write_text("0 0\n")
    argv = {
        "witness": ["witness", "--semigroup", str(path), "--coloring", f"table:{colors}"],
        "lemma2": ["ultra", "lemma2", "--semigroup", str(path)],
        "corpus": ["ultra", "corpus", "--semigroup", str(path)],
        "validate": ["validate", str(path)],
    }[command]
    code = main(argv)
    out = capsys.readouterr().out
    if command == "validate" and validate_code == 1:
        assert code == 1 and ": fail (" in out
    else:
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1


def test_validate_and_the_family_name_a_repeat_alike(tmp_path, capsys):
    path = tmp_path / "rep.sg"
    path.write_bytes(BAD_FILES["repeated retraction"][0])
    assert main(["validate", str(path)]) == 1
    assert "retraction 1: fail (repeats retraction 0)" in capsys.readouterr().out
    assert main(["ultra", "lemma2", "--semigroup", str(path)]) == 2
    assert capsys.readouterr().out == "error: retraction 1: repeats retraction 0\n"


def test_a_retraction_image_outside_the_carrier_is_named(tmp_path, capsys):
    # each command ended in a TypeError traceback from int(argwhere(...)[0])
    good = "semigroup 4\n0 1 2 3\n1 1 3 3\n2 3 2 3\n3 3 3 3\nT: 0 2\nretraction: 0 0 2 2\n"
    path = tmp_path / "out.sg"
    path.write_text(good.replace("retraction: 0 0", "retraction: 0 7"))
    clause = "image[1] = 7 is outside [0, 4)"
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.endswith(f"retraction 0: fail ({clause})\n") and err == ""
    refusal = f"retraction 0: {clause}"
    for argv in (["witness", "--semigroup", str(path), "--coloring", "apres:2"],
                 ["ultra", "lemma2", "--semigroup", str(path)],
                 ["ultra", "corpus", "--semigroup", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr() == (f"error: {refusal}\n", "")
    # a witness-finite certificate resealed with that retraction
    cert = tmp_path / "f.cert"
    (tmp_path / "good.sg").write_text(good)
    assert main(["witness", "--semigroup", str(tmp_path / "good.sg"), "--coloring", "apres:2",
                 "-o", str(cert)]) == 0
    capsys.readouterr()
    payload = cert.read_text().rsplit("check: ", 1)[0]
    payload = payload.replace("retraction: 0 0 2 2\n", "retraction: 0 7 2 2\n")
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    cert.write_text(payload + f"check: {digest}\nend\n")
    assert main(["verify", str(cert)]) == 1
    out, err = capsys.readouterr()
    assert out == f"{cert}: fail (verification error: {refusal})\n" and err == ""


def test_an_instance_past_the_edge_bound_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(search, "EDGE_BYTES_LIMIT", 15)  # [2]^1 has one line of 16 bytes
    assert main(["hj", "-n", "2", "-r", "2", "--max-N", "4"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1 and "byte bound" in out


def test_verify_fails_a_certificate_past_the_edge_bound(tmp_path, monkeypatch, capsys):
    assert main(["vdw", "-k", "3", "-r", "2", "--max-M", "9", "--cert-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(search, "EDGE_BYTES_LIMIT", 12 * 3 * 8 - 1)  # 12 3-APs in [1..8]
    assert main(["verify", str(tmp_path / "w(3,2)-M8.cert")]) == 1
    out = capsys.readouterr().out
    assert ": fail (" in out and "byte bound" in out


def test_readme_commands_parse():
    # every command the README shows must still parse; nothing is run
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        for line in block.splitlines()
        if line.startswith("hjlab ")
    ]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


@pytest.mark.parametrize("argv", [
    ["ultra", "corpus", "--max", "4", "--cou", "3"],
    ["vdw", "-k", "3", "--max-M", "9", "--budget-s", "1"],
])
def test_option_prefixes_are_no_aliases(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parsers(child)


def test_no_parser_takes_option_prefixes():
    # a prefix of a long option must never parse as that option, for every
    # parser and subparser, so a later option cannot bring aliases back
    parsers = list(_parsers(cli.build_parser()))
    assert [p.prog for p in parsers if p.allow_abbrev] == []
    assert len(parsers) == 9  # hjlab, its 6 commands and ultra's 2


# -- the baseline commands, as a user runs them ----------------------------------

# (command, exit code, last-line pattern): the ROADMAP Baseline commands and
# the refusals and negatives beside them.  A refusal (exit 2) is checked for
# its "error:" prefix only, not for the library's wording.  {tmp} holds
# BASELINE_FILES and the certificate the witness command writes.
BASELINE = [
    ("hj -n 3 -r 2 --max-N 4", 0, "HJ(3,2) = 4"),
    ("hj -n 4 -r 2 --max-N 5", 1, "HJ(4,2) > 5 (lower bound only)"),
    ("vdw -k 4 -r 2 --max-M 40", 0, "W(4,2) = 35"),
    ("vdw -k 3 -r 3 --max-M 30", 0, "W(3,3) = 27"),
    ("ultra corpus --count 50 --max-order 6", 0, "tensor-power identity: pass"),
    ("ultra corpus --count 200 --max-order 10 --seed 1", 0, "tensor-power identity: pass"),
    ("hj -n 1 -r 2 --max-N 3", 2, "error:*"),
    ("vdw -k 3 --max-M 9 --budget-seconds nan", 2, "error:*"),
    ("ultra corpus --max-order 13", 2, "error:*"),
    ("hj -n 3 -r 2 --max-N 4 --budget-nodes 10", 3, "HJ(3,2) > 2 (budget exceeded, not UNSAT)"),
    # the digit-sum reduction is a witness mode; --hj refuses an integer coloring
    ("witness --vdw --alphabet 3 --coloring apres:2 --max-len 5 -o {tmp}/apres.cert", 0,
     "certificate: *"),
    ("witness --vdw --alphabet 3 --coloring apres:50 --max-len 3", 1, "exhausted: *"),
    ("witness --hj --coloring apres:2", 2, "error:*"),
    # a table entry outside its carrier: refused by the corpus command,
    # reported as a failed clause by validate
    ("ultra corpus --semigroup {tmp}/bad.sg", 2, "error:*"),
    ("validate {tmp}/bad.sg", 1, "table: fail (*)"),
    # a retraction image outside the carrier: a failed clause from validate,
    # refused by the commands that build the family
    ("validate {tmp}/ret.sg", 1, "retraction 0: fail (*)"),
    ("ultra lemma2 --semigroup {tmp}/ret.sg", 2, "error:*"),
    ("witness --semigroup {tmp}/ret.sg --coloring apres:2", 2, "error:*"),
    # T = S is a valid setting whose R is empty: said as such, not as a search
    ("witness --semigroup {tmp}/tes.sg --coloring apres:2", 1, "exhausted: R is empty (T = S)"),
    ("ultra lemma2 --semigroup {tmp}/tes.sg", 0, "colorings checked: 1; equivalent: yes"),
]
BASELINE_FILES = {
    "bad.sg": "semigroup 2\n0 1\n1 -1\n",
    "ret.sg": "semigroup 4\n0 1 2 3\n1 1 3 3\n2 3 2 3\n3 3 3 3\nT: 0 2\nretraction: 0 7 2 2\n",
    "tes.sg": "semigroup 2\n0 1\n1 1\nT: 0 1\nretraction: 0 1\n",
}

# Runs each argv of the JSON list in argv[1] through main() in this one
# interpreter and prints [exit code, stdout, stderr] per command as JSON.
# The collection before stderr is read surfaces a leaked file's
# ResourceWarning; an exception that escapes main() is stderr output.
RUN_EACH = """
import contextlib, gc, io, json, sys, traceback
from hjlab.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except BaseException:
            code = None
            traceback.print_exc()
        gc.collect()
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def baseline_runs(tmp_path_factory):
    """Command -> [exit code, stdout, stderr], all commands run in one fresh
    ``python -X dev -W error`` interpreter."""
    tmp = tmp_path_factory.mktemp("baseline")
    for name, text in BASELINE_FILES.items():
        (tmp / name).write_text(text)
    argvs = [[word.format(tmp=tmp) for word in shlex.split(cmd)] for cmd, _, _ in BASELINE]
    runs = json.loads(run_fresh(["-c", RUN_EACH, json.dumps(argvs)]))
    return {cmd: run for (cmd, _, _), run in zip(BASELINE, runs)}


@pytest.mark.parametrize("cmd, code, last", BASELINE, ids=[cmd for cmd, _, _ in BASELINE])
def test_a_baseline_command_keeps_its_last_line(baseline_runs, cmd, code, last):
    got, out, err = baseline_runs[cmd]
    assert (got, err) == (code, "")
    assert fnmatch.fnmatchcase(out.splitlines()[-1], last), out


def test_a_node_budget_stop_reports_the_nodes_searched(baseline_runs):
    # the nodes searched, not one more
    _, out, _ = baseline_runs["hj -n 3 -r 2 --max-N 4 --budget-nodes 10"]
    assert "N=3: BudgetExceeded nodes=10" in out.splitlines()


def test_the_entry_point_runs_clean():
    out = run_fresh(["-m", "hjlab.cli", "hj", "-n", "3", "-r", "2", "--max-N", "4"])
    assert out.splitlines()[-1] == "HJ(3,2) = 4"
