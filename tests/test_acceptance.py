"""Acceptance gate: one test per criterion, one pass/fail line each.

The verdict lines are collected in CRITERION_LINES and printed as an
"acceptance criteria" section in the pytest terminal summary (see
conftest.py), so any `pytest` invocation shows them.  Criterion 8 is the
stretch computation HJ(3,2) = 4, run as the CLI runs it, with the default
budget: both halves are required, and the SAT half's certificate must verify.
"""
import random
import time

from hjlab import (
    ApResidueColoring,
    SubsetQuery,
    TableColoring,
    build_agreement_set,
    check_agreement_equivalence,
    check_fip,
    find_ap_via_words,
    flag_semigroup,
    generate_corpus,
    hj_check,
    sweep_tensor_power,
    vdw_check,
)
from hjlab.cli import main
from hjlab.search import SAT, UNSAT

import oracles


CRITERION_LINES = []


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return ok


def test_criterion_1_hj_2_2(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["hj", "-n", "2", "-r", "2", "--max-N", "4",
                 "--cert-dir", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    sat_cert = tmp_path / "hj(2,2)-N1.cert"
    cert_ok = sat_cert.exists() and main(["verify", str(sat_cert)]) == 0
    ok = (
        code == 0
        and "HJ(2,2) = 2" in out
        and "N=1: SAT" in out
        and "N=2: UNSAT" in out
        and cert_ok
        and elapsed < 1.0
        and oracles.hj_colorable(2, 2, 1)
        and not oracles.hj_colorable(2, 2, 2)
    )
    assert report(1, ok, f"HJ(2,2) = 2, SAT cert at N=1, UNSAT at N=2, {elapsed:.3f}s")


def test_criterion_2_w_3_2(capsys):
    t0 = time.perf_counter()
    code = main(["vdw", "-k", "3", "-r", "2", "--max-M", "16"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = (
        code == 0
        and "W(3,2) = 9" in out
        and elapsed < 1.0
        and oracles.vdw_colorable(3, 2, 8)
        and not oracles.vdw_colorable(3, 2, 9)
    )
    assert report(2, ok, f"W(3,2) = 9 against the naive oracle, {elapsed:.3f}s")


def test_criterion_3_reduction_cross_check():
    k, N = 3, 5
    domain = list(range(2 * N + 1))  # digit sums of words of length <= N
    colorings = [ApResidueColoring(2)]
    rng = random.Random(0)
    for _ in range(64):
        colorings.append(
            TableColoring({str(m): rng.randrange(2) for m in domain}, r=2)
        )
    passed = 0
    for coloring in colorings:
        out = find_ap_via_words(k, coloring, max_len=N)
        if out.status != "found":
            continue
        ap = out.progression
        diffs = {b - a for a, b in zip(ap, ap[1:])}
        if (
            len(diffs) == 1
            and diffs.pop() >= 1
            and {coloring.color_of(m) for m in ap} == {out.color}
        ):
            passed += 1
    ok = passed == len(colorings)
    assert report(
        3, ok,
        f"digit-sum reduction: {passed}/{len(colorings)} colorings give a "
        f"monochromatic 3-AP witness (k=3, N<=5)",
    )


def test_criterion_4_tensor_power_corpus():
    t0 = time.perf_counter()
    entries = generate_corpus(count=50, max_order=6, seed=0)
    report_ = sweep_tensor_power(entries, ks=(2, 3))
    elapsed = time.perf_counter() - t0
    ok = (
        report_.ok
        and report_.semigroups >= 50
        and all(len(e.elements) <= 6 for e in entries)
        and elapsed < 60.0
    )
    assert report(
        4, ok,
        f"tensor-power identity on {report_.semigroups} semigroups, "
        f"{report_.endomorphisms} homomorphisms, {report_.checks} checks, "
        f"{len(report_.failures)} failures, {elapsed:.2f}s",
    )


def test_criterion_5_agreement_equivalence():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for m in (1, 2, 3):
        S, view, family = flag_semigroup(m)
        for r in (2, 3):
            rep = check_agreement_equivalence(S, family, r)
            ok &= rep.a_holds and rep.b_holds and rep.equivalent
        t_members = view.members()
        sets = []
        for amask in range(1 << len(t_members)):
            chosen = [t for i, t in enumerate(t_members) if (amask >> i) & 1]
            sets.append(build_agreement_set(S, family, SubsetQuery.from_members(S, chosen)))
        # over R the total intersection is the points with one image, so
        # FIP is statement (b); every flag family has (b), so only the
        # positive side is exercised
        total = (1 << S.order) - 1
        for X in sets:
            total &= X.mask
        one_image = [v for v in view.complement() if len(family.images(v)) == 1]
        fip = check_fip(sets)
        ok &= SubsetQuery(S, total).members() == one_image
        ok &= fip.ok == rep.b_holds and fip.ok
        detail.append(
            f"m={m}: {fip.subfamilies_checked} subfamilies, intersection {one_image}"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert report(
        5, ok,
        "agreement equivalence and FIP on flag families "
        f"({'; '.join(detail)}), {elapsed:.2f}s",
    )


def test_criterion_6_differential_soundness():
    disagreements = 0
    cases = 0
    for r in (2, 3):
        for n in range(2, 17):
            N = 1
            while n ** N <= 16:
                pruned = hj_check(n, r, N).status
                plain = hj_check(n, r, N, symmetry=False).status
                cases += 1
                if pruned != plain:
                    disagreements += 1
                N += 1
    for k in (3, 4):
        for r in (2, 3):
            for M in range(k, 13):
                got = vdw_check(k, r, M).status
                want = SAT if oracles.vdw_colorable(k, r, M) else UNSAT
                cases += 1
                if got != want:
                    disagreements += 1
    ok = disagreements == 0
    assert report(
        6, ok,
        f"pruned/unpruned hj and pruned/naive vdw agree on {cases} cases, "
        f"{disagreements} disagreements",
    )


def test_criterion_7_certificate_round_trip(tmp_path, capsys):
    from hjlab import verify_certificate_text

    # regenerate every certificate the first three criteria emit
    hj_dir = tmp_path / "hj"
    vdw_dir = tmp_path / "vdw"
    wit_dir = tmp_path / "wit"
    assert main(["hj", "-n", "2", "-r", "2", "--max-N", "4",
                 "--cert-dir", str(hj_dir)]) == 0
    assert main(["vdw", "-k", "3", "-r", "2", "--max-M", "16",
                 "--cert-dir", str(vdw_dir)]) == 0
    wit_dir.mkdir()
    assert main(["witness", "--vdw", "--alphabet", "3", "--coloring", "apres:2",
                 "--max-len", "5", "-o", str(wit_dir / "vdw-viahj-k3.cert")]) == 0
    certs = sorted(str(p) for d in (hj_dir, vdw_dir) for p in d.iterdir())
    certs += [str(p) for p in wit_dir.iterdir()]

    all_verify = all(main(["verify", c]) == 0 for c in certs)
    capsys.readouterr()

    mutations = 0
    survived = 0
    for cpath in certs:
        with open(cpath) as f:
            text = f.read()
        lines = text.rstrip("\n").split("\n")
        target = next(i for i, ln in enumerate(lines)
                      if ln.startswith(("witness:", "assignment:")))
        for pos in range(len(lines[target])):
            orig = lines[target][pos]
            for repl in ("0", "1", "z"):
                if repl == orig:
                    continue
                mutated = lines[:]
                mutated[target] = (
                    mutated[target][:pos] + repl + mutated[target][pos + 1:]
                )
                mutations += 1
                if verify_certificate_text("\n".join(mutated) + "\n")[0]:
                    survived += 1
    ok = all_verify and survived == 0 and mutations > 0
    assert report(
        7, ok,
        f"{len(certs)} certificates verify; {mutations} witness-byte "
        f"mutations all rejected" if survived == 0 else
        f"{survived}/{mutations} mutations survived verification",
    )


def test_criterion_8_hj_3_2_stretch(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["hj", "-n", "3", "-r", "2", "--max-N", "4",
                 "--cert-dir", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    sat3 = tmp_path / "hj(3,2)-N3.cert"
    cert_ok = sat3.exists() and main(["verify", str(sat3)]) == 0
    ok = (
        code == 0
        and "HJ(3,2) = 4" in out
        and "N=3: SAT" in out
        and "N=4: UNSAT" in out
        and cert_ok
    )
    assert report(
        8, ok,
        f"HJ(3,2) = 4 (SAT at N=3 over 27 cells, UNSAT over the "
        f"175-line hypergraph), {elapsed:.2f}s",
    )
