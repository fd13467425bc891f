"""Command-line entry point.

One binary, subcommand style: structural validation, witness search, exact
small Hales-Jewett and van der Waerden numbers, the ultrafilter-identity
checks, and certificate re-verification.  Exit codes: 0 success/verified,
1 honest negative (exhausted search, lower bound only, failed check),
2 input error, 3 budget exceeded.

Each subcommand's parser names its handler.  ``main`` is the one input-error
boundary: a package error (other than a failed solver re-check) or an
unreadable file named on the command line prints one ``error:`` line and
exits 2.  Every command that reads a semigroup file goes through
``_load_structures``, which checks S, T and the retraction family.
"""
from __future__ import annotations

import argparse
import os
import sys

from .certificates import (
    coloring_certificate,
    render_certificate,
    save_certificate,
    verify_certificate_text,
    words_witness_certificate,
    finite_witness_certificate,
)
from .corpus import CorpusEntry, generate_corpus, sweep_tensor_power
from .errors import HjlabError, InvalidInstance, InvalidStructure, VerificationError
from .instances import parse_coloring_spec
from .semigroups import (
    FiniteSemigroup,
    RetractionFamily,
    SubsetQuery,
    check_setting,
    setting_clauses,
)
from .search import (
    SAT,
    UNSAT,
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    INSTANCE_FIELDS,
    WitnessOutcome,
    finite_witness_search,
    find_ap_via_words,
    hj_instance,
    least_size,
    vdw_instance,
    word_witness_search,
)
from .tableio import parse_semigroup_file
from .ultra import PRODUCT_LAW_BOUND, check_agreement_equivalence
from .words import WordSemigroup, format_word, substitution_family

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_structures(parsed, need_family=False):
    """Build a parsed semigroup file into (S, view, family) and check it: S
    associative, T nice, every retraction valid and none repeated.  The view
    and family are None when the file does not declare them."""
    S = FiniteSemigroup(parsed.rows)
    view = family = None
    if parsed.t_members is not None:
        view = SubsetQuery.from_members(S, parsed.t_members)
    if parsed.retractions:
        family = RetractionFamily(view, parsed.retractions)  # checks T too
    elif view is not None:
        check_setting(view, [])
    if need_family and family is None:
        raise InvalidStructure("this command needs T and retraction lines")
    return S, view, family


# -- validate -------------------------------------------------------------


def cmd_validate(args):
    """Report every clause of the file on its own line, unlike the other
    commands, which stop at the first fault."""
    parsed = parse_semigroup_file(args.semigroup)
    try:
        S = FiniteSemigroup(parsed.rows)
    except InvalidStructure as e:
        print(f"table: fail ({e})")
        return EXIT_NEGATIVE
    clauses = []  # a retraction line needs the T line
    if parsed.t_members is not None:
        clauses = setting_clauses(SubsetQuery.from_members(S, parsed.t_members), parsed.retractions)
    print("closure: pass")
    print(f"associativity: pass ({S.order}^3 triples)")
    all_ok = True
    for name, res in clauses:
        all_ok &= res.ok
        print(f"{name}: pass" if res else f"{name}: fail ({res.describe()})")
    return EXIT_OK if all_ok else EXIT_NEGATIVE


# -- witness --------------------------------------------------------------


def cmd_witness(args):
    """The first witness in the mode given: a variable word (--hj), one whose images'
    digit sums are a progression (--vdw), or a point of R in a file (--semigroup)."""
    coloring = parse_coloring_spec(args.coloring)
    if args.semigroup:
        S, view, family = _load_structures(parse_semigroup_file(args.semigroup), need_family=True)
        outcome = finite_witness_search(family, coloring)
        if outcome.status != "found":
            print(f"exhausted: R exhausted ({outcome.checked} elements checked)" if outcome.checked
                  else "exhausted: R is empty (T = S)")
            return EXIT_NEGATIVE
        cert = finite_witness_certificate(S, family, coloring, outcome)
        print(f"witness: {S.element_name(outcome.witness)} (index {outcome.witness})")
        print("images: " + " ".join(S.element_name(x) for x in outcome.images))
    else:
        ws = WordSemigroup(args.alphabet)
        if args.vdw:
            via = find_ap_via_words(args.alphabet, coloring, max_len=args.max_len)
            images = via.word and substitution_family(ws).images(via.word)  # None if exhausted
            outcome = WitnessOutcome(via.status, via.word, images, via.color, via.checked)
        else:
            outcome = word_witness_search(substitution_family(ws), coloring, max_len=args.max_len)
        if outcome.status != "found":
            print(f"exhausted: no witness up to length {args.max_len} "
                  f"({outcome.checked} words checked)")
            return EXIT_NEGATIVE
        cert = words_witness_certificate(ws, coloring, outcome, "vdw" if args.vdw else "none")
        print(f"witness: {format_word(outcome.witness)}")
        print("images: " + " ".join(format_word(w) for w in outcome.images))
        if args.vdw:
            print("progression: " + " ".join(str(m) for m in via.progression))
    print(f"color: {outcome.color}")
    if args.output:
        save_certificate(cert, args.output)
        print(f"certificate: {args.output}")
    else:
        sys.stdout.write(render_certificate(cert))
    return EXIT_OK


# -- hj / vdw -------------------------------------------------------------


def cmd_number(args):
    """The least-size sweep of ``hj`` and ``vdw``."""
    if args.command == "hj":
        make, symbol, a, max_size = hj_instance, "HJ", args.n, args.max_N
    else:
        make, symbol, a, max_size = vdw_instance, "W", args.k, args.max_M
    name = f"{symbol}({a},{args.r})"
    result = least_size(
        make,
        a,
        args.r,
        max_size,
        budget_nodes=args.budget_nodes,
        budget_seconds=args.budget_seconds,
        symmetry=not args.no_symmetry,
    )
    size_field = INSTANCE_FIELDS[args.command][1]
    for size, res in result.runs:
        if res.status == SAT:
            line = f"{size_field}={size}: SAT nodes={res.nodes}"
            if args.cert_dir:
                os.makedirs(args.cert_dir, exist_ok=True)
                path = os.path.join(args.cert_dir, f"{name.lower()}-{size_field}{size}.cert")
                save_certificate(coloring_certificate(make(a, args.r, size), res), path)
                line += f" certificate={path}"
            print(line)
        elif res.status == UNSAT:
            print(f"{size_field}={size}: UNSAT nodes={res.nodes}")
        else:
            print(f"{size_field}={size}: BudgetExceeded nodes={res.nodes}")
    if result.decided:
        print(f"{name} = {result.value}")
        return EXIT_OK
    if result.budget_hit:
        print(f"{name} > {result.lower_bound} (budget exceeded, not UNSAT)")
        return EXIT_BUDGET
    print(f"{name} > {result.lower_bound} (lower bound only)")
    return EXIT_NEGATIVE


# -- ultra ----------------------------------------------------------------


def cmd_ultra_lemma2(args):
    S, view, family = _load_structures(parse_semigroup_file(args.semigroup), need_family=True)
    report = check_agreement_equivalence(S, family, args.colors)
    R = view.complement()  # the constant coloring's first witness is R's least point
    if report.a_holds:
        a_note = f"true (witness for the constant coloring: {S.element_name(R[0])})"
    elif R:
        a_note = f"false (coloring {report.a_counterexample} has no witness)"
    else:
        a_note = "false (R is empty)"
    b_note = (
        f"true (agreement point {S.element_name(report.b_point_in_r)})"
        if report.b_holds
        else "false (no agreement point in R)"
    )
    print(f"(a) every {report.r}-coloring has a monochromatic image set: {a_note}")
    print(f"(b) agreement ultrafilter with point in R: {b_note}")
    print(
        f"colorings checked: {report.colorings_checked}; "
        f"equivalent: {'yes' if report.equivalent else 'NO'}"
    )
    return EXIT_OK if report.equivalent else EXIT_NEGATIVE


def cmd_ultra_corpus(args):
    """The tensor-power sweep over a seeded corpus, or over one file."""
    try:
        ks = tuple(int(k) for k in args.k.split(","))
    except ValueError:
        raise InvalidInstance(f"--k takes comma-separated integers, not {args.k!r}") from None
    parsed = args.semigroup and parse_semigroup_file(args.semigroup)
    order = parsed.order if parsed else args.max_order
    if not 1 <= order <= PRODUCT_LAW_BOUND:
        # the sweep's tables stop there; checked before any table is built or corpus drawn
        what = "the semigroup's order" if parsed else "--max-order"
        raise InvalidInstance(f"{what} must be in 1..{PRODUCT_LAW_BOUND}, not {order}")
    if parsed:
        S, _, _ = _load_structures(parsed)
        # a file semigroup has no generating transformations
        entries = [CorpusEntry(0, [], [], S)]
        scope = f"semigroup {args.semigroup}"
    else:
        entries = generate_corpus(count=args.count, max_order=args.max_order, seed=args.seed)
        scope = (
            f"{len(entries)} transformation semigroups "
            f"(max order {args.max_order}, seed {args.seed})"
        )
    report = sweep_tensor_power(entries, ks=ks)
    print(f"corpus: {scope}")
    print(
        f"endomorphisms: {report.endomorphisms}; checks: {report.checks}; "
        f"failures: {len(report.failures)}"
    )
    for f in report.failures[:5]:
        print(
            f"  failure: entry {f.entry_index} h={f.endomorphism} k={f.k} "
            f"V@{f.v_point} subset mask {f.subset_mask:#x}"
        )
    print(f"tensor-power identity: {'pass' if report.ok else 'fail'}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


# -- verify ---------------------------------------------------------------


def cmd_verify(args):
    with open(args.certificate) as fh:
        ok, message = verify_certificate_text(fh.read())
    print(f"{args.certificate}: {'pass' if ok else 'fail'} ({message})")
    return EXIT_OK if ok else EXIT_NEGATIVE


# -- parser ---------------------------------------------------------------


def build_parser():
    # allow_abbrev=False everywhere: a prefix of a long option is no alias
    parser = argparse.ArgumentParser(
        prog="hjlab",
        allow_abbrev=False,
        description="Semigroup retraction structures, ultrafilter identity "
        "checks, and monochromatic-witness search at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", allow_abbrev=False, help="validate a semigroup file")
    p.add_argument("semigroup")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("witness", allow_abbrev=False, help="search for a monochromatic image set")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hj", action="store_true", help="word-semigroup instance")
    mode.add_argument("--vdw", action="store_true",
                      help="word-semigroup instance colored by digit sums, read as a progression")
    mode.add_argument("--semigroup", help="finite instance from a semigroup file")
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--coloring", required=True, help="mod:<r> | table:<path> for --hj, "
                   "apres:<r> | table:<path> for --vdw and --semigroup")
    p.add_argument("-o", "--output", help="certificate output path")
    p.set_defaults(handler=cmd_witness)

    # the options every least-size sweep shares
    sweep = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    sweep.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                       help="search nodes allowed for each size")
    sweep.add_argument("--budget-seconds", type=float, default=DEFAULT_TIME_BUDGET,
                       help="seconds allowed for the whole sweep, set-up included")
    sweep.add_argument("--no-symmetry", action="store_true")
    sweep.add_argument("--cert-dir", help="write SAT coloring certificates here")

    p = sub.add_parser("hj", allow_abbrev=False, parents=[sweep],
                       help="Hales-Jewett number by backtracking")
    p.add_argument("-n", type=int, required=True, help="alphabet size")
    p.add_argument("-r", type=int, required=True, help="number of colors")
    p.add_argument("--max-N", type=int, required=True)
    p.set_defaults(handler=cmd_number)

    p = sub.add_parser("vdw", allow_abbrev=False, parents=[sweep],
                       help="van der Waerden number by backtracking")
    p.add_argument("-k", type=int, required=True, help="progression length")
    p.add_argument("-r", type=int, default=2, help="number of colors")
    p.add_argument("--max-M", type=int, required=True)
    p.set_defaults(handler=cmd_number)

    p = sub.add_parser("ultra", allow_abbrev=False, help="ultrafilter identity checks")
    usub = p.add_subparsers(dest="ultra_command", required=True)

    q = usub.add_parser("lemma2", allow_abbrev=False,
                        help="agreement equivalence on a finite semigroup")
    q.add_argument("--semigroup", required=True)
    q.add_argument("--colors", type=int, default=2)
    q.set_defaults(handler=cmd_ultra_lemma2)

    q = usub.add_parser("corpus", allow_abbrev=False, help="tensor-power identity sweep")
    q.add_argument("--semigroup", help="sweep this semigroup file instead of a corpus")
    q.add_argument("--count", type=int, default=50, help="corpus size")
    q.add_argument("--max-order", type=int, default=6, help="corpus max order")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--k", default="2,3", help="comma-separated k values")
    q.set_defaults(handler=cmd_ultra_corpus)

    p = sub.add_parser("verify", allow_abbrev=False, help="re-check a certificate file")
    p.add_argument("certificate")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except VerificationError:
        raise  # a failed re-check of a solver result is a fault, not bad input
    except (HjlabError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
