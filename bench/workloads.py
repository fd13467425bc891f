"""The benchmark's three known-answer workloads and their correctness oracle.

Each workload is one closed-loop client: a single thread issuing one item
after another through the public library calls the CLI subcommands make,
with the CLI's default symmetry and budgets.  Every item yields an
observation (a JSON-able dict of deterministic outcomes: verdicts, node
counts per size, check counts, certificate digests).  The oracle is the
literature answer stated next to each item below, overlaid on the counters
recorded in ``golden.json``; an item whose observation differs, or that
raises, fails and is named.

``hj_lines`` and ``vdw_progressions`` are fixed lists and ignore the seed.
On ``tensor_corpus`` the seed draws a random relabelling of the elements of
every semigroup in the two corpora.  The relabelled tables are what the
sweep sees; the endomorphism and check counts are isomorphism invariants, so
the known answers and the amount of table work stay the same for every
seed.  Drawing fresh corpora per seed instead changes the work by up to 3x
(5.1-14.3 s for corpus seeds 1-6 at order 10), which no run-to-run bound
could absorb.
"""
from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from pathlib import Path

import hjlab

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# (n, r, N_max, answer): the hj_number sweeps.  Every SAT size is rendered
# as a certificate and verified.
HJ_SWEEPS = [
    (3, 2, 4, "HJ(3,2) = 4"),
    (4, 2, 5, "HJ(4,2) > 5"),
    (5, 2, 4, "HJ(5,2) > 4"),
    (3, 3, 5, "HJ(3,3) > 5"),
]

# (k, r, M_max, answer): vdw_number sweeps, each with the CLI's default
# symmetry and with --no-symmetry.
VDW_SWEEPS = [
    (4, 2, 40, "W(4,2) = 35"),
    (3, 3, 30, "W(3,3) = 27"),
]

# (k, r, M, verdict): hard single checks below the known thresholds
# W(5,2) = 178 (Stevens & Shantaram 1978) and W(3,4) = 76, so both are SAT.
VDW_CHECKS = [
    (5, 2, 171, hjlab.SAT),
    (3, 4, 61, hjlab.SAT),
]

# (k, coloring spec, max_len): the ``vdw --via-hj`` reduction.
VIA_HJ = (4, "apres:3", 8)

# (count, max_order, corpus seed, known counts): generate_corpus plus
# sweep_tensor_power at k = 2, 3.  The identity is a theorem, so 0 failures.
CORPORA = [
    (200, 10, 1, {"semigroups": 200, "endomorphisms": 1139, "checks": 11834, "failures": 0}),
    (400, 8, 2, {"semigroups": 400, "checks": 26200, "failures": 0}),
]
CORPUS_KS = (2, 3)

# flag_semigroup(m) families: agreement equivalence at each r, and FIP over
# the agreement sets of every A in T, as acceptance criterion 5 runs them.
FLAG_ORDERS = (1, 2, 3)
FLAG_COLORS = (2, 3)


class Pass:
    """One pass over a workload's items: observations, errors, wall time."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.observed = {}
        self.errors = {}
        self.wall = 0.0

    def item(self, name, call, observe):
        """Run ``call()``, record ``observe(result)`` under ``name``; an
        exception is recorded as the item's error.  Returns the result, or
        None when the call raised."""
        scope = self.tracer.span(f"item {name}") if self.tracer else nullcontext()
        try:
            with scope:
                result = call()
            self.observed[name] = observe(result)
        except Exception as e:  # an item that raises fails; the pass goes on
            self.errors[name] = f"{type(e).__name__}: {e}"
            return None
        return result


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _certify(p, name, make_cert):
    def call():
        text = hjlab.render_certificate(make_cert())
        return text, hjlab.verify_certificate_text(text)

    def observe(result):
        text, (ok, message) = result
        return {"verified": ok, "message": message, "sha256": _sha256(text)}

    p.item(name, call, observe)


def _observe_number(label):
    def observe(result):
        if result.decided:
            answer = f"{label} = {result.value}"
        else:
            answer = f"{label} > {result.lower_bound}"
        if result.budget_hit:
            answer += " (budget)"
        runs = [[size, res.status, res.nodes] for size, res in result.runs]
        return {"answer": answer, "runs": runs}

    return observe


def run_hj_lines(inputs, p):
    for n, r, N_max, _ in HJ_SWEEPS:
        label = f"HJ({n},{r})"
        result = p.item(
            f"{label} to N={N_max}",
            lambda: hjlab.hj_number(n, r, N_max),
            _observe_number(label),
        )
        for N, res in result.runs if result else ():
            if res.status == hjlab.SAT:
                _certify(
                    p,
                    f"{label} N={N} certificate",
                    lambda: hjlab.hj_coloring_certificate(n, N, r, res),
                )


def run_vdw_progressions(inputs, p):
    for k, r, M_max, _ in VDW_SWEEPS:
        label = f"W({k},{r})"
        for symmetry, tag in ((("color", "reflection"), "symmetry"), ((), "no symmetry")):
            p.item(
                f"{label} to M={M_max}, {tag}",
                lambda: hjlab.vdw_number(k, r, M_max, symmetry=symmetry),
                _observe_number(label),
            )
    for k, r, M, _ in VDW_CHECKS:
        name = f"vdw_check({k},{r},{M})"
        res = p.item(
            name,
            lambda: hjlab.vdw_check(k, r, M),
            lambda res: {"status": res.status, "nodes": res.nodes},
        )
        if res is not None and res.status == hjlab.SAT:
            _certify(
                p, f"{name} certificate", lambda: hjlab.vdw_coloring_certificate(k, M, r, res)
            )
    k, spec, max_len = VIA_HJ
    name = f"via-hj k={k} {spec}"
    out = p.item(
        name,
        lambda: hjlab.find_ap_via_words(k, hjlab.parse_coloring_spec(spec), max_len=max_len),
        lambda out: {
            "status": out.status,
            "word": None if out.word is None else hjlab.format_word(out.word),
            "progression": out.progression,
            "color": out.color,
            "checked": out.checked,
        },
    )
    if out is not None and out.status == "found":
        # the certificate the CLI writes with --cert-dir
        def make_cert():
            ws = hjlab.WordSemigroup(k)
            images = hjlab.substitution_family(ws).images(out.word)
            outcome = hjlab.WitnessOutcome("found", out.word, images, out.color, out.checked)
            coloring = hjlab.parse_coloring_spec(spec)
            return hjlab.words_witness_certificate(ws, coloring, outcome, reduction="vdw")

        _certify(p, f"{name} certificate", make_cert)


def run_tensor_corpus(inputs, p):
    for (count, max_order, corpus_seed, _), entries in zip(CORPORA, inputs):
        def call():
            drawn = hjlab.generate_corpus(count=count, max_order=max_order, seed=corpus_seed)
            return drawn, hjlab.sweep_tensor_power(entries, ks=CORPUS_KS)

        def observe(result):
            drawn, report = result
            return {
                "semigroups": report.semigroups,
                "endomorphisms": report.endomorphisms,
                "checks": report.checks,
                "failures": len(report.failures),
                "draw_sha256": _corpus_digest(drawn),
            }

        p.item(f"corpus count={count} max_order={max_order} seed={corpus_seed}", call, observe)
    for m in FLAG_ORDERS:
        for r in FLAG_COLORS:
            def agreement():
                S, _, family = hjlab.flag_semigroup(m)
                return hjlab.check_agreement_equivalence(S, family, r)

            p.item(
                f"flag m={m} agreement r={r}",
                agreement,
                lambda rep: {
                    "a_holds": rep.a_holds,
                    "b_holds": rep.b_holds,
                    "equivalent": rep.equivalent,
                    "colorings_checked": rep.colorings_checked,
                },
            )

        def fip():
            S, view, family = hjlab.flag_semigroup(m)
            t_members = view.members()
            sets = []
            for amask in range(1 << len(t_members)):
                chosen = [t for i, t in enumerate(t_members) if (amask >> i) & 1]
                A = hjlab.SubsetQuery.from_members(S, chosen)
                sets.append(hjlab.build_agreement_set(S, family, A))
            return hjlab.check_fip(sets)

        p.item(
            f"flag m={m} FIP",
            fip,
            lambda res: {"ok": res.ok, "subfamilies": res.subfamilies_checked},
        )


RUNNERS = {
    "hj_lines": run_hj_lines,
    "vdw_progressions": run_vdw_progressions,
    "tensor_corpus": run_tensor_corpus,
}


def _corpus_digest(entries):
    blob = json.dumps([[e.degree, [list(f) for f in e.elements]] for e in entries])
    return _sha256(blob)


def relabel(entry, rng):
    """An isomorphic copy of a corpus entry: element i becomes new[i]."""
    n = entry.semigroup.order
    new = list(range(n))
    rng.shuffle(new)
    old = [0] * n
    for i, j in enumerate(new):
        old[j] = i
    t = entry.semigroup.table.tolist()
    table = [[new[t[old[a]][old[b]]] for b in range(n)] for a in range(n)]
    elements = [entry.elements[old[i]] for i in range(n)]
    labels = ["".join(str(v) for v in f) for f in elements]
    return hjlab.CorpusEntry(
        entry.degree, entry.generators, elements, hjlab.FiniteSemigroup(table, labels=labels)
    )


def make_inputs(workload, seed):
    """The seed-dependent inputs, built before any timing."""
    if workload != "tensor_corpus":
        return None
    rng = random.Random(seed)
    inputs = []
    for count, max_order, corpus_seed, _ in CORPORA:
        corpus = hjlab.generate_corpus(count=count, max_order=max_order, seed=corpus_seed)
        inputs.append([relabel(e, rng) for e in corpus])
    return inputs


def run_pass(workload, inputs, tracer=None):
    p = Pass(tracer)
    start = time.perf_counter()
    RUNNERS[workload](inputs, p)
    p.wall = time.perf_counter() - start
    return p


def known_answers(workload):
    """The literature answers, as partial observations keyed by item."""
    out = {}
    if workload == "hj_lines":
        for n, r, N_max, answer in HJ_SWEEPS:
            out[f"HJ({n},{r}) to N={N_max}"] = {"answer": answer}
    elif workload == "vdw_progressions":
        for k, r, M_max, answer in VDW_SWEEPS:
            for tag in ("symmetry", "no symmetry"):
                out[f"W({k},{r}) to M={M_max}, {tag}"] = {"answer": answer}
        for k, r, M, verdict in VDW_CHECKS:
            out[f"vdw_check({k},{r},{M})"] = {"status": verdict}
        k, spec, _ = VIA_HJ
        out[f"via-hj k={k} {spec}"] = {"status": "found"}
    else:
        for count, max_order, corpus_seed, known in CORPORA:
            out[f"corpus count={count} max_order={max_order} seed={corpus_seed}"] = dict(known)
        for m in FLAG_ORDERS:
            for r in FLAG_COLORS:
                out[f"flag m={m} agreement r={r}"] = {
                    "a_holds": True,
                    "b_holds": True,
                    "equivalent": True,
                }
            out[f"flag m={m} FIP"] = {"ok": True}
    return out


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def expected_items(workload, golden):
    """Recorded counters overlaid with the literature answers; every
    certificate must also verify."""
    items = {name: dict(obs) for name, obs in golden["items"][workload].items()}
    for name, known in known_answers(workload).items():
        items.setdefault(name, {}).update(known)
    for name, obs in items.items():
        if name.endswith(" certificate"):
            obs.update(verified=True, message="ok")
    return items


def failures(expected, p):
    """Item name -> reason, for every item that failed in pass ``p``."""
    out = {}
    for name, want in expected.items():
        if name in p.errors:
            out[name] = p.errors[name]
        elif name not in p.observed:
            out[name] = "not run"
        elif p.observed[name] != want:
            got = p.observed[name]
            diff = {key: [want.get(key), got.get(key)] for key in want.keys() | got.keys()
                    if want.get(key) != got.get(key)}
            out[name] = f"expected/got {json.dumps(diff, sort_keys=True)[:400]}"
    for name in (p.observed.keys() | p.errors.keys()) - expected.keys():
        out[name] = p.errors.get(name, "item has no expected outcome")
    return out


def attempted(expected, p):
    return len(expected.keys() | p.observed.keys() | p.errors.keys())
