"""Outside-in layer tracing: wrappers installed from the benchmark's files on
the public functions of each hjlab layer, recording one span per call.

A span is (name, start, end, parent index); spans stay in memory and are
written when the run ends.  Self time is a span's duration minus the time
its children cover.  A layer function that no longer exists under its name
is reported as unmeasured instead of failing the run.

The benchmark is single-threaded and no layer hands work to another through
a queue or a lock: every call blocks its caller.  So there is no wait time
to report, only busy time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(sym):
    return {"search.symmetry_rows": len(sym.cell_perms)}


# (span name, module, attribute path, counters taken from the result)
LAYERS = [
    ("search.line_edges", "hjlab.search", "LineHypergraph.build",
     lambda hg: {"search.line_edges": len(hg.edges)}),
    ("search.ap_edges", "hjlab.search", "ap_edges",
     lambda edges: {"search.ap_edges": len(edges)}),
    ("search.symmetry", "hjlab.search", "hj_symmetry", _rows),
    ("search.symmetry", "hjlab.search", "vdw_symmetry", _rows),
    ("search.solve", "hjlab.search", "HypergraphSolver.solve",
     lambda res: {"search.nodes": res.nodes, "search.budget_stops": int(res.status == "budget")}),
    ("search.prune", "hjlab.search", "canonical_prune",
     lambda hit: {"search.prune_calls": 1, "search.prune_hits": int(bool(hit))}),
    ("search.verify", "hjlab.search", "verify_proper_coloring", None),
    ("words.witness", "hjlab.search", "word_witness_search",
     lambda out: {"words.words_checked": out.checked}),
    ("certificates.render", "hjlab.certificates", "render_certificate",
     lambda text: {"certificates.count": 1, "certificates.bytes": len(text.encode("utf-8"))}),
    ("certificates.verify", "hjlab.certificates", "verify_certificate_text", None),
    ("corpus.generate", "hjlab.corpus", "generate_corpus",
     lambda entries: {"corpus.semigroups": len(entries)}),
    ("corpus.endomorphisms", "hjlab.corpus", "enumerate_endomorphisms",
     lambda endos: {"corpus.endomorphisms": len(endos)}),
    ("corpus.sweep", "hjlab.corpus", "sweep_tensor_power",
     lambda report: {"corpus.checks": report.checks}),
    ("ultra.agreement", "hjlab.ultra", "check_agreement_equivalence",
     lambda rep: {"ultra.colorings_checked": rep.colorings_checked}),
    ("ultra.fip", "hjlab.ultra", "check_fip",
     lambda res: {"ultra.fip_subfamilies": res.subfamilies_checked}),
]

SPAN_NAMES = list(dict.fromkeys(span for span, *_ in LAYERS))
COUNTER_NAMES = [
    "search.line_edges", "search.ap_edges", "search.symmetry_rows", "search.nodes",
    "search.budget_stops", "search.prune_calls", "search.prune_hits",
    "words.words_checked", "certificates.count", "certificates.bytes",
    "corpus.semigroups", "corpus.endomorphisms", "corpus.checks",
    "ultra.colorings_checked", "ultra.fip_subfamilies",
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counters = defaultdict(int)
        self.uncounted = set()  # spans whose result no longer has the counted field

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    for key, value in count(result).items():
                        self.counters[key] += value
                except (AttributeError, TypeError):
                    self.uncounted.add(name)
            return result

        return traced


def _resolve(module_name, path):
    """(owner, attribute name, raw attribute) for a dotted path in a module."""
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, inspect.getattr_static(owner, leaf)


def install(tracer):
    """Wrap every layer function.  Returns (restore list, unmeasured layers).

    A module-level function is replaced on every loaded hjlab module that
    holds it (its home module, re-exports and aliases), so calls resolved
    through any of those names are traced.
    """
    restore = []
    unmeasured = []
    for name, module_name, path, count in LAYERS:
        try:
            owner, leaf, raw = _resolve(module_name, path)
        except (ImportError, AttributeError):
            unmeasured.append(f"{name} ({module_name}.{path})")
            continue
        if isinstance(raw, classmethod):
            targets = [(owner, leaf)]
            wrapped = classmethod(tracer.wrap(name, raw.__func__, count))
        elif inspect.isclass(owner):
            targets = [(owner, leaf)]
            wrapped = tracer.wrap(name, raw, count)
        else:
            targets = [
                (module, attr)
                for module_key, module in list(sys.modules.items())
                if module_key == "hjlab" or module_key.startswith("hjlab.")
                for attr, value in list(vars(module).items())
                if value is raw
            ]
            wrapped = tracer.wrap(name, raw, count)
        for target, attr in targets:
            restore.append((target, attr, raw))
            setattr(target, attr, wrapped)
    return restore, unmeasured


def uninstall(restore):
    for target, attr, original in reversed(restore):
        setattr(target, attr, original)


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def layer_metrics(tracer):
    """Per-layer totals of one traced pass: ``<span>_s``, ``<span>_self_s``,
    the counters, and the ratios derived from them.  A layer that did not
    run reads 0."""
    children = defaultdict(list)
    for name, start, end, parent in tracer.spans:
        if parent is not None:
            children[parent].append((start, end))
    busy = defaultdict(float)
    own = defaultdict(float)
    verify_split = {"search.verify_solve_s": 0.0, "search.verify_cert_s": 0.0}
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        busy[name] += end - start
        own[name] += end - start - _covered(children[index], start, end)
        if name == "search.verify":
            in_cert = parent is not None and tracer.spans[parent][0] == "certificates.verify"
            key = "search.verify_cert_s" if in_cert else "search.verify_solve_s"
            verify_split[key] += end - start
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = busy[name]
        out[f"{name}_self_s"] = own[name]
    out.update(verify_split)
    for name in COUNTER_NAMES:
        out[name] = tracer.counters[name]
    solve_s = busy["search.solve"]
    out["search.nodes_per_s"] = out["search.nodes"] / solve_s if solve_s else 0.0
    calls = out["search.prune_calls"]
    out["search.prune_hit_ratio"] = out["search.prune_hits"] / calls if calls else 0.0
    return out


def counter_block(tracer):
    return {name: tracer.counters[name] for name in COUNTER_NAMES if tracer.counters[name]}
