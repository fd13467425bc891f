"""Tests of the benchmark itself: the oracle counts wrong answers and
exceptions as failed items, and the tracer measures the real call path.

    python3 -m pytest bench/test_bench.py
"""
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hjlab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = workloads.load_golden()


def _hj32_only(monkeypatch, answer):
    monkeypatch.setattr(workloads, "HJ_SWEEPS", [(3, 2, 4, answer)])
    expected = workloads.expected_items("hj_lines", GOLDEN)
    return {name: obs for name, obs in expected.items() if name.startswith("HJ(3,2)")}


def test_known_item_passes(monkeypatch):
    expected = _hj32_only(monkeypatch, "HJ(3,2) = 4")
    p = workloads.run_pass("hj_lines", None)
    assert workloads.failures(expected, p) == {}
    assert workloads.attempted(expected, p) == 4  # the sweep and 3 certificates


def test_wrong_expectation_is_counted_as_failed(monkeypatch):
    expected = _hj32_only(monkeypatch, "HJ(3,2) = 5")
    p = workloads.run_pass("hj_lines", None)
    failed = workloads.failures(expected, p)
    assert list(failed) == ["HJ(3,2) to N=4"]
    assert "HJ(3,2) = 5" in failed["HJ(3,2) to N=4"]
    assert workloads.attempted(expected, p) == 4


def test_exception_is_counted_as_failed(monkeypatch):
    expected = _hj32_only(monkeypatch, "HJ(3,2) = 4")

    def broken(*args, **kwargs):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(hjlab, "hj_number", broken)
    failed = workloads.failures(expected, workloads.run_pass("hj_lines", None))
    assert "solver crashed" in failed["HJ(3,2) to N=4"]
    assert failed["HJ(3,2) N=1 certificate"] == "not run"


def test_golden_agrees_with_known_answers():
    for workload in workloads.RUNNERS:
        recorded = GOLDEN["items"][workload]
        for name, known in workloads.known_answers(workload).items():
            assert {key: recorded[name][key] for key in known} == known, name
        assert workloads.expected_items(workload, GOLDEN).keys() == recorded.keys()


def test_relabel_is_a_seeded_isomorphic_copy():
    entries = hjlab.generate_corpus(count=20, max_order=6, seed=1)
    a = [workloads.relabel(e, random.Random(7)) for e in entries]
    b = [workloads.relabel(e, random.Random(7)) for e in entries]
    assert all((x.semigroup.table == y.semigroup.table).all() for x, y in zip(a, b))
    assert any((x.semigroup.table != e.semigroup.table).any() for x, e in zip(a, entries))
    before = hjlab.sweep_tensor_power(entries)
    after = hjlab.sweep_tensor_power(a)
    assert (after.endomorphisms, after.checks, after.failures) == (
        before.endomorphisms, before.checks, [])


def test_traced_call_path_and_self_time():
    original = hjlab.search.canonical_prune
    tracer = tracing.Tracer()
    restore, unmeasured = tracing.install(tracer)
    try:
        res = hjlab.hj_check(3, 2, 4)
    finally:
        tracing.uninstall(restore)
    assert hjlab.search.canonical_prune is original
    assert unmeasured == []
    assert res.status == hjlab.UNSAT
    names = [span[0] for span in tracer.spans]
    assert {"search.line_edges", "search.symmetry", "search.solve", "search.prune"} <= set(names)
    solve = names.index("search.solve")
    prunes = [s for s in tracer.spans if s[0] == "search.prune"]
    assert prunes and all(s[3] == solve for s in prunes)
    m = tracing.layer_metrics(tracer)
    assert m["search.nodes"] == res.nodes == 50
    assert m["search.prune_calls"] == len(prunes)
    assert m["search.solve_self_s"] == pytest.approx(m["search.solve_s"] - m["search.prune_s"])


def test_renamed_layer_is_reported_unmeasured(monkeypatch):
    monkeypatch.setattr(
        tracing, "LAYERS", tracing.LAYERS + [("search.gone", "hjlab.search", "renamed_away", None)]
    )
    tracer = tracing.Tracer()
    restore, unmeasured = tracing.install(tracer)
    try:
        assert hjlab.vdw_check(3, 2, 8).status == hjlab.SAT
    finally:
        tracing.uninstall(restore)
    assert unmeasured == ["search.gone (hjlab.search.renamed_away)"]
    assert tracing.layer_metrics(tracer)["search.nodes"] > 0


def test_covered_time_is_the_union_of_child_intervals():
    assert tracing._covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracing._covered([(-1, 2), (9, 12)], 0, 10) == 3


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = list(tracing.layer_metrics(tracing.Tracer()))
    names += ["trace.overhead_ratio", "trace.unmeasured_layers"]
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert {(n, run._unit(n)) for n in names} == declared
