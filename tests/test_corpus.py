"""Transformation-semigroup corpus: generation, endomorphism enumeration,
and the tensor-power sweep."""
import hashlib
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

import hjlab.corpus
import hjlab.search
import hjlab.ultra
from hjlab import (
    CorpusEntry,
    cyclic_semigroup,
    enumerate_endomorphisms,
    generate_corpus,
    sweep_tensor_power,
    tensor_power_failures,
)
from hjlab.corpus import CorpusFailure, compose, mulclose, transformation_semigroup
from hjlab.errors import CarrierTooLarge, InvalidInstance, SearchSpaceTooLarge

import oracles


def test_compose_is_function_composition():
    f, g = (1, 2, 0), (0, 0, 1)
    assert compose(f, g) == tuple(f[g[x]] for x in range(3))


def test_mulclose_is_closed():
    gens = [(1, 2, 0), (1, 0, 2)]
    els = mulclose(gens, 100)
    assert els is not None
    for a in els:
        for b in els:
            assert compose(a, b) in els
    assert len(els) == 6  # the two generators build S_3


def test_mulclose_overflow_returns_none():
    assert mulclose([(1, 2, 3, 0)], 3) is None


def test_mulclose_counts_the_generators_against_maxsize():
    assert mulclose([(0, 0, 0), (1, 1, 1)], 1) is None
    assert mulclose([(0, 0, 0), (1, 1, 1)], 2) == [(0, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("max_order", [1, 2, 3])
def test_corpus_orders_stay_within_max_order(max_order):
    entries = generate_corpus(count=5, max_order=max_order, seed=0)
    assert len(entries) == 5
    assert all(e.semigroup.order <= max_order for e in entries)


@pytest.mark.parametrize("max_order", [0, -1])
def test_corpus_rejects_max_order_below_1(max_order):
    with pytest.raises(InvalidInstance):
        generate_corpus(count=5, max_order=max_order)


@pytest.mark.parametrize("count,max_order", [(2.5, 3), (2, 2.5), ("3", 3)])
def test_corpus_counts_are_integers(count, max_order):
    # count=2.5 drew 3 semigroups, max_order=2.5 was read as it stands, and
    # count="3" ended in a bare TypeError
    with pytest.raises(InvalidInstance, match="integer"):
        generate_corpus(count=count, max_order=max_order, seed=0)


def test_transformation_semigroup_matches_composition():
    els = mulclose([(1, 2, 0)], 100)
    entry = transformation_semigroup(sorted(els))
    S = entry if not isinstance(entry, tuple) else entry[0]
    order = S.order
    elements = sorted(els)
    for i in range(order):
        for j in range(order):
            assert elements[S.mul(i, j)] == compose(elements[i], elements[j])


def test_corpus_is_seed_deterministic():
    a = generate_corpus(count=20, max_order=5, seed=7)
    b = generate_corpus(count=20, max_order=5, seed=7)
    assert [(e.degree, e.elements) for e in a] == [(e.degree, e.elements) for e in b]
    c = generate_corpus(count=20, max_order=5, seed=8)
    assert [(e.degree, e.elements) for e in a] != [(e.degree, e.elements) for e in c]


def test_corpus_respects_bounds_and_is_duplicate_free():
    entries = generate_corpus(count=30, max_order=6, seed=3)
    assert len(entries) == 30
    seen = set()
    for e in entries:
        assert 1 <= len(e.elements) <= 6
        assert 2 <= e.degree <= 4
        key = (e.degree, tuple(e.elements))
        assert key not in seen
        seen.add(key)


def test_endomorphisms_match_naive_filter():
    entries = generate_corpus(count=25, max_order=4, seed=1)
    for e in entries:
        table = [[int(e.semigroup.mul(a, b)) for b in range(e.semigroup.order)]
                 for a in range(e.semigroup.order)]
        endos = enumerate_endomorphisms(e.semigroup)
        assert endos.dtype == np.int64 and endos.shape == (len(endos), e.semigroup.order)
        got = sorted(map(tuple, endos.tolist()))
        want = sorted(oracles.all_endomorphisms(table))
        assert got == want


def test_endomorphisms_of_left_zero_are_all_maps():
    from hjlab import FiniteSemigroup
    n = 3
    S = FiniteSemigroup([[a] * n for a in range(n)])
    assert len(list(enumerate_endomorphisms(S))) == n ** n


def test_endomorphisms_stop_at_the_edge_array_bound(monkeypatch):
    # a left-zero band of order 8 has 16.7M endomorphisms, all of them listed
    from hjlab import FiniteSemigroup
    S = FiniteSemigroup([[a] * 4 for a in range(4)])
    monkeypatch.setattr(hjlab.search, "EDGE_BYTES_LIMIT", 4 ** 4 * 4 * 8)
    assert len(enumerate_endomorphisms(S)) == 4 ** 4
    monkeypatch.setattr(hjlab.search, "EDGE_BYTES_LIMIT", 4 ** 4 * 4 * 8 - 1)
    with pytest.raises(SearchSpaceTooLarge, match="more than 255 endomorphisms"):
        enumerate_endomorphisms(S)


@pytest.mark.parametrize("most", [-1, 2.5])
def test_endomorphism_bound_is_a_count(most):
    # both listed all 25 maps of the order-4 flag semigroup, past both bounds
    with pytest.raises(InvalidInstance):
        enumerate_endomorphisms(hjlab.flag_semigroup(1)[0], most)


def left_zero_band(n):
    return hjlab.FiniteSemigroup([[a] * n for a in range(n)])


def null_semigroup(n):
    return hjlab.FiniteSemigroup([[0] * n for _ in range(n)])


@pytest.mark.parametrize("make,orders,count", [
    (cyclic_semigroup, range(1, 13), lambda n: n),  # x -> c*x for each c in Z_n
    (null_semigroup, range(1, 8), lambda n: n ** (n - 1)),  # h(0) = 0, the rest free
    (left_zero_band, range(1, 7), lambda n: n ** n),  # every map
])
def test_endomorphism_counts_in_closed_form(make, orders, count):
    for n in orders:
        assert len(enumerate_endomorphisms(make(n))) == count(n)


def test_endomorphism_rows_strictly_increase():
    # the sweep lists failures in row order, so the rows' order is part of
    # the answer; relabelled copies reach their elements in another order
    rng = np.random.default_rng(3)
    semigroups = [e.semigroup for e in generate_corpus(count=40, max_order=7, seed=4)]
    for S in list(semigroups):
        new = rng.permutation(S.order)
        table = np.empty_like(S.table)
        table[np.ix_(new, new)] = new[S.table]
        semigroups.append(hjlab.FiniteSemigroup(table))
    for S in semigroups:
        rows = enumerate_endomorphisms(S).tolist()
        assert rows and all(a < b for a, b in zip(rows, rows[1:]))


def test_endomorphisms_of_every_semigroup_of_order_at_most_3():
    # every labelled associative table of order n <= 3: 1, 8 and 113 (OEIS A023814)
    found = {}
    for n in (1, 2, 3):
        tables = np.array(list(itertools.product(range(n), repeat=n * n))).reshape(-1, n, n)
        t = np.arange(len(tables))[:, None, None, None]
        i, j, k = np.indices((n, n, n))
        left = tables[t, tables[t, i, j], k]
        right = tables[t, i, tables[t, j, k]]
        tables = tables[(left == right).all(axis=(1, 2, 3))]
        found[n] = len(tables)
        for table in tables.tolist():
            got = enumerate_endomorphisms(hjlab.FiniteSemigroup(table)).tolist()
            assert got == [list(h) for h in oracles.all_endomorphisms(table)]
    assert found == {1: 1, 2: 8, 3: 113}


def test_endomorphisms_of_the_benchmark_corpora_are_pinned():
    endos = [enumerate_endomorphisms(e.semigroup)
             for count, max_order, seed in ((200, 10, 1), (400, 8, 2))
             for e in generate_corpus(count=count, max_order=max_order, seed=seed)]
    assert sum(map(len, endos)) == 3687
    digest = hashlib.sha256(b"".join(e.tobytes() for e in endos)).hexdigest()
    assert digest == "1243a5eb75777d59f68960a889cbfcbbac41af80f4437c1d70a55fe2dc6fa046"


def test_endomorphisms_need_no_recursion_depth(monkeypatch):
    # with the recursion limit a little above the current depth, a search
    # that recursed once per element would raise RecursionError on an order
    # far above the margin; the bound must stop it instead
    S = left_zero_band(150)
    monkeypatch.setattr(hjlab.search, "EDGE_BYTES_LIMIT", 10 * 150 * 8)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        with pytest.raises(SearchSpaceTooLarge, match="more than 10 endomorphisms of order 150"):
            enumerate_endomorphisms(S)
    finally:
        sys.setrecursionlimit(limit)


def test_sweep_bounds_the_stacked_maps_of_one_order(monkeypatch):
    # two left-zero bands of order 3, 27 maps each: each list fits the
    # bound alone, but the sweep holds the first band's 648 bytes when the
    # second one's listing starts, so its first map is refused
    band = CorpusEntry(0, [], [], left_zero_band(3))
    monkeypatch.setattr(hjlab.search, "EDGE_BYTES_LIMIT", 27 * 3 * 8)
    assert sweep_tensor_power([band]).endomorphisms == 27
    with pytest.raises(SearchSpaceTooLarge, match="holds 672 bytes or more of maps, past the "
                       "648-byte bound: the listing stopped past 0 endomorphisms of order 3$"):
        sweep_tensor_power([band, band])


def test_sweep_bounds_the_maps_it_holds_across_orders(monkeypatch):
    # the left-zero bands of orders 2 and 3 hold 4 * 16 + 27 * 24 = 712
    # bytes of maps together, each order alone at most 648
    small, band = (CorpusEntry(0, [], [], left_zero_band(n)) for n in (2, 3))
    monkeypatch.setattr(hjlab.search, "EDGE_BYTES_LIMIT", 27 * 3 * 8)
    assert sweep_tensor_power([small]).endomorphisms == 4
    assert sweep_tensor_power([band]).endomorphisms == 27
    calls = []
    monkeypatch.setattr(hjlab.corpus, "tensor_power_failures", lambda *a, **kw: calls.append(a))
    with pytest.raises(SearchSpaceTooLarge, match="holds 664 bytes or more of maps, past the "
                       "648-byte bound: the listing stopped past 24 endomorphisms of order 3$"):
        sweep_tensor_power([band, small])
    assert calls == []


def test_sweep_bounds_its_streamed_bytes_before_the_first_evaluator_call(monkeypatch):
    # the order-3 left-zero band's 27 maps stream 27 * 2 * (3^2 + 3^3) bytes
    # at ks (2, 3); the order-2 entry comes first, yet nothing is evaluated
    from hjlab import FiniteSemigroup
    band = CorpusEntry(0, [], [], FiniteSemigroup([[a] * 3 for a in range(3)]))
    pair = CorpusEntry(0, [], [], FiniteSemigroup([[0, 0], [0, 0]]))
    monkeypatch.setattr(hjlab.corpus, "SWEEP_BYTES_LIMIT", 27 * 72)
    assert sweep_tensor_power([band]).checks == 27 * 2 * 3
    calls = []
    monkeypatch.setattr(hjlab.corpus, "tensor_power_failures", lambda *a, **kw: calls.append(a))
    with pytest.raises(SearchSpaceTooLarge, match="streams [0-9]+ bytes .* past the 1944-byte"):
        sweep_tensor_power([pair, band])
    assert calls == []


def test_sweep_stops_the_listing_at_the_streamed_byte_bound(monkeypatch):
    # the order-6 null semigroup has 7776 maps of 2 * 8 * (6^2 + 6^3) = 4032
    # bytes each at ks (2, 3); 100 of them fit, and the listing stops at the
    # 101st rather than listing all 7776
    entry = CorpusEntry(0, [], [], null_semigroup(6))
    monkeypatch.setattr(hjlab.corpus, "SWEEP_BYTES_LIMIT", 100 * 4032 + 4031)
    enumerate_ = hjlab.corpus.enumerate_endomorphisms
    listed = []

    def enumerate_and_count(S, most=None):
        listed.append(most)
        return enumerate_(S, most)

    monkeypatch.setattr(hjlab.corpus, "enumerate_endomorphisms", enumerate_and_count)
    calls = []
    monkeypatch.setattr(hjlab.corpus, "tensor_power_failures", lambda *a, **kw: calls.append(a))
    with pytest.raises(SearchSpaceTooLarge, match="streams 407232 bytes or more .* past the "
                       "407231-byte bound: the listing stopped past 100 endomorphisms of order 6"):
        sweep_tensor_power([entry])
    assert listed == [100] and calls == []
    with pytest.raises(SearchSpaceTooLarge, match="more than 100 endomorphisms of order 6$"):
        enumerate_(entry.semigroup, 100)


def test_sweep_is_clean_on_the_default_corpus():
    entries = generate_corpus(count=50, max_order=6, seed=0)
    report = sweep_tensor_power(entries, ks=(2, 3))
    assert report.ok
    assert report.semigroups == 50
    assert report.endomorphisms > 0
    assert report.checks >= report.endomorphisms
    assert report.failures == []


def test_sweep_tensor_power_single_k():
    entries = generate_corpus(count=10, max_order=5, seed=0)
    report = sweep_tensor_power(entries, ks=(2,))
    assert report.ok and report.semigroups == 10


@pytest.mark.parametrize("entries,ks,match", [
    ([], (2, 3), "at least one semigroup"),
    (None, (), "distinct values"),
    (None, (2, 2), "distinct values"),
    (None, (4,), "distinct values"),
    (None, (2, 1), "distinct values"),
])
def test_sweep_rejects_its_bad_inputs_before_any_work(entries, ks, match, monkeypatch):
    # a sweep of no semigroups, or of one check twice, is no evidence
    if entries is None:
        entries = [CorpusEntry(0, [], [], cyclic_semigroup(3))]

    def fail(S):
        raise AssertionError("endomorphisms enumerated before the inputs were checked")

    monkeypatch.setattr(hjlab.corpus, "enumerate_endomorphisms", fail)
    with pytest.raises(InvalidInstance, match=match):
        sweep_tensor_power(entries, ks=ks)


def test_sweep_checks_the_order_bound_before_enumerating(monkeypatch):
    def fail(S):
        raise AssertionError("endomorphisms enumerated past the order bound")

    monkeypatch.setattr(hjlab.corpus, "enumerate_endomorphisms", fail)
    entry = CorpusEntry(13, [], [], cyclic_semigroup(13))
    with pytest.raises(CarrierTooLarge, match="order 13 exceeds 12"):
        sweep_tensor_power([entry])


def test_sweep_checks_every_order_before_the_first_enumeration(monkeypatch):
    # a corpus whose last entry is too large does no work on the others
    def fail(S):
        raise AssertionError("endomorphisms enumerated before every order was checked")

    monkeypatch.setattr(hjlab.corpus, "enumerate_endomorphisms", fail)
    entries = generate_corpus(count=5, max_order=4, seed=0)
    entries.append(CorpusEntry(13, [], [], cyclic_semigroup(13)))
    with pytest.raises(CarrierTooLarge, match="order 13 exceeds 12"):
        sweep_tensor_power(entries)


def add_non_homomorphisms(monkeypatch, seed):
    """Make the sweep's endomorphism lists end in up to three seeded random
    maps that are no homomorphisms; returns the maps each semigroup got."""
    rng = np.random.default_rng(seed)
    enumerate_ = hjlab.corpus.enumerate_endomorphisms
    given = {}

    def enumerate_and_add(S, most=None):
        t = S.table
        maps = rng.integers(0, S.order, (3, S.order))
        broken = (maps[:, t] != t[maps[:, :, None], maps[:, None, :]]).any(axis=(1, 2))
        given[id(S)] = np.vstack([enumerate_(S, most), maps[broken]])
        return given[id(S)]

    monkeypatch.setattr(hjlab.corpus, "enumerate_endomorphisms", enumerate_and_add)
    return given


@pytest.mark.parametrize("chunk_bytes", [None, 10_000])
def test_sweep_matches_a_per_entry_loop(chunk_bytes, monkeypatch):
    # one evaluator call per order and k must report what one call per
    # semigroup and k reports, in entry, map, k, point order; at 10 kB an
    # order-6 chunk of the k = 3 check holds 2 maps, so chunks split the
    # maps of one semigroup and join those of two
    entries = generate_corpus(count=60, max_order=6, seed=1)
    given = add_non_homomorphisms(monkeypatch, seed=5)
    if chunk_bytes:
        monkeypatch.setattr(hjlab.ultra, "CHUNK_BYTES", chunk_bytes)
    translates = hjlab.ultra.translates
    tables_per_chunk = []

    def record(B, tables, k):
        tables_per_chunk.append(np.size(tables) // np.shape(tables)[-1] ** 2)
        return translates(B, tables, k)

    monkeypatch.setattr(hjlab.ultra, "translates", record)
    ks = (2, 3)
    report = sweep_tensor_power(entries, ks=ks)
    chunks = list(tables_per_chunk)
    want, checks = [], 0
    for idx, entry in enumerate(entries):
        S, maps = entry.semigroup, given[id(entry.semigroup)]
        first = np.stack([tensor_power_failures(S, maps, k) for k in ks], axis=1)
        checks += first.size
        for e, i, p in np.argwhere(first >= 0).tolist():
            want.append(CorpusFailure(idx, tuple(maps[e].tolist()), ks[i], p, int(first[e, i, p])))
    assert report.endomorphisms == sum(len(m) for m in given.values())
    assert report.checks == checks
    assert len(want) > 100 and report.failures == want
    if chunk_bytes:
        assert len(chunks) > 2 * len({e.semigroup.order for e in entries})
        assert max(chunks) > 1  # some chunk holds maps of two semigroups


def test_sweep_calls_the_evaluator_once_per_order_and_k(monkeypatch):
    evaluate = hjlab.corpus.tensor_power_failures
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(hjlab.corpus, "tensor_power_failures", counted)
    entries = generate_corpus(count=60, max_order=6, seed=1)
    assert sweep_tensor_power(entries, ks=(2, 3)).ok
    assert len({e.semigroup.order for e in entries}) == 6
    assert sorted(calls) == [2] * 6 + [3] * 6


def test_sweep_peak_memory_stays_within_three_chunks():
    # the order 9 and 10 entries of the benchmark's order-10 corpus: the
    # tracemalloc peak was 1.4 MiB with one call per order and k, and
    # 3.2 MiB with one call per semigroup and k, whose chunk size left out
    # the translate sets
    entries = [e for e in generate_corpus(count=200, max_order=10, seed=1)
               if e.semigroup.order >= 9]
    tracemalloc.start()
    try:
        sweep_tensor_power(entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * hjlab.ultra.CHUNK_BYTES
