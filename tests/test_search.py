"""Backtracking search: soundness against the naive oracles, symmetry
pruning, budgets, and the witness searches."""
import dataclasses
import time
import tracemalloc
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjlab import (
    ApResidueColoring,
    HypergraphSolver,
    LineHypergraph,
    ModSumColoring,
    SAT,
    TableColoring,
    UNSAT,
    WitnessOutcome,
    WordSemigroup,
    ap_edges,
    find_ap_via_words,
    finite_witness_search,
    flag_index,
    flag_semigroup,
    hj_check,
    hj_instance,
    hj_number,
    hj_symmetry,
    substitution_family,
    vdw_check,
    vdw_instance,
    vdw_number,
    vdw_symmetry,
    verify_proper_coloring,
    word_witness_search,
)
import hjlab.search
from hjlab.errors import InvalidInstance, SearchSpaceTooLarge, VerificationError
from hjlab.search import BUDGET, ColoringResult, Symmetry
from hjlab.words import parse_word

import oracles


# -- hypergraphs ------------------------------------------------------------

def test_line_hypergraph_shape():
    hg = LineHypergraph.build(2, 2)
    assert set(hg.edges.ravel().tolist()) == set(range(4))  # the 2^2 vertices
    assert len(hg.edges) == 5
    got = {frozenset(e) for e in map(tuple, hg.edges.tolist())}
    assert got == oracles.line_point_sets(2, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_line_edges_are_the_substitution_images_in_word_order(n, N):
    # at most 6^5 words over the letters and x: the per-word oracle stays quick
    edges = LineHypergraph.build(n, N).edges
    assert edges.dtype == np.int64 and edges.shape == ((n + 1) ** N - n ** N, n)
    assert list(map(tuple, edges.tolist())) == oracles.line_edges(n, N)


def test_ap_edges_match_oracle():
    for k in (3, 4):
        for M in range(k, 13):
            got = sorted(map(tuple, ap_edges(k, M).tolist()))
            assert got == sorted(oracles.ap_triples(k, M))


def test_ap_edges_keep_the_step_major_order():
    for k in range(2, 6):
        for M in range(1, 41):
            edges = ap_edges(k, M)
            assert edges.dtype == np.int64 and edges.shape[1] == k
            assert list(map(tuple, edges.tolist())) == oracles.ap_edge_list(k, M)


def test_ap_edges_need_two_terms():
    # with one term every step repeated the same one-vertex edges
    with pytest.raises(InvalidInstance, match="k >= 2"):
        ap_edges(1, 3)


@pytest.mark.parametrize("build", [
    lambda: LineHypergraph.build(2, 5).edges,
    lambda: LineHypergraph.build(4, 3).edges,
    lambda: ap_edges(2, 30),
    lambda: ap_edges(3, 31),
    lambda: ap_edges(5, 40),
])
def test_edge_builders_size_their_array_exactly(build, monkeypatch):
    # the computed size is the array's own: a bound of its bytes passes,
    # one byte less refuses it
    nbytes = build().nbytes
    monkeypatch.setattr(hjlab.search, "EDGE_BYTES_LIMIT", nbytes)
    assert build().nbytes == nbytes
    monkeypatch.setattr(hjlab.search, "EDGE_BYTES_LIMIT", nbytes - 1)
    with pytest.raises(SearchSpaceTooLarge, match="byte bound"):
        build()


@pytest.mark.parametrize("check", [
    lambda: hj_check(4, 2, 11, budget_seconds=1),  # 44.6M lines of 4
    lambda: vdw_check(3, 2, 100_000),  # 2.5e9 progressions of 3
    # edge counts past the 4300 digits Python formats: the refusal names the
    # bound, and no power of N digits is computed first
    lambda: LineHypergraph.build(3, 10**5),
    lambda: hj_check(3, 2, 10**5),
    lambda: hj_check(3, 2, 10**7),
    lambda: ap_edges(3, 10**2200),
    lambda: vdw_check(3, 2, 10**2200),
])
def test_an_oversized_instance_is_refused_before_allocating(check):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SearchSpaceTooLarge, match="byte bound"):
            check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert time.perf_counter() - start < 0.5


def test_verify_proper_coloring():
    edges = oracles.ap_triples(3, 5)
    assert verify_proper_coloring(edges, [0, 1, 1, 0, 0]) == oracles.proper(
        edges, [0, 1, 1, 0, 0]
    )
    assert not verify_proper_coloring(edges, [0, 0, 0, 1, 1])


@pytest.mark.parametrize("edges", [
    LineHypergraph.build(3, 2).edges, ap_edges(3, 8), ap_edges(4, 20),
], ids=["hj3x2", "vdw3x8", "vdw4x20"])
def test_verify_proper_coloring_matches_the_oracle(edges):
    V = int(edges.max()) + 1
    rows = list(map(tuple, edges.tolist()))
    for coloring in np.random.default_rng(V).integers(0, 2, (300, V)).tolist():
        assert verify_proper_coloring(edges, coloring) == oracles.proper(rows, coloring)
    status, proper, _ = oracles.counter_solve(V, rows, 2)
    assert status == SAT and verify_proper_coloring(edges, proper)
    # after rows that are not monochromatic, a last one that is
    major = max(set(proper), key=proper.count)
    mono = [v for v in range(V) if proper[v] == major][: edges.shape[1]]
    assert not verify_proper_coloring(np.vstack([edges, [mono]]), proper)
    # no edges: a complete coloring is proper, an incomplete one is not
    assert verify_proper_coloring(edges[:0], proper)
    assert not verify_proper_coloring(edges[:0], [*proper[:-1], None])
    assert not verify_proper_coloring(edges, [-1, *proper[1:]])


@pytest.mark.parametrize("inst", [hj_instance(3, 2, 3), vdw_instance(3, 2, 9)],
                         ids=["hj", "vdw"])
def test_every_build_edges_call_builds_afresh(inst):
    # the solver's answer is checked against edges it never held
    first, second = inst.build_edges(), inst.build_edges()
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)


# -- solver soundness ---------------------------------------------------------

@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2)])
def test_hj_check_matches_oracle(n, r):
    N = 1
    while n ** N <= 9:
        want = SAT if oracles.hj_colorable(n, r, N) else UNSAT
        res = hj_check(n, r, N)
        assert res.status == want
        plain = hj_check(n, r, N, symmetry=False)
        assert plain.status == want
        if res.status == SAT:
            hg = LineHypergraph.build(n, N)
            assert verify_proper_coloring(hg.edges, res.coloring)
        N += 1


@pytest.mark.parametrize("k,r", [(3, 2), (4, 2), (3, 3)])
def test_vdw_check_matches_oracle(k, r):
    for M in range(k, 11):
        want = SAT if oracles.vdw_colorable(k, r, M) else UNSAT
        res = vdw_check(k, r, M)
        assert res.status == want
        if res.status == SAT:
            assert verify_proper_coloring(ap_edges(k, M), res.coloring)


@st.composite
def small_hypergraphs(draw, max_vertices=10):
    # one row length per hypergraph: the solver takes (E, k) edges
    V = draw(st.integers(1, max_vertices))
    k = draw(st.integers(1, min(4, V)))
    edge = st.lists(st.integers(0, V - 1), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(edge.map(tuple), max_size=25))
    return V, edges, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_hypergraphs())
def test_solver_matches_the_counter_oracle(case):
    # same status, first coloring and node count as the counter unit rule
    V, edges, r = case
    res = HypergraphSolver(V, edges, r, symmetry=None).solve()
    status, coloring, nodes = oracles.counter_solve(V, edges, r)
    assert (res.status, res.coloring, res.nodes) == (status, coloring, nodes)
    assert (status == SAT) == oracles.colorable(V, edges, r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_hypergraphs())
def test_a_finished_search_leaves_a_clean_state(case):
    # an UNSAT search undoes its whole trail; a node budget one short of the
    # search stops it there and reports only the nodes searched (one more,
    # the node charged before the budget test, was reported)
    V, edges, r = case
    solver = HypergraphSolver(V, edges, r, symmetry=None)
    res = solver.solve()
    if res.status == UNSAT:
        assert solver.trail == []
        assert solver.colors == [-1] * V and solver.domains == [(1 << r) - 1] * V
    if res.nodes:
        short = HypergraphSolver(V, edges, r, symmetry=None, budget_nodes=res.nodes - 1).solve()
        assert (short.status, short.nodes) == (BUDGET, res.nodes - 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_hypergraphs())
def test_solver_setup_matches_the_per_edge_loop(case):
    # the array set-up builds what the per-edge loop built, rows or array
    # alike, so the search cannot move
    V, edges, r = case
    want = oracles.solver_setup(V, edges, r)
    for form in (edges, np.array(edges, dtype=np.int64)):
        solver = HypergraphSolver(V, form, r)
        solver._reset()
        assert (solver.watching, solver.other, solver.order, solver.vertex_sets) == want


def test_an_edge_of_no_vertex_constrains_nothing():
    for edges in [np.empty((4, 0), dtype=np.int64), [], [()]]:
        res = HypergraphSolver(2, edges, 1).solve()
        assert (res.status, res.coloring) == (SAT, [0, 0])
        assert verify_proper_coloring(edges, [0, 0])


def test_no_vertex_is_sat_at_the_first_frame():
    res = HypergraphSolver(0, [], 2).solve()
    assert (res.status, res.coloring, res.nodes) == (SAT, [], 0)


@pytest.mark.parametrize("V,edges,r", [
    (3, [(0, -1)], 2),  # read as vertex 2: SAT [0, 0, 1]
    (3, [(0, 5)], 2),  # a bare IndexError
    (3, [(0, 1, 1)], 2),  # read as the edge {0, 1}
    (3, [(0, 1), (2,)], 2),  # ragged rows
    (3, [(0.5, 1)], 2),  # a TypeError
    (3, np.array([[0.0, 1.0]]), 2),  # an int64 cast would read vertex 0
    (3, [(0, 1)], -1),  # ValueError: negative shift count
    (3, [(0, 1)], 0),
    (-1, [], 2),
])
def test_the_solver_refuses_bad_input(V, edges, r):
    with pytest.raises(InvalidInstance):
        HypergraphSolver(V, edges, r).solve()


@pytest.mark.parametrize("edges", [[(0, -1)], [(0, 5)], [(0, 0)], [(0, 1), (2,)], [(0.5, 1)]])
def test_verify_proper_coloring_refuses_bad_edges(edges):
    # [(0, -1)] read -1 as the last vertex and returned False
    with pytest.raises(InvalidInstance):
        verify_proper_coloring(edges, [0, 1, 0])


@contextmanager
def prune_answers():
    """Collect (incremental answer, full-scan answer) at every lex-leader
    check the solver makes, through the module global it calls."""
    answers = []
    incremental = hjlab.search.canonical_prune

    def checked(colors, order, symmetry, survivors, frame):
        got = incremental(colors, order, symmetry, survivors, frame)
        answers.append((got, oracles.lex_leader_prunes(colors, order, symmetry)))
        return got

    hjlab.search.canonical_prune = checked
    try:
        yield answers
    finally:
        hjlab.search.canonical_prune = incremental


def _agree(answers):
    return all(type(got) is bool and got == want for got, want in answers)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_hypergraphs(max_vertices=6))
def test_symmetry_pruning_keeps_the_answer(case):
    # every automorphism times every color permutation; at every node the
    # incremental check answers as the full scan
    V, edges, r = case
    perms = np.array(oracles.automorphisms(V, edges), dtype=np.int64)
    colors = np.array(list(permutations(range(r))), dtype=np.int64)
    group = lambda cells: Symmetry(perms[:, cells], colors)
    with prune_answers() as answers:
        res = HypergraphSolver(V, edges, r, symmetry=group).solve()
    assert _agree(answers)
    assert res.status == (SAT if oracles.colorable(V, edges, r) else UNSAT)
    if res.status == SAT:
        assert oracles.proper(edges, res.coloring)


@pytest.mark.parametrize("inst", [
    hj_instance(3, 2, 4), hj_instance(2, 3, 3), vdw_instance(3, 2, 9),
], ids=lambda inst: f"{inst.family}{inst.params}r{inst.r}")
def test_incremental_prune_matches_the_full_scan_on_instances(inst):
    groups = []

    def build(cells):
        groups.append(inst.build_symmetry(cells))
        return groups[-1]

    solver = HypergraphSolver(inst.num_vertices, inst.build_edges(), inst.r, symmetry=build)
    with prune_answers() as answers:
        solver.solve()
    # some cell row that moves a head cell fixes the first decision, so
    # survivors get past position 0
    (group,) = groups
    head = solver.head
    assert any(row[0] == head[0] and (row != head).any() for row in group.cell_perms)
    assert any(got for got, _ in answers)
    assert _agree(answers)


@pytest.mark.parametrize("number,args,calls,hits", [
    (hj_number, (3, 2, 4), 50, 8),
    (vdw_number, (4, 2, 40), 374, 7),
])
def test_prune_counts_stay_the_full_scan_counts(number, args, calls, hits):
    # the calls and hits of the full-scan check this search used to run
    with prune_answers() as answers:
        number(*args)
    assert (len(answers), sum(got for got, _ in answers)) == (calls, hits)
    assert _agree(answers)


def test_deep_search_needs_no_recursion():
    # 1500 decision levels, past the interpreter's recursion limit
    edges = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(500)]
    res = HypergraphSolver(1500, edges, 2).solve()
    assert res.status == SAT
    assert verify_proper_coloring(edges, res.coloring)


def test_time_budget_stops_close_to_its_limit():
    # the budget covers the edge build and the solver set-up (85879 edges)
    start = time.monotonic()
    res = vdw_check(8, 2, 1100, symmetry=False, budget_seconds=1)
    assert res.status == BUDGET
    assert time.monotonic() - start < 4.0


class _SlowEdges:
    """Edges whose conversion to an array takes 0.3 s."""

    def __array__(self, dtype=None, copy=None):
        time.sleep(0.3)
        return np.array([[0, 1, 2]])


def test_time_budget_covers_the_edge_conversion():
    # the conversion of the edges ran in __init__, before the deadline was
    # set: a 0.1 s budget then reported SAT
    res = HypergraphSolver(3, _SlowEdges(), 2, budget_seconds=0.1).solve()
    assert res.status == BUDGET
    assert res.elapsed >= 0.3


def test_time_budget_covers_the_watch_list_build():
    # about 360000 edges; with no deadline poll while the watch lists were
    # built, a 0.2 s budget stopped after 1 node and 1.06 s
    res = HypergraphSolver(1200, ap_edges(3, 1200), 2, budget_seconds=0.2).solve()
    assert res.status == BUDGET and res.nodes == 0
    assert res.elapsed < 0.5


def test_a_spent_budget_stops_before_the_symmetry_build():
    # the deadline is read once more before the group is built, so a budget
    # spent on the set-up is not overrun by the build
    def no_build(cells):
        pytest.fail("the symmetry group was built past the deadline")

    res = HypergraphSolver(3, [], 2, symmetry=no_build, budget_seconds=0).solve()
    assert (res.status, res.nodes) == (BUDGET, 0)


def test_check_instance_elapsed_covers_the_edge_build():
    # elapsed started with solve(), so it left out a slow edge build
    def slow_edges():
        time.sleep(0.3)
        return ap_edges(3, 9)

    inst = dataclasses.replace(vdw_instance(3, 2, 9), build_edges=slow_edges)
    res = hjlab.search.check_instance(inst, budget_seconds=0.1)
    assert res.status == BUDGET
    assert res.elapsed >= 0.3


def test_time_budget_covers_the_whole_sweep():
    # one deadline for the sweep, met within max(1 s, 5%); with 0.5 s for
    # each size instead, the sweep ran 118-127 sizes in 3-3.8 s
    start = time.monotonic()
    res = vdw_number(5, 2, 178, budget_seconds=0.5)
    assert res.budget_hit and not res.decided
    assert time.monotonic() - start < 1.5


@pytest.mark.parametrize("budget", ["budget_seconds", "budget_nodes"])
def test_a_nan_budget_is_rejected(budget):
    # every comparison with nan is false, so a nan budget would never stop
    # the search: hj_check(2, 2, 2) ran to UNSAT
    with pytest.raises(InvalidInstance, match="nan"):
        hj_check(2, 2, 2, **{budget: float("nan")})
    with pytest.raises(InvalidInstance, match="nan"):
        hj_number(2, 2, 3, **{budget: float("nan")})
    # inf is no budget at all, and stays legal
    assert hj_check(2, 2, 2, **{budget: float("inf")}).status == UNSAT
    assert hj_number(2, 2, 3, **{budget: float("inf")}).value == 2


@pytest.mark.parametrize("budget", ["budget_seconds", "budget_nodes"])
def test_a_negative_budget_is_rejected(budget):
    # it was reported as a budget stop of a search never allowed to run
    with pytest.raises(InvalidInstance, match=">= 0"):
        hj_check(2, 2, 2, **{budget: -1})
    with pytest.raises(InvalidInstance, match=">= 0"):
        hj_number(2, 2, 3, **{budget: -1})
    with pytest.raises(InvalidInstance, match=">= 0"):
        HypergraphSolver(3, [(0, 1, 2)], 2, **{budget: -1})
    # 0 is a budget, spent at once
    assert hj_check(2, 2, 2, **{budget: 0}).status == BUDGET


def test_a_spent_sweep_deadline_is_a_budget_stop():
    # the time left for a size is clamped at 0, never handed down negative
    res = hj_number(3, 2, 4, budget_seconds=0)
    assert res.budget_hit and res.lower_bound == 0
    assert [(N, run.status) for N, run in res.runs] == [(1, BUDGET)]


def _number_runs(nodes):
    # every size SAT but the last, which is UNSAT
    last = len(nodes)
    return [[M, SAT if M < last else UNSAT, n] for M, n in enumerate(nodes, 1)]


W42_NODES = [1, 2, 3, 3, 3, 4, 4, 5, 5, 6, 7, 8, 7, 8, 7, 9, 9, 10, 8, 9, 10, 10,
             10, 9, 6, 11, 8, 11, 8, 10, 8, 11, 8, 89]
W33_NODES = [1, 2, 3, 4, 5, 6, 7, 8, 7, 8, 8, 8, 8, 8, 9, 10, 12, 12, 13, 14, 13,
             12, 10, 8, 44]


@pytest.mark.parametrize("k,r,M_max,symmetry,nodes", [
    (4, 2, 40, True, W42_NODES + [206]),
    (4, 2, 40, False, W42_NODES + [514]),
    (3, 3, 30, True, W33_NODES + [35, 491]),
    (3, 3, 30, False, W33_NODES + [41, 5172]),
    # symmetry is read by its truth value: the benchmark's spellings of the
    # whole vdw group and of no pruning
    (3, 3, 30, ("color", "reflection"), W33_NODES + [35, 491]),
    (3, 3, 30, (), W33_NODES + [41, 5172]),
])
def test_number_sweeps_keep_their_node_counts(k, r, M_max, symmetry, nodes):
    res = vdw_number(k, r, M_max, symmetry=symmetry)
    assert [[M, run.status, run.nodes] for M, run in res.runs] == _number_runs(nodes)


def test_symmetry_subsets_agree():
    for symmetry in (True, False):
        assert hj_check(2, 2, 2, symmetry=symmetry).status == UNSAT
        assert hj_check(2, 3, 2, symmetry=symmetry).status == SAT
    # the whole group, and none of it, at the critical HJ(3,2) instance
    assert hj_check(3, 2, 4, symmetry=True).nodes == 50
    assert hj_check(3, 2, 4, symmetry=False).nodes == 482


def _assert_hj_symmetry_matches(n, N, include):
    """hj_symmetry against the per-word oracle for the subgroups in
    ``include``, on every cell and on a shuffled subset of the cells; every
    row is an automorphism of the line hypergraph."""
    lines = {frozenset(e) for e in map(tuple, LineHypergraph.build(n, N).edges.tolist())}
    V = n ** N
    want = oracles.hj_symmetry_cells(n, N, include)
    cells = hj_symmetry(n, N, 2, np.arange(V)).cell_perms
    assert np.array_equal(cells, want)
    # column j must be the image of subset[j]
    subset = np.random.default_rng(10 * n + N).permutation(V)[: (V + 1) // 2]
    assert np.array_equal(hj_symmetry(n, N, 2, subset).cell_perms, want[:, subset])
    for row in cells:
        assert sorted(row) == list(range(V))
        assert {frozenset(row[list(line)].tolist()) for line in lines} == lines


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_hj_symmetry_matches_the_per_word_oracle(n, N):
    _assert_hj_symmetry_matches(n, N, ("coordinate", "alphabet"))


@pytest.mark.parametrize("limit,include", [
    (144, ("coordinate", "alphabet")),  # 4! coordinate x 3! alphabet rows
    (143, ("coordinate",)),  # the product is over the limit: alphabet goes
    (23, ("alphabet",)),  # 4! is over it: coordinate goes, 3! fits alone
    (5, ()),
])
def test_hj_symmetry_drops_subgroups_over_the_limit(monkeypatch, limit, include):
    monkeypatch.setattr(hjlab.search, "SYMMETRY_GROUP_LIMIT", limit)
    _assert_hj_symmetry_matches(3, 4, include)


def test_vdw_symmetry_maps_arbitrary_cells():
    # identity and reversal, column by column, past the int16 range too
    for M, cells in ((10, [5, 0, 9, 3]), (40000, [0, 39999, 12345])):
        table = vdw_symmetry(M, 2, cells).cell_perms
        assert np.array_equal(table, [cells, [M - 1 - v for v in cells]])
    # one cell has no reflection but itself
    assert vdw_symmetry(1, 2, [0]).cell_perms.tolist() == [[0]]


@pytest.mark.parametrize("build", [
    lambda cells: hj_symmetry(2, 2, 2, cells),
    lambda cells: vdw_symmetry(5, 2, cells),
])
def test_symmetry_rejects_cells_outside_the_carrier(build):
    for cells, match in (([-1], r"cell\[0\] = -1 is outside"),
                         ([0, 5], r"cell\[1\] = 5 is outside")):
        with pytest.raises(InvalidInstance, match=match):
            build(cells)


def test_symmetry_on_no_cells_is_an_empty_table():
    # hj_symmetry ended in numpy's bare ValueError at reshape(-1, 0)
    assert hj_symmetry(3, 2, 2, []).cell_perms.shape == (2 * 6, 0)
    assert vdw_symmetry(5, 2, []).cell_perms.shape == (2, 0)


def test_hj_solver_tabulates_the_decision_head_only(monkeypatch):
    # 720 coordinate x 24 alphabet permutations, on SYMMETRY_DEPTH + 1 cells
    # of the 4096
    shapes = []
    build = hjlab.search.hj_symmetry

    def spy(*args, **kwargs):
        group = build(*args, **kwargs)
        shapes.append(group.cell_perms.shape)
        return group

    monkeypatch.setattr(hjlab.search, "hj_symmetry", spy)
    assert hj_check(4, 2, 6, budget_nodes=1).status == BUDGET
    assert shapes == [(17280, 33)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hj_symmetry_color_rows_are_permutations(r):
    colors = hj_symmetry(3, 2, r, range(9)).color_perms
    assert sorted(map(tuple, colors)) == list(permutations(range(r)))


def test_color_subgroup_drops_past_the_limit(monkeypatch):
    # 5! colors times 2 reflection rows pass a limit of 100, 4! times 2 fit;
    # on [3]^2, 5! times 12 cell rows pass it and 3! times 12 fit
    monkeypatch.setattr(hjlab.search, "SYMMETRY_GROUP_LIMIT", 100)
    assert vdw_symmetry(5, 5, range(5)).color_perms.tolist() == [[0, 1, 2, 3, 4]]
    assert len(vdw_symmetry(5, 4, range(5)).color_perms) == 24
    assert hj_symmetry(3, 2, 5, range(9)).color_perms.tolist() == [[0, 1, 2, 3, 4]]
    assert len(hj_symmetry(3, 2, 3, range(9)).color_perms) == 6
    # W(2, r) = r + 1: pruning with and without the color subgroup keeps it
    for r in (4, 5):
        for M, status in ((r, SAT), (r + 1, UNSAT)):
            assert vdw_check(2, r, M).status == vdw_check(2, r, M, symmetry=False).status == status


def test_hj_symmetry_rejects_degenerate_sizes():
    with pytest.raises(InvalidInstance):
        hj_symmetry(1, 3, 2, [])
    with pytest.raises(InvalidInstance):
        hj_symmetry(2, 0, 2, [])


def test_symmetry_prunes_nodes():
    full = hj_check(2, 2, 3)
    plain = hj_check(2, 2, 3, symmetry=False)
    assert full.status == plain.status == UNSAT
    assert full.nodes <= plain.nodes


# -- the numbers ---------------------------------------------------------------

def test_hj_22_is_2():
    res = hj_number(2, 2, 4)
    assert res.value == 2 and res.decided
    assert [(size, run.status) for size, run in res.runs] == [(1, SAT), (2, UNSAT)]


def test_sweep_never_sizes_its_largest_instance():
    # [3]^(10**7) would need 3 ** 10**7 computed before the sweep could start
    start = time.monotonic()
    assert hj_number(3, 2, 10**7).value == 4
    assert time.monotonic() - start < 1.0


def test_vdw_32_is_9():
    res = vdw_number(3, 2, 16)
    assert res.value == 9 and res.decided
    assert [run.status for _, run in res.runs] == [SAT] * 8 + [UNSAT]


def test_vdw_42_is_35():
    res = vdw_number(4, 2, 35)
    assert res.value == 35 and res.decided


def test_lower_bound_only():
    res = vdw_number(3, 2, 5)
    assert res.value is None and not res.budget_hit
    assert res.lower_bound == 5  # all of M <= 5 are SAT, so W(3,2) > 5


def test_node_budget_reports_budget_not_unsat():
    res = vdw_check(3, 2, 9, budget_nodes=2)
    assert res.status == BUDGET
    # a stop counts the nodes searched: 6 and 1 were reported, the 6 of the
    # complete UNSAT search
    assert vdw_check(3, 2, 9, budget_nodes=5).nodes == 5
    assert vdw_check(3, 2, 9, budget_nodes=0).nodes == 0
    assert vdw_check(3, 2, 9, budget_nodes=6).status == UNSAT
    agg = vdw_number(3, 2, 9, budget_nodes=2)
    assert agg.value is None and agg.budget_hit


def test_improper_sat_coloring_is_an_explicit_error(monkeypatch):
    # a raise, not an assert, so the re-check survives python -O
    monkeypatch.setattr(
        HypergraphSolver, "solve", lambda self: ColoringResult(SAT, [0] * self.V, 0, 0.0)
    )
    with pytest.raises(VerificationError):
        hj_check(2, 2, 2)
    with pytest.raises(VerificationError):
        vdw_check(3, 2, 8)


@pytest.mark.parametrize("call", [
    lambda: hj_check(1, 2, 3),
    lambda: hj_check(2, 0, 3),
    lambda: hj_number(2, 2, 0),
    lambda: vdw_check(1, 2, 5),
    lambda: vdw_number(3, 2, 0),
])
def test_invalid_instance_parameters_are_rejected(call):
    with pytest.raises(InvalidInstance):
        call()


@pytest.mark.parametrize("call", [
    lambda: hj_check(2.0, 2, 2),  # numpy UFuncTypeError
    lambda: vdw_check(3, 2, 8.0),  # a bare TypeError
    lambda: vdw_check(3.0, 2, 8),
    lambda: vdw_number(3, 2, 9.5),
], ids=["hj-n", "vdw-M", "vdw-k", "vdw-max-size"])
def test_non_integer_instance_sizes_are_refused(call):
    with pytest.raises(InvalidInstance, match="integer"):
        call()


# -- witness searches ------------------------------------------------------------

def test_word_witness_for_mod2():
    ws = WordSemigroup(2)
    out = word_witness_search(substitution_family(ws), ModSumColoring(2))
    assert out.status == "found"
    assert out.witness == parse_word("xx")
    assert out.images == [(0, 0), (1, 1)]
    assert out.color == 0
    assert out.checked == 6  # x, and then the length-2 scan up to xx


def test_word_witness_respects_length_budget():
    ws = WordSemigroup(2)
    out = word_witness_search(substitution_family(ws), ModSumColoring(2), max_len=1)
    assert out.status == "exhausted"
    assert out.checked == 1


def test_finite_witness_on_flags():
    S, view, family = flag_semigroup(2)
    table = {str(flag_index(0, 0)): 0, str(flag_index(1, 0)): 1,
             str(flag_index(2, 0)): 0}
    out = finite_witness_search(family, TableColoring(table, r=2))
    assert out.status == "found"
    assert out.witness == flag_index(2, 1)  # earlier R points have mixed images
    assert out.images == [flag_index(2, 0)]


def test_finite_witness_exhaustion_is_a_true_negative():
    # with only sigma_0 and sigma_1 on flags m=1, color the two T points apart:
    # (0,1) has images {(0,0),(1,0)} - bichromatic; (1,1) has {(1,0)} - mono
    from hjlab import RetractionFamily
    S, view, family = flag_semigroup(1)
    out = finite_witness_search(family, TableColoring({"0": 0, "2": 1}, r=2))
    assert out.status == "found" and out.witness == flag_index(1, 1)


@pytest.mark.parametrize("search,coloring,points", [
    (lambda c: word_witness_search(substitution_family(WordSemigroup(2)), c),
     ApResidueColoring(2), "words; integer colorings go through hjlab witness --vdw"),
    (lambda c: finite_witness_search(flag_semigroup(1)[2], c),
     ModSumColoring(2), "semigroup elements"),
    (lambda c: find_ap_via_words(3, c), ModSumColoring(2), "integers"),
])
def test_each_search_rejects_a_coloring_of_the_wrong_kind(search, coloring, points):
    with pytest.raises(InvalidInstance, match=f"{coloring.kind} colorings do not color {points}"):
        search(coloring)


def test_via_hj_reduction_cross_check():
    out = find_ap_via_words(3, ApResidueColoring(2), max_len=5)
    assert out.status == "found"
    # the function itself re-checks the progression and its color;
    # spot-check the projected progression here
    a, b, c = out.progression
    assert b - a == c - b >= 1
    assert {x % 2 for x in out.progression} == {out.color}
    # 50 residues leave no monochromatic 3-term progression among the short words
    out = find_ap_via_words(3, ApResidueColoring(50), max_len=3)
    assert (out.status, out.word, out.checked) == ("exhausted", None, 45)


def test_via_hj_rejects_a_line_image_that_is_no_progression(monkeypatch):
    # a "line" whose images have the digit sums 1, 2, 4, under one color, so
    # only the step check can reject it
    line = WitnessOutcome("found", parse_word("x"), [(1,), (2,), (2, 2)], 0, 1)
    monkeypatch.setattr(hjlab.search, "word_witness_search", lambda *args, **kwargs: line)
    with pytest.raises(VerificationError, match="not a progression"):
        find_ap_via_words(3, ApResidueColoring(1), max_len=5)
