"""Backtracking search: monochromatic-witness search over retraction
families, and exact small Hales-Jewett / van der Waerden numbers via proper
coloring of line hypergraphs.

The Hales-Jewett edges are image sets of the diagonal retraction family: a
combinatorial line of [n]^N is {sigma_a(w) : a in [n]} for a length-N word w
with the one variable x, where sigma_a substitutes the letter a for x.

The witness searches share one scan for the first candidate whose image set
is monochromatic: variable words of a word semigroup, or the points of R in
a finite one (``ultra.check_agreement_equivalence`` decides statement (a)
with it), once ``instances.require_fit`` passes the coloring.  Pulled back
along the digit sum by ``find_ap_via_words``, an integer coloring colors
words, and a monochromatic line sums to a monochromatic progression.

The solver is a trail-based backtracker over an explicit decision stack.
It takes one edge form, an (E, k) integer array (or E rows of k vertices)
whose rows hold k distinct vertices, and refuses any other with
InvalidInstance before it builds anything from it; ``verify_proper_coloring``
checks its edges the same way.  Each edge e and color c give the clause "e
is not all colored c".  Every clause watches two vertices of its edge not
colored c (the two-watched-literal scheme of Chaff), so coloring v with c
visits only the clauses for c that watch v: one is satisfied by its other
watch, moves the watch to another vertex not colored c, prunes c from an
uncolored other watch (singleton domains cascade), or is a conflict.  A
decision propagates in one loop and undoes nothing itself: each frame of the
stack keeps the trail's length when it was pushed, and the search undoes the
trail to it, colors and domains only, before each color the frame tries and
before it pops the frame.  Symmetry pruning rejects partial
colorings that are not lexicographically minimal in their orbit, compared
along one fixed decision order, which keeps the pruning sound for SAT and
UNSAT alike.  The check is incremental along
the decision stack: each frame holds, as arrays, the survivors its nodes
resume from, set when its parent node survived: the group elements whose
permuted prefix still equals the prefix or stopped on an undecided cell,
with the position each stopped at.  Its nodes resume only those, from
there; an element that compared greater is dropped for the whole subtree.
Pruning is tried only within the decision head, the first
SYMMETRY_DEPTH + 1 positions of the order, so the group is tabulated on
those cells alone: the solver takes a builder ``cells -> Symmetry`` and
calls it with the head once the order is known, and column j of the table
it returns holds the images of decision position j.
"""
from __future__ import annotations

import numbers
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import factorial

import numpy as np

from .errors import (InvalidColoring, InvalidInstance, SearchSpaceTooLarge, VerificationError,
                     _integer, _integers)
from .instances import PullbackColoring, require_fit
from .words import WordSemigroup, substitution_family

DEFAULT_NODE_BUDGET = 10 ** 9
DEFAULT_TIME_BUDGET = 600.0
# lex-leader pruning is tried only while at most this many decision positions
# are decided; deeper nodes are searched unpruned
SYMMETRY_DEPTH = 32

SAT = "sat"
UNSAT = "unsat"
BUDGET = "budget"

# the largest edge array LineHypergraph.build or ap_edges allocates, checked
# first: 2^27 bytes (128 MiB) holds the 4.0M lines of [3]^11 (97 MB) or the
# 4.0M 3-term progressions in [1..4000] (96 MB); a build peaks at 2-3.1 times it
EDGE_BYTES_LIMIT = 1 << 27


def _check_edge_bytes(rows, width):
    """Refuse an edge array of ``rows`` rows of ``width`` int64 codes above EDGE_BYTES_LIMIT."""
    if rows * width * 8 > EDGE_BYTES_LIMIT:
        raise SearchSpaceTooLarge(f"the edge array passes the {EDGE_BYTES_LIMIT}-byte bound")


def _check_line_bytes(n, N):
    """Refuse the lines of [n]^N above EDGE_BYTES_LIMIT.  Their count grows with N
    and at N = 64 passes any bound below 2^100 bytes, so a larger N is counted there."""
    N = min(N, 64)
    _check_edge_bytes((n + 1) ** N - n ** N, n)


@dataclass
class LineHypergraph:
    """Vertices are the n^N constant words (base-n encoded); edges are the
    combinatorial lines, one row per one-variable word of length N in
    lexicographic word order (letters before x): column a holds its image
    under sigma_a, from two codes per word that are composed place by place."""

    edges: np.ndarray  # (lines, n)

    @classmethod
    def build(cls, n, N):
        n = _integer(n, InvalidInstance, "n", least=2)
        N = _integer(N, InvalidInstance, "N", least=1)
        _check_line_bytes(n, N)
        # Base-n coded, sigma_a(w) = c(w) + a * m(w): c sums the place values of
        # w's letters, m those of its x's.  One outer sum per place, leading place
        # first, lists them for the words over the letters and x in lex order.
        c = m = np.zeros(1, dtype=np.int64)
        for weight in n ** np.arange(N - 1, -1, -1, dtype=np.int64):
            c = np.add.outer(c, np.append(np.arange(n) * weight, 0)).ravel()
            m = np.add.outer(m, np.append(np.zeros(n, dtype=np.int64), weight)).ravel()
        lines = m > 0  # the words with an x
        edges = m[lines, None] * np.arange(n)
        edges += c[lines, None]
        return cls(edges)


def ap_edges(k, M):
    """All k-term arithmetic progressions inside [1..M], 0-based, as a
    (count, k) array ordered by step, then by first term."""
    # with k < 2 every step would repeat the same one-term progressions
    k, M = _integer(k, InvalidInstance, "k", least=2), _integer(M, InvalidInstance, "M", least=1)
    # steps d = 1..D have M - (k-1)d first terms each
    D = (M - 1) // (k - 1)
    _check_edge_bytes(D * M - (k - 1) * D * (D + 1) // 2, k)
    terms = np.arange(k, dtype=np.int64)
    blocks = [np.arange(M - (k - 1) * d)[:, None] + d * terms for d in range(1, D + 1)]
    return np.concatenate([np.empty((0, k), dtype=np.int64), *blocks])


@dataclass
class Symmetry:
    """A group of cell permutations paired with color permutations.

    ``cell_perms`` has one row per group element and one column per cell it
    is tabulated on: entry (g, j) is the image of the j-th cell under g (the
    set is closed under inverses, so g can be read in either direction).
    ``color_perms`` maps old colors to new.
    """

    cell_perms: np.ndarray  # (G, len(cells))
    color_perms: np.ndarray  # (C, r)

    @cached_property
    def color_table(self):
        """``color_perms`` with a last column r, which an undecided cell (-1)
        reads: above every color, so it equals none."""
        C, r = self.color_perms.shape
        return np.hstack([self.color_perms, np.full((C, 1), r)])


SYMMETRY_GROUP_LIMIT = 100_000


def _color_perms(r, rows):
    """The r! color permutations, or the identity alone when r! times the
    ``rows`` cell permutations kept would pass SYMMETRY_GROUP_LIMIT."""
    r = _integer(r, InvalidInstance, "r", least=1)
    keep = factorial(r) * rows <= SYMMETRY_GROUP_LIMIT
    return np.array(list(permutations(range(r))) if keep else [tuple(range(r))], dtype=np.int64)


def hj_symmetry(n, N, r, cells):
    """The coordinate x alphabet x color group of [n]^N, tabulated on
    ``cells`` (base-n word codes): column j holds the images of cells[j].
    Rows run coordinate-permutation-major.  A subgroup whose rows would pass
    SYMMETRY_GROUP_LIMIT is left out: the coordinate one when N! does, then
    the alphabet one when n! times the rows kept so far does, then the color
    one when r! times the cell rows kept does."""
    # n >= 2 makes every (coordinate, alphabet) pair a distinct element: constant
    # words pin the alphabet permutation, one-nonzero-digit words the other
    n, N = _integer(n, InvalidInstance, "n", least=2), _integer(N, InvalidInstance, "N", least=1)
    # an oversized subgroup is dropped rather than enumerated: pruning less
    # is always sound, and N! * n! explodes quickly on wide alphabets
    coordinate = factorial(N) <= SYMMETRY_GROUP_LIMIT
    alphabet = factorial(n) * (factorial(N) if coordinate else 1) <= SYMMETRY_GROUP_LIMIT
    cells = _integers(cells, InvalidInstance, "cell", (None,), below=n ** N)
    weights = n ** np.arange(N - 1, -1, -1, dtype=np.int64)
    digits = cells[:, None] // weights % n  # (len(cells), N): the word each cell codes
    coord = list(permutations(range(N))) if coordinate else [tuple(range(N))]
    alpha = np.array(
        list(permutations(range(n))) if alphabet else [tuple(range(n))], dtype=np.int64
    )
    table = np.empty((len(coord), len(alpha), len(cells)), dtype=np.int64)
    for i, cp in enumerate(coord):
        # word w goes to (ap[w[cp[0]]], ..., ap[w[cp[N-1]]]), every ap at once
        table[i] = alpha[:, digits[:, cp]] @ weights
    rows = len(coord) * len(alpha)
    return Symmetry(table.reshape(rows, len(cells)), _color_perms(r, rows))


def vdw_symmetry(M, r, cells):
    """The reflection x color group of [1..M] (0-based cells), tabulated on
    ``cells``: column j holds the images of cells[j].  The color subgroup is
    left out when r! times the cell rows passes SYMMETRY_GROUP_LIMIT."""
    M = _integer(M, InvalidInstance, "M", least=1)
    cells = _integers(cells, InvalidInstance, "cell", (None,), below=M)
    rows = [cells, M - 1 - cells] if M > 1 else [cells]
    return Symmetry(np.stack(rows), _color_perms(r, len(rows)))


def _root_survivors(symmetry, head):
    """The survivors above the first decision: every (cell row, color row)
    pair, to resume at position 0, but those that fix every head cell and
    every color, which never prune within the head."""
    cells, perms = symmetry.cell_perms, symmetry.color_perms
    G, C = len(cells), len(perms)
    g, c = np.repeat(np.arange(G), C), np.tile(np.arange(C), G)
    fixed_cells = (cells == head).all(axis=1)
    fixed_colors = (perms == np.arange(perms.shape[1])).all(axis=1)
    keep = ~(fixed_cells[g] & fixed_colors[c])
    return g[keep], c[keep], np.zeros(int(keep.sum()), dtype=np.intp)


def canonical_prune(colors, order, symmetry, survivors, frame):
    """True when the colors decided so far (read along ``order``, the
    decision head) are not lexicographically minimal in their orbit, so the
    node can be discarded.  Column j of ``symmetry`` maps position j.

    For each group element the comparison walks the fixed order and stops at
    the first position where the permuted color differs from the color there
    or reads an undecided cell; only a strict defined difference prunes.
    ``frame`` is the one the node would push: ``frame.d`` is the node's
    first undecided position, and every position before it is decided.
    ``survivors`` are those the node resumes from, held by its own frame:
    arrays of cell rows, color rows and resume positions, for the elements
    whose comparison was equal up to the resume position and stopped there
    on an undecided cell or at the end of the decided prefix.  The others
    stopped on a greater defined color, which no deeper node changes.
    Decided colors stay, so each survivor resumes where it stopped.  Unless
    the node is pruned, its own survivors go to ``frame.survivors``.
    """
    g, c, p = survivors
    if not len(p):
        frame.survivors = survivors
        return False
    d = frame.d
    colors = np.asarray(colors)
    lo = int(p.min())
    # (S, W) permuted colors, r where the cell is undecided; a survivor
    # equals the prefix below its resume position, so no mask is needed
    t = symmetry.color_table[c[:, None], colors[symmetry.cell_perms[g, lo:d]]]
    s = colors[order[lo:d]]
    first = np.argmax(t != s, axis=1)  # 0 for a survivor equal throughout
    t_first = t[np.arange(len(p)), first]
    s_first = s[first]
    if (t_first < s_first).any():
        return True
    equal = t_first == s_first
    keep = equal | (t_first == symmetry.color_perms.shape[1])
    frame.survivors = g[keep], c[keep], np.where(equal, d, lo + first)[keep]
    return False


@dataclass
class ColoringResult:
    status: str  # sat | unsat | budget
    coloring: list | None
    nodes: int
    elapsed: float


class _BudgetHit(Exception):
    pass


def check_budgets(budget_nodes, budget_seconds):
    """A caller's budgets are real numbers >= 0 or inf: a negative one would
    stop a search never allowed to run and report it as a budget stop, and a
    nan one never stop it (this test is false for nan too).  Any other value,
    a string or None, is refused before it is compared."""
    real = all(isinstance(b, numbers.Real) for b in (budget_nodes, budget_seconds))
    if not (real and budget_nodes >= 0 and budget_seconds >= 0):
        raise InvalidInstance(
            f"budgets are numbers >= 0 or inf, not budget_nodes={budget_nodes!r}, "
            f"budget_seconds={budget_seconds!r}"
        )


def _edge_array(edges, V):
    """``edges`` as an (E, k) int64 array of k distinct vertices of [0, V)
    a row, read by ``_integers``, or InvalidInstance.  No vertex at all is
    no edges, shape (0, 1)."""
    edges = _integers(edges, InvalidInstance, "edge", (None, None), below=V)
    if not edges.size:
        return np.empty((0, 1), dtype=np.int64)
    rows = np.sort(edges, axis=1)
    repeats = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
    if len(repeats):
        raise InvalidInstance(f"edge {int(repeats[0])} repeats a vertex")
    return edges


@dataclass(slots=True)
class _Frame:
    """One decision level: its position in the decision order, its trail
    mark (the trail's length when it was pushed, which its nodes undo to),
    the next color to try, and the lex-leader survivors its nodes resume
    from, set when its parent node survived (the first frame's by
    ``_root_survivors``; None where no node prunes)."""

    d: int
    mark: int
    c: int = 0
    survivors: tuple | None = None


class HypergraphSolver:
    """Proper-coloring backtracker over a hypergraph: no edge may end up
    with all its vertices the same color.

    ``edges`` is an (E, k) integer array, or E rows of k vertices, each row
    k distinct vertices of [0, num_vertices); an (E, 0) array constrains
    nothing.  ``symmetry`` is None (no pruning) or a builder
    ``cells -> Symmetry``, called with the decision head: the first
    SYMMETRY_DEPTH + 1 cells of the decision order, so the group's column j
    maps decision position j.  ``solve`` checks the edges, V and r
    (InvalidInstance) and builds all of its state, edge lists and group
    included, so the time budget covers the set-up too.
    """

    def __init__(
        self,
        num_vertices,
        edges,
        r,
        symmetry=None,
        budget_nodes=DEFAULT_NODE_BUDGET,
        budget_seconds=DEFAULT_TIME_BUDGET,
    ):
        check_budgets(budget_nodes, budget_seconds)
        self.V = num_vertices
        self.r = r
        self.edges = edges
        self.build_symmetry = symmetry
        self.budget_nodes = budget_nodes
        self.budget_seconds = budget_seconds

    # -- state ---------------------------------------------------------
    def _reset(self):
        self.nodes = 0
        self.deadline = time.monotonic() + self.budget_seconds
        V = _integer(self.V, InvalidInstance, "V", least=0)
        r = _integer(self.r, InvalidInstance, "r", least=1)
        edges = _edge_array(self.edges, V)
        # the rows as lists, 4096 at a time, the deadline polled between blocks
        self.vertex_sets = []
        for lo in range(0, len(edges), 4096):
            if time.monotonic() > self.deadline:
                raise _BudgetHit
            self.vertex_sets += edges[lo:lo + 4096].tolist()
        # clause (ei, c), "edge ei is not all colored c", watches columns 0
        # and 1 of the edge (column 0 twice, for a 1-vertex edge); other[c][ei]
        # holds their XOR, so either watch gives the other.  watching[c][v]
        # lists, ascending, the edges whose clause for c watches v.  A watch
        # colored c was colored after every other c-colored vertex of its
        # edge, or after its other watch took another color; undoing the
        # trail in reverse keeps that true, so watches are never restored.
        k = edges.shape[1]
        self.other = [(edges[:, 0] ^ edges[:, min(1, k - 1)]).tolist() for _ in range(r)]
        watched = edges[:, :2].ravel()
        flat = (np.argsort(watched, kind="stable") // min(2, k)).tolist()
        ends = np.cumsum(np.bincount(watched, minlength=V)).tolist()
        self.watching = [[flat[lo:hi] for lo, hi in zip([0, *ends], ends)] for _ in range(r)]
        degree = np.bincount(edges.ravel(), minlength=V)
        self.order = np.argsort(-degree, kind="stable").tolist()  # by (-degree, v)
        self.head = self.order[: SYMMETRY_DEPTH + 1]
        if time.monotonic() > self.deadline:
            raise _BudgetHit
        self.symmetry = None if self.build_symmetry is None else self.build_symmetry(self.head)
        self.colors = [-1] * V
        self.domains = [(1 << r) - 1] * V
        self.trail = []  # (v, -1) for a color, (v, old mask) for a domain

    def _decide(self, v, c):
        """Color v with c and propagate to the fixpoint; False on a conflict.
        Each vertex colored visits the clauses for its color that watch it:
        each is satisfied, moves its watch, prunes the color from its other
        watch (trailed; a singleton domain queues its vertex, and the queue
        is popped last in first out), or is a conflict.  Nothing is undone
        here: the caller undoes the trail to its frame's mark."""
        colors, domains, edges, trail = self.colors, self.domains, self.vertex_sets, self.trail
        queue = [(v, c)]
        while queue:
            # uncolored still: a vertex is queued once, as its domain drops to one color
            v, c = queue.pop()
            other, watching = self.other[c], self.watching[c]
            colors[v] = c
            trail.append((v, -1))
            watched = watching[v]
            i, n = 0, len(watched)
            while i < n:
                ei = watched[i]
                w = other[ei] ^ v
                x = colors[w]
                if x >= 0 and x != c:  # satisfied by the other watch
                    i += 1
                    continue
                for u in edges[ei]:
                    if u != w and colors[u] != c:  # v itself is colored c
                        other[ei] = w ^ u
                        watching[u].append(ei)
                        n -= 1
                        watched[i] = watched[n]
                        watched.pop()
                        break
                else:
                    # every vertex but w is colored c: so is w (w is v on a
                    # 1-vertex edge), or w must avoid c
                    if x == c:
                        return False
                    m = domains[w]
                    if m >> c & 1:
                        trail.append((w, m))
                        m ^= 1 << c
                        domains[w] = m
                        if m == 0:
                            return False
                        if m & (m - 1) == 0:
                            queue.append((w, m.bit_length() - 1))
                    i += 1
        return True

    def _search(self):
        """Depth-first along the decision order, colors in increasing order,
        on an explicit stack of frames.  A frame retries its colors against
        the lex-leader survivors it holds, so backtracking undoes only the
        trail: to the frame's mark before each color it tries and before
        it is popped."""
        colors, domains, order, r, V = self.colors, self.domains, self.order, self.r, self.V
        symmetry, head, trail = self.symmetry, self.head, self.trail
        # a cut head is not checked once all colored; an uncut one always is
        bound = len(head) if len(head) > SYMMETRY_DEPTH else V + 1
        root = None if symmetry is None else _root_survivors(symmetry, head)
        stack = [_Frame(0, 0, survivors=root)]
        while stack:
            frame = stack[-1]
            if frame.d == V:
                return list(colors)
            while len(trail) > frame.mark:
                u, old = trail.pop()
                if old < 0:
                    colors[u] = -1
                else:
                    domains[u] = old
            dom, c = domains[order[frame.d]], frame.c
            while c < r and not (dom >> c) & 1:
                c += 1
            if c == r:
                stack.pop()
                continue
            # a node is charged once the budget allows it, so a stop counts
            # only the nodes searched
            if self.nodes >= self.budget_nodes or time.monotonic() > self.deadline:
                raise _BudgetHit
            self.nodes += 1
            frame.c = c + 1
            if not self._decide(order[frame.d], c):
                continue
            d = frame.d + 1
            while d < V and colors[order[d]] >= 0:
                d += 1
            child = _Frame(d, len(trail))
            if symmetry is not None and d < bound and canonical_prune(
                colors, head, symmetry, frame.survivors, child
            ):
                continue
            stack.append(child)
        return None

    def solve(self):
        start = time.monotonic()
        try:
            self._reset()
            res = self._search()
        except _BudgetHit:
            return ColoringResult(BUDGET, None, self.nodes, time.monotonic() - start)
        elapsed = time.monotonic() - start
        if res is None:
            return ColoringResult(UNSAT, None, self.nodes, elapsed)
        return ColoringResult(SAT, res, self.nodes, elapsed)


def verify_proper_coloring(edges, coloring):
    """Full edge scan: no edge monochromatic, all vertices colored, each by
    an integer >= 0 (any other entry is no coloring, so False).  ``edges``
    is checked as the solver checks it, with V = len(coloring)."""
    edges = _edge_array(edges, len(coloring))
    try:
        colors = [_integer(c, InvalidColoring, "a color", least=0) for c in coloring]
    except InvalidColoring:
        return False
    colors = np.array(colors, dtype=np.int64)
    return not (colors[edges] == colors[edges[:, :1]]).all(axis=1).any()


# -- hypergraph instances ------------------------------------------------

# size-parameter names per family, in certificate field order
INSTANCE_FIELDS = {"hj": ("n", "N"), "vdw": ("k", "M")}


@dataclass(frozen=True, eq=False)
class Instance:
    """One proper-coloring problem: r-color ``num_vertices`` vertices so that
    no edge is monochromatic.

    ``family`` (hj | vdw) fixes the certificate kind; ``params`` are the size
    parameters named by ``INSTANCE_FIELDS[family]``.  The builders construct
    afresh on every call, so a check of the solver's answer never reuses the
    solver's edge list.
    """

    family: str
    params: tuple
    r: int
    num_vertices: int
    build_edges: Callable  # () -> (E, k) int64 array of edge vertices
    build_symmetry: Callable  # cells -> Symmetry

    def __post_init__(self):
        (a, size), (first, last) = self.params, INSTANCE_FIELDS[self.family]
        _integer(a, InvalidInstance, first, least=2)
        _integer(size, InvalidInstance, last, least=1)
        _integer(self.r, InvalidInstance, "r", least=1)

    @property
    def kind(self):
        return f"{self.family}-coloring"


def hj_instance(n, r, N):
    """[n]^N (base-n encoded words) with the combinatorial lines as edges."""
    n, N = _integer(n, InvalidInstance, "n", least=2), _integer(N, InvalidInstance, "N", least=1)
    _check_line_bytes(n, N)  # before n ** N
    return Instance(
        "hj",
        (n, N),
        r,
        n ** N,
        lambda: LineHypergraph.build(n, N).edges,
        lambda cells: hj_symmetry(n, N, r, cells),
    )


def vdw_instance(k, r, M):
    """[1..M] with the k-term arithmetic progressions as edges."""
    return Instance(
        "vdw",
        (k, M),
        r,
        M,
        lambda: ap_edges(k, M),
        lambda cells: vdw_symmetry(M, r, cells),
    )


INSTANCES = {"hj": hj_instance, "vdw": vdw_instance}


def check_instance(
    inst,
    budget_nodes=DEFAULT_NODE_BUDGET,
    budget_seconds=DEFAULT_TIME_BUDGET,
    symmetry=True,
):
    """Decide whether ``inst`` has a proper coloring.

    ``symmetry``, read by its truth value, turns lex-leader pruning with
    the instance's own group (``inst.build_symmetry``) on or off.  SAT
    results carry an explicit coloring, re-verified against a freshly built
    edge list before return; UNSAT carries the node count of the completed
    backtracking; budget exhaustion is reported as its own status.
    ``budget_seconds`` covers building the edges and the symmetry group too,
    and the result's ``elapsed`` is the whole call, the SAT re-check included.
    """
    start = time.monotonic()
    check_budgets(budget_nodes, budget_seconds)
    edges = inst.build_edges()
    res = HypergraphSolver(
        inst.num_vertices,
        edges,
        inst.r,
        symmetry=inst.build_symmetry if symmetry else None,
        budget_nodes=budget_nodes,
        # a slow set-up hands down 0 s: an honest budget stop, not bad input
        budget_seconds=max(0.0, budget_seconds - (time.monotonic() - start)),
    ).solve()
    if res.status == SAT and not verify_proper_coloring(inst.build_edges(), res.coloring):
        raise VerificationError(f"solver returned an improper {inst.kind} for {inst.params}")
    res.elapsed = time.monotonic() - start
    return res


def hj_check(n, r, N, **kwargs):
    """Decide whether some r-coloring of [n]^N avoids monochromatic lines;
    keyword arguments as for ``check_instance``."""
    return check_instance(hj_instance(n, r, N), **kwargs)


def vdw_check(k, r, M, **kwargs):
    """Decide whether some r-coloring of [1..M] avoids k-term monochromatic
    arithmetic progressions; keyword arguments as for ``check_instance``."""
    return check_instance(vdw_instance(k, r, M), **kwargs)


@dataclass
class NumberResult:
    """Outcome of a least-N sweep: value if the threshold was reached,
    otherwise a lower bound; per-size results kept for certificates."""

    value: int | None
    lower_bound: int
    budget_hit: bool
    runs: list = field(default_factory=list)  # (size, ColoringResult)

    @property
    def decided(self):
        return self.value is not None


def least_size(make, a, r, max_size, budget_seconds=DEFAULT_TIME_BUDGET, **kwargs):
    """Least size <= max_size at which ``make(a, r, size)`` has no proper
    coloring.

    ``budget_seconds`` covers the whole sweep: one deadline starts here and
    each size gets the time left.  Other keyword arguments are as for
    ``check_instance``, so ``budget_nodes`` applies to each size alone.
    """
    # rejects bad parameters before any search; the smallest size is cheap to
    # build, where hj's largest would compute n ** max_size first
    max_size = _integer(max_size, InvalidInstance, "max_size")
    make(a, r, min(max_size, 1))
    check_budgets(kwargs.get("budget_nodes", DEFAULT_NODE_BUDGET), budget_seconds)
    deadline = time.monotonic() + budget_seconds
    runs = []
    for size in range(1, max_size + 1):
        # a spent deadline hands down 0 s: an honest budget stop, not bad input
        res = check_instance(
            make(a, r, size), budget_seconds=max(0.0, deadline - time.monotonic()), **kwargs
        )
        runs.append((size, res))
        if res.status == UNSAT:
            return NumberResult(size, size - 1, False, runs)
        if res.status == BUDGET:
            return NumberResult(None, size - 1, True, runs)
    return NumberResult(None, max_size, False, runs)


def hj_number(n, r, N_max, **kwargs):
    """Least N <= N_max with no line-free r-coloring of [n]^N."""
    return least_size(hj_instance, n, r, N_max, **kwargs)


def vdw_number(k, r, M_max, **kwargs):
    """Least M <= M_max such that every r-coloring of [1..M] has a
    monochromatic k-term progression."""
    return least_size(vdw_instance, k, r, M_max, **kwargs)


# -- witness search ------------------------------------------------------


@dataclass
class WitnessOutcome:
    status: str  # "found" | "exhausted"
    witness: object | None = None
    images: list | None = None
    color: int | None = None
    checked: int = 0


def _first_monochromatic(candidates, family, coloring):
    checked = 0
    for v in candidates:
        checked += 1
        images = family.images(v)
        colors = {coloring.color_of(x) for x in images}
        if len(colors) == 1:
            return WitnessOutcome("found", v, images, colors.pop(), checked)
    return WitnessOutcome("exhausted", checked=checked)


def word_witness_search(family, coloring, max_len=8):
    """First variable word of ``family.ws`` (length-lexicographic) whose
    substitution images are monochromatic.  Exhausted only means the length
    budget ran out: the abstract theorem guarantees a witness at some finite
    length."""
    max_len = _integer(max_len, InvalidInstance, "max_len", least=1)
    require_fit(coloring, "words")
    return _first_monochromatic(family.ws.iter_words(max_len), family, coloring)


def finite_witness_search(family, coloring):
    """First element of R = S\\T (index order) with a monochromatic image
    set; S and T are those of ``family.view``.  The scan is complete, so
    exhaustion here is a true negative."""
    require_fit(coloring, "semigroup elements")
    return _first_monochromatic(family.view.complement(), family, coloring)


@dataclass
class ViaHjOutcome:
    status: str
    word: tuple | None = None
    progression: list | None = None
    color: int | None = None
    checked: int = 0


def find_ap_via_words(k, integer_coloring, max_len=8):
    """Cross-validate the digit-sum reduction: pull an integer coloring back
    to words over [k] along the digit sum, find a monochromatic line, and
    read off the arithmetic progression its images sum to."""
    k = _integer(k, InvalidInstance, "k", least=2)
    require_fit(integer_coloring, "integers")
    pulled = PullbackColoring(integer_coloring, sum)
    out = word_witness_search(substitution_family(WordSemigroup(k)), pulled, max_len=max_len)
    if out.status != "found":
        return ViaHjOutcome("exhausted", checked=out.checked)
    # the images sort by substitution letter a, so their digit sums should
    # run s + a*v: s the fixed letters' sum, v the number of variable positions
    ap = [sum(w) for w in out.images]
    diffs = {b - a for a, b in zip(ap, ap[1:])}
    if len(diffs) != 1 or diffs.pop() < 1:
        raise VerificationError(f"line image {ap} is not a progression")
    if {integer_coloring.color_of(m) for m in ap} != {out.color}:
        raise VerificationError(f"projected progression {ap} is not monochromatic")
    return ViaHjOutcome("found", out.witness, ap, out.color, out.checked)
