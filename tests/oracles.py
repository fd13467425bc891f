"""Naive reference implementations used to confirm expected values.

Everything in this module is deliberately slow and obvious: exhaustive loops
over all colorings, all maps, all subsets.  The library is tested against
these on instances small enough to brute-force, and the frozen constants in
the test files (HJ(2,2) = 2, W(3,2) = 9, line counts, ...) were produced by
running these functions.
"""
import itertools

import numpy as np

from hjlab.words import X


# -- hypergraph colorings -------------------------------------------------

def proper(edges, coloring):
    for edge in edges:
        first = coloring[edge[0]]
        if all(coloring[v] == first for v in edge[1:]):
            return False
    return True


def colorable(num_vertices, edges, r):
    """True iff some r-coloring has no monochromatic edge.

    Enumerates all r**num_vertices assignments, vectorized so that the
    criterion-6 envelope (3**12 colorings) stays fast.
    """
    total = r ** num_vertices
    idx = np.arange(total)
    digits = np.empty((total, num_vertices), dtype=np.int8)
    for v in range(num_vertices):
        digits[:, v] = (idx // r ** v) % r
    alive = np.ones(total, dtype=bool)
    for edge in edges:
        cols = digits[:, list(edge)]
        mono = np.all(cols == cols[:, :1], axis=1)
        alive &= ~mono
        if not alive.any():
            return False
    return True


def counter_solve(num_vertices, edges, r):
    """The proper-coloring backtracker without symmetry, by its rules alone.

    Vertices are decided by degree (ties by index), colors in increasing
    order, one node per color tried.  After each decision, propagation is
    the counter unit rule, run to its fixpoint by rescanning every edge: an
    edge colored all c is a conflict; an edge of two or more vertices with
    all but one colored c and that one uncolored removes c from its domain;
    an empty domain is a conflict; a domain cut down to one color colors
    its vertex.  Returns (status, coloring or None, nodes).
    """
    degree = [sum(v in e for e in edges) for v in range(num_vertices)]
    order = sorted(range(num_vertices), key=lambda v: (-degree[v], v))
    full = (1 << r) - 1
    nodes = 0

    def propagate(colors, domains):
        changed = True
        while changed:
            changed = False
            for e in edges:
                cs = [colors[u] for u in e]
                for c in range(r):
                    if cs.count(c) == len(e):
                        return False
                    if len(e) > 1 and cs.count(c) == len(e) - 1 and -1 in cs:
                        u = e[cs.index(-1)]
                        if domains[u] >> c & 1:
                            domains[u] &= ~(1 << c)
                            changed = True
                            if domains[u] == 0:
                                return False
            for u in range(num_vertices):
                m = domains[u]
                if colors[u] < 0 and m != full and m & (m - 1) == 0:
                    colors[u] = m.bit_length() - 1
                    changed = True
        return True

    def search(colors, domains):
        nonlocal nodes
        undecided = [v for v in order if colors[v] < 0]
        if not undecided:
            return colors
        v = undecided[0]
        for c in range(r):
            if domains[v] >> c & 1:
                nodes += 1
                child_colors, child_domains = list(colors), list(domains)
                child_colors[v] = c
                if propagate(child_colors, child_domains):
                    found = search(child_colors, child_domains)
                    if found is not None:
                        return found
        return None

    coloring = search([-1] * num_vertices, [full] * num_vertices)
    return ("unsat" if coloring is None else "sat"), coloring, nodes


def solver_setup(num_vertices, edges, r):
    """The solver's watch lists, XOR of watches, decision order and vertex
    sets, built by a loop over the edges one at a time: each edge's clause
    for every color watches its first two vertices (its one vertex, for a
    1-vertex edge), and the order is by degree (ties by index).  Returns
    (watching, other, order, vertex_sets)."""
    edges = [list(e) for e in edges]
    degree = [0] * num_vertices
    watching = [[[] for _ in range(num_vertices)] for _ in range(r)]
    other = []
    for ei, e in enumerate(edges):
        for v in e:
            degree[v] += 1
        for lists in watching:
            for v in e[:2]:
                lists[v].append(ei)
        other.append(e[0] ^ e[min(1, len(e) - 1)])
    order = sorted(range(num_vertices), key=lambda v: (-degree[v], v))
    return watching, [list(other) for _ in range(r)], order, edges


def automorphisms(num_vertices, edges):
    """Every vertex permutation that maps the edge set onto itself, found by
    trying all num_vertices! permutations.  Edges are read as vertex sets."""
    edge_set = {frozenset(e) for e in edges}
    return [
        perm for perm in itertools.permutations(range(num_vertices))
        if {frozenset(perm[v] for v in e) for e in edge_set} == edge_set
    ]


def lex_leader_prunes(colors, order, symmetry):
    """True when the decided prefix of ``order`` (up to the first undecided
    position) is not lexicographically minimal in its orbit: the full scan
    of every (cell row, color row) pair from position 0.  Each comparison
    stops at the first position where the permuted color differs or reads an
    undecided cell; only a strict defined difference prunes.  Column j of
    ``symmetry`` holds the images of position j of ``order``."""
    colors = np.asarray(colors)
    order = np.asarray(order)
    decided = colors[order] >= 0
    d = int(np.argmin(decided)) if not decided.all() else len(order)
    if d == 0:
        return False
    sub = symmetry.cell_perms[:, :d]  # (G, d) images of positions 0..d-1
    av = colors[sub]  # (G, d) their colors, -1 undecided
    undef = av < 0
    t = symmetry.color_perms[:, np.maximum(av, 0)]  # (C, G, d)
    t = np.where(undef[None, :, :], -1, t)
    s = colors[order[:d]]
    stop = undef[None, :, :] | (t != s)
    any_stop = stop.any(axis=2)
    first = np.argmax(stop, axis=2)
    t_first = np.take_along_axis(t, first[:, :, None], axis=2)[:, :, 0]
    s_first = s[first]
    undef_first = np.take_along_axis(
        np.broadcast_to(undef[None, :, :], t.shape), first[:, :, None], axis=2
    )[:, :, 0]
    prune = any_stop & ~undef_first & (t_first < s_first)
    return bool(prune.any())


# -- combinatorial lines and progressions --------------------------------

def line_point_sets(n, N):
    """All combinatorial lines of [n]^N as frozensets of encoded points,
    found by enumerating variable words directly."""
    lines = set()
    for template in itertools.product([*range(n), "x"], repeat=N):
        if "x" not in template:
            continue
        points = []
        for letter in range(n):
            word = [letter if c == "x" else c for c in template]
            code = 0
            for digit in word:
                code = code * n + digit
            points.append(code)
        lines.add(frozenset(points))
    return lines


def encode_word(w, n):
    """Base-n value of a constant word, most significant digit first."""
    value = 0
    for sym in w:
        value = value * n + sym
    return value


def line_edges(n, N):
    """The combinatorial lines of [n]^N by their definition, one word at a
    time: each one-variable word of length N in word order, under each
    diagonal substitution."""
    return [
        tuple(encode_word([a if s == X else s for s in w], n) for a in range(n))
        for w in itertools.product([*range(n), X], repeat=N)
        if X in w
    ]


def ap_edge_list(k, M):
    """The k-term progressions inside [1..M] (0-based) ordered by step,
    then by first term."""
    edges = []
    for d in range(1, M):
        for a in range(1, M + 1 - (k - 1) * d):
            edges.append(tuple(a - 1 + i * d for i in range(k)))
    return edges


def ap_triples(k, M):
    """All k-term arithmetic progressions inside [1..M], 0-indexed cells."""
    out = []
    for a in range(M):
        for d in range(1, M):
            last = a + (k - 1) * d
            if last >= M:
                break
            out.append(tuple(a + i * d for i in range(k)))
    return out


def vdw_colorable(k, r, M):
    return colorable(M, ap_triples(k, M), r)


def hj_colorable(n, r, N):
    edges = [tuple(sorted(pts)) for pts in line_point_sets(n, N)]
    return colorable(n ** N, edges, r)


def hj_symmetry_cells(n, N, include):
    """Cell maps of [n]^N, one word at a time: for each coordinate
    permutation cp (if "coordinate" in include) and each alphabet permutation
    ap (if "alphabet" in include), word w goes to (ap[w[cp[0]]], ...,
    ap[w[cp[N-1]]]).  Rows run cp-major, repeated maps kept once."""
    words = list(itertools.product(range(n), repeat=N))  # index = base-n code
    coord = list(itertools.permutations(range(N))) if "coordinate" in include else [tuple(range(N))]
    alpha = list(itertools.permutations(range(n))) if "alphabet" in include else [tuple(range(n))]
    seen = {}
    for cp in coord:
        for ap in alpha:
            row = np.empty(len(words), dtype=np.int64)
            for v, w in enumerate(words):
                code = 0
                for i in range(N):
                    code = code * n + ap[w[cp[i]]]
                row[v] = code
            seen.setdefault(row.tobytes(), row)
    return np.stack(list(seen.values()))


# -- transformation semigroups --------------------------------------------

def all_endomorphisms(table):
    """Every self-map h with h(a*b) == h(a)*h(b), by filtering all n^n maps.
    Only sane for order <= 4."""
    n = len(table)
    out = []
    for h in itertools.product(range(n), repeat=n):
        if all(h[table[a][b]] == table[h[a]][h[b]] for a in range(n) for b in range(n)):
            out.append(h)
    return out


# -- ultrafilters as explicit set families --------------------------------
# An ultrafilter on [0..n) is represented as the set of member bitmasks.

def principal_family(npoints, point):
    return {m for m in range(1 << npoints) if (m >> point) & 1}


def family_point(fam, npoints):
    """The unique point lying in every member of a principal family."""
    common = (1 << npoints) - 1
    for mask in fam:
        common &= mask
    if common == 0 or common & (common - 1):
        raise AssertionError("family is not principal")
    return common.bit_length() - 1


def image_family(f, fam, source_size, target_size):
    """{A : f^{-1}(A) in U} computed literally."""
    out = set()
    for amask in range(1 << target_size):
        pre = 0
        for s in range(source_size):
            if (amask >> f[s]) & 1:
                pre |= 1 << s
        if pre in fam:
            out.add(amask)
    return out


def product_family(table, fam_u, fam_v):
    """{A : {s : s^{-1}A in V} in U} computed literally."""
    n = len(table)
    out = set()
    for amask in range(1 << n):
        smask = 0
        for s in range(n):
            translate = 0
            for t in range(n):
                if (amask >> table[s][t]) & 1:
                    translate |= 1 << t
            if translate in fam_v:
                smask |= 1 << s
        if smask in fam_u:
            out.add(amask)
    return out


def tensor_family(size_x, size_y, fam_u, fam_v):
    """{C subset of X x Y : {x : C_x in V} in U}, cells indexed x*size_y + y."""
    cells = size_x * size_y
    out = set()
    for cmask in range(1 << cells):
        xmask = 0
        for x in range(size_x):
            section = 0
            for y in range(size_y):
                if (cmask >> (x * size_y + y)) & 1:
                    section |= 1 << y
            if section in fam_v:
                xmask |= 1 << x
        if xmask in fam_u:
            out.add(cmask)
    return out


def tensor_power_first_failure(S_table, T_table, h, k, point):
    """Least mask A of the target where the two sides of the tensor-power
    identity disagree at the principal V at ``point``, or None.

    Tensor side: A lies in the image of V⊗(V⊗...) (k factors) under
    w -> h(w1*...*wk) iff the fold-preimage X = {w : h(w1*...*wk) in A} is
    a member, decided section by section: a section of X is a member iff the
    set of next coordinates whose own section is a member contains ``point``.
    Product side: A lies in h(V)*(h(V)*...) iff the set of s whose translate
    {u : s*u in A} lies in the inner power has its h-preimage contain
    ``point``.  Plain loops over sets; no numpy.
    """
    n, t = len(S_table), len(T_table)

    def fold(word):
        acc = word[0]
        for x in word[1:]:
            acc = S_table[acc][x]
        return acc

    def tensor_side(A, prefix):
        qualifying = set()
        for w in range(n):
            word = prefix + (w,)
            inside = h[fold(word)] in A if len(word) == k else tensor_side(A, word)
            if inside:
                qualifying.add(w)
        return point in qualifying

    def in_image(B):
        return point in {x for x in range(n) if h[x] in B}

    def product_side(A, levels):
        if levels == 1:
            return in_image(A)
        qualifying = set()
        for s in range(t):
            translate = {u for u in range(t) if T_table[s][u] in A}
            if product_side(translate, levels - 1):
                qualifying.add(s)
        return in_image(qualifying)

    for mask in range(1 << t):
        A = {x for x in range(t) if (mask >> x) & 1}
        if tensor_side(A, ()) != product_side(A, k):
            return mask
    return None
