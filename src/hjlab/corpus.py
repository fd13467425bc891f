"""Seeded corpus of small transformation semigroups.

Random Cayley tables are almost never associative, so test semigroups are
grown as subsemigroups of the full transformation monoid on a few points:
pick random functions, close under composition.  Associativity then holds by
construction and the validator merely re-confirms it.  The corpus feeds the
headline sweep: the fold-then-map tensor-power identity checked for every
endomorphism h, every principal ultrafilter at v and k in {2, 3}, each side's
formula against its principal point on every subset, and h(v^k) = h(v)^k.
Endomorphisms are listed along each semigroup's closure order, so only the
elements no earlier product reaches branch, and each listing stops at the
budget the sweep's byte bounds leave; the evaluator builds each semigroup's
translate sets once per chunk and every map reads its semigroup's in place.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import search
from .errors import CarrierTooLarge, InvalidInstance, SearchSpaceTooLarge, _integer
from .semigroups import FiniteSemigroup
from .ultra import PRODUCT_LAW_BOUND, TENSOR_POWERS, map_chunk_bytes, tensor_power_failures

# transformations act on 2..CORPUS_MAX_DEGREE points; a draw stops after
# CORPUS_MAX_ATTEMPTS generator sets even if it has fewer semigroups than asked
CORPUS_MAX_DEGREE = 4
CORPUS_MAX_ATTEMPTS = 50_000
# the most bytes one tensor-power sweep streams through its evaluator, maps
# times the per-map chunk figure summed over k, checked as the maps are
# listed: at about 200 MB/s on one core 2^30 bytes (1 GiB) is about 5 s.  The
# largest benchmark order streams 25 MB and the order-6 left-zero band 188 MB;
# the order-7 band, 10.3 GB (about 18 s), is refused
SWEEP_BYTES_LIMIT = 1 << 30


def compose(f, g):
    """f after g, on tuples: x -> f[g[x]]."""
    return tuple(f[y] for y in g)


def mulclose(gens, maxsize):
    """Close a set of transformations under composition.

    Every element is a product of generators, so each new element is only
    composed with the generators.  Returns the sorted element list, or None
    once the closure (the generators included) exceeds ``maxsize``.
    """
    els = set(gens)
    if len(els) > maxsize:
        return None
    new = els
    while new:
        new = {compose(a, g) for a in new for g in gens} - els
        els |= new
        if len(els) > maxsize:
            return None
    return sorted(els)


def transformation_semigroup(elements):
    """Tabulate a composition-closed set of transformations."""
    index = {f: i for i, f in enumerate(elements)}
    table = [[index[compose(a, b)] for b in elements] for a in elements]
    labels = ["".join(str(v) for v in f) for f in elements]
    return FiniteSemigroup(table, labels=labels)


@dataclass
class CorpusEntry:
    degree: int
    generators: list
    elements: list
    semigroup: FiniteSemigroup


def generate_corpus(count=50, max_order=6, seed=0):
    """Deterministic corpus: same seed, same semigroups, same order."""
    count = _integer(count, InvalidInstance, "count")
    max_order = _integer(max_order, InvalidInstance, "max_order", least=1)
    rng = random.Random(seed)
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < CORPUS_MAX_ATTEMPTS:
        attempts += 1
        degree = rng.randint(2, CORPUS_MAX_DEGREE)
        gen_count = rng.randint(1, 2)
        gens = [
            tuple(rng.randrange(degree) for _ in range(degree))
            for _ in range(gen_count)
        ]
        els = mulclose(gens, maxsize=max_order)
        if els is None:
            continue
        key = (degree, tuple(els))
        if key in seen:
            continue
        seen.add(key)
        out.append(CorpusEntry(degree, gens, els, transformation_semigroup(els)))
    return out


def enumerate_endomorphisms(S, most=None):
    """All maps h: S -> S with h(a*b) = h(a)*h(b), by backtracking, as an
    (E, n) int64 array with one map per row, in lexicographic order.

    The search follows a closure order of S (Froidure & Pin): the least
    element not yet reached starts a block, and each product x*g of a
    reached element and a block start that is not yet reached joins it, its
    image forced to h(x)*h(g).  Only block starts branch, and every element
    below a block start is reached before it, so trying their images in
    increasing order lists the rows in lexicographic order.  The relations
    h(x*g) = h(x)*h(g), for every x and every block start g, are checked at
    the first position where all three elements have images.  They imply
    h(a*b) = h(a)*h(b) for all a, b: b is a product g1*...*gm of starts, so
    h(a*b) = h(a)*h(g1)*...*h(gm) = h(a)*h(b).  The reached elements of each
    block prefix are closed under products, so a prefix that breaks a
    constraint fails within its own block.  The search keeps its own stack,
    one entry per block, so no order is too deep for it.

    Every map of a left-zero band is one, so the maps found are bounded as
    the search's edge arrays are: SearchSpaceTooLarge as soon as more than
    ``most`` are found, ``most`` being at most (and by default) the count
    whose array fits EDGE_BYTES_LIMIT.
    """
    n = S.order
    cap = search.EDGE_BYTES_LIMIT // (8 * n)
    most = cap if most is None else min(_integer(most, InvalidInstance, "most", least=0), cap)
    table = S.table.tolist()
    # the closure order, and checks[p]: the relations (c, x, g), c = x*g for
    # x in S and g a block start, whose last element sits at position p; the
    # pair that forces an element needs no check
    pos = [-1] * n
    order, forced, checks, starts, gens = [], [], [], [], []
    for s in range(n):
        if pos[s] >= 0:
            continue
        first = pos[s] = len(order)
        starts.append(first)
        gens.append(s)
        order.append(s)
        forced.append((None, None))
        checks.append([])
        i = 0
        while i < len(order):  # old elements times s, new ones times every start
            x = order[i]
            for g in gens if i >= first else (s,):
                c = table[x][g]
                q = pos[c]
                if q < 0:
                    pos[c] = len(order)
                    order.append(c)
                    forced.append((x, g))
                    checks.append([])
                else:
                    checks[max(q, i, pos[g])].append((c, x, g))
            i += 1
    # one block per start, one (element, a, b, checks) step per position
    blocks = [[(order[p], *forced[p], checks[p]) for p in range(lo, hi)]
              for lo, hi in zip(starts, starts[1:] + [n])]
    depth = len(blocks)
    h = [0] * n
    tried = [0] * depth  # the next image each block's start tries
    out = []
    j = 0
    while j >= 0:
        if j == depth:
            if len(out) >= most:
                raise SearchSpaceTooLarge(
                    f"more than {most} endomorphisms of order {n}"
                    + (f" pass the {search.EDGE_BYTES_LIMIT}-byte bound" if most == cap else "")
                )
            out.append(h[:])
            j -= 1
            continue
        v = tried[j]
        if v == n:
            tried[j] = 0
            j -= 1
            continue
        tried[j] = v + 1
        # the start takes v, the block's other images are forced
        for x, a, b, step_checks in blocks[j]:
            h[x] = v if a is None else table[h[a]][h[b]]
            for c, p, q in step_checks:
                if h[c] != table[h[p]][h[q]]:
                    break
            else:
                continue
            break
        else:
            j += 1
    return np.array(out, dtype=np.int64).reshape(-1, n)


@dataclass
class CorpusFailure:
    entry_index: int
    endomorphism: tuple
    k: int
    v_point: int
    subset_mask: int


@dataclass
class CorpusReport:
    semigroups: int = 0
    endomorphisms: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def sweep_tensor_power(entries, ks=(2, 3)):
    """Check the tensor-power identity across a corpus.

    For every entry, every endomorphism h, every k and every principal V at
    v, the image of V's k-fold tensor power under (v1..vk) -> h(v1*...*vk)
    and the k-fold product power of h(V) must each agree, subset by subset,
    with its principal point, h(v^k) and h(v)^k (or VerificationError
    names the side), and a failure is a point where h(v^k) != h(v)^k.  Every
    entry's order is checked against the bound of the check before any
    endomorphism is enumerated.  Each entry's listing then takes one budget,
    the fewest maps either bound still allows: SWEEP_BYTES_LIMIT on the bytes
    the evaluator will stream (maps times ``map_chunk_bytes`` summed over
    ks), and EDGE_BYTES_LIMIT on the bytes of maps the whole sweep holds as
    (E, n) int64 rows.  SearchSpaceTooLarge, naming the bound and the count,
    comes where a listing passes it, before the first evaluator call.  The
    endomorphisms of all entries of one order are stacked, each tagged with
    its entry, and checked in one ``tensor_power_failures`` call per k, so a
    corpus of many small semigroups costs one call per order and k rather
    than per semigroup.
    Failures are listed by entry, then endomorphism, then k, then point.  An
    empty corpus, or ``ks`` empty, repeated, not integers or outside
    TENSOR_POWERS, is bad input.
    """
    if not entries:
        raise InvalidInstance("a sweep needs at least one semigroup")
    ks = tuple(_integer(k, InvalidInstance, "k") for k in ks)
    if not ks or len(set(ks)) < len(ks) or not set(ks) <= set(TENSOR_POWERS):
        raise InvalidInstance(f"ks takes distinct values from {TENSOR_POWERS}, not {ks}")
    by_order = {}
    for idx, entry in enumerate(entries):
        n = entry.semigroup.order
        if n > PRODUCT_LAW_BOUND:
            raise CarrierTooLarge(f"order {n} exceeds {PRODUCT_LAW_BOUND}")
        by_order.setdefault(n, []).append(idx)
    orders, streamed, held = [], 0, 0
    for n, idxs in sorted(by_order.items()):
        semigroups = [entries[i].semigroup for i in idxs]
        per_map = sum(map_chunk_bytes(n, k) for k in ks)
        endos = []
        for S in semigroups:
            # the maps each bound still allows, and what passing it means
            stream_most = (SWEEP_BYTES_LIMIT - streamed) // per_map
            held_most = (search.EDGE_BYTES_LIMIT - held) // (8 * n)
            most, past = min(
                (stream_most, f"streams {streamed + (stream_most + 1) * per_map} bytes or more "
                 f"through the evaluator, past the {SWEEP_BYTES_LIMIT}-byte bound"),
                (held_most, f"holds {held + (held_most + 1) * 8 * n} bytes or more of maps, "
                 f"past the {search.EDGE_BYTES_LIMIT}-byte bound"),
            )
            try:
                endos.append(enumerate_endomorphisms(S, most))
            except SearchSpaceTooLarge:
                raise SearchSpaceTooLarge(
                    f"the sweep {past}: the listing stopped past {most} endomorphisms of order {n}"
                ) from None
            streamed += len(endos[-1]) * per_map
            held += endos[-1].nbytes
        orders.append((n, idxs, semigroups, endos))
    report = CorpusReport(semigroups=len(entries))
    for n, idxs, semigroups, endos in orders:
        maps = np.concatenate(endos)
        owner = np.repeat(np.arange(len(idxs)), [len(e) for e in endos])
        report.endomorphisms += len(maps)
        # (E, len(ks), n): the first failing mask of every check, or -1
        first = np.stack(
            [tensor_power_failures(semigroups, maps, k, owner=owner) for k in ks], axis=1
        )
        report.checks += first.size
        for e, i, p in np.argwhere(first >= 0).tolist():
            report.failures.append(CorpusFailure(
                idxs[owner[e]], tuple(maps[e].tolist()), ks[i], p, int(first[e, i, p])
            ))
    report.failures.sort(key=lambda f: f.entry_index)  # stable: each entry keeps its order
    return report
