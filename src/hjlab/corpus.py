"""Seeded corpus of small transformation semigroups.

Random Cayley tables are almost never associative, so test semigroups are
grown as subsemigroups of the full transformation monoid on a few points:
pick random functions, close under composition.  Associativity then holds by
construction and the validator merely re-confirms it.  The corpus feeds the
headline sweep: the fold-then-map tensor-power identity checked for every
endomorphism, every principal ultrafilter and k in {2, 3}.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import search
from .errors import CarrierTooLarge, InvalidInstance, SearchSpaceTooLarge
from .semigroups import FiniteSemigroup
from .ultra import PRODUCT_LAW_BOUND, TENSOR_POWERS, map_chunk_bytes, tensor_power_failures

# transformations act on 2..CORPUS_MAX_DEGREE points; a draw stops after
# CORPUS_MAX_ATTEMPTS generator sets even if it has fewer semigroups than asked
CORPUS_MAX_DEGREE = 4
CORPUS_MAX_ATTEMPTS = 50_000


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
    if max_order < 1:
        raise InvalidInstance(f"a corpus needs max_order >= 1, not {max_order}")
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


def enumerate_endomorphisms(S):
    """All maps h: S -> S with h(a*b) = h(a)*h(b), by backtracking, as an
    (E, n) int64 array with one map per row.

    Each product constraint is checked at the first depth where all three
    participating elements have images assigned.  Every map of a left-zero
    band is one, so the maps found are bounded as the search's edge arrays
    are: SearchSpaceTooLarge once their array would pass EDGE_BYTES_LIMIT.
    """
    n = S.order
    most = search.EDGE_BYTES_LIMIT // (8 * n)
    table = S.table.tolist()
    # pending[d]: the (a, b) pairs whose constraint becomes decidable once
    # element d receives its image
    pending = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            pending[max(a, b, table[a][b])].append((a, b))
    h = [-1] * n
    out = []

    def extend(i):
        if i == n:
            if len(out) == most:
                raise SearchSpaceTooLarge(
                    f"more than {most} endomorphisms of order {n} pass the "
                    f"{search.EDGE_BYTES_LIMIT}-byte bound"
                )
            out.append(tuple(h))
            return
        for v in range(n):
            h[i] = v
            ok = True
            for a, b in pending[i]:
                if h[table[a][b]] != table[h[a]][h[b]]:
                    ok = False
                    break
            if ok:
                extend(i + 1)
        h[i] = -1

    extend(0)
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

    For every entry, every endomorphism h, every k and every principal V the
    image of V's k-fold tensor power under (v1..vk) -> h(v1*...*vk) is
    compared, subset by subset, with the k-fold product power of h(V).  Every
    entry's order is checked against the bound of the check before any
    endomorphism is enumerated.  The endomorphisms of all entries of one
    order are then stacked, each tagged with its entry (SearchSpaceTooLarge
    once the stack would pass EDGE_BYTES_LIMIT, the bound of each entry's
    list), and checked in one ``tensor_power_failures`` call per k, so a
    corpus of many small semigroups costs one call per order and k rather
    than per semigroup.  Once every order's maps are listed, and before the
    first such call, the bytes the calls will stream (maps times
    ``map_chunk_bytes`` summed over ks) are checked against
    SWEEP_BYTES_LIMIT: SearchSpaceTooLarge above it.
    Failures are listed by entry, then endomorphism, then k, then point.  An
    empty corpus, or ``ks`` empty, repeated or outside TENSOR_POWERS, is bad input.
    """
    if not entries:
        raise InvalidInstance("a sweep needs at least one semigroup")
    if not ks or len(set(ks)) < len(ks) or not set(ks) <= set(TENSOR_POWERS):
        raise InvalidInstance(f"ks takes distinct values from {TENSOR_POWERS}, not {ks}")
    by_order = {}
    for idx, entry in enumerate(entries):
        n = entry.semigroup.order
        if n > PRODUCT_LAW_BOUND:
            raise CarrierTooLarge(f"order {n} exceeds {PRODUCT_LAW_BOUND}")
        by_order.setdefault(n, []).append(idx)
    orders, streamed = [], 0
    for n, idxs in sorted(by_order.items()):
        semigroups = [entries[i].semigroup for i in idxs]
        endos = [enumerate_endomorphisms(S) for S in semigroups]
        nbytes = sum(e.nbytes for e in endos)
        if nbytes > search.EDGE_BYTES_LIMIT:
            raise SearchSpaceTooLarge(
                f"the endomorphisms of order {n} stack to {nbytes} bytes, past the "
                f"{search.EDGE_BYTES_LIMIT}-byte bound"
            )
        streamed += sum(map(len, endos)) * sum(map_chunk_bytes(n, k) for k in ks)
        orders.append((n, idxs, semigroups, endos))
    if streamed > search.SWEEP_BYTES_LIMIT:
        raise SearchSpaceTooLarge(
            f"the sweep streams {streamed} bytes through the evaluator, past the "
            f"{search.SWEEP_BYTES_LIMIT}-byte bound"
        )
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
