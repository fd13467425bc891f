"""Small Hales-Jewett and van der Waerden numbers by exhaustive search.

HJ(n, r) is the least N such that every r-coloring of [n]^N contains a
monochromatic combinatorial line; W(k, r) is the least M such that every
r-coloring of {1..M} contains a monochromatic k-term arithmetic
progression.  Both reduce to proper-coloring of a hypergraph (vertices =
cells or integers, edges = lines or progressions), solved by a
backtracker with forced-move propagation and lex-leader symmetry pruning.
"""
import time

from hjlab import SAT, UNSAT, hj_check, hj_number, vdw_check, vdw_number

res = hj_number(2, 2, N_max=4)
print(f"HJ(2,2) = {res.value}")
for size, run in res.runs:
    print(f"  N={size}: {run.status.upper()} after {run.nodes} nodes")

res = vdw_number(3, 2, M_max=16)
print(f"\nW(3,2) = {res.value}")
sat_sizes = [size for size, run in res.runs if run.status == SAT]
print(f"  colorable up to M={max(sat_sizes)}, first UNSAT at M={res.value}")

t0 = time.perf_counter()
assert vdw_check(4, 2, 34).status == SAT
hard = vdw_check(4, 2, 35)
assert hard.status == UNSAT
print(f"\nW(4,2) = 35  (UNSAT at M=35 took {time.perf_counter() - t0:.2f}s, "
      f"{hard.nodes} nodes)")

# symmetry pruning does the heavy lifting: compare node counts at the
# critical instance HJ(3,2), N=4
pruned = hj_check(3, 2, 4)
plain = hj_check(3, 2, 4, symmetry=False)
assert pruned.status == plain.status == UNSAT
print(f"\nHJ(3,2), N=4 is UNSAT: {pruned.nodes} nodes with symmetry pruning, "
      f"{plain.nodes} without")

res = hj_number(3, 2, N_max=4)
print(f"HJ(3,2) = {res.value}")
for size, run in res.runs:
    print(f"  N={size}: {run.status.upper()} after {run.nodes} nodes "
          f"({run.elapsed:.3f}s)")
