"""Semigroups with retraction structure, from scratch and from files.

The running example is the flag semigroup on pairs (a, i): the first
coordinate combines by max, the second by logical or.  The flag-0 elements
form the nice subsemigroup T (their complement absorbs products), and for
every threshold g the map sigma_g(a, 1) = (max(a, g), 0) is a retraction
onto T.
"""
from hjlab import (
    FiniteSemigroup,
    RetractionFamily,
    SubsetQuery,
    flag_semigroup,
    is_nice_subsemigroup,
    validate_retraction,
)
from hjlab.errors import InvalidStructure
from hjlab.tableio import format_semigroup_file, parse_semigroup_text

S, view, family = flag_semigroup(2)
print(f"flag semigroup m=2: order {S.order}")
print("elements:", ", ".join(S.element_name(i) for i in range(S.order)))

# the checks read S from the view, so they cannot be handed a different one
res = is_nice_subsemigroup(view)
print(f"T = flag-0 elements, nice subsemigroup: {res.ok}")

for i, sigma in enumerate(family):
    check = validate_retraction(view, sigma)
    images = " ".join(S.element_name(sigma[v]) for v in view.complement())
    print(f"sigma_{i}: valid={check.ok}  images of R: {images}")

# a map that moves a T point is rejected with the violated clause
bad = validate_retraction(view, [0] * S.order)
print(f"constant map: valid={bad.ok} ({bad.describe()})")

# round-trip through the on-disk format
text = format_semigroup_file(S, view, family)
print("\nfile form:")
print(text)
parsed = parse_semigroup_text(text)
assert parsed.order == S.order and len(parsed.retractions) == len(family)
print("parsed back: order and retraction count agree")

# a subsemigroup of a group can never be nice: the complement leaks back
Z3 = FiniteSemigroup([[(a + b) % 3 for b in range(3)] for a in range(3)])
res = is_nice_subsemigroup(SubsetQuery.from_members(Z3, [0]))
print(f"\n{{0}} inside Z/3: nice={res.ok}, violated clause: {res.clause}, witness {res.witness}")

# a family is built only over a nice T: in ({0, 1}, max) the map to 1 is a
# retraction onto T = {1}, but max(1, 0) = 1 takes R = {0} back into T
M = FiniteSemigroup([[0, 1], [1, 1]])
try:
    RetractionFamily(SubsetQuery.from_members(M, [1]), [[1, 1]])
except InvalidStructure as e:
    print(f"family over T = {{1}} in ({{0, 1}}, max) refused: {e}")
else:
    raise SystemExit("a family over a non-nice T was accepted")
