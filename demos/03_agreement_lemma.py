"""Agreement sets, the finite intersection property, and the equivalence
between coloring witnesses and agreement ultrafilters.

For a subset A of T, the agreement set X_A collects the points of R whose
retraction images land inside A together or miss A together.  The family
{X_A : A subset of T} has the finite intersection property exactly when
some point of R has all its images equal, and the points in every X_A are
exactly those - on the flag semigroup, the top flagged element (m, 1).
"""
from hjlab import (
    SubsetQuery,
    build_agreement_set,
    check_agreement_equivalence,
    check_fip,
    find_agreement_ultrafilter,
    flag_semigroup,
)

S, view, family = flag_semigroup(2)
names = [S.element_name(i) for i in range(S.order)]
print("carrier:", ", ".join(names))

for members in ([4], [0, 2], [0]):
    A = SubsetQuery.from_members(S, members)
    X = build_agreement_set(S, family, A)
    print(f"A = {{{', '.join(S.element_name(i) for i in members)}}}  ->  "
          f"X_A = {{{', '.join(S.element_name(i) for i in X.members())}}}")

t_members = view.members()
sets = []
for amask in range(1 << len(t_members)):
    chosen = [t for i, t in enumerate(t_members) if (amask >> i) & 1]
    sets.append(build_agreement_set(S, family, SubsetQuery.from_members(S, chosen)))
fip = check_fip(sets)
print(f"\nFIP over all {len(sets)} agreement sets: {fip.ok} "
      f"({fip.subfamilies_checked} subfamilies intersected)")

# every point of T agrees trivially, so the search runs over R only
U = find_agreement_ultrafilter(S, family)
print(f"agreement point in R: {S.element_name(U.point)}")

print()
for m in (1, 2, 3):
    S, view, family = flag_semigroup(m)
    for r in (2, 3):
        rep = check_agreement_equivalence(S, family, r)
        print(
            f"flags m={m}, r={r}: (a) every coloring has a witness: {rep.a_holds}"
            f"  (b) agreement point in R: {rep.b_holds}"
            f"  [{rep.colorings_checked} colorings checked]"
        )
