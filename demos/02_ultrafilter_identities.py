"""Ultrafilter algebra on finite carriers, computed by the defining formulas.

Every ultrafilter on a finite set is principal, so each operation could be
a one-line shortcut.  The point of the module is that it never trusts it:
images, products, and tensors evaluate their membership formulas once on
every subset and must agree with the shortcut there, turning the algebraic
identities into machine-checkable facts.
"""
from hjlab import (
    PrincipalUltrafilter,
    SubsetQuery,
    check_tensor_assoc,
    cyclic_semigroup,
    flag_semigroup,
    generate_corpus,
    image,
    member,
    sweep_tensor_power,
    tensor_power_failures,
    uf_product,
    uf_tensor,
)

Z6 = cyclic_semigroup(6)
U = PrincipalUltrafilter(Z6, 4)
A = SubsetQuery.from_members(Z6, [0, 2, 4])
print(f"U = principal at 4 on Z/6; A = {A.members()}; A in U: {member(U, A)}")

# image under the reduction Z6 -> Z3
Z3 = cyclic_semigroup(3)
f = [x % 3 for x in range(6)]
fU = image(f, U, Z3)
print(f"f(U) for f = mod 3: principal at {fU.point}")
print("  law checked on all 2^3 subsets")

# product by the nested formula: A in U*V iff {s : s^-1 A in V} in U
V = PrincipalUltrafilter(Z6, 5)
UV = uf_product(U, V)
print(f"U*V on Z/6: principal at {UV.point} (4 + 5 = {(4 + 5) % 6})")
print("  law checked on all 2^6 subsets")

# tensor product lives on the product carrier
W = uf_tensor(fU, PrincipalUltrafilter(Z3, 2))
print(f"f(U) (x) 2: principal at flat index {W.point} on 3x3 cells")
print("  law checked on all 2^9 subsets")

check_tensor_assoc((2, 2, 4), (1, 0, 3))  # a failing law raises VerificationError
print("tensor associativity, 16 cells exhaustive: holds")

# the headline identity: pushing V^(x)k through fold-then-retract equals
# the k-fold product of the pushed-forward V
S, view, family = flag_semigroup(2)
sigma = list(family)[1]
for k in (2, 3):
    [agree] = tensor_power_failures(S, [sigma], k) < 0
    print(f"tensor-power identity on flags, k={k}: {agree.sum()}/{S.order} points")

# and across a seeded corpus of transformation semigroups
entries = generate_corpus(count=25, max_order=6, seed=0)
report = sweep_tensor_power(entries, ks=(2, 3))
print(
    f"corpus sweep: {report.semigroups} semigroups, {report.endomorphisms} "
    f"homomorphisms, {report.checks} checks, {len(report.failures)} failures"
)
