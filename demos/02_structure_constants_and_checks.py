"""Structure-constant Hopf algebras and exhaustive axiom checking.

Group algebras come with their antipode and declared group-likes, and the
integral of H* is decided from H by one linear solve; every axiom is
verified over all basis tuples and failures are reported with witnesses.
"""

from hopfforge import (
    CycScalar, Mat, check_hopf, compute_antipode, convolution, cyclic_character,
    group_algebra_cyclic, integral, primitives, verify_ad_integral,
    verify_character, verify_group_like,
)
from hopfforge.hopf import unit_counit_map
from hopfforge.linalg import basis_vec, cone

H = group_algebra_cyclic(6, conductor=6)
print("K C_6:", check_hopf(H).describe(), sep="\n")

S = compute_antipode(H)
print("\nantipode solved linearly matches the stored inverse-permutation:",
      S == H.antipode)
print("S * id = u eps in the convolution algebra:",
      convolution(S, Mat.identity(6), H, H) == unit_counit_map(H))

chi = cyclic_character(H, CycScalar.zeta(6))
print("\nchi(gamma) = zeta_6 defines a character:", verify_character(H, chi))
print("gamma^3 is group-like:", verify_group_like(H, {3: cone()}))
print("primitives of a group algebra are trivial:", primitives(H).dim == 0)

gamma = integral(H)
print("dual basis at the identity is an ad-invariant integral:",
      gamma == basis_vec(6, 0) and verify_ad_integral(H, gamma))
print("the counit is not (fails the first condition):",
      verify_ad_integral(group_algebra_cyclic(2), [CycScalar.one(), CycScalar.one()]))
