"""The Ore-extension tower: K C_6 -> B_0 (dim 12) -> A (dim 72).

Each step adjoins a skew-primitive generator to a compatible datum
(H, g, chi, lambda(N)) and lands on the normal-form basis {y^i h_j}.
"""

from hopfforge import (
    CycScalar, build_ore_hopf, check_hopf, cyclic_character, group_algebra_cyclic,
    iterated_datum_check, validate_compatible_datum, validate_yd_datum,
)
from hopfforge.linalg import cone, sv_add_into, sv_scale, zeros

zero = CycScalar.zero()
H1 = group_algebra_cyclic(6, conductor=6)
chi1 = cyclic_character(H1, CycScalar.from_rational(-1))
d1 = validate_yd_datum(H1, {3: cone()}, chi1)
print("datum over K C_6: q =", d1.q, " N =", d1.order())
b0 = build_ore_hopf(validate_compatible_datum(d1, zero))
print("B_0 = O(KC6, gamma^3, chi1, 0): dim", b0.dim, "- Hopf:", check_hopf(b0.O).ok)

# the one-step iteration criterion decides which data extend to B_0
q = CycScalar.zeta(6)
chi2 = zeros(12)
for k in range(6):
    chi2[k] = q ** k
rep = iterated_datum_check(b0, {1: cone()}, chi2, zero)
print("\niteration criterion for (B_0, gamma, chi2, 0):")
print(rep.describe())

d2 = validate_yd_datum(b0.O, {1: cone()}, chi2)
A = build_ore_hopf(validate_compatible_datum(d2, zero), verify=False)
print("\nA = O(B_0, gamma, chi2, 0): dim", A.dim)
O = A.O
Y = A.y_vec
G = A.gamma_vec
X = A.sigma.cols[6]
print("Y^6 = 0:", O.pow_sv(Y, 6) == {})
print("Gamma Y = q Y Gamma:", O.mul_sv(G, Y) == sv_scale(O.mul_sv(Y, G), q))
anti = dict(O.mul_sv(X, Y))
sv_add_into(anti, O.mul_sv(Y, X))
print("XY = -YX:", anti == {})
print("full Hopf check at dim 72:", check_hopf(O).ok)
