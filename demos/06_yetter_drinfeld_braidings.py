"""Yetter-Drinfeld modules, braidings, and braided tensor products."""

from hopfforge import (
    CycScalar, Mat, braided_tensor_algebra, braiding, check_algebra, check_yd,
    cyclic_character, group_algebra_cyclic, one_dim_module, trivial_module,
    validate_yd_datum, yd_tensor, build_quantum_line,
)
from hopfforge.fileformat import format_scalar
from hopfforge.linalg import cone, map_tensor_product
from hopfforge.yd import yd_module_adjoint

H = group_algebra_cyclic(6, conductor=6)
chi1 = cyclic_character(H, CycScalar.from_rational(-1))

Ky = one_dim_module(H, {3: cone()}, chi1)     # h.y = chi1(h) y, rho(y) = gamma^3 (x) y
print("K.y over (KC6, gamma^3, chi1):", check_yd(Ky).describe(), sep="\n")

c = braiding(Ky, Ky)
print("\nbraiding on K.y (x) K.y is multiplication by chi1(gamma^3) =",
      format_scalar(c.rows[0][0], H.conductor))
print("c^2 = id here:", (c @ c) == Mat.identity(1))

d = validate_yd_datum(H, {1: cone()}, cyclic_character(H, CycScalar.zeta(6)))
R = build_quantum_line(d)
cR = braiding(R.yd, R.yd)
print("\nbraiding on the N=6 quantum line is invertible:", cR.rank() == 36)

# hexagon: c_{V (x) W, U} = (c_{V,U} (x) id)(id (x) c_{W,U})
V, W, U = Ky, R.yd, trivial_module(H)
lhs = braiding(yd_tensor(V, W), U)
rhs = map_tensor_product(braiding(V, U), Mat.identity(W.dim)) @ \
    map_tensor_product(Mat.identity(V.dim), braiding(W, U))
print("hexagon identity:", lhs == rhs)

# the smash product is the braided tensor algebra against H with the
# adjoint action
smash = braided_tensor_algebra(R, R.yd, H, yd_module_adjoint(H))
print("\nsmash product R # H: dim", smash.dim, "- associative:",
      check_algebra(smash).ok)
