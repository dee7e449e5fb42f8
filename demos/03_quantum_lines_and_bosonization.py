"""Quantum lines, cocycles, and deformed bosonizations.

The N = 2 quantum line over K C_4 admits the non-trivial cocycle
xi(y (x) y) = 1 - g^2; its bosonization is the smallest quantum-line
bosonization that is not a Radford-Majid smash product.
"""

from hopfforge import (
    Cocycle, CycScalar, Tensor3, bosonize, build_quantum_line, check_cocycle,
    check_prebialgebra, cyclic_character, group_algebra_cyclic, is_radford_majid,
    retraction_diagnostics, validate_yd_datum,
)
from hopfforge.fileformat import format_scalar
from hopfforge.linalg import cone, kron_index

minus_one = CycScalar.from_rational(-1)
H = group_algebra_cyclic(4)
chi = cyclic_character(H, minus_one)
d = validate_yd_datum(H, {1: cone()}, chi)
R = build_quantum_line(d)
print("quantum line R_q(KC4, g, chi), N =", R.N)
print(check_prebialgebra(R).describe())

xi_t = Tensor3((2, 2, 4))
xi_t[(0, 0, 0)] = cone()
xi_t[(1, 1, 0)] = cone()
xi_t[(1, 1, 2)] = minus_one          # xi(y (x) y) = 1 - g^2
xi = Cocycle(xi_t)
print("\nnon-trivial cocycle passes all six relations:", check_cocycle(R, xi).ok)

bos = bosonize(R, xi)
print("bosonization dim:", bos.B.dim)
y1 = {kron_index(1, 0, 4): cone()}
print("(y # 1)^2 =", {k: format_scalar(v, H.conductor) for k, v in bos.B.mul_sv(y1, y1).items()},
      " (the class of 1 # (1 - g^2))")
print("Radford-Majid?", is_radford_majid(xi, R))
diag = retraction_diagnostics(bos.B, bos.pi, bos.sigma, H)
print("canonical pi:", diag, "- multiplicativity fails exactly because xi != eps (x) eps")

# with the trivial cocycle the construction degenerates to the smash product
bos0 = bosonize(R, Cocycle.trivial(R))
diag0 = retraction_diagnostics(bos0.B, bos0.pi, bos0.sigma, H)
print("\ntrivial cocycle:", diag0)
