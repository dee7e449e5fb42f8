"""Full diagnosis of the dim-72 Hopf algebra with its non-normalized projection.

pi(Y^i h) = delta_{i,0} h + delta_{i,3} X h is an H-bilinear coalgebra
retraction that is not an algebra map.  The induced pre-bialgebra on the
coinvariants is thin but NOT a quantum line: its multiplication is not
colinear, the cocycle is non-trivial, and the powers of y in R and in A
diverge from degree 3 on.
"""

from hopfforge import catalog
from hopfforge.analyze import Analysis, retraction_tools
from hopfforge.fileformat import format_scalar

entry = catalog.xmas()
setup = entry.extra["setup_pi"]
an = Analysis(setup)
conductor = setup.H.conductor

print("validate_setup:")
print(an.validation.describe())

ind, basis = an.induced, an.basis
print("\ncoinvariants: dim", ind.pre.dim, "- thin:", basis is not None,
      "- N =", basis.N, "- q =", format_scalar(basis.q, conductor))

yp = basis.y_powers()
xi_12 = ind.xi.eval(yp[1], yp[2])
print("xi(y (x) y^2) =", {k: format_scalar(v, conductor) for k, v in xi_12.items()},
      " (index 6 is the skew-primitive X of B_0)")

ana = an.cocycle
print("x != 0:", not ana.x_is_zero, "| claims about x all hold:", ana.x_claims.ok)
print("support restricted to a+b in {0, 3, 6, 9}:", ana.support_ok)
print("extracted lambda(6) =", format_scalar(ana.lam, conductor))

er = an.equivalences
print("\nequivalence items:", er.equivalences)
print("power comparison (y^n in R vs A):", er.power_comparison)

print("\nomega roundtrip rebuilds A exactly:", an.roundtrip)
print("dim A_1 =", an.A1.dim, "= 2 dim H")

tools = retraction_tools(setup, entry.setup)
print("transport between pi and the normalized p:", tools)

comp, ore, iso = an.classification
print("\nclassification: A ~ O(B_0, gamma, chi2, lambda) with lambda =",
      format_scalar(comp.lam, conductor), "- iso rank", iso.rank())
