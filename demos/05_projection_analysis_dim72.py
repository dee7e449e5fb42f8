"""Full diagnosis of the dim-72 Hopf algebra with its non-normalized projection.

pi(Y^i h) = delta_{i,0} h + delta_{i,3} X h is an H-bilinear coalgebra
retraction that is not an algebra map.  The induced pre-bialgebra on the
coinvariants is thin but NOT a quantum line: its multiplication is not
colinear, the cocycle is non-trivial, and the powers of y in R and in A
diverge from degree 3 on.
"""

from hopfforge import catalog
from hopfforge.analyze import (
    classify, cocycle_analysis, equivalence_report, induced_structures,
    omega_roundtrip, retraction_tools, thinness_and_basis, validate_setup,
    wedge_layer_of_sigma,
)

entry = catalog.xmas()
setup = entry.extra["setup_pi"]

print("validate_setup:")
print(validate_setup(setup).describe())

ind = induced_structures(setup)
thin, basis, datum = thinness_and_basis(ind)
print("\ncoinvariants: dim", ind.pre.dim, "- thin:", thin,
      "- N =", basis.N, "- q =", basis.q)

yp = basis.y_powers()
print("xi(y (x) y^2) =", {k: str(v) for k, v in ind.xi.eval(yp[1], yp[2]).items()},
      " (index 6 is the skew-primitive X of B_0)")

ana = cocycle_analysis(ind, basis)
print("x != 0:", not ana.x_is_zero, "| claims about x all hold:", ana.x_claims.ok)
print("support restricted to a+b in {0, 3, 6, 9}:", ana.support_ok)
print("extracted lambda(6) =", ana.lam)

er = equivalence_report(ind, basis, ana)
print("\nequivalence items:", er.equivalences)
print("power comparison (y^n in R vs A):", er.power_comparison)

print("\nomega roundtrip rebuilds A exactly:", omega_roundtrip(setup, ind))
print("dim A_1 =", wedge_layer_of_sigma(setup).dim, "= 2 dim H")

tools = retraction_tools(setup, entry.setup)
print("transport between pi and the normalized p:", tools)

comp, ore, iso = classify(setup)
print("\nclassification: A ~ O(B_0, gamma, chi2, lambda) with lambda =", comp.lam,
      "- iso rank", iso.rank())
