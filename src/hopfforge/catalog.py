"""The worked-example catalog.

Each builder returns the fully assembled objects used over and over by the
test-suite and the command-line `example` subcommand.  Results are cached;
callers must treat them as immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .cyclotomic import CycScalar
from .hopf import group_algebra_cyclic, group_algebra_product_cyclic, cyclic_character
from .linalg import Mat, cone, zeros
from .construct import (
    CompatibleDatum, OreHopf, YDDatum, build_ore_hopf, build_quantum_line,
    validate_compatible_datum, validate_yd_datum,
)
from .cocycle import Cocycle
from .analyze import ProjectionSetup, setup_from_ore


class CatalogEntry:
    def __init__(self, name: str, description: str, ore: Optional[OreHopf],
                 setup: Optional[ProjectionSetup], extra: dict):
        self.name, self.description, self.ore, self.extra = name, description, ore, extra
        self.setup = setup                 # the canonical (A, p, sigma)


def _checked_datum(H, g, chi, lam) -> CompatibleDatum:
    d = validate_yd_datum(H, g, chi)
    if not isinstance(d, YDDatum):
        raise AssertionError("catalog datum failed validation: " + d.describe())
    c = validate_compatible_datum(d, lam)
    if not isinstance(c, CompatibleDatum):
        raise AssertionError("catalog datum not compatible: " + c.describe())
    return c


@lru_cache(maxsize=None)
def b0() -> CatalogEntry:
    """The 12-dimensional pointed Hopf algebra from (K C_6, gamma^3, chi(gamma) = -1)."""
    H = group_algebra_cyclic(6, conductor=6, generator_label="g")
    chi1 = cyclic_character(H, CycScalar.from_rational(-1))
    H.characters["chi1"] = chi1
    H.characters["chi2"] = cyclic_character(H, CycScalar.zeta(6))
    c = _checked_datum(H, {3: cone()}, chi1, CycScalar.zero())
    ore = build_ore_hopf(c)
    O = ore.O
    O.labels = [("x" if a else "") + (f"g{k}" if k else "") or "1"
                for a in range(2) for k in range(6)]
    # declare structure useful downstream: group-likes gamma^k and the two characters
    for k in range(6):
        O.group_likes[f"g{k}" if k else "1"] = {k: cone()}
    q = CycScalar.zeta(6)
    chi2 = zeros(12)
    for k in range(6):
        chi2[k] = q ** k
    O.characters["chi2"] = chi2
    return CatalogEntry("b0", "dim-12 Hopf algebra, the base of the dim-72 example",
                        ore, setup_from_ore(ore), {"H": H, "chi1": chi1})


@lru_cache(maxsize=None)
def xmas() -> CatalogEntry:
    """The 72-dimensional Hopf algebra with its non-normalized projection."""
    base = b0()
    H2 = base.ore.O
    q = CycScalar.zeta(6)
    chi2 = H2.characters["chi2"]
    c = _checked_datum(H2, {1: cone()}, chi2, CycScalar.zero())
    ore = build_ore_hopf(c, verify=False)
    A = ore.O
    # pi(Y^i h) = delta_{i,0} h + delta_{i,3} X h, X the skew-primitive of the base
    x_idx = 6
    pi_cols = [{} for _ in range(72)]
    for j in range(12):
        pi_cols[j] = {j: cone()}
        pi_cols[36 + j] = H2.mul_sv({x_idx: cone()}, {j: cone()})
    pi = Mat.of_cols(12, pi_cols)
    setup_pi = ProjectionSetup(A, H2, ore.sigma, pi)
    return CatalogEntry("xmas", "dim-72 Hopf algebra with a non-normalized projection",
                        ore, setup_from_ore(ore),
                        {"setup_pi": setup_pi, "pi": pi, "q": q,
                         "X_in_A": ore.sigma.cols[x_idx]})


@lru_cache(maxsize=None)
def c4min() -> CatalogEntry:
    """dim-8: the minimal quantum-line bosonization that is not Radford-Majid."""
    H = group_algebra_cyclic(4, conductor=1, generator_label="g")
    chi = cyclic_character(H, CycScalar.from_rational(-1))
    H.characters["chi"] = chi
    c = _checked_datum(H, {1: cone()}, chi, CycScalar.one())
    ore = build_ore_hopf(c)
    return CatalogEntry("c4min", "dim-8 non-trivial bosonization over K C_4",
                        ore, setup_from_ore(ore), {"H": H, "chi": chi})


@lru_cache(maxsize=None)
def qline6() -> CatalogEntry:
    """The N = 6 quantum line over K C_6 (as a pre-bialgebra with trivial cocycle)."""
    H = group_algebra_cyclic(6, conductor=6, generator_label="g")
    chi = cyclic_character(H, CycScalar.zeta(6))
    H.characters["chi"] = chi
    d = validate_yd_datum(H, {1: cone()}, chi)
    if not isinstance(d, YDDatum):
        raise AssertionError("quantum-line datum failed validation")
    ql = build_quantum_line(d)
    return CatalogEntry("qline6", "N=6 quantum line over K C_6",
                        None, None, {"H": H, "quantum_line": ql, "datum": d,
                                     "xi": Cocycle.trivial(ql)})


@lru_cache(maxsize=None)
def smash36() -> CatalogEntry:
    """dim-36 Radford-Majid smash of the N=6 quantum line with K C_6."""
    entry = qline6()
    d = entry.extra["datum"]
    c = validate_compatible_datum(d, CycScalar.zero())
    ore = build_ore_hopf(c)
    return CatalogEntry("smash36", "dim-36 Radford-Majid bosonization",
                        ore, setup_from_ore(ore), {})


@lru_cache(maxsize=None)
def kc12n6() -> CatalogEntry:
    """dim-72 derived instance over K C_12: N = 6 with non-trivial lambda = 1."""
    H = group_algebra_cyclic(12, conductor=12, generator_label="g")
    chi = cyclic_character(H, CycScalar.zeta(6).promote(12))
    H.characters["chi"] = chi
    c = _checked_datum(H, {1: cone()}, chi, CycScalar.one())
    ore = build_ore_hopf(c, verify=False)
    return CatalogEntry("kc12n6", "dim-72 instance with lambda = 1 over K C_12",
                        ore, setup_from_ore(ore), {"H": H, "chi": chi})


@lru_cache(maxsize=None)
def nonthin_control() -> CatalogEntry:
    """Negative control: coinvariants of K[C_2 x C_4] over K C_2 are not thin."""
    A = group_algebra_product_cyclic([2, 4])
    H = group_algebra_cyclic(2)
    # sigma: h -> h (x) 1 on the first factor; pi = id (x) eps
    sigma = Mat.of_cols(8, [{0: cone()}, {4: cone()}])
    pi = Mat.of_cols(2, [{a: cone()} for a in range(2) for _ in range(4)])
    setup = ProjectionSetup(A, H, sigma, pi)
    return CatalogEntry("nonthin", "group-algebra setup whose coinvariants are K C_4",
                        None, setup, {"A": A, "H": H})


EXAMPLES = {
    "b0": b0,
    "xmas": xmas,
    "c4min": c4min,
    "qline6": qline6,
    "smash36": smash36,
}

ALL_BUILDERS = dict(EXAMPLES, kc12n6=kc12n6, nonthin=nonthin_control)

