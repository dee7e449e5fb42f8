import gc
import importlib.util
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import lcm
from pathlib import Path

import pytest

from hopfforge import catalog, cyclotomic, hopf
from hopfforge.cyclotomic import CycScalar
from hopfforge.hopf import (
    CoalgebraSC, HopfSC, check_algebra, check_bialgebra, check_hopf, compute_antipode,
    convolution, cyclic_character, char_convolve, char_convpow, char_powers, filtration_from,
    group_algebra_cyclic, integral, kaplansky_check,
    phi_power, psi_power, primitives, skew_primitives, unit_counit_map,
    verify_ad_integral, verify_character, verify_group_like, wedge,
)
from hopfforge.linalg import (
    Mat, Subspace, Tensor3, basis_vec, cone, czero, echelon, image, kernel, preimage, sv_add_into,
    sv_scale, sv_to_dense, zeros,
)
from hopfforge.reports import MAX_WITNESSES, CheckReport


def rat(x):
    return CycScalar.from_rational(x)


@pytest.fixture(scope="module")
def kc6():
    return group_algebra_cyclic(6, conductor=6)


def test_group_algebra_passes_all_checks(kc6):
    assert check_hopf(kc6).ok


def test_broken_multiplication_is_witnessed(kc6):
    mult = Tensor3((6, 6, 6), dict(kc6.mult.data))
    mult[(1, 1, 2)] = rat(0)  # delete g.g
    broken = HopfSC(6, mult, kc6.unit, kc6.comult, kc6.counit, kc6.antipode)
    rep = check_algebra(broken)
    assert not rep.ok
    ent = rep.entry("associativity")
    # both orders vanish at (g, g, g), so the first honest witness is (g, g, g^2)
    assert not ent.ok and (1, 1, 2) in ent.witnesses
    assert all(w[:2] == (1, 1) or w[0] == 1 for w in ent.witnesses)


def test_b0_all_hopf_checks(b0_entry):
    assert check_hopf(b0_entry.ore.O).ok
    assert b0_entry.ore.dim == 12


def test_convolution_unit_and_antipode(kc6):
    ue = unit_counit_map(kc6)
    assert convolution(kc6.antipode, Mat.identity(6), kc6, kc6) == ue
    assert convolution(Mat.identity(6), kc6.antipode, kc6, kc6) == ue
    assert convolution(ue, kc6.antipode, kc6, kc6) == kc6.antipode


def test_character_convolution_square(kc6):
    chi1 = cyclic_character(kc6, rat(-1))
    sq = char_convolve(kc6, chi1, chi1)
    assert all(c.is_one() for c in sq)  # gamma -> 1


def test_char_powers_match_repeated_convolution():
    # every declared character of every Hopf structure in the catalog: the
    # list of powers is the counit convolved with chi again and again
    checked = set()
    for name, build in sorted(catalog.ALL_BUILDERS.items()):
        entry = build()
        structures = [entry.ore.base, entry.ore.O] if entry.ore else []
        structures += [v for v in entry.extra.values() if isinstance(v, HopfSC)]
        for H in structures:
            for chi_name, chi in H.characters.items():
                powers = char_powers(H, chi, 13)
                expect = list(H.counit)
                assert len(powers) == 13
                for n, power in enumerate(powers):
                    assert power == expect, (name, chi_name, n)
                    assert char_convpow(H, chi, n) == expect
                    expect = char_convolve(H, expect, chi)
                assert char_powers(H, chi, 4) == powers[:4]
                assert char_powers(H, chi, 0) == []
                checked.add(name)
    assert checked == {"b0", "xmas", "c4min", "qline6", "smash36", "kc12n6"}


def test_compute_antipode_group_algebra(kc6):
    S = compute_antipode(kc6)
    assert S == kc6.antipode
    for k in range(6):
        assert S.apply_sv({k: cone()}) == {(6 - k) % 6: cone()}


def test_compute_antipode_matches_stored_iff_hopf(b0_entry, c4min_entry):
    for entry in (b0_entry, c4min_entry):
        O = entry.ore.O
        assert check_hopf(O).ok
        assert compute_antipode(O) == O.antipode


def test_antipode_b0_on_x(b0_entry):
    O = b0_entry.ore.O
    x = O.antipode_sv({6: cone()})
    gam3 = O.pow_sv({1: cone()}, 3)
    expect = O.mul_sv(gam3, {6: rat(-1)})
    assert x == expect  # S(x) = -gamma^-3 x = -gamma^3 x


def test_group_like_and_character_verification(kc6, b0_entry):
    assert verify_group_like(kc6, {3: cone()})
    O = b0_entry.ore.O
    assert not verify_group_like(O, {6: cone()})  # x is skew-primitive, not group-like
    chi2 = O.characters["chi2"]
    assert verify_character(O, chi2)
    bad = list(chi2)
    bad[6] = cone()
    assert not verify_character(O, bad)


def test_phi_psi(kc6, b0_entry):
    eps_only = phi_power(kc6, kc6.counit, 3)
    assert eps_only == Mat.identity(6)
    chi2 = cyclic_character(kc6, CycScalar.zeta(6))
    phi = phi_power(kc6, chi2, 1)
    assert phi.apply_sv({1: cone()}) == {1: CycScalar.zeta(6)}
    # phi and psi commute on test algebras
    O = b0_entry.ore.O
    chiO = O.characters["chi2"]
    for a in range(1, 4):
        for b in range(1, 4):
            assert phi_power(O, chiO, a) @ psi_power(O, chiO, b) == \
                psi_power(O, chiO, b) @ phi_power(O, chiO, a)


def test_phi_on_extension_generator(b0_entry):
    # the hit action scales the adjoined generator by chi2(Gamma1)
    O = b0_entry.ore.O
    chi2 = O.characters["chi2"]
    y1 = b0_entry.ore.y_vec
    phi = phi_power(O, chi2, 1)
    q3 = CycScalar.zeta(6) ** 3
    assert phi.apply_sv(y1) == sv_scale(y1, q3)


def test_ad_integral_group_algebra(kc6):
    gamma = integral(kc6)
    assert gamma == basis_vec(6, 0)
    assert verify_ad_integral(kc6, gamma)
    # counit is not an ad-invariant integral on KC2
    kc2 = group_algebra_cyclic(2)
    assert not verify_ad_integral(kc2, [rat(1), rat(1)])
    # gamma(1) = 1 required
    bad = zeros(6)
    assert not verify_ad_integral(kc6, bad)


def catalog_hopf_structures() -> list[tuple[str, HopfSC]]:
    """Each Hopf structure of the catalog once: every base, every Ore
    extension and the Hopf algebras of the non-thin control."""
    out, seen = [], set()
    for name, build in sorted(catalog.ALL_BUILDERS.items()):
        entry = build()
        structures = [entry.ore.base, entry.ore.O] if entry.ore else []
        structures += [v for v in entry.extra.values() if isinstance(v, HopfSC)]
        for k, H in enumerate(structures):
            if id(H) not in seen:
                seen.add(id(H))
                out.append((f"{name}[{k}]", H))
    return out


def integral_equations(H: HopfSC) -> Mat:
    """lambda -> ((id (x) lambda)Delta(e_h) - lambda(e_h) 1)_h as an n^2 x n
    matrix, column j the image of the dual basis functional at e_j."""
    n = H.dim
    cols = [{} for _ in range(n)]
    for h in range(n):
        for (i, j), c in H.comult_basis(h).items():
            sv_add_into(cols[j], {h * n + i: c})
        sv_add_into(cols[h], {h * n + i: -u for i, u in H.unit_sv().items()})
    return Mat.of_cols(n * n, cols)


def test_integral_on_the_catalog():
    structures = catalog_hopf_structures()
    assert len(structures) == 11
    decided = []
    for name, H in structures:
        line = kernel(integral_equations(H))
        assert line.dim == 1, name              # Larson-Sweedler: one line of integrals
        S = H.antipode
        involutive = S @ S == Mat.identity(H.dim)
        gamma = integral(H)
        assert (gamma is not None) == involutive, name
        decided.append(gamma is not None)
        if gamma is None:
            (row,) = line.pivot_rows.values()
            assert not sum((H.unit[k] * c for k, c in row.items()), czero())
            continue
        assert not line.reduce({k: c for k, c in enumerate(gamma) if c}), name
        assert verify_ad_integral(H, gamma), name
        if all(verify_group_like(H, {i: cone()}) for i in range(H.dim)):
            # a group algebra: delta at the identity
            assert gamma == H.unit, name
    # the four group-algebra bases and the non-thin control's two group
    # algebras are cosemisimple; b0's extension (xmas's base) is not
    assert decided.count(True) == 6


def s3_dual() -> HopfSC:
    """K^{S_3} in the delta basis: delta_a delta_b = [a = b] delta_a, 1 = the
    sum of all delta_g, Delta(delta_g) = sum over ab = g of delta_a (x) delta_b."""
    from itertools import permutations
    G = list(permutations(range(3)))
    index = {g: k for k, g in enumerate(G)}
    n = len(G)
    mult = Tensor3((n, n, n), {(a, a, a): cone() for a in range(n)})
    comult = Tensor3((n, n, n))
    for a, ga in enumerate(G):
        for b, gb in enumerate(G):
            comult[(index[tuple(ga[i] for i in gb)], a, b)] = cone()
    inverse = [index[tuple(sorted(range(3), key=g.__getitem__))] for g in G]
    S = Mat.of_cols(n, [{inverse[a]: cone()} for a in range(n)])
    return HopfSC(n, mult, [cone()] * n, comult, basis_vec(n, 0), S)


def test_integral_of_a_dual_group_algebra():
    from hopfforge.analyze import setup_from_ore
    from hopfforge.construct import build_ore_hopf, validate_compatible_datum, validate_yd_datum
    H = s3_dual()
    assert check_hopf(H).ok
    assert not any(verify_group_like(H, {i: cone()}) for i in range(H.dim))
    gamma = integral(H)
    assert gamma is not None and verify_ad_integral(H, gamma)
    assert gamma == [rat(Fraction(1, 6))] * 6
    # a setup over K^{S_3} decides the same integral: the sign character is
    # group-like, and the counit is the character that gives a YD datum
    sign = {k: rat(1 if k in (0, 3, 4) else -1) for k in range(6)}
    assert verify_group_like(H, sign)
    d = validate_yd_datum(H, sign, list(H.counit))
    setup = setup_from_ore(build_ore_hopf(validate_compatible_datum(d, rat(0))))
    assert setup.integral == gamma


def test_b0_has_no_ad_integral_at_dual_basis(b0_entry):
    # the delta-at-identity functional fails the invariance conditions on B0
    O = b0_entry.ore.O
    gamma = zeros(12)
    gamma[0] = cone()
    assert not verify_ad_integral(O, gamma)


def test_kaplansky_equivalence(b0_entry, c4min_entry):
    # dim-8: z = 1 - g^2 with n = N = 2
    O8 = c4min_entry.ore.O
    H8 = c4min_entry.ore.base
    chi8 = c4min_entry.extra["chi"]
    z = {0: cone()}
    sv_add_into(z, H8.pow_sv({1: cone()}, 2), rat(-1))
    ad, comm = kaplansky_check(H8, chi8, z, 2)
    assert ad and comm
    # dim-12: z = x with chi2 and n = 3 (the half-power ad-equivariance)
    O = b0_entry.ore.O
    chi2 = O.characters["chi2"]
    x = {6: cone()}
    ad, comm = kaplansky_check(O, chi2, x, 3)
    assert ad and comm
    # and a failing pair still yields matching verdicts
    ad2, comm2 = kaplansky_check(O, chi2, {1: cone()}, 1)
    assert ad2 == comm2 == False


def test_kaplansky_equivalence_dim72(xmas_entry):
    # inside the 72-dimensional algebra: the lift of the base character and
    # z = sigma(x); both sides of the equivalence must agree for every n
    A = xmas_entry.ore.O
    q = CycScalar.zeta(6)
    chi_hat = zeros(72)
    for k in range(6):
        chi_hat[k] = q ** k     # basis (0, gamma^k); zero on X- and Y-lines
    assert verify_character(A, chi_hat)
    z = xmas_entry.extra["X_in_A"]
    for n in (1, 2, 3, 4):
        ad, comm = kaplansky_check(A, chi_hat, z, n)
        assert ad == comm, n
    # n = 3 is the one that holds: X is ad-equivariant for chi^3
    ad3, comm3 = kaplansky_check(A, chi_hat, z, 3)
    assert ad3 and comm3


def test_primitives_and_skew_primitives(kc6, b0_entry, qline6_entry):
    assert primitives(kc6).dim == 0
    O = b0_entry.ore.O
    sk = skew_primitives(O, {3: cone()}, {0: cone()}, bial=O)
    assert not sk.reduce({6: cone()})  # x is (gamma^3, 1)-skew-primitive
    ql = qline6_entry.extra["quantum_line"]
    P = skew_primitives(ql, ql.unit_sv(), ql.unit_sv())
    assert P.dim == 1 and not P.reduce({1: cone()})


def test_wedge_and_filtration(kc6, qline6_entry):
    full = Subspace.full(6)
    assert wedge(kc6, full, full) == full
    ql = qline6_entry.extra["quantum_line"]
    layers, exhausts = filtration_from(ql, Subspace(6, [list(ql.unit)]))
    assert [l.dim for l in layers] == [1, 2, 3, 4, 5, 6] and exhausts
    # strictly increasing until stationary
    dims = [l.dim for l in layers]
    assert all(a < b for a, b in zip(dims, dims[1:]))
    # group algebra from K1 never grows (not connected)
    layers2, exhausts2 = filtration_from(kc6, Subspace(6, [basis_vec(6, 0)]))
    assert [l.dim for l in layers2] == [1] and not exhausts2


def test_filtration_72(xmas_entry):
    A = xmas_entry.ore.O
    sigmaH = image(xmas_entry.ore.sigma)
    layers, exhausts = filtration_from(A, sigmaH)
    assert [l.dim for l in layers] == [12, 24, 36, 48, 60, 72]
    assert exhausts


def test_filtration_of_a_long_connected_coalgebra():
    """The divided-power coalgebra over Q of dim 66, Delta d_n = sum_t d_t (x)
    d_{n-t} and eps = e_0^*: its filtration from K d_0 has 66 layers, one per
    degree, and exhausts the carrier."""
    n = 66
    comult = Tensor3((n, n, n), {(k, t, k - t): cone() for k in range(n) for t in range(k + 1)})
    C = CoalgebraSC(n, comult, basis_vec(n, 0))
    layers, exhausts = filtration_from(C, Subspace(n, [basis_vec(n, 0)]))
    assert [l.dim for l in layers] == list(range(1, n + 1)) and exhausts


def test_wedge_matches_preimage_oracle(kc6, qline6_entry, b0_entry):
    """wedge(C, U, W) = Delta^{-1}(U (x) C + C (x) W), the preimage under the
    dense n^2 x n matrix of Delta of a subspace spanned by Kronecker rows, for
    random U and W whose echelon rows carry zeta entries off their pivots."""
    rng = random.Random(41)
    z = CycScalar.zeta(6)
    entries = [rat(0), rat(0), rat(0), rat(1), rat(-2), z, -z, z * z]
    for C in (kc6, qline6_entry.extra["quantum_line"], b0_entry.ore.O):
        n = C.dim
        D = Mat.zero(n * n, n)
        for k in range(n):
            for (i, j), c in C.comult_basis(k).items():
                D.rows[i * n + j][k] = c
        e = [basis_vec(n, i) for i in range(n)]
        for _ in range(4):
            U, W = (Subspace(n, [basis_vec(n, 0)] + [[rng.choice(entries) for _ in range(n)]
                                                     for _ in range(rng.randrange(1, n - 1))])
                    for _ in range(2))
            assert any(not c.is_rational() for S in (U, W) for p, r in S.pivot_rows.items()
                       for j, c in r.items() if j != p)
            u_rows, w_rows = ([sv_to_dense(r, n) for r in S.pivot_rows.values()] for S in (U, W))
            pairs = [(u, ej) for u in u_rows for ej in e] + [(ei, w) for ei in e for w in w_rows]
            UCW = Subspace(n * n, [[x * y for x in a for y in b] for a, b in pairs])
            assert wedge(C, U, W) == preimage(D, UCW)


def test_bialgebra_fail_on_tampered_comult(kc6):
    comult = Tensor3((6, 6, 6), dict(kc6.comult.data))
    comult[(1, 1, 1)] = rat(0)
    comult[(1, 1, 2)] = rat(1)
    broken = HopfSC(6, kc6.mult, kc6.unit, comult, kc6.counit, kc6.antipode)
    assert not check_bialgebra(broken).ok


def test_error_types(kc6):
    from hopfforge.hopf import HopfSC, NotABialgebra, NotGroupLike
    # antipode solving refuses structures that are not bialgebras
    comult = Tensor3((6, 6, 6), dict(kc6.comult.data))
    comult[(1, 1, 1)] = rat(0)
    comult[(1, 1, 2)] = rat(1)
    broken = HopfSC(6, kc6.mult, kc6.unit, comult, kc6.counit, None)
    with pytest.raises(NotABialgebra):
        compute_antipode(broken)
    # skew primitives demand group-like reference vectors when gated
    with pytest.raises(NotGroupLike):
        skew_primitives(kc6, {i: rat(1) for i in range(6)}, {0: cone()}, bial=kc6)
    # the dense antipode solve is capped
    with pytest.raises(ValueError):
        compute_antipode(group_algebra_cyclic(30))


# -- the contracted checkers against the per-tuple formulation -----------------

def oracle_failures(A, limit=None):
    """Every (i, j, k) where associativity fails, or the first `limit` of them,
    both sides formed by mul_sv on unit vectors."""
    n = A.dim
    failing = ((i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if A.mul_sv(A.mul_basis(i, j), {k: cone()}) != A.mul_sv({i: cone()}, A.mul_basis(j, k)))
    return list(islice(failing, limit))


def oracle_associativity(A):
    """(ok, first 8 witnesses)."""
    failures = oracle_failures(A)
    return not failures, failures[:8]


def oracle_pair_product(B, da, db):
    """Delta(a) Delta(b) in B (x) B, product by product."""
    out = {}
    for (a1, a2), ca in da.items():
        for (b1, b2), cb in db.items():
            c = ca * cb
            left = B.mul_basis(a1, b1)
            if not left:
                continue
            right = B.mul_basis(a2, b2)
            if not right:
                continue
            for x, cx in left.items():
                for y, cy in right.items():
                    cur = out.get((x, y))
                    new = cx * c * cy if cur is None else cur + cx * c * cy
                    if new:
                        out[(x, y)] = new
                    elif cur is not None:
                        del out[(x, y)]
    return out


def comult_failures(B):
    """Every (i, j) with Delta(e_i e_j) != Delta(e_i) Delta(e_j), product by product."""
    return [(i, j) for i in range(B.dim) for j in range(B.dim)
            if B.comult_sv(B.mul_basis(i, j))
            != oracle_pair_product(B, B.comult_basis(i), B.comult_basis(j))]


def oracle_comult_is_algebra_map(B):
    failures = comult_failures(B)
    return not failures, failures[:8]


def oracle_antipode(B, S):
    """((ok, witnesses) left, (ok, witnesses) right) with S applied column by column."""
    u = B.unit_sv()
    left, right = [], []
    for k in range(B.dim):
        target = sv_scale(u, B.counit[k])
        lhs, rhs = {}, {}
        for (i, j), c in B.comult_basis(k).items():
            sv_add_into(lhs, B.mul_sv(sv_scale(S.apply_sv({i: cone()}), c), {j: cone()}))
            sv_add_into(rhs, B.mul_sv({i: c}, S.apply_sv({j: cone()})))
        if lhs != target:
            left.append(k)
        if rhs != target:
            right.append(k)
    return (not left, left), (not right, right)


def oracle_unit(A):
    u = A.unit_sv()
    return [i for i in range(A.dim)
            if A.mul_sv(u, {i: cone()}) != {i: cone()} or A.mul_sv({i: cone()}, u) != {i: cone()}]


def oracle_coassociativity(C):
    bad = []
    for k in range(C.dim):
        left, right = {}, {}
        for (a, b), c in C.comult_basis(k).items():
            for (x, y), w in C.comult_sv({a: c}).items():
                sv_add_into(left, {(x, y, b): w})
            for (x, y), w in C.comult_sv({b: c}).items():
                sv_add_into(right, {(a, x, y): w})
        if left != right:
            bad.append(k)
    return bad


def oracle_counit(C):
    bad = []
    for k in range(C.dim):
        left, right = {}, {}
        for (a, b), c in C.comult_basis(k).items():
            sv_add_into(left, {b: C.counit_sv({a: c})})
            sv_add_into(right, {a: C.counit_sv({b: c})})
        if left != {k: cone()} or right != {k: cone()}:
            bad.append(k)
    return bad


def oracle_counit_is_algebra_map(B):
    bad = [(i, j) for i in range(B.dim) for j in range(B.dim)
           if B.counit_sv(B.mul_basis(i, j)) != B.counit[i] * B.counit[j]]
    return not bad, bad[:8]


def oracle_hopf(H):
    """Every check_hopf entry as (name, ok, witnesses, detail), tuple by tuple."""
    u = H.unit_sv()
    uu = {(i, j): ci * cj for i, ci in u.items() for j, cj in u.items()}
    (left_ok, left), (right_ok, right) = oracle_antipode(H, H.antipode)
    unit, coassoc, counit = oracle_unit(H), oracle_coassociativity(H), oracle_counit(H)
    results = [("associativity", oracle_associativity(H)),
               ("two_sided_unit", (not unit, unit)),
               ("coassociativity", (not coassoc, coassoc)),
               ("counit", (not counit, counit)),
               ("comult_is_algebra_map", oracle_comult_is_algebra_map(H)),
               ("counit_is_algebra_map", oracle_counit_is_algebra_map(H)),
               ("comult_unit", (H.comult_sv(u) == uu, [])),
               ("counit_unit", (H.counit_sv(u).is_one(), [])),
               ("antipode_present", (True, [])),
               ("antipode_left", (left_ok, left)),
               ("antipode_right", (right_ok, right))]
    return [(name, ok, witnesses, "") for name, (ok, witnesses) in results]


def entries(rep):
    return [(e.name, e.ok, e.witnesses, e.detail) for e in rep.entries]


def perturbed(H, tensor, seed):
    """H with one constant of its MULT or COMULT tensor, or one nonzero entry
    of its antipode S, moved by +1.  "S+z4" moves the entry of S by zeta_4
    instead, and "S@4" keeps its value but stores it at conductor lcm(L, 4):
    either way S holds a conductor that the tables do not."""
    rng = random.Random(seed)
    if tensor.startswith("S"):
        key = rng.choice([(a, b) for a, row in enumerate(H.antipode.rows) for b, v in enumerate(row) if v])
        S = Mat(H.antipode.rows)
        v = S.rows[key[0]][key[1]]
        S.rows[key[0]][key[1]] = {"S": v + rat(1), "S+z4": v + CycScalar.zeta(4),
                                  "S@4": v.promote(lcm(v.L, 4))}[tensor]
        return key, HopfSC(H.dim, H.mult, H.unit, H.comult, H.counit, S)
    T = getattr(H, tensor)
    data = dict(T.data)
    key = rng.choice(sorted(data))
    data[key] = data[key] + rat(1)
    T2 = Tensor3(T.shape, data)
    mult, comult = (T2, H.comult) if tensor == "mult" else (H.mult, T2)
    return key, HopfSC(H.dim, mult, H.unit, comult, H.counit, H.antipode)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tensor", ["mult", "comult", "S", "S+z4", "S@4"])
@pytest.mark.parametrize("name", ["smash36", "b0", "c4min"])
def test_checkers_match_oracle_on_perturbed_structures(name, tensor, seed):
    """The S+z4 and S@4 copies put S at a conductor the tables do not use,
    so check_hopf's one lifting runs its bialgebra entries at a larger M
    than check_bialgebra's: the entries must still be equal."""
    key, B = perturbed(catalog.ALL_BUILDERS[name]().ore.O, tensor, seed)
    rep = check_hopf(B)
    got = {e.name: (e.ok, e.witnesses) for e in rep.entries}
    assert entries(rep) == oracle_hopf(B)
    assert entries(rep)[:8] == entries(check_bialgebra(B))
    assert rep.ok == (tensor == "S@4")
    if tensor in ("S+z4", "S@4"):
        assert B.antipode.rows[key[0]][key[1]].L not in {c.L for c in hopf._mult_constants(B)}
    if tensor == "mult":
        # every failing (a, b, c) forms the perturbed product e_i e_j on one side
        i, j, _ = key
        ok, witnesses = got["associativity"]
        assert not ok and all({i, j} & set(w) for w in witnesses)
    elif tensor == "comult":
        k = key[0]
        assert not (got["coassociativity"][0] and got["comult_is_algebra_map"][0])
        named = [w for e in ("coassociativity", "counit", "comult_is_algebra_map")
                 for w in got[e][1]]
        assert any(k == w or (isinstance(w, tuple) and k in w) for w in named)
    elif tensor != "S@4":
        # only S(e_b) changed: every witness k has e_b in the leg S is applied to
        b = key[1]
        assert [e.name for e in rep.failures()] == ["antipode_left", "antipode_right"]
        assert all(any(i == b for i, _ in B.comult_basis(k)) for k in got["antipode_left"][1])
        assert all(any(j == b for _, j in B.comult_basis(k)) for k in got["antipode_right"][1])


# -- the generating set and the rows each check reads ----------------------------

def bench_module(name):
    """A module of the benchmark harness in bench/, loaded without touching sys.path."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def triple(s):
    return (s.L, s.den, s.nums)


def recorded_scans(monkeypatch):
    """A list that each run of the associativity or the Delta/eps loop
    appends (loop name, rows) to."""
    scans = []

    def recorded(loop):
        def run(*args):
            scans.append((loop.__name__, list(args[-1])))
            return loop(*args)
        return run

    for loop in (hopf._scalar_associativity, hopf._bialgebra_failures):
        monkeypatch.setattr(hopf, loop.__name__, recorded(loop))
    return scans


@pytest.mark.parametrize("name", ["kc12n6", "xmas", "smash36", "b0", "c4min"])
def test_passing_checks_scan_only_the_generator_rows(name, monkeypatch):
    """A passing check_hopf runs associativity and the Delta/eps loop once
    each, on the rows of the generating set alone: a silent fall-back to the
    full scan fails here.  A copy with one MULT constant moved fails on
    those rows and is then scanned in full, in the oracle's order."""
    scans = recorded_scans(monkeypatch)
    H = catalog.ALL_BUILDERS[name]().ore.O
    scans.clear()  # a first build of the catalog entry runs checks of its own
    rep = check_hopf(H)
    X = hopf.generating_set(H)
    assert rep.ok and len(X) <= H.dim // 4
    assert scans == [("_scalar_associativity", X), ("_bialgebra_failures", X)]
    if name in ("kc12n6", "xmas"):
        return  # their full scans take seconds on CycScalar in the oracle
    assert entries(rep) == oracle_hopf(H)
    B = perturbed(H, "mult", 0)[1]
    scans.clear()
    assert entries(check_hopf(B)) == oracle_hopf(B)
    assert scans == [("_scalar_associativity", X), ("_scalar_associativity", list(range(B.dim))),
                     ("_bialgebra_failures", list(range(B.dim)))]


def test_an_associative_algebra_with_a_broken_unit_scans_only_the_generator_rows(monkeypatch):
    """kc12n6 with its unit doubled is still associative, and Delta and eps
    are still multiplicative: no unit axiom gates the reduction, so
    check_hopf scans the rows of the generating set alone, and only the
    unit entries and the antipode, which reads the unit, fail."""
    scans = recorded_scans(monkeypatch)
    H = catalog.kc12n6().ore.O
    B = HopfSC(H.dim, H.mult, [c + c for c in H.unit], H.comult, H.counit, H.antipode)
    scans.clear()
    rep = check_hopf(B)
    X = hopf.generating_set(B)
    assert scans == [("_scalar_associativity", X), ("_bialgebra_failures", X)]
    assert [e.name for e in rep.failures()] == ["two_sided_unit", "comult_unit", "counit_unit",
                                                "antipode_left", "antipode_right"]
    assert rep.entry("two_sided_unit").witnesses == list(range(B.dim))


def word_span_dim(A, X):
    """The dimension of the span of the right-nested words x_1 (x_2 (...
    x_k)) over X: the e_x, x in X, closed under left multiplication by X
    one round at a time."""
    span = echelon([{x: cone()} for x in X])
    while True:
        grown = echelon([*span.values(), *(A.mul_sv({x: cone()}, r) for x in X for r in span.values())])
        if len(grown) == len(span):
            return len(span)
        span = grown


def row_verdicts(B, rows):
    """Whether associativity, Delta- and eps-multiplicativity pass on the rows i in rows."""
    L = hopf._Lifted(hopf._mult_constants(B), hopf._comult_constants(B), hopf._counit_constants(B))
    assoc = next(hopf._scalar_associativity(L.K, L.table(B), B.dim, rows), None) is None
    comult, counit = hopf._bialgebra_failures(L, B, rows)
    return assoc, not comult, not counit


def assert_generators_decide(B):
    """The words over generating_set(B) span B, whatever its unit; the
    associativity verdict on the rows X is the verdict on all rows, and so
    are the Delta and eps verdicts once B is associative; check_bialgebra's
    verdicts are the all-rows ones."""
    X = hopf.generating_set(B)
    full = row_verdicts(B, range(B.dim))
    rep = check_bialgebra(B)
    assert [rep.entry(e).ok for e in ("associativity", "comult_is_algebra_map",
                                      "counit_is_algebra_map")] == list(full)
    assert word_span_dim(B, X) == B.dim
    reduced = row_verdicts(B, X)
    assert reduced[0] == full[0]
    if full[0]:
        assert reduced == full


def with_unit_coproduct_moved(H, seed):
    """H with Delta(1) moved: a seeded term e_a (x) e_b added to Delta(e_u),
    e_u the basis vector the unit is a multiple of."""
    rng = random.Random(seed)
    (u,) = [i for i, c in enumerate(H.unit) if c]
    key = (u, rng.randrange(H.dim), rng.randrange(H.dim))
    return with_constant(H, "comult", key, H.comult.data.get(key, czero()) + rat(1))


def seeded_perturbations(H, count):
    """`count` seeded copies of H, each with one MULT constant, one COMULT
    constant, the unit row or Delta(1) moved, the kind cycling with the seed."""
    unit_row = bench_module("rescale").perturb_unit_row
    kinds = [lambda s: perturbed(H, "mult", s)[1], lambda s: perturbed(H, "comult", s)[1],
             lambda s: unit_row(H, random.Random(s))[0], lambda s: with_unit_coproduct_moved(H, s)]
    return [kinds[s % 4](s) for s in range(count)]


def test_generators_decide_what_every_row_decides():
    """The reduction against the full scan, on every catalog structure, on
    rescaled copies of c4min, b0, smash36 and xmas at seeds 1-3 (xmas's
    generating set changes the most with the basis), and on 208 seeded
    perturbations of c4min and b0 in both bases.  kc12n6's dim-72 extension
    is left out: its all-rows associativity scan alone takes about 1 s."""
    rescaled = bench_module("rescale").rescaled
    small = [catalog.ALL_BUILDERS[name]().ore.O for name in ("c4min", "b0", "smash36")]
    structures = [H for name, H in catalog_hopf_structures() if name != "kc12n6[1]"]
    xmas = catalog.xmas().ore.O
    structures += [rescaled(H, random.Random(seed)) for H in [*small, xmas] for seed in (1, 2, 3)]
    for H, count in zip(small, (64, 40)):
        for B in (H, rescaled(H, random.Random(1))):
            structures += seeded_perturbations(B, count)
    for B in structures:
        assert_generators_decide(B)


def with_unit_moved(H, kind):
    """H, still associative, with one unit axiom broken: the unit vector
    doubled or spread onto a second basis vector (u the index the unit is
    a multiple of), Delta(1) != 1 (x) 1, or eps(1) != 1."""
    if kind == "comult":
        return with_unit_coproduct_moved(H, 0)
    (u,) = [i for i, c in enumerate(H.unit) if c]
    unit, counit = list(H.unit), list(H.counit)
    if kind == "doubled":
        unit[u] = unit[u] + unit[u]
    elif kind == "spread":
        unit[(u + 1) % H.dim] = unit[u]
    else:
        counit[u] = counit[u] + rat(1)
    return HopfSC(H.dim, H.mult, unit, H.comult, counit, H.antipode)


@pytest.mark.parametrize("kind", ["doubled", "spread", "comult", "counit"])
@pytest.mark.parametrize("basis", ["catalog", "rescaled"])
@pytest.mark.parametrize("name", ["c4min", "b0"])
def test_unit_perturbations_are_decided_on_the_generator_rows(name, basis, kind):
    """A unit axiom broken in an associative copy of c4min or b0, in its
    catalog basis or rescaled at seed 1: the rows X decide every verdict,
    and the entries and witnesses of check_hopf are those of the
    tuple-by-tuple oracle, which scans every row."""
    H = catalog.ALL_BUILDERS[name]().ore.O
    if basis == "rescaled":
        H = bench_module("rescale").rescaled(H, random.Random(1))
    B = with_unit_moved(H, kind)
    rep = check_hopf(B)
    assert rep.entry("associativity").ok and not rep.ok
    assert_generators_decide(B)
    assert entries(rep) == oracle_hopf(B)


@pytest.mark.parametrize("name", ["kc12n6", "xmas", "smash36", "b0", "c4min"])
def test_a_rescaled_basis_needs_about_as_few_generators(name, monkeypatch):
    """generating_set finds at most one generator more in each rescaled copy
    (seeds 1-3) than in the catalog basis, and the words over every X span
    its structure.  Forcing the reverse pass, by letting the skip's reach
    of the later picks hold every index, returns the same X: the skip only
    saves work.  (The ranking reads the reach of one index as a 1-tuple,
    which stays the real one, so the forward pass is unchanged.)"""
    H = catalog.ALL_BUILDERS[name]().ore.O
    structures = [H] + [bench_module("rescale").rescaled(H, random.Random(seed)) for seed in (1, 2, 3)]
    found = [hopf.generating_set(B) for B in structures]
    assert all(len(X) <= len(found[0]) + 1 for X in found)
    for B, X in zip(structures, found):
        assert word_span_dim(B, X) == B.dim
    reach = hopf._support_reach
    monkeypatch.setattr(hopf, "_support_reach",
                        lambda A, X: reach(A, X) if isinstance(X, tuple) else set(range(A.dim)))
    assert [hopf.generating_set(B) for B in structures] == found


def test_a_generating_set_short_of_its_last_index_is_caught(monkeypatch):
    full = hopf.generating_set
    monkeypatch.setattr(hopf, "generating_set", lambda A: full(A)[:-1])
    with pytest.raises(AssertionError):
        assert_generators_decide(catalog.b0().ore.O)


@pytest.mark.parametrize("name", ["c4min", "b0", "smash36"])
def test_rescaled_copy_does_the_same_work_on_scalars(name, monkeypatch):
    """A rescaled copy is the same structure in another basis, so every loop
    of check_hopf run on all rows forms as many coordinate products on it as
    on its catalog structure.  (The verdicts read the rows of the generating
    set, which depends on the basis, so here that set is every row.)"""
    calls = []

    def counted_kernels(L):
        K = cyclotomic._coordinate_kernels(L)
        mul = K.mul

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        K.mul = K.axpy.__globals__["mul"] = counted  # axpy reads mul from its namespace
        return K

    monkeypatch.setattr(hopf, "generating_set", lambda A: list(range(A.dim)))
    monkeypatch.setattr(hopf, "COORDINATE_KERNELS", cyclotomic._Kernels(counted_kernels))

    def products(B):
        calls.clear()
        assert check_hopf(B).ok
        return len(calls)

    H = catalog.ALL_BUILDERS[name]().ore.O
    work = products(H)
    assert work > 0
    for seed in (1, 2, 3):
        assert products(bench_module("rescale").rescaled(H, random.Random(seed))) == work


def test_one_row_table_per_check_freed_when_it_ends(monkeypatch):
    """check_hopf forms one lifting, which every entry reads: B's row table
    and its coproducts are formed once, the row table is read by
    associativity, by the Delta/eps loop and by the antipode entry, and one
    generating set is found.  check_bialgebra and check_coalgebra called
    alone form one lifting each.  Every lifting is freed when its check
    ends, with the cycle collector off."""
    made, reads, generated = [], [], []
    generating_set = hopf.generating_set

    class Watched(hopf._Lifted):
        def __init__(self, *groups):
            super().__init__(*groups)
            made.append(weakref.ref(self))

        def table(self, A):
            reads.append(("table", sys._getframe(1).f_code.co_name, self._table is None))
            return super().table(A)

        def coproducts(self, C):
            reads.append(("coproducts", sys._getframe(1).f_code.co_name, self._coproducts is None))
            return super().coproducts(C)

    monkeypatch.setattr(hopf, "_Lifted", Watched)
    monkeypatch.setattr(hopf, "generating_set", lambda A: generated.append(A) or generating_set(A))
    R = bench_module("rescale").rescaled(catalog.b0().ore.O, random.Random(7))
    bialgebra = [("table", "check_algebra", True), ("coproducts", "check_coalgebra", True),
                 ("table", "_bialgebra_failures", False), ("coproducts", "_bialgebra_failures", False)]
    expected = [(check_hopf, bialgebra + [("table", "_antipode_axiom_entry", False),
                                          ("coproducts", "_antipode_axiom_entry", False)]),
                (check_bialgebra, bialgebra),
                (hopf.check_coalgebra, [("coproducts", "check_coalgebra", True)])]
    gc.disable()
    try:
        for B in (R, catalog.b0().ore.O):
            for check, read in expected:
                reads.clear()
                generated.clear()
                made.clear()
                assert check(B).ok
                assert len(made) == 1 and made[0]() is None
                assert reads == read and generated == ([] if check is hopf.check_coalgebra else [B])
            assert entries(check_hopf(B)) == oracle_hopf(B)
    finally:
        gc.enable()
    assert all(ref() is None for ref in made)


def test_conductor_overflow_still_raised_past_the_cap():
    from hopfforge.cyclotomic import ConductorOverflow, conductor_cap, set_conductor_cap
    z4, z6 = CycScalar.zeta(4), CycScalar.zeta(6)
    T = Tensor3((2, 2, 2), {(0, 0, 0): z4, (0, 0, 1): z6, (1, 1, 0): z4, (1, 1, 1): z6})
    H = HopfSC(2, T, basis_vec(2, 0), T, [z4, z6], Mat.identity(2))
    # lcm conductor 12: lifted, checked, fails with the oracle's witnesses
    assert entries(check_hopf(H)) == oracle_hopf(H)
    # the same constants stored at conductor 12
    T12 = Tensor3(T.shape, {key: c.promote(12) for key, c in T.data.items()})
    H12 = HopfSC(2, T12, basis_vec(2, 0), T12, [z4.promote(12), z6.promote(12)], Mat.identity(2))
    failures, coassoc, counit = oracle_failures(H12), oracle_coassociativity(H12), oracle_counit(H12)
    assert failures and counit
    zero5 = CycScalar.zero(5)
    Z12 = HopfSC(2, T12, basis_vec(2, 0), T12, [z4.promote(12), zero5], Mat.identity(2))
    assert oracle_coassociativity(Z12) == coassoc
    zero_counit = oracle_counit(Z12)
    old = conductor_cap()
    try:
        set_conductor_cap(10)
        # past the cap promoting z4 or z6 to 12 raises
        with pytest.raises(ConductorOverflow):
            hopf._Lifted(hopf._mult_constants(H))
        assert hopf._Lifted(hopf._mult_constants(H12)).M == 12
        # a zero counit entry at conductor 5 is no constant read: M stays 12,
        # and H with it still raises
        assert hopf._Lifted(hopf._comult_constants(Z12), hopf._counit_constants(Z12)).M == 12
        rep = hopf.check_coalgebra(Z12)
        assert [(e.name, e.witnesses) for e in rep.entries] == [("coassociativity", coassoc),
                                                                ("counit", zero_counit)]
        with pytest.raises(ConductorOverflow):
            hopf.check_coalgebra(HopfSC(2, T, basis_vec(2, 0), T, [z4, zero5], Mat.identity(2)))
        for check in (check_algebra, hopf.check_coalgebra, check_bialgebra, check_hopf):
            with pytest.raises(ConductorOverflow):
                check(H)
        # constants all at one conductor past the cap are read there, with nothing promoted
        assert list(hopf.associativity_failures(H12)) == failures
        rep = hopf.check_coalgebra(H12)
        assert [(e.name, e.witnesses) for e in rep.entries] == [("coassociativity", coassoc),
                                                                ("counit", counit)]
    finally:
        set_conductor_cap(old)
    assert conductor_cap() == old


def test_conductor_overflow_raised_before_any_kernel_is_generated(monkeypatch):
    """Constants at conductors 7 and 720 have lcm 5040, past the default cap
    720: every check raises ConductorOverflow without generating the
    coordinate kernels of 5040 (phi 1152), whatever it reads first.  With
    the tables at conductor 7 and only the antipode at 720, the bialgebra
    checks pass at 7, and check_hopf, whose one lifting spans the antipode,
    raises before any of its entries runs."""
    from hopfforge.cyclotomic import COORDINATE_KERNELS, ConductorOverflow, conductor_cap
    assert conductor_cap() == 720
    z7, z720 = CycScalar.zeta(7), CycScalar.zeta(720)
    T = Tensor3((2, 2, 2), {(0, 0, 0): z7, (0, 0, 1): z720, (1, 1, 0): z7, (1, 1, 1): z720})
    H = HopfSC(2, T, basis_vec(2, 0), T, [z7, z720], Mat.identity(2))
    COORDINATE_KERNELS.pop(5040, None)

    def lifted(H):
        return hopf._Lifted(hopf._mult_constants(H), hopf._comult_constants(H), hopf._counit_constants(H),
                            H._unit.values(), (a for col in H.antipode.cols for a in col.values()))

    checks = [check_algebra, hopf.check_coalgebra, check_bialgebra, check_hopf,
              lambda H: hopf._bialgebra_failures(lifted(H), H, range(H.dim)),
              lambda H: hopf._antipode_axiom_entry(CheckReport("antipode"), lifted(H), H)]
    for check in checks:
        with pytest.raises(ConductorOverflow):
            check(H)
    # K C_2 in the basis 1, zeta_7 g, whose tables read conductors 1 and 7,
    # with S(1) = 1 stored at conductor 720
    K7 = in_basis(group_algebra_cyclic(2), [rat(1), z7])
    A = HopfSC(2, K7.mult, K7.unit, K7.comult, K7.counit,
               Mat.of_cols(2, [{0: CycScalar.one(720)}, K7.antipode.cols[1]]))
    assert {c.L for c in hopf._mult_constants(A)} == {1, 7} and check_bialgebra(A).ok
    for name in ("check_bialgebra", "_antipode_axiom_entry"):
        monkeypatch.setattr(hopf, name, lambda *args: pytest.fail("an entry ran"))
    with pytest.raises(ConductorOverflow):
        check_hopf(A)
    assert 5040 not in COORDINATE_KERNELS


def test_tables_with_no_room_for_one_match_oracle():
    """Constants that leave out 1: k rescaled by 2 (its one constant of each
    kind is not 1), and a structure with no constants at all."""
    half = rat(Fraction(1, 2))
    k2 = HopfSC(1, Tensor3((1, 1, 1), {(0, 0, 0): rat(2)}), [half],
                Tensor3((1, 1, 1), {(0, 0, 0): half}), [rat(2)], Mat.identity(1))
    empty = HopfSC(2, Tensor3((2, 2, 2)), [rat(1), rat(0)], Tensor3((2, 2, 2)),
                   [rat(0), rat(0)], Mat.identity(2))
    for H, ok in ((k2, True), (empty, False)):
        rep = check_hopf(H)
        assert rep.ok == ok and entries(rep) == oracle_hopf(H)


def test_traced_checks_match_untraced(b0_entry, c4min_entry):
    """bench/layertrace.py wraps the CycScalar operators of a live import; the
    checks must run under it unchanged."""
    import hopfforge.cli  # noqa: F401  the tracer wraps entry points of every module
    algebras = [b0_entry.ore.O, c4min_entry.ore.O]
    plain = [entries(check_hopf(H)) for H in algebras]
    mul = CycScalar.__mul__
    tracer = bench_module("layertrace").Tracer()
    tracer.install()
    try:
        traced = [entries(hopf.check_hopf(H)) for H in algebras]
    finally:
        tracer.uninstall()
    assert CycScalar.__mul__ is mul
    assert traced == plain
    assert tracer.snapshot()["cyc.mul.calls"] > 0


# -- the row table's paths: single-term pairs, two-term rows, cell sums ----------

def tampered_mult(H, how, seed):
    """H with one MULT entry e_i e_j -> c e_k changed: its scalar doubled
    ("scalar") or moved to an index k' that e_i e_j does not reach ("index")."""
    rng = random.Random(seed)
    data = dict(H.mult.data)
    i, j, k = key = rng.choice(sorted(data))
    c = data.pop(key)
    if how == "scalar":
        data[key] = c * rat(2)
    else:
        data[i, j, rng.choice([m for m in range(H.dim) if m != k and (i, j, m) not in data])] = c
    return HopfSC(H.dim, Tensor3(H.mult.shape, data), H.unit, H.comult, H.counit, H.antipode)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("how", ["scalar", "index"])
def test_single_term_mismatches_match_oracle(how, seed):
    # every row of smash36 is single-term
    B = tampered_mult(catalog.smash36().ore.O, how, seed)
    copies = [B]
    if seed == 0:  # and on scalars, where each tuple is compared as (index, scalar) pairs
        copies.append(bench_module("rescale").rescaled(B, random.Random(0)))
    for A in copies:
        assert all(len(cell) <= 1 for row in A._rows for cell in row)
        rep = check_hopf(A)
        assert not rep.entry("associativity").ok
        assert entries(rep) == oracle_hopf(A)


def ore_lambda_one_dim18():
    """O(K C_6, g, chi(g) = zeta_6^2, lambda = 1): N = 3, dim 18, with two-term rows."""
    from hopfforge.construct import build_ore_hopf, validate_compatible_datum, validate_yd_datum
    H = group_algebra_cyclic(6, conductor=6)
    d = validate_yd_datum(H, {1: cone()}, cyclic_character(H, CycScalar.zeta_power(6, 2)))
    return build_ore_hopf(validate_compatible_datum(d, rat(1)), verify=False).O


@pytest.mark.parametrize("how", [None, "scalar", "index"])
def test_two_term_rows_match_oracle(how):
    O = ore_lambda_one_dim18()
    assert sum(len(cell) == 2 for row in O._rows for cell in row) == 108
    # tamper with a two-term row, so the failing tuples take the general path
    B = O if how is None else next(
        T for T in (tampered_mult(O, how, seed) for seed in range(100))
        if any(len(cell) == 2 and len(O._rows[i][j]) == 2 and cell != O._rows[i][j]
               for i, row in enumerate(T._rows) for j, cell in enumerate(row)))
    R = bench_module("rescale").rescaled(B, random.Random(5))
    for A in (B, R):  # in the catalog basis, and rescaled
        rep = check_hopf(A)
        assert rep.ok == (how is None)
        assert entries(rep) == oracle_hopf(A)


def with_constant(H, tensor, key, value):
    """H with the constant at `key` of its "mult" or "comult" tensor set to value."""
    T = getattr(H, tensor)
    T2 = Tensor3(T.shape, {**T.data, key: value})
    mult, comult = (T2, H.comult) if tensor == "mult" else (H.mult, T2)
    return HopfSC(H.dim, mult, H.unit, comult, H.counit, H.antipode)


@pytest.mark.parametrize("tensor", ["mult", "comult"])
def test_multi_term_cells_match_oracle(tensor):
    """On ids Delta(e_i e_j) and eps(e_i e_j) are formed once per cell.  The
    two-term cell e_0 - e_3 (1 - g^3) is e_i e_j for four pairs (i, j).
    Doubling its e_3 term at one pair (MULT) gives that pair a cell of its
    own, on which Delta and eps both fail.  Moving Delta(e_3) (COMULT)
    changes Delta of the shared cell, so one failing cell serves four pairs."""
    O = ore_lambda_one_dim18()
    n = O.dim
    cell, uses = Counter(cell for row in O._rows for cell in row if len(cell) == 2).most_common(1)[0]
    pairs = [(i, j) for i in range(n) for j in range(n) if O._rows[i][j] == cell]
    assert uses == len(pairs) == 4
    m, c = cell[1]
    i, j = pairs[0]
    if tensor == "mult":
        B = with_constant(O, "mult", (i, j, m), c * rat(2))
        assert (i, j) in comult_failures(B)
    else:
        key = min(k for k in O.comult.data if k[0] == m)
        B = with_constant(O, "comult", key, O.comult.data[key] + rat(1))
        assert set(pairs) <= set(comult_failures(B))
    R = bench_module("rescale").rescaled(B, random.Random(11))
    for A in (B, R):  # in the catalog basis, and rescaled
        rep = check_hopf(A)
        assert not rep.entry("comult_is_algebra_map").ok
        assert rep.entry("counit_is_algebra_map").ok == (tensor == "comult")
        assert entries(rep) == oracle_hopf(A)


def test_mismatch_inside_a_cell_sum_matches_oracle():
    """e_i e_j = a e_m1 + b e_m2, and e_m1 e_k, e_m2 e_k share an index x: the
    left cell at k is a sum that adds two scalars at x.  Doubling e_m1 e_k at x
    breaks that sum; every failing tuple, in both bases, is the oracle's."""
    O = ore_lambda_one_dim18()
    n = O.dim
    i, j, k, x, m1 = next(
        (i, j, k, x, m1) for i in range(n) for j in range(n) if len(O._rows[i][j]) == 2
        for (m1, _), (m2, _) in [O._rows[i][j]] for k in range(n)
        for x in sorted(dict(O._rows[m1][k]).keys() & dict(O._rows[m2][k]).keys()))
    B = with_constant(O, "mult", (m1, k, x), O.mult.data[m1, k, x] * rat(2))
    failures = oracle_failures(B)
    assert (i, j, k) in failures
    assert list(hopf.associativity_failures(B)) == failures
    assert entries(check_hopf(B)) == oracle_hopf(B)
    R = bench_module("rescale").rescaled(B, random.Random(3))
    assert list(hopf.associativity_failures(R)) == oracle_failures(R)


def test_mismatch_only_at_the_last_k_matches_oracle():
    """Changing e_a e_{n-1} moves the row of (e_i e_j) e_k, for e_a in e_i e_j
    and i != a, at k = n - 1 only: the rows compare unequal and the scan of k
    has to reach the row's last entry."""
    O = ore_lambda_one_dim18()
    n = O.dim
    a, x = next((a, x) for a in range(n) for x, _ in O._rows[a][n - 1])
    B = with_constant(O, "mult", (a, n - 1, x), O.mult.data[a, n - 1, x] * rat(2))
    failures = oracle_failures(B)
    last_only = [(i, j) for i in range(n) for j in range(n)
                 if [k for i2, j2, k in failures if (i2, j2) == (i, j)] == [n - 1]]
    assert last_only and any(i != a for i, _ in last_only)
    assert list(hopf.associativity_failures(B)) == failures
    assert entries(check_hopf(B)) == oracle_hopf(B)


def edited_mult(A, edit, rng):
    """A's algebra with one MULT edit: "delete" the constant of a single-term
    cell, "fill" an empty cell with one constant, or add a "second" term to a
    single-term cell.  Added constants are drawn from A's own."""
    n, data = A.dim, dict(A.mult.data)
    value = data[rng.choice(sorted(data))]
    cells = {(i, j): cell for i, row in enumerate(A._rows) for j, cell in enumerate(row)}
    i, j = rng.choice(sorted(ij for ij, cell in cells.items() if len(cell) == (edit != "fill")))
    if edit == "fill":
        data[i, j, rng.randrange(n)] = value
    else:
        (k, _), = cells[i, j]
        if edit == "delete":
            del data[i, j, k]
        else:
            data[i, j, rng.choice([m for m in range(n) if m != k])] = value
    return hopf.AlgebraSC(n, Tensor3(A.mult.shape, data), A.unit)


def one_side_empty(A, failures):
    """The failing tuples whose e_i e_j and e_j e_k have at most one term and
    whose two sides are one empty cell and one nonempty cell."""
    T = A._rows
    out = []
    for i, j, k in failures:
        ij, jk = T[i][j], T[j][k]
        if len(ij) <= 1 and len(jk) <= 1:
            left = T[ij[0][0]][k] if ij else ()
            right = T[i][jk[0][0]] if jk else ()
            if bool(left) != bool(right):
                out.append((i, j, k))
    return out


@pytest.mark.parametrize("edit", ["delete", "fill", "second"])
@pytest.mark.parametrize("name", ["smash36", "b0"])
def test_cells_settle_the_scalar_scan_as_the_oracle(name, edit):
    """A tuple whose e_i e_j and e_j e_k have at most one term each is
    settled from two cells.  Deleting a constant or filling an empty cell
    gives failing tuples with one side empty; a second term sends its tuples
    to the general path.  The entry, the full scan and a scan of the rows
    from a middle one on are the oracle's, witness for witness."""
    R = bench_module("rescale").rescaled(catalog.ALL_BUILDERS[name]().ore.O, random.Random(1))
    A = edited_mult(R, edit, random.Random(2))
    V = hopf._Lifted(hopf._mult_constants(A))
    failures = oracle_failures(A)
    assert bool(one_side_empty(A, failures)) == (edit != "second")
    ent = check_algebra(A).entry("associativity")
    assert (ent.ok, ent.witnesses) == (not failures, failures[:8]) == oracle_associativity(A)
    T = V.table(A)
    assert list(hopf._scalar_associativity(V.K, T, A.dim, range(A.dim))) == failures
    i0 = failures[len(failures) // 2][0]
    assert list(hopf._scalar_associativity(V.K, T, A.dim, range(i0, A.dim))) == [
        w for w in failures if w[0] >= i0]


def test_zero_constants_leave_no_cell():
    """The scalar scan reads a nonempty cell as a nonzero vector.  That holds
    because AlgebraSC drops a zero constant from its rows, also one that a
    Tensor3's data holds explicitly, in an empty cell or beside a term."""
    R = bench_module("rescale").rescaled(catalog.b0().ore.O, random.Random(1))
    zero = CycScalar.zero(next(iter(R.mult.data.values())).L)
    mult = Tensor3(R.mult.shape, R.mult.data)
    i, j = next((i, j) for i, row in enumerate(R._rows) for j, cell in enumerate(row) if not cell)
    mult.data[i, j, 0] = zero
    (i, j), (k, _) = next(((i, j), cell[0]) for i, row in enumerate(R._rows) for j, cell in enumerate(row) if cell)
    mult.data[i, j, (k + 1) % R.dim] = zero
    A = hopf.AlgebraSC(R.dim, mult, R.unit)
    assert sum(not c for c in A.mult.data.values()) == 2
    assert A._rows == R._rows
    rep = check_algebra(A)
    assert rep.ok
    ent = rep.entry("associativity")
    assert (ent.ok, ent.witnesses) == oracle_associativity(A)


# -- the loops on coordinates against the per-tuple formulation --------------------

def with_one_constant_moved(H, seed):
    """H with one MULT, COMULT, counit or antipode constant moved by +1, the
    kind and the constant chosen by the seed."""
    kind = ("mult", "comult", "counit", "S")[seed % 4]
    if kind != "counit":
        return perturbed(H, kind, seed)[1]
    counit = list(H.counit)
    k = random.Random(seed).randrange(H.dim)
    counit[k] = counit[k] + rat(1)
    return HopfSC(H.dim, H.mult, H.unit, H.comult, counit, H.antipode)


@pytest.fixture(scope="module")
def rescaled_copies():
    rescaled = bench_module("rescale").rescaled
    return {name: rescaled(catalog.ALL_BUILDERS[name]().ore.O, random.Random(1))
            for name in ("c4min", "b0", "smash36")}


@pytest.mark.parametrize("name, seed", [("c4min", s) for s in range(30)] + [("b0", s) for s in range(30)]
                         + [("smash36", s) for s in range(4)])
def test_coordinate_loops_match_oracle_on_perturbed_rescaled_copies(name, seed, rescaled_copies):
    """On a rescaled copy every check but the unit runs on coordinates; with
    one constant moved, its entries and witnesses are the oracle's."""
    B = with_one_constant_moved(rescaled_copies[name], seed)
    assert entries(check_hopf(B)) == oracle_hopf(B)


def in_basis(H, d):
    """H in the basis f_i = d_i e_i."""
    inv = [cone() / x for x in d]
    n = H.dim
    mult = {(i, j, k): d[i] * d[j] * c * inv[k] for (i, j, k), c in H.mult.data.items()}
    comult = {(k, i, j): d[k] * c * inv[i] * inv[j] for (k, i, j), c in H.comult.data.items()}
    S = Mat.of_cols(n, [{i: d[j] * c * inv[i] for i, c in col.items()}
                        for j, col in enumerate(H.antipode.cols)])
    return HopfSC(n, Tensor3(H.mult.shape, mult), [u * inv[i] for i, u in enumerate(H.unit)],
                  Tensor3(H.comult.shape, comult), [e * d[i] for i, e in enumerate(H.counit)], S)


def test_equal_sides_with_unequal_unreduced_coordinates():
    """K C_3 in the basis f_i = d_i g^i, d = (1, 2, 3): f_1 f_1 = 4/3 f_2,
    f_1 f_2 = 6 f_0 and f_2 f_2 = 9/2 f_1, so (f_1 f_1) f_2 is 4/3 * 9/2 f_0,
    coordinates (36, 6), and f_1 (f_1 f_2) is 6 * 1 f_0, coordinates (6, 1).
    The two sides are equal only once each is reduced by its gcd."""
    H = in_basis(group_algebra_cyclic(3), [rat(1), rat(2), rat(3)])
    V = hopf._Lifted(hopf._mult_constants(H))
    T = V.table(H)
    (_, a), = T[1][1]
    (_, c), = T[2][2]
    (_, b), = T[1][2]
    (_, d), = T[0][0]
    assert (V.K.mul(a, c), V.K.mul(b, d)) == ((36, 6), (6, 1))
    rep = check_hopf(H)
    assert rep.ok and entries(rep) == oracle_hopf(H)


def test_lift_maps_every_one_onto_the_kernels_one():
    """A rational 1, a 1 at a conductor promoted to M and a 1 at M all lift
    to K.one, the object K.mul skips; other constants lift to their
    coordinates at M."""
    z = CycScalar.zeta(12)
    V = hopf._Lifted([z, CycScalar.zeta(4), rat(1)])
    K = V.K
    assert V.M == 12 and K is cyclotomic.COORDINATE_KERNELS[12]
    for one in (rat(1), CycScalar.one(4), CycScalar.one(12)):
        assert V.lift(one) is K.one
    assert V.lift(z) == z.nums + (1,) and V.lift(-CycScalar.one(12)) == (-1, 0, 0, 0, 1)
    assert K.mul(V.lift(rat(1)), V.lift(z)) is V.lift(z)


def test_each_distinct_constant_is_promoted_once(monkeypatch):
    """kc12n6 reads constants at conductors 1, 3, 4 and 12 (M = 12): the
    coalgebra check promotes each distinct one not at 12 once, however often
    Delta and eps repeat it."""
    H = catalog.kc12n6().ore.O
    consts = [c for c in [*hopf._comult_constants(H), *H.counit] if c]
    M = hopf._Lifted(consts).M
    lifted = {triple(c) for c in consts if c.L != M}
    assert M == 12 and lifted and len(consts) > 4 * len(lifted)
    calls, promote = [], CycScalar.promote
    monkeypatch.setattr(CycScalar, "promote", lambda c, L: calls.append(triple(c)) or promote(c, L))
    assert hopf.check_coalgebra(H).ok
    assert sorted(calls) == sorted(lifted)


def test_rescaled_kc12n6_on_coordinates():
    """The large-denominator case: kc12n6 (dim 72, conductor 12) in two
    rescaled bases passes check_hopf on coordinates, and a copy with one MULT
    constant moved gives the oracle's associativity witnesses."""
    H = catalog.kc12n6().ore.O
    for seed in (1, 2):
        R = bench_module("rescale").rescaled(H, random.Random(seed))
        assert check_hopf(R).ok and len(hopf.generating_set(R)) <= 3
    B = perturbed(R, "mult", 0)[1]
    ent = check_algebra(B).entry("associativity")
    expect = oracle_failures(B, MAX_WITNESSES)
    assert expect and (ent.ok, ent.witnesses) == (False, expect)
