import random

import pytest

from hopfforge import catalog
from hopfforge.cyclotomic import CycScalar
from hopfforge.hopf import (
    NotGroupAlgebra, check_algebra, check_bialgebra, check_hopf, compute_antipode,
    convolution, cyclic_character, char_convolve, char_convpow, filtration_from,
    group_algebra_cyclic, group_algebra_integral, is_group_algebra, kaplansky_check,
    phi_power, psi_power, primitives, skew_primitives, unit_counit_map,
    verify_ad_integral, verify_character, verify_group_like, wedge,
)
from hopfforge.linalg import (
    Mat, Subspace, Tensor3, basis_vec, cone, sv_add_into, sv_from_dense, sv_scale, zeros,
)


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
    from hopfforge.hopf import HopfSC
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


def test_compute_antipode_group_algebra(kc6):
    S = compute_antipode(kc6)
    assert S == kc6.antipode
    for k in range(6):
        assert S.apply(basis_vec(6, k)) == basis_vec(6, (6 - k) % 6)


def test_compute_antipode_matches_stored_iff_hopf(b0_entry, c4min_entry):
    for entry in (b0_entry, c4min_entry):
        O = entry.ore.O
        assert check_hopf(O).ok
        assert compute_antipode(O) == O.antipode


def test_antipode_b0_on_x(b0_entry):
    O = b0_entry.ore.O
    x = sv_from_dense(O.antipode.apply(basis_vec(12, 6)))
    gam3 = O.pow_sv({1: cone()}, 3)
    expect = O.mul_sv(gam3, {6: rat(-1)})
    assert x == expect  # S(x) = -gamma^-3 x = -gamma^3 x


def test_group_like_and_character_verification(kc6, b0_entry):
    assert verify_group_like(kc6, basis_vec(6, 3))
    O = b0_entry.ore.O
    assert not verify_group_like(O, basis_vec(12, 6))  # x is skew-primitive, not group-like
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
    assert phi.apply(basis_vec(6, 1)) == [c * CycScalar.zeta(6) for c in basis_vec(6, 1)]
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
    assert phi.apply(y1) == [q3 * c for c in y1]


def test_ad_integral_group_algebra(kc6):
    gamma = group_algebra_integral(kc6)
    assert verify_ad_integral(kc6, gamma)
    # counit is not an ad-invariant integral on KC2
    kc2 = group_algebra_cyclic(2)
    assert not verify_ad_integral(kc2, [rat(1), rat(1)])
    # gamma(1) = 1 required
    bad = zeros(6)
    assert not verify_ad_integral(kc6, bad)


def test_ad_integral_builder_rejects_non_group(b0_entry):
    assert not is_group_algebra(b0_entry.ore.O)
    with pytest.raises(NotGroupAlgebra):
        group_algebra_integral(b0_entry.ore.O)


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
    g2 = H8.pow_sv({1: cone()}, 2)
    z = zeros(4)
    z[0] = cone()
    for k, c in g2.items():
        z[k] = z[k] - c
    ad, comm = kaplansky_check(H8, chi8, z, 2)
    assert ad and comm
    # dim-12: z = x with chi2 and n = 3 (the half-power ad-equivariance)
    O = b0_entry.ore.O
    chi2 = O.characters["chi2"]
    x = basis_vec(12, 6)
    ad, comm = kaplansky_check(O, chi2, x, 3)
    assert ad and comm
    # and a failing pair still yields matching verdicts
    ad2, comm2 = kaplansky_check(O, chi2, basis_vec(12, 1), 1)
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
    z = list(xmas_entry.extra["X_in_A"])
    for n in (1, 2, 3, 4):
        ad, comm = kaplansky_check(A, chi_hat, z, n)
        assert ad == comm, n
    # n = 3 is the one that holds: X is ad-equivariant for chi^3
    ad3, comm3 = kaplansky_check(A, chi_hat, z, 3)
    assert ad3 and comm3


def test_primitives_and_skew_primitives(kc6, b0_entry, qline6_entry):
    assert primitives(kc6).dim == 0
    O = b0_entry.ore.O
    sk = skew_primitives(O, basis_vec(12, 3), basis_vec(12, 0), bial=O)
    assert sk.contains_vec(basis_vec(12, 6))  # x is (gamma^3, 1)-skew-primitive
    ql = qline6_entry.extra["quantum_line"]
    P = skew_primitives(ql.coalgebra, list(ql.unit), list(ql.unit))
    assert P.dim == 1 and P.contains_vec(basis_vec(6, 1))


def test_wedge_and_filtration(kc6, qline6_entry):
    full = Subspace.full(6)
    assert wedge(kc6, full, full) == full
    ql = qline6_entry.extra["quantum_line"]
    layers, exhausts = filtration_from(ql.coalgebra, Subspace(6, [list(ql.unit)]))
    assert [l.dim for l in layers] == [1, 2, 3, 4, 5, 6] and exhausts
    # strictly increasing until stationary
    dims = [l.dim for l in layers]
    assert all(a < b for a, b in zip(dims, dims[1:]))
    # group algebra from K1 never grows (not connected)
    layers2, exhausts2 = filtration_from(kc6, Subspace(6, [basis_vec(6, 0)]))
    assert [l.dim for l in layers2] == [1] and not exhausts2


def test_filtration_72(xmas_entry):
    A = xmas_entry.ore.O
    sigmaH = Subspace(72, [xmas_entry.ore.sigma.col(j) for j in range(12)])
    layers, exhausts = filtration_from(A, sigmaH)
    assert [l.dim for l in layers] == [12, 24, 36, 48, 60, 72]
    assert exhausts


def test_bialgebra_fail_on_tampered_comult(kc6):
    from hopfforge.hopf import HopfSC
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
        skew_primitives(kc6, [rat(1)] * 6, basis_vec(6, 0), bial=kc6)
    # the dense antipode solve is capped
    with pytest.raises(ValueError):
        compute_antipode(group_algebra_cyclic(30), dim_cap=24)


# -- the contracted checkers against the per-tuple formulation -----------------

def oracle_associativity(A):
    """(ok, first 8 witnesses) with both sides formed by mul_sv on unit vectors."""
    ok, witnesses = True, []
    for i in range(A.dim):
        for j in range(A.dim):
            ij = A.mul_basis(i, j)
            for k in range(A.dim):
                if A.mul_sv(ij, {k: cone()}) != A.mul_sv({i: cone()}, A.mul_basis(j, k)):
                    ok = False
                    if len(witnesses) < 8:
                        witnesses.append((i, j, k))
    return ok, witnesses


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


def oracle_comult_is_algebra_map(B):
    ok, witnesses = True, []
    for i in range(B.dim):
        for j in range(B.dim):
            lhs = B.comult_sv(B.mul_basis(i, j))
            if lhs != oracle_pair_product(B, B.comult_basis(i), B.comult_basis(j)):
                ok = False
                if len(witnesses) < 8:
                    witnesses.append((i, j))
    return ok, witnesses


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


def perturbed(H, tensor, seed):
    """H with one constant of its MULT or COMULT tensor moved by +1."""
    from hopfforge.hopf import HopfSC
    T = getattr(H, tensor)
    data = dict(T.data)
    key = random.Random(seed).choice(sorted(data))
    data[key] = data[key] + rat(1)
    T2 = Tensor3(T.shape, data)
    mult, comult = (T2, H.comult) if tensor == "mult" else (H.mult, T2)
    return key, HopfSC(H.dim, mult, H.unit, comult, H.counit, H.antipode)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tensor", ["mult", "comult"])
@pytest.mark.parametrize("name", ["smash36", "b0", "c4min"])
def test_checkers_match_oracle_on_perturbed_structures(name, tensor, seed):
    key, B = perturbed(catalog.ALL_BUILDERS[name]().ore.O, tensor, seed)
    rep = check_hopf(B)
    got = {e.name: (e.ok, e.witnesses) for e in rep.entries}
    expect = {"associativity": oracle_associativity(B),
              "comult_is_algebra_map": oracle_comult_is_algebra_map(B)}
    expect["antipode_left"], expect["antipode_right"] = oracle_antipode(B, B.antipode)
    for entry, value in expect.items():
        assert got[entry] == value, entry
    assert not rep.ok
    if tensor == "mult":
        # every failing (a, b, c) forms the perturbed product e_i e_j on one side
        i, j, _ = key
        ok, witnesses = got["associativity"]
        assert not ok and all({i, j} & set(w) for w in witnesses)
    else:
        k = key[0]
        assert not (got["coassociativity"][0] and got["comult_is_algebra_map"][0])
        named = [w for e in ("coassociativity", "counit", "comult_is_algebra_map")
                 for w in got[e][1]]
        assert any(k == w or (isinstance(w, tuple) and k in w) for w in named)
