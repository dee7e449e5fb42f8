import pytest

from hopfforge.cyclotomic import CycScalar
from hopfforge.hopf import (
    HopfSC, adjoint_action, check_algebra, check_coalgebra, check_hopf, cyclic_character,
    group_algebra_cyclic,
)
from hopfforge.linalg import Mat, Tensor3, basis_vec, cone, czero, map_tensor_product
from hopfforge.yd import (
    YDModule, adjoint_coaction, braided_tensor_algebra,
    braided_tensor_coalgebra, braiding, check_yd, comodule_map_failures, module_map_failures,
    one_dim_module, trivial_module, yd_module_adjoint, yd_tensor,
)
from hopfforge.construct import build_quantum_line, validate_yd_datum


def rat(x):
    return CycScalar.from_rational(x)


@pytest.fixture(scope="module")
def kc6():
    return group_algebra_cyclic(6, conductor=6)


@pytest.fixture(scope="module")
def ky(kc6):
    chi1 = cyclic_character(kc6, rat(-1))
    return one_dim_module(kc6, {3: cone()}, chi1)


@pytest.fixture(scope="module")
def qline(kc6):
    chi = cyclic_character(kc6, CycScalar.zeta(6))
    d = validate_yd_datum(kc6, {1: cone()}, chi)
    return build_quantum_line(d)


def test_trivial_module(kc6):
    assert check_yd(trivial_module(kc6)).ok


def test_kc2_in_a_basis_with_cancelling_triple_coproduct():
    # kC_2 in the basis e0 = 1, e1 = 1 + g: e1 e1 = 2 e1 and
    # Delta e1 = 2 e0 (x) e0 - e0 (x) e1 - e1 (x) e0 + e1 (x) e1, so terms of
    # (id (x) Delta) Delta e1 cancel; both modules are YD modules all the same
    mult = Tensor3((2, 2, 2), {(0, 0, 0): rat(1), (0, 1, 1): rat(1), (1, 0, 1): rat(1),
                               (1, 1, 1): rat(2)})
    comult = Tensor3((2, 2, 2), {(0, 0, 0): rat(1), (1, 0, 0): rat(2), (1, 0, 1): rat(-1),
                                 (1, 1, 0): rat(-1), (1, 1, 1): rat(1)})
    H = HopfSC(2, mult, basis_vec(2, 0), comult, [rat(1), rat(2)], Mat.identity(2))
    assert check_hopf(H).ok
    for V in (trivial_module(H), yd_module_adjoint(H)):
        rep = check_yd(V)
        assert [e.name for e in rep.failures()] == []


def test_one_dim_module_over_group_algebra(kc6, ky):
    assert check_yd(ky).ok
    # over a commutative cocommutative base any (group-like, character) pair
    # satisfies the compatibility, including rho(y) = g^2 (x) y
    chi1 = cyclic_character(kc6, rat(-1))
    other = one_dim_module(kc6, {2: cone()}, chi1)
    assert check_yd(other).ok


def test_yd_violation_over_noncommutative_base(b0_entry):
    # over B0 the pair (gamma, chi2) is fine but (gamma, chi1-like) breaks
    O = b0_entry.ore.O
    chi2 = O.characters["chi2"]
    good = one_dim_module(O, {1: cone()}, chi2)
    assert check_yd(good).ok
    # action by the trivial character with coaction by gamma violates YD at h = x
    eps_like = list(O.counit)
    bad = one_dim_module(O, {1: cone()}, eps_like)
    rep = check_yd(bad)
    assert not rep.ok
    assert not rep.entry("yd_compatibility").ok


def test_broken_comodule_witnessed(kc6):
    chi1 = cyclic_character(kc6, rat(-1))
    coaction = Tensor3((1, 6, 1), {(0, 1, 0): rat(1), (0, 2, 0): rat(1)})  # not group-like
    action = Tensor3((6, 1, 1), {(h, 0, 0): chi1[h] for h in range(6)})
    rep = check_yd(YDModule(kc6, 1, action, coaction))
    assert not rep.entry("comodule_coassociative").ok


def test_braiding_one_dim(kc6, ky):
    c = braiding(ky, ky)
    assert c.rows[0][0] == rat(-1)  # chi1(gamma^3) = -1
    assert (c @ c) == Mat.identity(1)


def test_braiding_trivial_factor(kc6, ky):
    K = trivial_module(kc6)
    assert braiding(K, ky) == Mat.identity(1)
    assert braiding(ky, K) == Mat.identity(1)


def test_braiding_rejects_mixed_bases(kc6, ky):
    from hopfforge.yd import YDViolation
    other = group_algebra_cyclic(6, conductor=6)
    with pytest.raises(YDViolation):
        braiding(ky, trivial_module(other))


def test_braiding_invertible_on_quantum_line(kc6, qline):
    c = braiding(qline.yd, qline.yd)
    assert c.rank() == 36


def test_hexagon_identities(kc6, ky, qline):
    mods = {"K": trivial_module(kc6), "Ky": ky, "QL": qline.yd}
    for V in mods.values():
        for W in mods.values():
            for U in mods.values():
                VW = yd_tensor(V, W)
                lhs = braiding(VW, U)
                rhs = map_tensor_product(braiding(V, U), Mat.identity(W.dim)) @ \
                    map_tensor_product(Mat.identity(V.dim), braiding(W, U))
                assert lhs == rhs


def test_braiding_is_a_yd_morphism(kc6, ky, qline):
    mods = {"K": trivial_module(kc6), "Ky": ky, "QL": qline.yd}
    for V in mods.values():
        for W in mods.values():
            c, VW, WV = braiding(V, W), yd_tensor(V, W), yd_tensor(W, V)
            assert list(module_map_failures(c, VW, WV)) == []
            assert list(comodule_map_failures(c, VW, WV)) == []


@pytest.mark.parametrize("target", [0, 8])
def test_morphism_checkers_name_a_column_of_another_degree(qline, target):
    # column 7 is y (x) y, of degree 2; e_0 = 1 (x) 1 has degree 0 and
    # e_8 = y (x) y^2 degree 3, so both the action and the coaction tell them apart
    # (rescaling a column would not do: the braiding stays a morphism)
    c = braiding(qline.yd, qline.yd)
    cols = list(c.cols)
    cols[7] = {target: cone()}
    broken = Mat.of_cols(c.nrows, cols)
    QQ = yd_tensor(qline.yd, qline.yd)
    module = list(module_map_failures(broken, QQ, QQ))
    comodule = list(comodule_map_failures(broken, QQ, QQ))
    assert module and all(j == 7 for _, j in module)
    assert comodule == [7]


def test_adjoint_action_commutative_is_trivial(kc6):
    adj = adjoint_action(kc6)
    for h in range(6):
        for x in range(6):
            for k in range(6):
                expect = kc6.counit[h] if x == k else czero()
                assert adj[(h, x, k)] == expect


def test_adjoint_action_b0(b0_entry):
    # gamma . x = gamma x gamma^-1 = -x
    O = b0_entry.ore.O
    adj = adjoint_action(O)
    img = {j: c for (h, i, j), c in adj.data.items() if h == 1 and i == 6}
    assert img == {6: rat(-1)}


def test_adjoint_coaction_group_like(kc6):
    adc = adjoint_coaction(kc6)
    for k in range(6):
        img = {(h, j): c for (i, h, j), c in adc.data.items() if i == k}
        assert img == {(0, k): rat(1)}


def test_yd_tensor_passes(kc6, ky, qline):
    assert check_yd(yd_tensor(ky, qline.yd)).ok


def test_braided_tensor_algebra_when_colinear(kc6, qline):
    # R (x) K recovers R
    K = trivial_module(kc6)
    from hopfforge.hopf import AlgebraSC
    triv_alg = AlgebraSC(1, Tensor3((1, 1, 1), {(0, 0, 0): rat(1)}), [rat(1)])
    out = braided_tensor_algebra(qline, qline.yd, triv_alg, K)
    assert out.dim == 6
    assert out.mult == qline.mult
    # quantum line (x) quantum line with the braiding is associative
    out2 = braided_tensor_algebra(qline, qline.yd, qline, qline.yd)
    assert check_algebra(out2).ok


def test_smash_product_agrees_with_trivial_bosonization(kc6, qline):
    from hopfforge.cocycle import Cocycle, bosonize
    Hadj = yd_module_adjoint(kc6)
    smash = braided_tensor_algebra(qline, qline.yd, kc6, Hadj)
    bos = bosonize(qline, Cocycle.trivial(qline), verify=False)
    assert smash.mult == bos.B.mult
    assert smash.unit == bos.B.unit


def test_smash_coproduct_agrees_with_trivial_bosonization(kc6, qline):
    from hopfforge.cocycle import Cocycle, bosonize
    # H acts on itself by multiplication; its coaction is not read, so it is left empty
    smashco = braided_tensor_coalgebra(qline, qline.yd, kc6,
                                       YDModule(kc6, kc6.dim, kc6.mult, Tensor3((6, 6, 6))))
    bos = bosonize(qline, Cocycle.trivial(qline), verify=False)
    assert smashco.comult == bos.B.comult
    assert check_coalgebra(smashco).ok
