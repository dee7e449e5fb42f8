import sys

import pytest

from hopfforge.cyclotomic import CycScalar, q_binomial, q_factorial
from hopfforge.hopf import AxiomViolation, check_bialgebra, group_algebra_cyclic, cyclic_character
from hopfforge.linalg import (
    Mat, Tensor3, cone, czero, kron_index, sv_scale,
)
from hopfforge.cocycle import (
    Cocycle, bosonize, check_cocycle, check_prebialgebra, is_radford_majid, m_tilde_pairs,
    retraction_diagnostics,
)
from hopfforge.construct import build_quantum_line, validate_yd_datum


def rat(x):
    return CycScalar.from_rational(x)


@pytest.fixture(scope="module")
def qline2():
    H = group_algebra_cyclic(4)
    chi = cyclic_character(H, rat(-1))
    d = validate_yd_datum(H, {1: cone()}, chi)
    return build_quantum_line(d)


@pytest.fixture(scope="module")
def xi8(qline2):
    t = Tensor3((2, 2, 4))
    t[(0, 0, 0)] = cone()
    t[(1, 1, 0)] = cone()
    t[(1, 1, 2)] = rat(-1)
    return Cocycle(t)  # xi(y (x) y) = 1 - g^2


def test_quantum_line_prebialgebra_axioms(qline2, qline6_entry):
    for P in (qline2, qline6_entry.extra["quantum_line"]):
        rep = check_prebialgebra(P)
        assert rep.ok
        assert P.mult_is_associative and P.mult_is_colinear


def test_xmas_induced_not_colinear(xmas_pi_analysis):
    ind = xmas_pi_analysis.induced
    rep = check_prebialgebra(ind.pre)
    assert rep.ok
    assert ind.pre.mult_is_associative
    assert not ind.pre.mult_is_colinear


def test_scaled_unit_fails(qline2):
    from hopfforge.cocycle import PreBialgebra
    bad = PreBialgebra(qline2.H, qline2.yd, qline2.mult,
                       [rat(2), rat(0)], qline2.comult, qline2.counit)
    rep = check_prebialgebra(bad)
    assert not rep.entry("unit_comult").ok


def test_trivial_cocycle_passes(qline2, qline6_entry):
    for P in (qline2, qline6_entry.extra["quantum_line"]):
        assert check_cocycle(P, Cocycle.trivial(P)).ok


@pytest.mark.parametrize("side", ["left", "right"])
def test_one_sided_unitality_fails(qline6_entry, side):
    """qline6's trivial xi with xi(1 (x) y) = 1_H, or its mirror xi(y (x) 1) = 1_H,
    is unital on the other side only: the unitality entry fails with exactly
    the witness y, index 1."""
    P = qline6_entry.extra["quantum_line"]
    trivial = Cocycle.trivial(P)
    assert P.unit_sv() == {0: cone()} and P.counit[1].is_zero() and not trivial.eval_basis(0, 1)
    t = Tensor3(trivial.xi.shape, trivial.xi.data)
    for h, c in P.H.unit_sv().items():
        t[(0, 1, h) if side == "left" else (1, 0, h)] = c
    ent = check_cocycle(P, Cocycle(t)).entry("cocycle_unitality")
    assert (ent.ok, ent.witnesses) == (False, [1])


def test_nontrivial_dim8_cocycle_passes(qline2, xi8):
    rep = check_cocycle(qline2, xi8)
    assert rep.ok


def test_xmas_induced_cocycle_passes(xmas_pi_analysis, xmas_entry):
    ind, basis = xmas_pi_analysis.induced, xmas_pi_analysis.basis
    rep = check_cocycle(ind.pre, ind.xi)
    assert rep.ok
    # xi(y (x) y^2) = X
    yp = basis.y_powers()
    x_idx = 6
    assert ind.xi.eval(yp[1], yp[2]) == {x_idx: cone()}


def test_cocycle_violation_detected(qline2):
    t = Tensor3((2, 2, 4))
    t[(0, 0, 0)] = cone()
    t[(1, 1, 1)] = cone()   # lands on g instead of 1 - g^2: not ad-equivariant
    rep = check_cocycle(qline2, Cocycle(t))
    assert not rep.ok
    # bosonize refuses it, naming the failing relations
    with pytest.raises(AxiomViolation) as err:
        bosonize(qline2, Cocycle(t))
    assert str(err.value) == "cocycle axioms fail: " + ", ".join(e.name for e in rep.failures())


def test_m_tilde_unit_case(qline2, xi8):
    # mtilde(r (x) u) = r (x) 1_H
    mts = m_tilde_pairs(qline2, xi8)
    for i in range(2):
        assert mts[i, 0] == {(i, 0): cone()}


def test_m_tilde_dim8_value(qline2, xi8):
    # mtilde(y (x) y) = y^2 (x) 1 + 1 (x) xi(y,y); y^2 = 0 in R
    out = m_tilde_pairs(qline2, xi8)[1, 1]
    expect = {(0, 0): cone(), (0, 2): rat(-1)}
    assert out == expect


def test_m_tilde_matches_divided_power_formula(xmas_pi_analysis):
    # mtilde(d_a (x) d_b) = sum q^{j(a-i)} d_i d_j (x) xi(d_{a-i} (x) d_{b-j});
    # the left side is evaluated by bilinearity on the stored basis
    ind, basis = xmas_pi_analysis.induced, xmas_pi_analysis.basis
    P, xi, q = ind.pre, ind.xi, basis.q
    N = basis.N
    d = basis.d
    mts = m_tilde_pairs(P, xi)
    for a in range(N):
        for b in range(N):
            expect: dict = {}
            for i in range(a + 1):
                for j in range(b + 1):
                    prod = P.mul_sv(d[i], d[j])
                    xiv = xi.eval(d[a - i], d[b - j])
                    if not prod or not xiv:
                        continue
                    coef = q ** (j * (a - i))
                    for r, cr in prod.items():
                        for h, chv in xiv.items():
                            key = (r, h)
                            expect[key] = expect.get(key, czero()) + coef * cr * chv
            expect = {k: v for k, v in expect.items() if v}
            got: dict = {}
            for (i1, c1) in d[a].items():
                for (j1, c2) in d[b].items():
                    for key, v in mts[i1, j1].items():
                        got[key] = got.get(key, czero()) + c1 * c2 * v
            got = {k: v for k, v in got.items() if v}
            assert got == expect, (a, b)


@pytest.mark.parametrize("which", ["qline6", "c4min_induced"])
def test_delta_rr_and_m_tilde_formed_once_per_pair(which, qline6_entry, c4min_entry, monkeypatch):
    """Each delta_{R (x) R}(e_i (x) e_j) and R (x) R as a YD module are formed
    once per pre-bialgebra across check_prebialgebra, check_cocycle and
    bosonize, rho_{R (x) R} only inside yd_tensor, and m-tilde once per
    check_cocycle and once per bosonize.  P is built here, since catalog
    entries are cached and may already hold their square."""
    from hopfforge import cocycle, yd
    from hopfforge.analyze import induced_structures
    if which == "qline6":
        P = build_quantum_line(qline6_entry.extra["datum"])
        xi = Cocycle.trivial(P)
    else:
        ind = induced_structures(c4min_entry.setup, verify=False)
        P, xi = ind.pre, ind.xi
    pairs = sorted((i, j) for i in range(P.dim) for j in range(P.dim))
    calls = {"delta": [], "rho": [], "yd_tensor": 0, "m_tilde": 0}
    formed = {name: getattr(yd, name) for name in
              ("braided_coproduct_pair", "codiagonal_coaction_pair", "yd_tensor")}
    formed_tilde = cocycle.m_tilde_pairs
    inside = []

    def counted_delta(R, VR, S, VS, i, j):
        if S is P:  # bosonize also forms the braided tensor coalgebra of R and H
            assert R is P
            calls["delta"].append((i, j))
        return formed["braided_coproduct_pair"](R, VR, S, VS, i, j)

    def counted_rho(V, W, i, j):
        assert inside and V is W is P.yd
        calls["rho"].append((i, j))
        return formed["codiagonal_coaction_pair"](V, W, i, j)

    def counted_tensor(V, W):
        calls["yd_tensor"] += 1
        inside.append(True)
        try:
            return formed["yd_tensor"](V, W)
        finally:
            inside.pop()

    def counted_tilde(P_, xi_):
        calls["m_tilde"] += 1
        return formed_tilde(P_, xi_)

    monkeypatch.setattr(yd, "braided_coproduct_pair", counted_delta)
    monkeypatch.setattr(yd, "codiagonal_coaction_pair", counted_rho)
    monkeypatch.setattr(cocycle, "yd_tensor", counted_tensor)
    monkeypatch.setattr(cocycle, "m_tilde_pairs", counted_tilde)
    assert check_prebialgebra(P).ok
    assert check_cocycle(P, xi).ok
    assert calls["m_tilde"] == 1
    bosonize(P, xi, verify=False)
    assert calls["m_tilde"] == 2
    assert sorted(calls["delta"]) == pairs
    assert sorted(calls["rho"]) == pairs and calls["yd_tensor"] == 1
    check_prebialgebra(P)
    check_cocycle(P, xi)
    assert len(calls["delta"]) == len(calls["rho"]) == len(pairs) and calls["yd_tensor"] == 1


def test_adjoint_action_formed_once_per_base(c4min_entry, monkeypatch):
    """The adjoint action of H is formed once per H object, however many
    check_cocycle runs and ad-invariance checks read it."""
    from hopfforge import hopf
    from hopfforge.analyze import induced_structures
    ind = induced_structures(c4min_entry.setup, verify=False)
    H = ind.pre.H
    monkeypatch.delitem(vars(H), "adjoint", raising=False)  # formed by an earlier test or build
    formed, calls = hopf.adjoint_action, []
    for module in [m for name, m in sys.modules.items() if name.startswith("hopfforge.")]:
        if getattr(module, "adjoint_action", None) is formed:  # every module that binds it
            monkeypatch.setattr(module, "adjoint_action", lambda H_: calls.append(id(H_)) or formed(H_))
    assert check_cocycle(ind.pre, ind.xi).ok
    assert check_cocycle(ind.pre, ind.xi).ok
    assert hopf.verify_ad_integral(H, H.dual_integral)
    assert calls == [id(H)]


def test_m_tilde_matrix_shape(qline2, xi8):
    """m_tilde_pairs has one value per basis pair of R (x) R, keyed by (r, h) in R (x) H."""
    mts = m_tilde_pairs(qline2, xi8)
    assert sorted(mts) == [(i, j) for i in range(2) for j in range(2)]
    assert all(0 <= r < 2 and 0 <= h < 4 for mt in mts.values() for r, h in mt)
    assert mts[1, 1] == {(0, 0): cone(), (0, 2): rat(-1)}


def test_bosonize_radford_majid_smash(qline6_entry, smash36_bosonization):
    bos = smash36_bosonization
    assert bos.B.dim == 36
    assert check_bialgebra(bos.B).ok
    assert is_radford_majid(bos.xi, bos.P)
    diag = retraction_diagnostics(bos.B, bos.pi, bos.sigma, qline6_entry.extra["H"])
    assert diag == {"coalgebra_map": True, "algebra_map": True, "H_bilinear": True}


def test_bosonize_dim8(qline2, xi8, c4min_entry):
    bos = bosonize(qline2, xi8)
    O = c4min_entry.ore.O
    assert bos.B.mult == O.mult and bos.B.comult == O.comult
    # y#1 squares to 1#(1 - g^2)
    y1 = {kron_index(1, 0, 4): cone()}
    sq = bos.B.mul_sv(y1, y1)
    assert sq == {kron_index(0, 0, 4): cone(), kron_index(0, 2, 4): rat(-1)}
    diag = retraction_diagnostics(bos.B, bos.pi, bos.sigma, qline2.H)
    assert diag["coalgebra_map"] and diag["H_bilinear"] and not diag["algebra_map"]
    assert not is_radford_majid(xi8, qline2)
    # pi fails multiplicativity exactly at (y#1, y#1)
    lhs = bos.pi.apply_sv(sq)
    rhs = qline2.H.mul_sv(bos.pi.apply_sv(y1), bos.pi.apply_sv(y1))
    assert lhs != rhs and rhs == {}


def test_bosonize_rejects_invalid_cocycle(qline2):
    t = Tensor3((2, 2, 4))
    t[(0, 0, 0)] = cone()
    t[(1, 1, 1)] = cone()
    with pytest.raises(AxiomViolation):
        bosonize(qline2, Cocycle(t))


def test_pi_sigma_contract(qline2, xi8):
    bos = bosonize(qline2, xi8, verify=False)
    assert (bos.pi @ bos.sigma) == Mat.identity(4)
    # H-bilinearity of pi via diagnostics already covered; spot-check values
    for h in range(4):
        assert bos.pi.apply_sv(bos.sigma.cols[h]) == {h: cone()}


def test_power_formulas_in_bosonization(xmas_pi_analysis, xmas_entry):
    # Y^a in R#H: a < N/2: y^a (x) 1; N/2 <= a <= N-1: binom(a,N/2)_q Y^(a-N/2) X + y^a (x) 1;
    # a = N: 1 (x) xi(y,y^(N-1)) + binom(N-1,N/2)_q X^2
    ind, basis, ana = xmas_pi_analysis.induced, xmas_pi_analysis.basis, xmas_pi_analysis.cocycle
    P, xi, q, N = ind.pre, ind.xi, basis.q, basis.N
    bos = bosonize(P, xi, verify=False)
    B = bos.B
    nh = P.H.dim
    yp = basis.y_powers()
    y_hash = {kron_index(i, 0, nh): c for i, c in basis.y.items()}  # y # 1
    x_sv = ana.x
    X_hash = sv_scale({kron_index(0, h, nh): c for h, c in x_sv.items()},
                      q_factorial(N // 2 - 1, q))
    powers = [B.unit_sv()]
    for _ in range(N):
        powers.append(B.mul_sv(powers[-1], y_hash))

    def embed_r(vec) -> dict:
        return {kron_index(i, 0, nh): c for i, c in vec.items()}

    for a in range(N):
        expect = embed_r(yp[a])
        if a >= N // 2:
            coeff = q_binomial(a, N // 2, q)
            term = B.mul_sv(powers[a - N // 2], X_hash)
            for k, c in sv_scale(term, coeff).items():
                cur = expect.get(k)
                new = c if cur is None else cur + c
                if new:
                    expect[k] = new
                elif cur is not None:
                    del expect[k]
        assert powers[a] == expect, a
    xiN = xi.eval(yp[1], yp[N - 1])
    expect_N = {kron_index(0, h, nh): c for h, c in xiN.items()}
    X2 = B.mul_sv(X_hash, X_hash)
    for k, c in sv_scale(X2, q_binomial(N - 1, N // 2, q)).items():
        cur = expect_N.get(k)
        new = c if cur is None else cur + c
        if new:
            expect_N[k] = new
        elif cur is not None:
            del expect_N[k]
    assert powers[N] == expect_N
