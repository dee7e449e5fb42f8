"""check_yd, check_prebialgebra and check_cocycle against a per-tuple reference.

The reference below forms every side tuple by tuple, with products against
unit vectors {k: 1} and its own accumulation, the way the checkers were first
written.  It differs from that first formulation in one place: the triple
coproduct of the YD antipode form drops entries that cancel, which the first
formulation did not (it reported a false failure on kC_2 in the basis 1, 1 + g).
"""

import random

import pytest

from hopfforge import catalog
from hopfforge.analyze import induced_structures
from hopfforge.cocycle import Cocycle, PreBialgebra, check_cocycle, check_prebialgebra
from hopfforge.cyclotomic import CycScalar
from hopfforge.linalg import Tensor3, cone, sv_add_into, sv_scale
from hopfforge.reports import CheckReport
from hopfforge.yd import YDModule, check_yd


def acc(out, key, v):
    """out[key] += v, dropping the entry when it cancels."""
    new = out[key] + v if key in out else v
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def fail(ent, witness, cap=True):
    ent.ok = False
    if not cap or len(ent.witnesses) < 8:
        ent.witnesses.append(witness)


# -- Yetter-Drinfeld axioms --------------------------------------------------------

def ref_check_yd(V):
    rep = CheckReport("Yetter-Drinfeld axioms")
    H, n = V.H, V.dim
    ent = rep.add("module_associative", True)
    for a in range(H.dim):
        for b in range(H.dim):
            ab = H.mul_basis(a, b)
            for i in range(n):
                if V.act(ab, {i: cone()}) != V.act({a: cone()}, V.act_basis(b, i)):
                    fail(ent, (a, b, i))
    ent = rep.add("module_unital", True)
    for i in range(n):
        if V.act(H.unit_sv(), {i: cone()}) != {i: cone()}:
            fail(ent, i, cap=False)
    ent = rep.add("comodule_coassociative", True)
    for i in range(n):
        lhs, rhs = {}, {}
        for (h, j), c in V.coact_basis(i).items():
            for (h1, h2), w in H.comult_basis(h).items():
                acc(lhs, (h1, h2, j), c * w)
            for (h2, j2), w in V.coact_basis(j).items():
                acc(rhs, (h, h2, j2), c * w)
        if lhs != rhs:
            fail(ent, i, cap=False)
    ent = rep.add("comodule_counital", True)
    for i in range(n):
        out = {}
        for (h, j), c in V.coact_basis(i).items():
            if H.counit[h]:
                acc(out, j, H.counit[h] * c)
        if out != {i: cone()}:
            fail(ent, i, cap=False)
    ent_s = rep.add("yd_compatibility", True)
    ent_f = rep.add("yd_compatibility_equivalent_form", True)
    for h in range(H.dim):
        d2 = H.comult_basis(h)
        d3 = {}
        for (a, b), c in d2.items():
            for (b1, b2), w in H.comult_basis(b).items():
                acc(d3, (a, b1, b2), c * w)
        for i in range(n):
            lhs = V.coact(V.act_basis(h, i))
            rhs = {}
            for (h1, h2, h3), c in d3.items():
                s_h3 = H.antipode_sv({h3: cone()})
                for (vm, v0), cv in V.coact_basis(i).items():
                    hleft = H.mul_sv(H.mul_sv({h1: c * cv}, {vm: cone()}), s_h3)
                    for hh, ch in hleft.items():
                        for j, cj in V.act_basis(h2, v0).items():
                            acc(rhs, (hh, j), ch * cj)
            if lhs != rhs:
                fail(ent_s, (h, i))
            lhs_f, rhs_f = {}, {}
            for (h1, h2), c in d2.items():
                for j, cj in V.act_basis(h1, i).items():
                    for (vm, v0), cv in V.coact_basis(j).items():
                        for hh, ch in H.mul_sv({vm: c * cj * cv}, {h2: cone()}).items():
                            acc(lhs_f, (hh, v0), ch)
                for (vm, v0), cv in V.coact_basis(i).items():
                    for hh, ch in H.mul_sv({h1: c * cv}, {vm: cone()}).items():
                        for j, cj in V.act_basis(h2, v0).items():
                            acc(rhs_f, (hh, j), ch * cj)
            if lhs_f != rhs_f:
                fail(ent_f, (h, i))
    if ent_s.ok != ent_f.ok:
        rep.add("yd_forms_agree", False,
                detail="the two compatibility forms disagree; antipode bijectivity is suspect")
    return rep


# -- pre-bialgebra axioms ------------------------------------------------------------

def ref_delta_rr(P, i, j):
    out = {}
    for (r1, r2), cr in P.comult_basis(i).items():
        for (s1, s2), cs in P.comult_basis(j).items():
            for (h, r20), ch in P.yd.coact_basis(r2).items():
                for s1b, ca in P.yd.act_basis(h, s1).items():
                    acc(out, (r1, s1b, r20, s2), cr * cs * ch * ca)
    return out


def ref_coact_pair(P, i, j):
    out = {}
    for (h1, i0), c1 in P.yd.coact_basis(i).items():
        for (h2, j0), c2 in P.yd.coact_basis(j).items():
            for h, ch in P.H.mul_basis(h1, h2).items():
                acc(out, (h, i0, j0), c1 * c2 * ch)
    return out


def ref_pair(left, right, c, out):
    for x, cx in left.items():
        for y, cy in right.items():
            acc(out, (x, y), c * cx * cy)


def ref_mult_is_colinear(P):
    for i in range(P.dim):
        for j in range(P.dim):
            rhs = {}
            for (h, i0, j0), c in ref_coact_pair(P, i, j).items():
                for k, w in P.mul_basis(i0, j0).items():
                    acc(rhs, (h, k), c * w)
            if P.yd.coact(P.mul_basis(i, j)) != rhs:
                return False
    return True


def ref_mult_is_associative(P):
    return all(P.mul_sv(P.mul_basis(i, j), {k: cone()}) == P.mul_sv({i: cone()}, P.mul_basis(j, k))
               for i in range(P.dim) for j in range(P.dim) for k in range(P.dim))


def ref_check_prebialgebra(P):
    rep = CheckReport("pre-bialgebra axioms")
    H, n = P.H, P.dim
    yd_rep = ref_check_yd(P.yd)
    rep.add("yd_structure", yd_rep.ok, [e.name for e in yd_rep.failures()])
    u = P.unit_sv()
    rep.add("unit_action_invariant",
            all(P.yd.act({h: cone()}, u) == sv_scale(u, H.counit[h]) for h in range(H.dim)))
    target = {(h, i): c * ci for h, c in enumerate(H.unit) if c for i, ci in u.items()}
    rep.add("unit_coaction_invariant", P.yd.coact(u) == target)
    duu = {(i, j): ci * cj for i, ci in u.items() for j, cj in u.items()}
    rep.add("unit_comult", P.comult_sv(u) == duu)
    rep.add("unit_counit", P.counit_sv(u).is_one())
    ent = rep.add("mult_h_linear", True)
    for h in range(H.dim):
        for i in range(n):
            for j in range(n):
                rhs = {}
                for (h1, h2), c in H.comult_basis(h).items():
                    a, b = P.yd.act_basis(h1, i), P.yd.act_basis(h2, j)
                    if a and b:
                        sv_add_into(rhs, sv_scale(P.mul_sv(a, b), c))
                if P.yd.act({h: cone()}, P.mul_basis(i, j)) != rhs:
                    fail(ent, (h, i, j))
    ent = rep.add("mult_comult_compat", True)
    for i in range(n):
        for j in range(n):
            rhs = {}
            for (a, b, c_, d), c in ref_delta_rr(P, i, j).items():
                ref_pair(P.mul_basis(a, b), P.mul_basis(c_, d), c, rhs)
            if P.comult_sv(P.mul_basis(i, j)) != rhs:
                fail(ent, (i, j))
    ent = rep.add("mult_counit_compat", True)
    for i in range(n):
        for j in range(n):
            if P.counit_sv(P.mul_basis(i, j)) != P.counit[i] * P.counit[j]:
                fail(ent, (i, j), cap=False)
    ent = rep.add("unit_neutral", True)
    for i in range(n):
        e = {i: cone()}
        if P.mul_sv(u, e) != e or P.mul_sv(e, u) != e:
            fail(ent, i, cap=False)
    ent = rep.add("comult_h_linear", True)
    for h in range(H.dim):
        for k in range(n):
            rhs = {}
            for (i, j), c in P.comult_basis(k).items():
                for (h1, h2), w in H.comult_basis(h).items():
                    ref_pair(P.yd.act_basis(h1, i), P.yd.act_basis(h2, j), c * w, rhs)
            if P.comult_sv(P.yd.act_basis(h, k)) != rhs:
                fail(ent, (h, k))
    ent = rep.add("comult_colinear", True)
    for k in range(n):
        lhs, rhs = {}, {}
        for (h, k0), c in P.yd.coact_basis(k).items():
            for (i, j), w in P.comult_basis(k0).items():
                acc(lhs, (h, i, j), c * w)
        for (i, j), c in P.comult_basis(k).items():
            for key, w in ref_coact_pair(P, i, j).items():
                acc(rhs, key, c * w)
        if lhs != rhs:
            fail(ent, k, cap=False)
    ent = rep.add("counit_h_linear", True)
    for h in range(H.dim):
        for k in range(n):
            if P.counit_sv(P.yd.act_basis(h, k)) != H.counit[h] * P.counit[k]:
                fail(ent, (h, k), cap=False)
    ent = rep.add("counit_colinear", True)
    for k in range(n):
        out = {}
        for (h, k0), c in P.yd.coact_basis(k).items():
            if P.counit[k0]:
                acc(out, h, c * P.counit[k0])
        if out != sv_scale(H.unit_sv(), P.counit[k]):
            fail(ent, k, cap=False)
    rep.add("info_mult_associative", True, detail=f"associative={ref_mult_is_associative(P)}")
    rep.add("info_mult_colinear", True, detail=f"colinear={ref_mult_is_colinear(P)}")
    return rep


# -- cocycle axioms ------------------------------------------------------------------

def ref_m_tilde_pair(P, xi, i, j):
    out = {}
    for (a, b, c_, d), c in ref_delta_rr(P, i, j).items():
        ref_pair(P.mul_basis(a, b), xi.eval_basis(c_, d), c, out)
    return out


def ref_xi_coacted(P, xi, i, j, g):
    out = {}
    for (a, b, c_, d), c in ref_delta_rr(P, i, j).items():
        for hf, cf in xi.eval_basis(a, b).items():
            for (h, c0, d0), w in ref_coact_pair(P, c_, d).items():
                prod = P.H.mul_sv({hf: c * cf * w}, {h: cone()})
                ref_pair(prod, g(c0, d0), cone(), out)
    return out


def ref_check_cocycle(P, xi):
    rep = CheckReport("cocycle axioms")
    H, n = P.H, P.dim
    ent = rep.add("cocycle_ad_equivariance", True)
    for h in range(H.dim):
        for i in range(n):
            for j in range(n):
                lhs, rhs = {}, {}
                for (h1, h2), c in H.comult_basis(h).items():
                    a, b = P.yd.act_basis(h1, i), P.yd.act_basis(h2, j)
                    if a and b:
                        sv_add_into(lhs, sv_scale(xi.eval(a, b), c))
                    mid = H.mul_sv({h1: c}, xi.eval_basis(i, j))
                    sv_add_into(rhs, H.mul_sv(mid, H.antipode_sv({h2: cone()})))
                if lhs != rhs:
                    fail(ent, (h, i, j))
    ent = rep.add("cocycle_comult_compat", True)
    for i in range(n):
        for j in range(n):
            if H.comult_sv(xi.eval_basis(i, j)) != ref_xi_coacted(P, xi, i, j, xi.eval_basis):
                fail(ent, (i, j))
    ent = rep.add("cocycle_counit_compat", True)
    for i in range(n):
        for j in range(n):
            if H.counit_sv(xi.eval_basis(i, j)) != P.counit[i] * P.counit[j]:
                fail(ent, (i, j), cap=False)
    ent = rep.add("cocycle_braiding_compat", True)
    for i in range(n):
        for j in range(n):
            lhs = {}
            for (r, h), c in ref_m_tilde_pair(P, xi, i, j).items():
                for (hr, r0), cr in P.yd.coact_basis(r).items():
                    for hp, cp in H.mul_basis(hr, h).items():
                        acc(lhs, (hp, r0), c * cr * cp)
            if lhs != ref_xi_coacted(P, xi, i, j, P.mul_basis):
                fail(ent, (i, j))
    ent = rep.add("cocycle_twisted_associativity", True)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rhs = {}
                for (r, h), c in ref_m_tilde_pair(P, xi, i, j).items():
                    sv_add_into(rhs, sv_scale(P.mul_sv({r: cone()}, P.yd.act_basis(h, k)), c))
                if P.mul_sv({i: cone()}, P.mul_basis(j, k)) != rhs:
                    fail(ent, (i, j, k))
    ent = rep.add("cocycle_mixed_associativity", True)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs, rhs = {}, {}
                for (r, h), c in ref_m_tilde_pair(P, xi, j, k).items():
                    sv_add_into(lhs, H.mul_sv(sv_scale(xi.eval_basis(i, r), c), {h: cone()}))
                for (r, h), c in ref_m_tilde_pair(P, xi, i, j).items():
                    for (h1, h2), w in H.comult_basis(h).items():
                        for k2, ck in P.yd.act_basis(h1, k).items():
                            xiv = sv_scale(xi.eval_basis(r, k2), c * w * ck)
                            sv_add_into(rhs, H.mul_sv(xiv, {h2: cone()}))
                if lhs != rhs:
                    fail(ent, (i, j, k))
    ent = rep.add("cocycle_unitality", True)
    u = P.unit_sv()
    for i in range(n):
        e = {i: cone()}
        target = sv_scale(H.unit_sv(), P.counit[i])
        if xi.eval(e, u) != target or xi.eval(u, e) != target:
            fail(ent, i, cap=False)
    return rep


# -- the comparison ------------------------------------------------------------------

def entries(rep):
    return [(e.name, e.ok, e.witnesses, e.detail) for e in rep.entries]


@pytest.fixture(scope="module")
def cases():
    ql = catalog.qline6().extra
    ind = induced_structures(catalog.xmas().extra["setup_pi"], verify=False)
    return {"qline6": (ql["quantum_line"], ql["xi"]), "xmas_pi": (ind.pre, ind.xi)}


def bumped(T, rng):
    """T with one of its nonzero constants, chosen by rng, moved by +1."""
    data = dict(T.data)
    key = rng.choice(sorted(data))
    data[key] = data[key] + CycScalar.from_rational(1)
    return Tensor3(T.shape, data)


def perturbed(P, xi, tensor, seed):
    rng = random.Random(seed)
    yd = P.yd
    if tensor == "xi":
        return P, Cocycle(bumped(xi.xi, rng))
    if tensor in ("action", "coaction"):
        action = bumped(yd.action, rng) if tensor == "action" else yd.action
        coaction = bumped(yd.coaction, rng) if tensor == "coaction" else yd.coaction
        yd = YDModule(P.H, P.dim, action, coaction)
    mult = bumped(P.mult, rng) if tensor == "mult" else P.mult
    comult = bumped(P.comult, rng) if tensor == "comult" else P.comult
    return PreBialgebra(P.H, yd, mult, P.unit, comult, P.counit), xi


def assert_matches(P, xi):
    assert entries(check_yd(P.yd)) == entries(ref_check_yd(P.yd))
    assert entries(check_prebialgebra(P)) == entries(ref_check_prebialgebra(P))
    assert entries(check_cocycle(P, xi)) == entries(ref_check_cocycle(P, xi))


@pytest.mark.parametrize("name", ["qline6", "xmas_pi"])
def test_checkers_match_reference(cases, name):
    P, xi = cases[name]
    assert_matches(P, xi)
    assert check_prebialgebra(P).ok and check_cocycle(P, xi).ok


@pytest.mark.parametrize("tensor", ["action", "coaction", "mult", "comult", "xi"])
@pytest.mark.parametrize("name", ["qline6", "xmas_pi"])
def test_checkers_match_reference_on_perturbed_data(cases, name, tensor):
    P, xi = perturbed(*cases[name], tensor, seed=3)
    assert_matches(P, xi)
    assert not (check_prebialgebra(P).ok and check_cocycle(P, xi).ok)
