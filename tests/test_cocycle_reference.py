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
from hopfforge.cocycle import (
    Cocycle, PreBialgebra, bosonization_tensors, check_cocycle, check_prebialgebra,
)
from hopfforge.construct import build_quantum_line, validate_yd_datum
from hopfforge.cyclotomic import CycScalar
from hopfforge.hopf import AlgebraSC, HopfSC, cyclic_character, group_algebra_cyclic
from hopfforge.linalg import Mat, Tensor3, basis_vec, cone, sv_add_into, sv_scale
from hopfforge.reports import CheckReport
from hopfforge.yd import (
    YDModule, adjoint_coaction, braided_tensor_algebra, check_yd, regular_action, regular_coaction,
    yd_tensor,
)


def rat(x):
    return CycScalar.from_rational(x)


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


# -- the table builders against entry-by-entry references ---------------------------
#
# Each reference forms every entry of its table from the defining formula with
# its own accumulation, keeps the entries in a plain dict and writes them
# through Tensor3.__setitem__; it also returns the keys some contribution
# reached, so that a test can see an entry whose contributions cancel.

def tensor_of(shape, entries):
    T = Tensor3(shape)
    for key, v in entries.items():
        T[key] = v
    return T


def ref_bosonization(P, xi):
    """(mult, unit, comult, counit, sigma, pi) of R #_xi H on e_(r nh + h) = r # h:
    m_B[(r#h)(s#k)] = mtilde^0(r (x) h1.s) # mtilde^1(r (x) h1.s) h2 k and
    Delta_B(r#h) = r1 # r2_(-1) h1 (x) r2_0 # h2."""
    H, nr, nh = P.H, P.dim, P.H.dim
    n = nr * nh
    mt = {(r, s): ref_m_tilde_pair(P, xi, r, s) for r in range(nr) for s in range(nr)}
    mult = {}
    for r in range(nr):
        for h in range(nh):
            for s in range(nr):
                # mtilde^0 (x) mtilde^1 h2 summed over h1 . s (x) h2, keyed (r0, h')
                left = {}
                for (h1, h2), c in H.comult_basis(h).items():
                    for s2, cs in P.yd.act_basis(h1, s).items():
                        for (r0, h0), cm in mt[r, s2].items():
                            for hx, cx in H.mul_basis(h0, h2).items():
                                acc(left, (r0, hx), c * cs * cm * cx)
                for k in range(nh):
                    entry = {}
                    for (r0, hx), c in left.items():
                        for hf, cf in H.mul_sv({hx: cone()}, {k: cone()}).items():
                            acc(entry, r0 * nh + hf, c * cf)
                    for x, v in entry.items():
                        mult[(r * nh + h, s * nh + k, x)] = v
    comult = {}
    for r in range(nr):
        for h in range(nh):
            out = {}
            for (r1, r2), cr in P.comult_basis(r).items():
                for (hc, r20), cc in P.yd.coact_basis(r2).items():
                    for (h1, h2), ch in H.comult_basis(h).items():
                        for x, cx in H.mul_basis(hc, h1).items():
                            acc(out, (r1 * nh + x, r20 * nh + h2), cr * cc * ch * cx)
            for (a, b), v in out.items():
                comult[(r * nh + h, a, b)] = v
    unit = [P.unit[r] * H.unit[h] for r in range(nr) for h in range(nh)]
    counit = [P.counit[r] * H.counit[h] for r in range(nr) for h in range(nh)]
    sigma = [{r * nh + h: P.unit[r] for r in range(nr) if P.unit[r]} for h in range(nh)]
    pi = [{h: P.counit[r]} if P.counit[r] else {} for r in range(nr) for h in range(nh)]
    return (tensor_of((n, n, n), mult), unit, tensor_of((n, n, n), comult), counit, sigma, pi)


def ref_yd_tensor_action(V, W):
    """h . (e_i (x) e_j) = h1 . e_i (x) h2 . e_j; the touched keys as well."""
    H, n = V.H, V.dim * W.dim
    out, touched = {}, set()
    for h in range(H.dim):
        for i in range(V.dim):
            for j in range(W.dim):
                for (h1, h2), c in H.comult_basis(h).items():
                    for a, ca in V.act_basis(h1, i).items():
                        for b, cb in W.act_basis(h2, j).items():
                            key = (h, i * W.dim + j, a * W.dim + b)
                            touched.add(key)
                            acc(out, key, c * ca * cb)
    return tensor_of((H.dim, n, n), out), touched


def ref_yd_tensor_coaction(V, W):
    """rho(e_i (x) e_j) = v_(-1) w_(-1) (x) v_0 (x) w_0."""
    H, n = V.H, V.dim * W.dim
    out = {}
    for i in range(V.dim):
        for j in range(W.dim):
            for (hv, v0), cv in V.coact_basis(i).items():
                for (hw, w0), cw in W.coact_basis(j).items():
                    for h, ch in H.mul_basis(hv, hw).items():
                        acc(out, (i * W.dim + j, h, v0 * W.dim + w0), cv * cw * ch)
    return tensor_of((n, H.dim, n), out)


def ref_braided_tensor_algebra(R, VR, S, VS):
    """(r (x) s)(t (x) v) = r (s_(-1) . t) (x) s_0 v; the touched keys as well."""
    n2 = S.dim
    n = R.dim * n2
    out, touched = {}, set()
    for i in range(R.dim):
        for j in range(S.dim):
            for t in range(R.dim):
                for v in range(S.dim):
                    for (h, s0), c in VS.coact_basis(j).items():
                        for t2, ct in VR.act_basis(h, t).items():
                            for a, ca in R.mul_basis(i, t2).items():
                                for b, cb in S.mul_basis(s0, v).items():
                                    key = (i * n2 + j, t * n2 + v, a * n2 + b)
                                    touched.add(key)
                                    acc(out, key, c * ct * ca * cb)
    return tensor_of((n, n, n), out), touched


def ref_adjoint_coaction(H):
    """h -> h1 S(h3) (x) h2, keyed (h, k, h2); the touched keys as well."""
    out, touched = {}, set()
    for h in range(H.dim):
        for (a, b), c in H.comult_basis(h).items():
            for (b1, b2), w in H.comult_basis(b).items():
                for x, cx in H.antipode_sv({b2: cone()}).items():
                    for k, ck in H.mul_basis(a, x).items():
                        touched.add((h, k, b1))
                        acc(out, (h, k, b1), c * w * cx * ck)
    return tensor_of((H.dim, H.dim, H.dim), out), touched


def kc2_in_basis_one_and_one_plus_g():
    """kC_2 in the basis e0 = 1, e1 = 1 + g, where products and coproducts cancel."""
    mult = Tensor3((2, 2, 2), {(0, 0, 0): rat(1), (0, 1, 1): rat(1), (1, 0, 1): rat(1),
                               (1, 1, 1): rat(2)})
    comult = Tensor3((2, 2, 2), {(0, 0, 0): rat(1), (1, 0, 0): rat(2), (1, 0, 1): rat(-1),
                                 (1, 1, 0): rat(-1), (1, 1, 1): rat(1)})
    return HopfSC(2, mult, basis_vec(2, 0), comult, [rat(1), rat(2)], Mat.identity(2))


@pytest.fixture(scope="module")
def table_cases(cases):
    H = group_algebra_cyclic(4)
    qline2 = build_quantum_line(validate_yd_datum(H, {1: cone()}, cyclic_character(H, rat(-1))))
    xi8 = Tensor3((2, 2, 4), {(0, 0, 0): rat(1), (1, 1, 0): rat(1), (1, 1, 2): rat(-1)})
    out = {"qline2_xi8": (qline2, Cocycle(xi8)), "qline6": cases["qline6"],
           "xmas_pi": cases["xmas_pi"]}
    for name in ("kc12n6", "smash36"):
        ind = induced_structures(catalog.ALL_BUILDERS[name]().setup, verify=False)
        out[name] = (ind.pre, ind.xi)
    return out


def assert_no_zero_stored(*tables):
    for T in tables:
        values = T.data.values() if isinstance(T, Tensor3) else [c for col in T for c in col.values()]
        assert all(values)


@pytest.mark.parametrize("name", ["qline2_xi8", "qline6", "xmas_pi", "kc12n6", "smash36"])
def test_bosonization_tensors_match_reference(table_cases, name):
    P, xi = table_cases[name]
    for x in (xi, Cocycle.trivial(P)):
        mult, unit, comult, counit, sigma, pi = bosonization_tensors(P, x)
        ref = ref_bosonization(P, x)
        assert (mult, unit, comult, counit, sigma.cols, pi.cols) == ref
        assert_no_zero_stored(mult, comult, sigma.cols, pi.cols)


@pytest.mark.parametrize("name", ["qline2_xi8", "qline6", "xmas_pi", "kc2_cancelling"])
def test_yd_table_builders_match_reference(table_cases, name):
    """yd_tensor, braided_tensor_algebra and adjoint_coaction entry by entry;
    on kC_2 in the basis 1, 1 + g, acting and coacting on itself by
    multiplication and comultiplication, contributions cancel in each of them,
    and the cancelled entries are absent from .data."""
    if name == "kc2_cancelling":
        H = kc2_in_basis_one_and_one_plus_g()
        V = YDModule(H, H.dim, regular_action(H), regular_coaction(H))
        R = AlgebraSC(H.dim, H.mult, H.unit)
    else:
        R = table_cases[name][0]
        H, V = R.H, R.yd
    sq = yd_tensor(V, V)
    action, touched_action = ref_yd_tensor_action(V, V)
    assert (sq.action, sq.coaction) == (action, ref_yd_tensor_coaction(V, V))
    alg = braided_tensor_algebra(R, V, R, V)
    mult, touched_mult = ref_braided_tensor_algebra(R, V, R, V)
    assert alg.mult == mult
    coaction, touched_coaction = ref_adjoint_coaction(H)
    assert adjoint_coaction(H) == coaction
    assert_no_zero_stored(sq.action, sq.coaction, alg.mult, coaction)
    if name == "kc2_cancelling":
        for built, touched in ((sq.action, touched_action), (alg.mult, touched_mult),
                               (coaction, touched_coaction)):
            assert touched - set(built.data)
