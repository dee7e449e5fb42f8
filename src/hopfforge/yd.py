"""Yetter-Drinfeld modules over a structure-constant Hopf algebra.

A module stores its action over a basis of H and extends linearly; all
checks quantify over basis tuples, which suffices by bilinearity.  The
braiding c(v (x) w) = v_(-1) w (x) v_0 and the braided tensor (co)algebras
built from it are what the bosonization machinery consumes; their per-pair
formulas (`braided_coproduct_pair`, `codiagonal_coaction_pair`) are the only
copies of the braided coproduct and the codiagonal coaction, read only by
`braided_tensor_coalgebra` and `yd_tensor`.  A pre-bialgebra forms its R (x) R
with these two once and keeps it (`cocycle.PreBialgebra`).
`module_map_failures` and `comodule_map_failures` check that a linear map
between two modules is a morphism of H-modules or of H-comodules.
"""

from __future__ import annotations

from typing import Iterator

from .cyclotomic import CycScalar
from .hopf import AlgebraSC, CoalgebraSC, HopfSC, ad_action
from .linalg import (
    Mat, SVec, Tensor3, Vec,
    ShapeMismatch, cone, czero, kron_index, sv_add_into, sv_axpy, sv_outer_axpy,
)
from .reports import CheckReport


class YDViolation(ValueError):
    pass


class YDModule:
    """Left-left Yetter-Drinfeld module datum (compatibility checked on demand)."""

    def __init__(self, H: HopfSC, dim: int, action: Tensor3, coaction: Tensor3):
        if action.shape != (H.dim, dim, dim):
            raise ShapeMismatch("action tensor must have shape (dim H, dim V, dim V)")
        if coaction.shape != (dim, H.dim, dim):
            raise ShapeMismatch("coaction tensor must have shape (dim V, dim H, dim V)")
        self.H = H
        self.dim = dim
        self.action = action
        self.coaction = coaction
        self._act: dict[tuple[int, int], list[tuple[int, CycScalar]]] = {}
        for (h, i, j), c in action.data.items():
            self._act.setdefault((h, i), []).append((j, c))
        self._coact: dict[int, list[tuple[int, int, CycScalar]]] = {}
        for (i, h, j), c in coaction.data.items():
            self._coact.setdefault(i, []).append((h, j, c))

    def act_basis(self, h: int, i: int) -> SVec:
        return {j: c for j, c in self._act.get((h, i), ())}

    def act(self, h_sv: SVec, v_sv: SVec) -> SVec:
        out: SVec = {}
        for h, ch in h_sv.items():
            for i, ci in v_sv.items():
                terms = self._act.get((h, i))
                if terms:
                    sv_axpy(out, ch * ci, terms)
        return out

    def coact_basis(self, i: int) -> dict[tuple[int, int], CycScalar]:
        return {(h, j): c for h, j, c in self._coact.get(i, ())}

    def coact(self, v_sv: SVec) -> dict[tuple[int, int], CycScalar]:
        out: dict[tuple[int, int], CycScalar] = {}
        for i, ci in v_sv.items():
            sv_axpy(out, ci, (((h, j), c) for h, j, c in self._coact.get(i, ())))
        return out


def trivial_module(H: HopfSC) -> YDModule:
    """K with action through the counit and coaction x -> 1 (x) x."""
    action = Tensor3((H.dim, 1, 1))
    for h in range(H.dim):
        action[(h, 0, 0)] = H.counit[h]
    coaction = Tensor3((1, H.dim, 1))
    for h, c in enumerate(H.unit):
        if c:
            coaction[(0, h, 0)] = c
    return YDModule(H, 1, action, coaction)


def one_dim_module(H: HopfSC, g: SVec, chi: Vec) -> YDModule:
    """K y with h . y = chi(h) y and coaction rho(y) = g (x) y."""
    action = Tensor3((H.dim, 1, 1))
    for h in range(H.dim):
        action[(h, 0, 0)] = chi[h]
    coaction = Tensor3((1, H.dim, 1))
    for h, c in g.items():
        coaction[(0, h, 0)] = c
    return YDModule(H, 1, action, coaction)


def check_yd(V: YDModule) -> CheckReport:
    """Module + comodule axioms and both equivalent compatibility forms."""
    rep = CheckReport("Yetter-Drinfeld axioms")
    H, n = V.H, V.dim
    bad = []
    for a in range(H.dim):
        for b in range(H.dim):
            ab = H.mul_basis(a, b)
            for i in range(n):
                lhs: SVec = {}
                for m, c in ab.items():
                    sv_axpy(lhs, c, V.act_basis(m, i).items())
                rhs: SVec = {}
                for j, c in V.act_basis(b, i).items():
                    sv_axpy(rhs, c, V.act_basis(a, j).items())
                if lhs != rhs:
                    bad.append((a, b, i))
    rep.add("module_associative", not bad, bad)
    bad = []
    u = H.unit_sv()
    for i in range(n):
        acted: SVec = {}
        for m, c in u.items():
            sv_axpy(acted, c, V.act_basis(m, i).items())
        if acted != {i: cone()}:
            bad.append(i)
    rep.record("module_unital", bad)
    bad = []
    for i in range(n):
        lhs: dict[tuple[int, int, int], CycScalar] = {}
        rhs: dict[tuple[int, int, int], CycScalar] = {}
        for (h, j), c in V.coact_basis(i).items():
            sv_axpy(lhs, c, (((h1, h2, j), w) for (h1, h2), w in H.comult_basis(h).items()))
            sv_axpy(rhs, c, (((h, h2, j2), w) for (h2, j2), w in V.coact_basis(j).items()))
        if lhs != rhs:
            bad.append(i)
    rep.record("comodule_coassociative", bad)
    bad = []
    for i in range(n):
        acc: SVec = {}
        for (h, j), c in V.coact_basis(i).items():
            e = H.counit[h]
            if e:
                sv_add_into(acc, {j: e * c})
        if acc != {i: cone()}:
            bad.append(i)
    rep.record("comodule_counital", bad)
    # compatibility, antipode form: rho(h v) = h1 v_(-1) S(h3) (x) h2 v_0
    # compatibility, first displayed form:
    #   (h1 v)_(-1) h2 (x) (h1 v)_0 = h1 v_(-1) (x) h2 v_0
    bad_s, bad_f = [], []
    scols = [H.antipode_col(j) for j in range(H.dim)]
    for h in range(H.dim):
        d2 = H.comult_basis(h)
        # triple coproduct of h for the antipode form
        d3: dict[tuple[int, int, int], CycScalar] = {}
        for (a, b), c in d2.items():
            sv_axpy(d3, c, (((a, b1, b2), w) for (b1, b2), w in H.comult_basis(b).items()))
        for i in range(n):
            lhs = V.coact(V.act_basis(h, i))
            rhs: dict[tuple[int, int], CycScalar] = {}
            for (h1, h2, h3), c in d3.items():
                for (vm, v0), cv in V.coact_basis(i).items():
                    hleft = H.mul_sv(H.mul_basis(h1, vm), scols[h3])
                    sv_outer_axpy(rhs, c * cv, hleft, V.act_basis(h2, v0))
            if lhs != rhs:
                bad_s.append((h, i))
            # first form
            lhs_f: dict[tuple[int, int], CycScalar] = {}
            rhs_f: dict[tuple[int, int], CycScalar] = {}
            for (h1, h2), c in d2.items():
                for j, cj in V.act_basis(h1, i).items():
                    for (vm, v0), cv in V.coact_basis(j).items():
                        sv_axpy(lhs_f, c * cj * cv,
                                (((hh, v0), ch) for hh, ch in H.mul_basis(vm, h2).items()))
                for (vm, v0), cv in V.coact_basis(i).items():
                    sv_outer_axpy(rhs_f, c * cv, H.mul_basis(h1, vm), V.act_basis(h2, v0))
            if lhs_f != rhs_f:
                bad_f.append((h, i))
    rep.add("yd_compatibility", not bad_s, bad_s)
    rep.add("yd_compatibility_equivalent_form", not bad_f, bad_f)
    if bool(bad_s) != bool(bad_f):
        rep.add("yd_forms_agree", False,
                detail="the two compatibility forms disagree; antipode bijectivity is suspect")
    return rep


def yd_tensor(V: YDModule, W: YDModule) -> YDModule:
    """V (x) W with the diagonal action and codiagonal coaction."""
    if V.H is not W.H:
        raise YDViolation("tensor product needs a common base Hopf algebra")
    H = V.H
    n = V.dim * W.dim
    action = Tensor3((H.dim, n, n))
    for h in range(H.dim):
        for (h1, h2), c in H.comult_basis(h).items():
            for i in range(V.dim):
                vi = [(a, c * ca) for a, ca in V._act.get((h1, i), ())]
                if not vi:
                    continue
                for j in range(W.dim):
                    wj = W._act.get((h2, j), ())
                    src = kron_index(i, j, W.dim)
                    for a, ca in vi:
                        sv_axpy(action.data, ca, (((h, src, a * W.dim + b), cb) for b, cb in wj))
    coaction = Tensor3((n, H.dim, n))
    for i in range(V.dim):
        for j in range(W.dim):
            for (h, v0, w0), c in codiagonal_coaction_pair(V, W, i, j).items():
                coaction[(kron_index(i, j, W.dim), h, kron_index(v0, w0, W.dim))] = c
    return YDModule(H, n, action, coaction)


def codiagonal_coaction_pair(V: YDModule, W: YDModule, i: int,
                             j: int) -> dict[tuple[int, int, int], CycScalar]:
    """rho(e_i (x) e_j) = v_(-1) w_(-1) (x) v_0 (x) w_0 in V (x) W, keyed by (h, v0, w0)."""
    out: dict[tuple[int, int, int], CycScalar] = {}
    mul_basis = V.H.mul_basis
    cj = W._coact.get(j, ())
    for hv, v0, cv in V._coact.get(i, ()):
        for hw, w0, cw in cj:
            sv_axpy(out, cv * cw, (((h, v0, w0), ch) for h, ch in mul_basis(hv, hw).items()))
    return out


def braiding(V: YDModule, W: YDModule) -> Mat:
    """c_{V,W}: V (x) W -> W (x) V, v (x) w -> v_(-1) w (x) v_0."""
    if V.H is not W.H:
        raise YDViolation("braiding needs a common base Hopf algebra")
    cols: list[SVec] = [{} for _ in range(V.dim * W.dim)]
    for i in range(V.dim):
        for (h, i0), c in V.coact_basis(i).items():
            for j in range(W.dim):
                sv_axpy(cols[kron_index(i, j, W.dim)], c,
                        ((kron_index(j0, i0, V.dim), cj) for j0, cj in W.act_basis(h, j).items()))
    return Mat.of_cols(W.dim * V.dim, cols)


# -- morphism checks ----------------------------------------------------------
#
# The module and comodule counterparts of `hopf.algebra_map_failures` and
# `hopf.coalgebra_map_failures`: f: V -> W is given by its columns f(e_j), and
# every basis tuple is visited.


def module_map_failures(f: Mat, V: YDModule, W: YDModule) -> Iterator[tuple[int, int]]:
    """Every (h, j) with f(e_h . e_j) != e_h . f(e_j), h first, then j."""
    cols = f.cols
    for h in range(V.H.dim):
        for j in range(V.dim):
            lhs: SVec = {}
            for k, c in V._act.get((h, j), ()):
                sv_axpy(lhs, c, cols[k].items())
            rhs: SVec = {}
            for i, ci in cols[j].items():
                sv_axpy(rhs, ci, W._act.get((h, i), ()))
            if lhs != rhs:
                yield h, j


def comodule_map_failures(f: Mat, V: YDModule, W: YDModule) -> Iterator[int]:
    """Every j with (id (x) f) rho_V(e_j) != rho_W(f(e_j)), in order."""
    cols = f.cols
    for j in range(V.dim):
        lhs: dict[tuple[int, int], CycScalar] = {}
        for h, k, c in V._coact.get(j, ()):
            sv_axpy(lhs, c, (((h, a), ca) for a, ca in cols[k].items()))
        if lhs != W.coact(cols[j]):
            yield j


def adjoint_action(H: HopfSC) -> Tensor3:
    """Left adjoint action of H on itself: h . x = sum h_1 x S(h_2)."""
    t = Tensor3((H.dim, H.dim, H.dim))
    for h in range(H.dim):
        for x in range(H.dim):
            for k, w in ad_action(H, {h: cone()}, {x: cone()}).items():
                t[(h, x, k)] = w
    return t


def adjoint_coaction(H: HopfSC) -> Tensor3:
    """Left adjoint coaction of H on itself: h -> sum h_1 S(h_3) (x) h_2."""
    t = Tensor3((H.dim, H.dim, H.dim))
    for h in range(H.dim):
        d2 = H.comult_basis(h)
        for (a, b), c in d2.items():
            for (b1, b2), w in H.comult_basis(b).items():
                for x, cx in H.antipode_col(b2).items():
                    sv_axpy(t.data, c * w * cx, (((h, k, b1), ck) for k, ck in H._rows[a][x]))
    return t


def regular_action(H: HopfSC) -> Tensor3:
    """Multiplication action of H on itself (h . x = h x)."""
    t = Tensor3((H.dim, H.dim, H.dim))
    for (i, j, k), c in H.mult.data.items():
        t[(i, j, k)] = c
    return t


def regular_coaction(H: HopfSC) -> Tensor3:
    """Comultiplication as a coaction of H on itself."""
    t = Tensor3((H.dim, H.dim, H.dim))
    for (k, i, j), c in H.comult.data.items():
        t[(k, i, j)] = c
    return t


def yd_module_adjoint(H: HopfSC) -> YDModule:
    """H as a YD module: adjoint action, regular coaction (smash-product side)."""
    return YDModule(H, H.dim, adjoint_action(H), regular_coaction(H))


def braided_tensor_algebra(R: AlgebraSC, VR: YDModule, S: AlgebraSC, VS: YDModule) -> AlgebraSC:
    """Algebra on R (x) S with (r (x) s)(t (x) v) = r (s_(-1) t) (x) s_0 v.

    Callers opt into which YD-morphism checks gate the construction; the
    formula itself only needs the stored tensors.
    """
    if VR.dim != R.dim or VS.dim != S.dim:
        raise ShapeMismatch("YD carriers must match the algebra carriers")
    n2 = S.dim
    n = R.dim * n2
    mult = Tensor3((n, n, n))
    for j in range(S.dim):
        cj = VS.coact_basis(j)
        for t in range(R.dim):
            # sum s_(-1) t (x) s_0 for s = e_j
            acted: dict[tuple[int, int], CycScalar] = {}
            for (h, s0), c in cj.items():
                sv_axpy(acted, c, (((t2, s0), ct) for t2, ct in VR.act_basis(h, t).items()))
            for i in range(R.dim):
                for v in range(S.dim):
                    ij, tv = kron_index(i, j, n2), kron_index(t, v, n2)
                    for (t2, s0), c in acted.items():
                        right = S._rows[s0][v]
                        for a, ca in R._rows[i][t2]:
                            sv_axpy(mult.data, c * ca, (((ij, tv, a * n2 + b), cb) for b, cb in right))
    unit = [czero()] * n
    for i, ci in enumerate(R.unit):
        if ci:
            for j, cj in enumerate(S.unit):
                if cj:
                    unit[kron_index(i, j, n2)] = ci * cj
    return AlgebraSC(n, mult, unit)


def braided_coproduct_pair(R: CoalgebraSC, VR: YDModule, S: CoalgebraSC, VS: YDModule,
                           i: int, j: int) -> dict[tuple[int, int, int, int], CycScalar]:
    """delta(e_i (x) e_j) in the braided tensor coalgebra R (x) S:

    r^(1) (x) r^(2)_(-1) s^(1) (x) r^(2)_0 (x) s^(2), keyed by (r1, s1', r2_0, s2).
    Only the action of VS is read, not its coaction.
    """
    out: dict[tuple[int, int, int, int], CycScalar] = {}
    ds = S.comult_basis(j)
    for (r1, r2), cr in R.comult_basis(i).items():
        co = VR._coact.get(r2, ())
        for (s1, s2), cs in ds.items():
            for h, r20, ch in co:
                acted = VS._act.get((h, s1))
                if acted:
                    sv_axpy(out, cr * cs * ch, (((r1, s1b, r20, s2), ca) for s1b, ca in acted))
    return out


def braided_tensor_coalgebra(R: CoalgebraSC, VR: YDModule, S: CoalgebraSC, VS: YDModule) -> CoalgebraSC:
    """Coalgebra on R (x) S via the braiding (the coaction of VS is not read):

    delta(r (x) s) = r^(1) (x) r^(2)_(-1) s^(1) (x) r^(2)_0 (x) s^(2).
    """
    if VR.dim != R.dim or VS.dim != S.dim:
        raise ShapeMismatch("YD carriers must match the coalgebra carriers")
    n2 = S.dim
    n = R.dim * n2
    comult = Tensor3((n, n, n))
    for k1 in range(R.dim):
        for k2 in range(S.dim):
            src = kron_index(k1, k2, n2)
            # the pair's entries are nonzero and on distinct keys, so they are stored as they are
            for (r1, s1, r20, s2), c in braided_coproduct_pair(R, VR, S, VS, k1, k2).items():
                comult.data[(src, kron_index(r1, s1, n2), kron_index(r20, s2, n2))] = c
    counit = [czero()] * n
    for i in range(R.dim):
        for j in range(S.dim):
            counit[kron_index(i, j, n2)] = R.counit[i] * S.counit[j]
    return CoalgebraSC(n, comult, counit)

