"""Yetter-Drinfeld modules over a structure-constant Hopf algebra.

A module stores its action over a basis of H and extends linearly; all
checks quantify over basis tuples, which suffices by bilinearity.  The
braiding c(v (x) w) = v_(-1) w (x) v_0 and the braided tensor (co)algebras
built from it are what the bosonization machinery consumes; their per-pair
formulas (`braided_coproduct_pair`, `codiagonal_coaction_pair`) are the only
copies of the braided coproduct and the codiagonal coaction, read only by
`braided_tensor_coalgebra` and `yd_tensor`.  A pre-bialgebra forms its R (x) R
with these two once and keeps it (`cocycle.PreBialgebra`).  The one smash-product
loop, `smash_product_tables`, multiplies through a product R (x) R -> R (x) S:
rt (x) 1_S for `braided_tensor_algebra`, m-tilde for R #_xi H in `cocycle`.
The action is stored as `AlgebraSC` stores its products and the coaction as
`CoalgebraSC` stores its coproducts, so a module reads them through the same
readers, and `module_map_failures` and `comodule_map_failures` are the
bilinear and colinear morphism checks of `hopf` with id_H on the first factor.
So are `check_yd`'s module associativity (the action H (x) V -> V is H-linear
for H acting by left multiplication on the first factor of H (x) V) and
coassociativity (rho: V -> H (x) V is colinear for Delta (x) id on H (x) V).
"""

from __future__ import annotations

from typing import Iterator

from .cyclotomic import CycScalar
from .hopf import (
    AlgebraSC, CoalgebraSC, HopfSC, bilinear_failures, by_first_index, colinear_failures,
    row_table,
)
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
        # _rows[h][i] = e_h . e_i as a tuple of (j, c); _by_k[i] = rho(e_i) as {(h, j): c}
        self._rows = row_table(action)
        self._by_k = by_first_index(coaction)

    act_basis = AlgebraSC.mul_basis
    act = AlgebraSC.mul_sv
    coact_basis = CoalgebraSC.comult_basis
    coact = CoalgebraSC.comult_sv


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
    id_H = Mat.identity(H.dim)
    # act(e_h (x) e_i) = e_h . e_i, and left[a][kron(b, i)] = e_a e_b (x) e_i
    act = Mat.of_cols(n, [V.act_basis(h, i) for h in range(H.dim) for i in range(n)])
    left = [[tuple((kron_index(m, i, n), c) for m, c in cell) for cell in row for i in range(n)]
            for row in H._rows]
    bad = [(a, *divmod(v, n)) for a, v in bilinear_failures(id_H, act, left, V._rows)]
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
    rho = Mat.of_cols(H.dim * n, [{kron_index(h, j, n): c for (h, j), c in V.coact_basis(i).items()}
                                  for i in range(n)])
    # Delta (x) id on H (x) V
    coact_HV = [{(h1, kron_index(h2, j, n)): c for (h1, h2), c in H.comult_basis(h).items()}
                for h in range(H.dim) for j in range(n)]
    rep.record("comodule_coassociative",
               list(colinear_failures(id_H, rho, V.coact_basis, coact_HV.__getitem__)))
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
                vi = [(a, c * ca) for a, ca in V._rows[h1][i]]
                if not vi:
                    continue
                for j in range(W.dim):
                    wj = W._rows[h2][j]
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
    cj = W.coact_basis(j).items()
    for (hv, v0), cv in V.coact_basis(i).items():
        for (hw, w0), cw in cj:
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


def module_map_failures(f: Mat, V: YDModule, W: YDModule) -> Iterator[tuple[int, int]]:
    """Every (h, j) with f(e_h . e_j) != e_h . f(e_j), h first, then j."""
    return bilinear_failures(Mat.identity(V.H.dim), f, V._rows, W._rows)


def comodule_map_failures(f: Mat, V: YDModule, W: YDModule) -> Iterator[int]:
    """Every j with (id (x) f) rho_V(e_j) != rho_W(f(e_j)), in order."""
    return colinear_failures(Mat.identity(V.H.dim), f, V.coact_basis, W.coact_basis)


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


def yd_module_adjoint(H: HopfSC) -> YDModule:
    """H as a YD module: adjoint action, regular coaction (smash-product side)."""
    return YDModule(H, H.dim, H.adjoint, H.comult)


def smash_product_tables(R: AlgebraSC, VR: YDModule, S: AlgebraSC, VS: YDModule,
                         product: dict[tuple[int, int], dict]) -> tuple[Tensor3, Vec]:
    """(mult, unit) on R (x) S with (r (x) s)(t (x) v) = sum r' (x) s' s_0 v over
    product[r, s_(-1) t] = sum r' (x) s', each value keyed (r', s'), and unit 1_R (x) 1_S.

    R's multiplication is read only through product, and of VR and VS only
    the action and the coaction.  There is one `sv_axpy` per (row, t, product
    term, cell e_m of s' s_0), whose terms run over v and e_m e_v.
    """
    n2 = S.dim
    n = R.dim * n2
    mult = Tensor3((n, n, n))
    rows = S._rows
    times_v = [[(v, b, cb) for v, cell in enumerate(rows[m]) for b, cb in cell] for m in range(n2)]
    for j in range(n2):
        cj = VS.coact_basis(j)
        for t in range(R.dim):
            # sum s_(-1) t (x) s_0 for s = e_j, keyed by (t', s_0)
            acted: dict[tuple[int, int], CycScalar] = {}
            for (h, s0), c in cj.items():
                sv_axpy(acted, c, (((t2, s0), ct) for t2, ct in VR.act_basis(h, t).items()))
            for i in range(R.dim):
                ij = kron_index(i, j, n2)
                for (t2, s0), c in acted.items():
                    for (a, sp), cp in product[i, t2].items():
                        for m, cm in rows[sp][s0]:
                            sv_axpy(mult.data, c * cp * cm,
                                    (((ij, t * n2 + v, a * n2 + b), cb) for v, b, cb in times_v[m]))
    return mult, [ci * cj if ci and cj else czero() for ci in R.unit for cj in S.unit]


def braided_tensor_algebra(R: AlgebraSC, VR: YDModule, S: AlgebraSC, VS: YDModule) -> AlgebraSC:
    """Algebra on R (x) S with (r (x) s)(t (x) v) = r (s_(-1) t) (x) s_0 v, the
    smash loop with product[r, t] = rt (x) 1_S.  No YD-morphism check gates it."""
    if VR.dim != R.dim or VS.dim != S.dim:
        raise ShapeMismatch("YD carriers must match the algebra carriers")
    one = S.unit_sv()
    product = {(i, t): {(a, u): ca * cu for a, ca in cell for u, cu in one.items()}
               for i, row in enumerate(R._rows) for t, cell in enumerate(row)}
    return AlgebraSC(R.dim * S.dim, *smash_product_tables(R, VR, S, VS, product))


def braided_coproduct_pair(R: CoalgebraSC, VR: YDModule, S: CoalgebraSC, VS: YDModule,
                           i: int, j: int) -> dict[tuple[int, int, int, int], CycScalar]:
    """delta(e_i (x) e_j) in the braided tensor coalgebra R (x) S:

    r^(1) (x) r^(2)_(-1) s^(1) (x) r^(2)_0 (x) s^(2), keyed by (r1, s1', r2_0, s2).
    Only the action of VS is read, not its coaction.
    """
    out: dict[tuple[int, int, int, int], CycScalar] = {}
    ds = S.comult_basis(j)
    for (r1, r2), cr in R.comult_basis(i).items():
        co = VR.coact_basis(r2).items()
        for (s1, s2), cs in ds.items():
            crs = cr * cs
            for (h, r20), ch in co:
                acted = VS._rows[h][s1]
                if acted:
                    sv_axpy(out, crs * ch, (((r1, s1b, r20, s2), ca) for s1b, ca in acted))
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
    return CoalgebraSC(n, comult, [ci * cj for ci in R.counit for cj in S.counit])

