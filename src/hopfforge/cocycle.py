"""Pre-bialgebras with cocycles and the deformed bosonization they generate.

A pre-bialgebra is a coalgebra in the Yetter-Drinfeld category together
with a unit and a multiplication that is H-linear and a coalgebra map but
possibly neither associative nor colinear.  A cocycle R (x) R -> H twists
the smash product into a bialgebra on R (x) H; the trivial cocycle
recovers the Radford-Majid bosonization.  The braided square R (x) R lives
on the pre-bialgebra, formed once: every check reads its action, rho_{R (x) R}
(`PreBialgebra.square`) and delta_{R (x) R} (`PreBialgebra.square_coalgebra`)
there, and `m_tilde_pairs` is the one m-tilde = (m (x) xi) delta_{R (x) R}.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .cyclotomic import CycScalar
from .hopf import (
    AlgebraSC, BialgebraSC, CoalgebraSC, HopfSC, AxiomViolation, algebra_map_failures,
    associativity_failures, check_bialgebra, coalgebra_map_failures, unit_failures,
    unit_group_like,
)
from .linalg import (
    Mat, SVec, Tensor3, Vec, ShapeMismatch, cone, kron_index, sv_add_into, sv_axpy,
    sv_outer_axpy, sv_scale, zeros,
)
from .reports import CheckReport
from .yd import (
    YDModule, adjoint_action, braided_tensor_coalgebra, check_yd, comodule_map_failures,
    module_map_failures, trivial_module, yd_tensor,
)

PairSV = dict  # sparse element of a two-fold tensor product, keyed by index pairs


class PreBialgebra(BialgebraSC):
    """(R, m, u, delta, eps) in the YD category over H; axioms on demand.

    A BialgebraSC asserts no axiom, so m may be neither associative nor colinear.
    The properties are formed on first read and kept, so the tensors must not
    change; R (x) R is on the Kronecker basis e_kron(i, j) = e_i (x) e_j.
    """

    def __init__(self, H: HopfSC, yd: YDModule, mult: Tensor3, unit: Vec,
                 comult: Tensor3, counit: Vec):
        if yd.H is not H:
            raise ShapeMismatch("YD structure must live over the given Hopf algebra")
        super().__init__(yd.dim, mult, unit, comult, counit)
        self.H = H
        self.yd = yd

    @cached_property
    def square(self) -> YDModule:
        """R (x) R with the diagonal action and the codiagonal coaction rho_{R (x) R}."""
        return yd_tensor(self.yd, self.yd)

    @cached_property
    def square_coalgebra(self) -> CoalgebraSC:
        """R (x) R as the braided tensor coalgebra: comult_basis(kron(i, j)) is
        delta_{R (x) R}(e_i (x) e_j), keyed (kron(r1, s1'), kron(r2_0, s2))."""
        return braided_tensor_coalgebra(self, self.yd, self, self.yd)

    @cached_property
    def mult_map(self) -> Mat:
        """m: R (x) R -> R."""
        return Mat.of_cols(self.dim, [self.mul_basis(*divmod(ij, self.dim)) for ij in range(self.dim ** 2)])

    @cached_property
    def mult_is_colinear(self) -> bool:
        """rho m = (id (x) m) rho_{R (x) R}, checked on all basis pairs."""
        return _holds(comodule_map_failures(self.mult_map, self.square, self.yd))

    @cached_property
    def mult_is_associative(self) -> bool:
        return _holds(associativity_failures(self))


class Cocycle:
    """K-linear map R (x) R -> H stored as a sparse tensor (i, j, h), and as
    the matrix `map` on the Kronecker basis of R (x) R."""

    def __init__(self, xi: Tensor3):
        self.xi = xi
        self.r_dim = n = xi.shape[0]
        self.h_dim = xi.shape[2]
        self._by_ij: dict[tuple[int, int], SVec] = {}
        for (i, j, h), c in xi.data.items():
            self._by_ij.setdefault((i, j), {})[h] = c
        self.map = Mat.of_cols(self.h_dim, [self.eval_basis(i, j) for i in range(n) for j in range(n)])

    @staticmethod
    def trivial(P: PreBialgebra) -> "Cocycle":
        """xi = eps (x) eps . 1_H, the Radford-Majid case."""
        t = Tensor3((P.dim, P.dim, P.H.dim))
        for i in range(P.dim):
            ei = P.counit[i]
            if not ei:
                continue
            for j in range(P.dim):
                ej = P.counit[j]
                if not ej:
                    continue
                for h, c in enumerate(P.H.unit):
                    if c:
                        t[(i, j, h)] = ei * ej * c
        return Cocycle(t)

    def eval_basis(self, i: int, j: int) -> SVec:
        return dict(self._by_ij.get((i, j), {}))

    def eval(self, a: SVec, b: SVec) -> SVec:
        out: SVec = {}
        for i, ca in a.items():
            for j, cb in b.items():
                terms = self._by_ij.get((i, j))
                if terms:
                    sv_add_into(out, terms, ca * cb)
        return out

    def is_trivial(self, P: PreBialgebra) -> bool:
        ref = Cocycle.trivial(P)
        return self.xi == ref.xi


def is_radford_majid(xi: Cocycle, P: PreBialgebra) -> bool:
    """True exactly when the cocycle is eps (x) eps . 1_H."""
    return xi.is_trivial(P)


# -- axiom checks -------------------------------------------------------------


def check_prebialgebra(P: PreBialgebra) -> CheckReport:
    """The axioms of a pre-bialgebra R over H, with witnesses per failure.

    Besides the Yetter-Drinfeld axioms of R (`check_yd`), each axiom says
    that a map between R, R (x) R (`P.square`) and K (`trivial_module(H)`)
    is a morphism:
    - u: K -> R is H-linear and H-colinear;
    - m: R (x) R -> R is H-linear, and a coalgebra map from the braided
      tensor coalgebra R (x) R (`P.square_coalgebra`, `coalgebra_map_failures`);
    - delta: R -> R (x) R and eps: R -> K are H-linear and H-colinear;
    - u is a two-sided unit for m and group-like, read by the functions
      `check_algebra` and `check_bialgebra` use (`unit_failures`,
      `unit_group_like`).
    Associativity and colinearity of m are reported as informative entries
    (prefixed 'info_'), read from P's verdicts; they are not axioms and do
    not affect .ok.
    """
    rep = CheckReport("pre-bialgebra axioms")
    H, n, R = P.H, P.dim, P.yd
    yd_rep = check_yd(R)
    rep.add("yd_structure", yd_rep.ok,
            [e.name for e in yd_rep.failures()])
    RR, K, m = P.square, trivial_module(H), P.mult_map
    u = Mat.of_cols(n, [P.unit_sv()])
    delta = Mat.of_cols(n * n, [{kron_index(i, j, n): c for (i, j), c in P.comult_basis(k).items()}
                                for k in range(n)])
    eps = Mat.of_cols(1, [{0: e} if e else {} for e in P.counit])
    rep.add("unit_action_invariant", _holds(module_map_failures(u, K, R)))
    rep.add("unit_coaction_invariant", _holds(comodule_map_failures(u, K, R)))
    unit_comult, unit_counit = unit_group_like(P)
    rep.add("unit_comult", unit_comult)
    rep.add("unit_counit", unit_counit)
    bad = [(h, *divmod(ij, n)) for h, ij in module_map_failures(m, RR, R)]
    rep.add("mult_h_linear", not bad, bad)
    # delta m = (m (x) m) delta_{R(x)R} and eps m = eps (x) eps
    comult_bad, counit_bad = [], []
    for k in coalgebra_map_failures(m, P.square_coalgebra, P):
        if isinstance(k, tuple):
            counit_bad.append(divmod(k[1], n))
        else:
            comult_bad.append(divmod(k, n))
    rep.add("mult_comult_compat", not comult_bad, comult_bad)
    rep.record("mult_counit_compat", counit_bad)
    rep.record("unit_neutral", unit_failures(P))
    bad = list(module_map_failures(delta, R, RR))
    rep.add("comult_h_linear", not bad, bad)
    rep.record("comult_colinear", list(comodule_map_failures(delta, R, RR)))
    rep.record("counit_h_linear", list(module_map_failures(eps, R, K)))
    rep.record("counit_colinear", list(comodule_map_failures(eps, R, K)))
    # informative, non-axiom diagnostics
    rep.add("info_mult_associative", True, detail=f"associative={P.mult_is_associative}")
    rep.add("info_mult_colinear", True, detail=f"colinear={P.mult_is_colinear}")
    return rep


def _holds(failures: Iterator) -> bool:
    return next(failures, None) is None


def _xi_coacted(P: PreBialgebra, rho: list[dict[tuple[int, int], CycScalar]], xi: list[SVec],
                ij: int, g: list[SVec]) -> PairSV:
    """(m_H (x) g)(xi (x) rho_{R (x) R}) delta_{R (x) R}(e_ij), with rho_{R (x) R},
    xi and g given by their columns on R (x) R."""
    out: PairSV = {}
    mul_basis = P.H.mul_basis
    for (ab, cd), c in P.square_coalgebra.comult_basis(ij).items():
        first = xi[ab]
        if not first:
            continue
        for (h, cd0), w in rho[cd].items():
            second = g[cd0]
            if second:
                for hf, cf in first.items():
                    sv_outer_axpy(out, c * cf * w, mul_basis(hf, h), second)
    return out


def m_tilde_pairs(P: PreBialgebra, xi: Cocycle) -> dict[tuple[int, int], PairSV]:
    """m-tilde = (m (x) xi) delta_{R (x) R} on every basis pair (i, j) of R,
    each value keyed by (r, h) in R (x) H."""
    n, m, xis = P.dim, P.mult_map.cols, xi.map.cols
    out: dict[tuple[int, int], PairSV] = {}
    for ij in range(n * n):
        mt = out[divmod(ij, n)] = {}
        for (ab, cd), c in P.square_coalgebra.comult_basis(ij).items():
            if m[ab]:
                sv_outer_axpy(mt, c, m[ab], xis[cd])
    return out


def check_cocycle(P: PreBialgebra, xi: Cocycle) -> CheckReport:
    """The six defining relations of a cocycle xi: R (x) R -> H, exhaustively
    on basis tuples.

    Ad-equivariance says that xi is a morphism of H-modules from
    `P.square` to H under its adjoint action (`module_map_failures`).  The
    other relations read delta_{R (x) R} and rho_{R (x) R} off P's square,
    and m-tilde from `m_tilde_pairs`.
    """
    rep = CheckReport("cocycle axioms")
    H, n = P.H, P.dim
    nh = H.dim
    if xi.xi.shape != (n, n, nh):
        raise ShapeMismatch("cocycle tensor shape mismatch")

    # ad-equivariance: xi(h1 r (x) h2 s) = h1 xi(r (x) s) S(h2); H's coaction is not read
    H_ad = YDModule(H, nh, adjoint_action(H), Tensor3((nh, nh, nh)))
    bad = [(h, *divmod(ij, n)) for h, ij in module_map_failures(xi.map, P.square, H_ad)]
    rep.add("cocycle_ad_equivariance", not bad, bad)

    pairs = [divmod(ij, n) for ij in range(n * n)]  # in Kronecker order
    xis, ms = xi.map.cols, P.mult_map.cols
    rho = [P.square.coact_basis(ij) for ij in range(n * n)]
    # comultiplicativity: Delta_H xi = (m_H (x) xi)(xi (x) rho_{R(x)R}) delta_{R(x)R}
    bad = [pairs[ij] for ij, v in enumerate(xis) if H.comult_sv(v) != _xi_coacted(P, rho, xis, ij, xis)]
    rep.add("cocycle_comult_compat", not bad, bad)
    rep.record("cocycle_counit_compat",
               [(i, j) for i, j in pairs
                if H.counit_sv(xi.eval_basis(i, j)) != P.counit[i] * P.counit[j]])

    mts = m_tilde_pairs(P, xi)
    # braided compatibility: c_{R,H}(m (x) xi) delta_RR = (m_H (x) m_R)(xi (x) rho_RR) delta_RR
    bad = []
    for ij, pair in enumerate(pairs):
        lhs: dict[tuple[int, int], CycScalar] = {}
        for (r, h), c in mts[pair].items():
            # c_{R,H}(r (x) h) = r_(-1) h (x) r_0 with the product in H
            for (hr, r0), cr in P.yd.coact_basis(r).items():
                sv_axpy(lhs, c * cr, (((hp, r0), cp) for hp, cp in H.mul_basis(hr, h).items()))
        if lhs != _xi_coacted(P, rho, xis, ij, ms):
            bad.append(pair)
    rep.add("cocycle_braiding_compat", not bad, bad)

    # twisted associativity: m(R (x) m) = m(R (x) mu)[(m (x) xi) delta_RR (x) R]
    bad = []
    for i, j in pairs:
        for k in range(n):
            lhs: SVec = {}
            for m, c in P.mul_basis(j, k).items():
                sv_axpy(lhs, c, P.mul_basis(i, m).items())
            rhs: SVec = {}
            for (r, h), c in mts[i, j].items():
                acted = P.yd.act_basis(h, k)
                if acted:
                    sv_add_into(rhs, P.mul_sv({r: c}, acted))
            if lhs != rhs:
                bad.append((i, j, k))
    rep.add("cocycle_twisted_associativity", not bad, bad)

    # mixed associativity of xi:
    # m_H(xi (x) H)[R (x) mtilde] = m_H(xi (x) H)(R (x) c_{H,R})[mtilde (x) R]
    bad = []
    for i, j in pairs:
        for k in range(n):
            lhs: SVec = {}
            for (r, h), c in mts[j, k].items():
                sv_add_into(lhs, H.mul_sv(xi.eval_basis(i, r), {h: c}))
            rhs: SVec = {}
            for (r, h), c in mts[i, j].items():
                # c_{H,R}(h (x) e_k) = h1 . e_k (x) h2
                for (h1, h2), w in H.comult_basis(h).items():
                    for k2, ck in P.yd.act_basis(h1, k).items():
                        sv_add_into(rhs, H.mul_sv(xi.eval_basis(r, k2), {h2: c * w * ck}))
            if lhs != rhs:
                bad.append((i, j, k))
    rep.add("cocycle_mixed_associativity", not bad, bad)

    # unitality: xi(r (x) u) = eps(r) 1_H = xi(u (x) r)
    u = P.unit_sv()
    one_h = H.unit_sv()
    bad = []
    for i in range(n):
        e = {i: cone()}
        target = sv_scale(one_h, P.counit[i])
        if xi.eval(e, u) != target or xi.eval(u, e) != target:
            bad.append(i)
    rep.record("cocycle_unitality", bad)
    return rep


# -- bosonization -------------------------------------------------------------


class Bosonization:
    """Bialgebra on R (x) H with its canonical injection and retraction."""

    def __init__(self, B: BialgebraSC, sigma: Mat, pi: Mat, P: PreBialgebra, xi: Cocycle):
        self.B = B
        self.sigma = sigma
        self.pi = pi
        self.P = P
        self.xi = xi
        self.r_dim = P.dim
        self.H = P.H


def bosonize(P: PreBialgebra, xi: Cocycle, verify: bool = True) -> Bosonization:
    """Build R #_xi H.  Axiom failures are hard errors, not report entries.

    With verify=True (default) the pre-bialgebra and cocycle axioms gate the
    construction and the result is checked to be a bialgebra.
    """
    if verify:
        check_prebialgebra(P).raise_failures(AxiomViolation, "pre-bialgebra axioms fail: ")
        check_cocycle(P, xi).raise_failures(AxiomViolation, "cocycle axioms fail: ")
    mult, unit, comult, counit, sigma, pi = bosonization_tensors(P, xi)
    B = BialgebraSC(P.dim * P.H.dim, mult, unit, comult, counit)
    if verify:
        check_bialgebra(B).raise_failures(AxiomViolation, "bosonization is not a bialgebra: ")
    return Bosonization(B, sigma, pi, P, xi)


def bosonization_tensors(P: PreBialgebra,
                         xi: Cocycle) -> tuple[Tensor3, Vec, Tensor3, Vec, Mat, Mat]:
    """(mult, unit, comult, counit, sigma, pi) of R #_xi H on the basis e_kron(r, h) = r # h.

    Nothing is checked.  `bosonize` wraps the tables in a bialgebra and
    `construct.build_ore_hopf` in a Hopf algebra, so only that one object
    indexes them.
    """
    H = P.H
    nr, nh = P.dim, H.dim
    n = nr * nh
    mult = Tensor3((n, n, n))
    # m_B[(r#h)(s#k)] = mtilde^0(r (x) h1.s) # mtilde^1(r (x) h1.s) h2 k
    mts = m_tilde_pairs(P, xi)
    for h in range(nh):
        dh = H.comult_basis(h)
        for s in range(nr):
            # sum h1 . s (x) h2, keyed by (s', h2)
            acted: dict[tuple[int, int], CycScalar] = {}
            for (h1, h2), c in dh.items():
                sv_axpy(acted, c, (((s2, h2), cs) for s2, cs in P.yd.act_basis(h1, s).items()))
            for r in range(nr):
                row = kron_index(r, h, nh)
                for (s2, h2), c in acted.items():
                    mt = mts[r, s2]
                    if not mt:
                        continue
                    for (r0, h0), cm in mt.items():
                        left = H.mul_basis(h0, h2)
                        for hm, chm in left.items():
                            base = c * cm * chm
                            for k in range(nh):
                                prod = H.mul_basis(hm, k)
                                col = kron_index(s, k, nh)
                                for hf, cf in prod.items():
                                    mult.add_to((row, col, kron_index(r0, hf, nh)), base * cf)
    unit = zeros(n)
    for i, ci in enumerate(P.unit):
        if ci:
            for h, c in enumerate(H.unit):
                if c:
                    unit[kron_index(i, h, nh)] = ci * c
    # Delta_B(r#h) = r1 # r2_(-1) h1 (x) r2_0 # h2, the braided tensor coalgebra of R and H;
    # it reads only H's action on itself by multiplication, so H's coaction is left empty
    H_acting = YDModule(H, nh, H.mult, Tensor3((nh, nh, nh)))
    co = braided_tensor_coalgebra(P, P.yd, H, H_acting)
    comult, counit = co.comult, co.counit
    sigma = Mat.of_cols(n, [{kron_index(i, h, nh): ci for i, ci in enumerate(P.unit) if ci}
                            for h in range(nh)])
    pi = Mat.of_cols(nh, [{h: er} if er else {} for er in P.counit for h in range(nh)])
    # the tables take few distinct values: hold one object per value, not per entry
    shared: dict[tuple, CycScalar] = {}
    for t in (mult, comult):
        for key, c in t.data.items():
            t.data[key] = shared.setdefault((c.L, c.den, c.nums), c)
    return mult, unit, comult, counit, sigma, pi


def retraction_diagnostics(B: BialgebraSC, pi: Mat, sigma: Mat, H: HopfSC) -> dict[str, bool]:
    """Which structure pi: B -> H preserves, each checked exhaustively."""
    return {
        "coalgebra_map": _holds(coalgebra_map_failures(pi, B, H)),
        "algebra_map": (pi.apply_sv(B.unit_sv()) == H.unit_sv()
                        and _holds(algebra_map_failures(pi, B, H))),
        # pi(sigma(h) b) = h pi(b) and pi(b sigma(h)) = pi(b) h
        "H_bilinear": all(
            pi.apply_sv(_times_basis(B, sh, b, True)) == _times_basis(H, pi.cols[b], h, False)
            and pi.apply_sv(_times_basis(B, sh, b, False)) == _times_basis(H, pi.cols[b], h, True)
            for h, sh in enumerate(sigma.cols) for b in range(B.dim)),
    }


def _times_basis(A: AlgebraSC, v: SVec, k: int, right: bool) -> SVec:
    """v e_k (right) or e_k v, read from rows of the multiplication table."""
    out: SVec = {}
    for i, c in v.items():
        sv_axpy(out, c, (A.mul_basis(i, k) if right else A.mul_basis(k, i)).items())
    return out
