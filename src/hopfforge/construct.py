"""Constructions from compatible data: quantum lines and Ore-extension
Hopf algebras with their canonical normalized projection.

The Ore extension H[X, phi, 0] is never materialized; its quotient O is built
as the deformed bosonization R_q #_xi H of the quantum line R_q, whose basis
y^a # h_j is the normal form y^a h_j, with the cocycle xi(y^a (x) y^b) =
lambda (1 - g^N) on a + b = N.  The universal property is still exercised
through ``universal_map``.
"""

from __future__ import annotations

from typing import Optional, Union

from .cyclotomic import CycScalar, multiplicative_order, q_binomial
from .hopf import (
    AlgebraSC, AxiomViolation, HopfSC, ad_action, ad_equivariant, algebra_map_failures,
    coalgebra_map_failures, char_convolve, char_convpow, char_eval, char_powers, check_hopf,
    integral, is_central, phi_map, phi_power, psi_map,
    verify_ad_integral, verify_character, verify_group_like,
)
from .linalg import (
    CoordinateMap, Mat, SVec, Tensor3, Vec,
    basis_vec, cone, czero, kron_index, sv_add_into, sv_outer_axpy, sv_scale, sv_to_dense, zeros,
)
from .cocycle import Cocycle, PreBialgebra, bosonization_tensors, retraction_diagnostics
from .reports import CheckReport
from .yd import YDModule


class InfiniteOrder(ValueError):
    pass


class NotSubHopf(ValueError):
    pass


class HypothesisViolation(ValueError):
    def __init__(self, condition: str, message: str = ""):
        super().__init__(message or condition)
        self.condition = condition


class YDDatum:
    """(H, g, chi) with q = chi(g): a verified Yetter-Drinfeld datum."""

    def __init__(self, H: HopfSC, g: SVec, chi: Vec, q: CycScalar):
        self.H = H
        self.g = dict(g)
        self.chi = list(chi)
        self.q = q

    def order(self) -> Optional[int]:
        if self.q.is_one():
            return 1
        return multiplicative_order(self.q)

    def __repr__(self):
        return f"YDDatum(dim H={self.H.dim}, q={self.q})"


def validate_yd_datum(H: HopfSC, g: SVec, chi: Vec) -> Union[YDDatum, CheckReport]:
    """Verify the datum exhaustively; returns a report instead on failure.

    Also checks the centrality consequences against every declared
    group-like and character of H (g central among group-likes, chi central
    in convolution among characters).
    """
    rep = CheckReport("Yetter-Drinfeld datum")
    rep.add("g_group_like", verify_group_like(H, g))
    rep.add("chi_character", verify_character(H, chi))
    q = char_eval(chi, g)
    phi = phi_map(H, chi)
    psi = psi_map(H, chi)
    bad = [h for h in range(H.dim) if H.mul_sv(g, phi.cols[h]) != H.mul_sv(psi.cols[h], g)]
    rep.add("yd_compatibility_g_chi", not bad, bad)
    rep.record("g_central_among_group_likes",
               [name for name, gl in H.group_likes.items() if H.mul_sv(g, gl) != H.mul_sv(gl, g)])
    rep.record("chi_convolution_central",
               [name for name, eta in H.characters.items()
                if char_convolve(H, chi, eta) != char_convolve(H, eta, chi)])
    if not rep.ok:
        return rep
    return YDDatum(H, g, chi, q)


class CompatibleDatum:
    """YD datum plus N = o(q) and the deformation scalar lambda(N)."""

    def __init__(self, datum: YDDatum, N: int, lam: CycScalar):
        self.datum = datum
        self.N = N
        self.lam = lam

    @property
    def H(self) -> HopfSC:
        return self.datum.H

    def is_trivial(self) -> bool:
        return self.lam.is_zero()

    def __repr__(self):
        return f"CompatibleDatum(N={self.N}, lambda={self.lam})"


def _raw_gating_holds(H: HopfSC, g: SVec, chi: Vec, N: int) -> tuple[bool, bool]:
    """(g^N != 1, ad-equivariance of 1 - g^N for chi^N) from the definition."""
    z = H.one_minus_pow_sv(g, N)
    return bool(z), ad_equivariant(H, char_convpow(H, chi, N), z)


def _integral_gating_holds(H: HopfSC, g: SVec, chi: Vec, N: int) -> tuple[bool, bool, bool]:
    """(chi^N = eps, g^N central, g^N != 1): the simplified criterion."""
    chi_ok = char_convpow(H, chi, N) == H.counit
    gN = H.pow_sv(g, N)
    return chi_ok, is_central(H, gN), gN != H.unit_sv()


def validate_compatible_datum(d: YDDatum, lam: CycScalar) -> Union[CompatibleDatum, CheckReport]:
    """Gate lambda != 0 by the defining condition.

    The raw displayed condition decides.  When H is cosemisimple, its
    integral (`hopf.integral`), once `verify_ad_integral` accepts it as
    ad-invariant, gives the simplified criterion (chi^N = eps and g^N
    central != 1), and the two paths must agree: a disagreement is a FAIL
    entry `gating_paths_agree`, and an integral that is not ad-invariant a
    FAIL entry `integral_valid`.
    """
    rep = CheckReport("compatible datum")
    N = d.order()
    if N is None:
        rep.add("finite_order_q", False, detail="q is not a root of unity")
        return rep
    rep.add("finite_order_q", True, detail=f"N={N}")
    if lam.is_zero():
        rep.add("lambda_gating", True, detail="lambda = 0 is always compatible")
        return CompatibleDatum(d, N, lam)
    H = d.H
    g_ok, ad_ok = _raw_gating_holds(H, d.g, d.chi, N)
    raw = g_ok and ad_ok
    gamma = integral(H)
    if gamma is not None:
        if not verify_ad_integral(H, gamma):
            rep.add("integral_valid", False)
            return rep
        simplified = all(_integral_gating_holds(H, d.g, d.chi, N))
        if simplified != raw:
            rep.add("gating_paths_agree", False, detail=f"raw={raw} simplified={simplified}")
            return rep
    rep.add("lambda_gating", raw,
            detail="" if raw else f"g^N=1: {not g_ok}; ad-equivariance fails: {not ad_ok}")
    if not rep.ok:
        return rep
    return CompatibleDatum(d, N, lam)


def restrict_datum(c: CompatibleDatum, sub_basis: list[SVec]) -> CompatibleDatum:
    """Restrict a compatible datum to a Hopf subalgebra given by a basis.

    The subspace must be closed under multiplication, comultiplication and
    the antipode, and must contain the unit, g and every declared
    group-like of H.
    """
    H = c.H
    try:
        coords = CoordinateMap(H.dim, sub_basis)
    except ValueError:
        raise NotSubHopf("sub-basis is linearly dependent")
    unit = coords(H.unit_sv())
    if unit is None:
        raise NotSubHopf("unit not in subspace")
    g_sub = coords(c.datum.g)
    if g_sub is None:
        raise NotSubHopf("g not in subspace")
    for name, gl in H.group_likes.items():
        if coords(gl) is None:
            raise NotSubHopf(f"declared group-like {name} not in subspace")
    m = len(sub_basis)
    mult = Tensor3((m, m, m))
    for a in range(m):
        for b in range(m):
            x = coords(H.mul_sv(sub_basis[a], sub_basis[b]))
            if x is None:
                raise NotSubHopf("not closed under multiplication")
            for k, ck in x.items():
                mult[(a, b, k)] = ck
    comult = Tensor3((m, m, m))
    for a in range(m):
        expanded = coords.pair(H.comult_sv(sub_basis[a]))
        if expanded is None:
            raise NotSubHopf("not closed under comultiplication")
        for key, cv in expanded.items():
            comult[(a, key[0], key[1])] = cv
    counit = [H.counit_sv(v) for v in sub_basis]
    S_cols = [coords(H.antipode_sv(v)) for v in sub_basis]
    if None in S_cols:
        raise NotSubHopf("not closed under the antipode")
    sub = HopfSC(m, mult, sv_to_dense(unit, m), comult, counit, Mat.of_cols(m, S_cols),
                 conductor=H.conductor)
    chi_sub = [char_eval(c.datum.chi, v) for v in sub_basis]
    datum = validate_yd_datum(sub, g_sub, chi_sub)
    if isinstance(datum, CheckReport):
        datum.raise_failures(NotSubHopf, "restricted datum fails validation: ")
    out = validate_compatible_datum(datum, c.lam)
    if isinstance(out, CheckReport):
        raise NotSubHopf("restricted datum is not compatible")
    return out


# -- quantum lines -------------------------------------------------------------


class QuantumLine(PreBialgebra):
    """R_q(H, g, chi): K[X]/(X^N) with primitive generator, as a pre-bialgebra.

    Basis is 1, y, ..., y^(N-1); the coproduct follows the Gaussian binomial
    expansion, which makes it a braided Hopf algebra in the YD category.
    """

    def __init__(self, H: HopfSC, yd: YDModule, mult, unit, comult, counit,
                 datum: YDDatum, N: int):
        super().__init__(H, yd, mult, unit, comult, counit)
        self.datum = datum
        self.N = N
        self.q = datum.q


def build_quantum_line(d: YDDatum) -> QuantumLine:
    N = d.order()
    if N is None:
        raise InfiniteOrder("chi(g) must be a root of unity")
    H = d.H
    q = d.q
    # action h . y^n = chi^n(h) y^n (convolution powers of chi), coaction g^n (x) y^n
    action = Tensor3((H.dim, N, N))
    chis = char_powers(H, d.chi, N)
    for h in range(H.dim):
        for nn in range(N):
            c = chis[nn][h]
            if c:
                action[(h, nn, nn)] = c
    coaction = Tensor3((N, H.dim, N))
    gp = H.unit_sv()
    for nn in range(N):
        for h, c in gp.items():
            coaction[(nn, h, nn)] = c
        gp = H.mul_sv(gp, d.g)
    yd = YDModule(H, N, action, coaction)
    mult = Tensor3((N, N, N))
    for a in range(N):
        for b in range(N):
            if a + b < N:
                mult[(a, b, a + b)] = cone()
    unit = basis_vec(N, 0)
    comult = Tensor3((N, N, N))
    for nn in range(N):
        for i in range(nn + 1):
            comult[(nn, nn - i, i)] = q_binomial(nn, i, q)
    counit = zeros(N)
    counit[0] = cone()
    return QuantumLine(H, yd, mult, unit, comult, counit, d, N)


# -- the Ore-extension Hopf algebra --------------------------------------------


class OreHopf:
    """The quotient Hopf algebra on the normal-form basis {y^i sigma(h_j)}.

    Carries the distinguished element y, the group-like Gamma = sigma(g),
    the canonical injection sigma and the normalized retraction p.
    """

    def __init__(self, O: HopfSC, base: HopfSC, datum: CompatibleDatum,
                 sigma: Mat, p: Mat, y_vec: SVec, gamma_vec: SVec):
        self.O = O
        self.base = base
        self.datum = datum
        self.N = datum.N
        self.lam = datum.lam
        self.sigma = sigma
        self.p = p
        self.y_vec = y_vec
        self.gamma_vec = gamma_vec

    @property
    def dim(self) -> int:
        return self.O.dim


def build_ore_hopf(c: CompatibleDatum, verify: bool = True) -> OreHopf:
    """O = R_q #_xi H on {y^i h_j}: y^N = lambda(1 - Gamma^N), h y^a = y^a phi^a(h).

    The tensors, sigma and p are the bosonization of the quantum line R_q
    with xi(y^a (x) y^b) = lambda(1 - g^N) on a + b = N.  The antipode is
    S(y^a h) = S(h) S(y)^a with S(y) = -Gamma^(-1) y; with verify=True a full
    Hopf check and the canonical-retraction checks gate the result.
    """
    H = c.H
    N, lam = c.N, c.lam
    nh = H.dim
    n = N * nh
    z = H.one_minus_pow_sv(c.datum.g, N, lam)
    mult, unit, comult, counit, sigma, p = bosonization_tensors(
        build_quantum_line(c.datum), lambda_cocycle(H, c.datum.g, N, lam))
    O = HopfSC(n, mult, unit, comult, counit, conductor=H.conductor,
               labels=[f"y{a}*{H.labels[j]}" for a in range(N) for j in range(nh)])
    # degenerate N=1: O = H and y = lambda(1 - g)
    y = {kron_index(1, i, nh): ci for i, ci in H.unit_sv().items()} if N > 1 else sigma.apply_sv(z)
    s_y = sv_scale(O.mul_sv(sigma.apply_sv(H.antipode_sv(c.datum.g)), y), -cone())
    s_y_pows = O.powers_sv(s_y, N)
    # S(y^a h_j) = sigma(S_H(h_j)) S(y)^a, by products in O
    sigma_S = [sigma.apply_sv(sh) for sh in H.antipode.cols]
    O.antipode = Mat.of_cols(n, [O.mul_sv(sigma_S[j], s_y_pows[a]) for a in range(N) for j in range(nh)])
    ore = OreHopf(O, H, c, sigma, p, y, sigma.apply_sv(c.datum.g))
    if verify:
        _verify_ore(ore)
    return ore


def lambda_cocycle(H: HopfSC, g: SVec, N: int, lam: CycScalar) -> Cocycle:
    """xi_lambda on the quantum line: xi(y^a (x) y^b) is 1 at a = b = 0,
    lambda(1 - g^N) on a + b = N with a, b != 0, and 0 elsewhere."""
    xi = Tensor3((N, N, H.dim))
    for h, ch in H.unit_sv().items():
        xi[(0, 0, h)] = ch
    z = H.one_minus_pow_sv(g, N, lam)
    for a in range(1, N):
        for h, ch in z.items():
            xi[(a, N - a, h)] = ch
    return Cocycle(xi)


def _verify_ore(ore: OreHopf) -> None:
    """Hard-error verification of the construction invariants."""
    O, H, N = ore.O, ore.base, ore.N
    check_hopf(O).raise_failures(AxiomViolation, "Ore quotient fails Hopf axioms: ")
    # closed-form antipode cross-check on y: S(y) = -Gamma^(-1) y
    if N > 1:
        ys = ore.y_vec
        lhs = O.antipode_sv(ys)
        rhs = sv_scale(O.mul_sv(O.antipode_sv(ore.gamma_vec), ys), -cone())
        if lhs != rhs:
            raise AxiomViolation("antipode disagrees with the closed form S(y) = -Gamma^(-1) y")
    # p sigma = id, p is an H-bilinear coalgebra retraction
    if not _retraction_ok(ore):
        raise AxiomViolation("canonical retraction p fails its contract")
    # induced pre-bialgebra on the coinvariants is the quantum line and the
    # cocycle matches the lambda table
    ql = build_quantum_line(ore.datum.datum)
    if not _induced_matches_quantum_line(ore, ql):
        raise AxiomViolation("induced pre-bialgebra does not match the quantum line")


def _retraction_ok(ore: OreHopf) -> bool:
    O, H = ore.O, ore.base
    comp = ore.p @ ore.sigma
    if comp != Mat.identity(H.dim):
        return False
    diag = retraction_diagnostics(O, ore.p, ore.sigma, H)
    return diag["coalgebra_map"] and diag["H_bilinear"]


def _induced_matches_quantum_line(ore: OreHopf, ql: QuantumLine) -> bool:
    """Compare induced structures on coinvariants span{y^a} with R_q."""
    O, H, N = ore.O, ore.base, ore.N
    y_pows = O.powers_sv(ore.y_vec, N)
    # tau(v) = v1 sigma S p(v2); products tau(y^a . y^b) must equal quantum-line mult
    sS = ore.sigma @ H.antipode
    sSp = [sS.apply_sv(col) for col in ore.p.cols]  # the columns of sigma S p

    def tau(sv: SVec) -> SVec:
        out: SVec = {}
        for k, c in sv.items():
            for (i, j), w in O.comult_basis(k).items():
                sv_add_into(out, O.mul_sv({i: c * w}, sSp[j]))
        return out

    coords = CoordinateMap(O.dim, y_pows)
    xi = lambda_cocycle(H, ore.datum.datum.g, N, ore.lam)
    for a in range(N):
        for b in range(N):
            prod = O.mul_sv(y_pows[a], y_pows[b])
            if (coords(tau(prod)) != ql.mul_basis(a, b)
                    or ore.p.apply_sv(prod) != xi.eval_basis(a, b)):
                return False
    return True


def ore_cocycle_table(ore: OreHopf) -> dict[tuple[int, int], SVec]:
    """xi(y^a (x) y^b) = p(y^a . y^b) for 0 <= a, b <= N-1."""
    O = ore.O
    y_pows = O.powers_sv(ore.y_vec, ore.N)
    out = {}
    for a in range(ore.N):
        for b in range(ore.N):
            out[(a, b)] = ore.p.apply_sv(O.mul_sv(y_pows[a], y_pows[b]))
    return out


def universal_map(ore: OreHopf, B: "HopfSC | AlgebraSC", f: Mat, b: SVec) -> Mat:
    """The unique bialgebra map O -> B with f-hat sigma = f and f-hat(y) = b.

    Hypotheses are the displayed conditions: f(h) b = b f(phi(h)) for all
    basis h, b^N = lambda(1 - f(g)^N), and Delta_B(b) = b (x) 1 + f(g) (x) b.
    A violated hypothesis raises HypothesisViolation naming the condition.
    """
    H = ore.base
    N, lam = ore.N, ore.lam
    phi1 = phi_power(H, ore.datum.datum.chi, 1)
    for h, phi_h in enumerate(phi1.cols):
        lhs = B.mul_sv(f.cols[h], b)
        rhs = B.mul_sv(b, f.apply_sv(phi_h))
        if lhs != rhs:
            raise HypothesisViolation("ore_commutation",
                                      f"f(h) b != b f(phi(h)) at basis index {h}")
    fg = f.apply_sv(ore.datum.datum.g)
    if B.pow_sv(b, N) != B.one_minus_pow_sv(fg, N, lam):
        raise HypothesisViolation("ore_power", "b^N != lambda(1 - f(g)^N)")
    d_b = B.comult_sv(b)
    expect: dict[tuple[int, int], CycScalar] = {}
    sv_outer_axpy(expect, cone(), b, B.unit_sv())
    sv_outer_axpy(expect, cone(), fg, b)
    if d_b != expect:
        raise HypothesisViolation("ore_coproduct", "Delta(b) != b (x) 1 + f(g) (x) b")
    nh = H.dim
    b_pows = B.powers_sv(b, N)
    fhat = Mat.of_cols(B.dim, [B.mul_sv(b_pows[a], f.cols[j]) for a in range(N) for j in range(nh)])
    # verify f-hat is a bialgebra homomorphism
    O = ore.O
    if fhat.apply_sv(O.unit_sv()) != B.unit_sv():
        raise HypothesisViolation("fhat_unit", "f-hat does not preserve the unit")
    ij = next(algebra_map_failures(fhat, O, B), None)
    if ij is not None:
        raise HypothesisViolation("fhat_multiplicative", f"failure at basis pair {ij}")
    for k in coalgebra_map_failures(fhat, O, B):
        if isinstance(k, tuple):
            raise HypothesisViolation("fhat_counit", f"failure at basis {k[1]}")
        raise HypothesisViolation("fhat_comultiplicative", f"failure at basis {k}")
    return fhat


def iterated_datum_check(ore: OreHopf, gamma2: SVec, chi2: Vec, lam2: CycScalar) -> CheckReport:
    """Both sides of the one-step iteration criterion, asserted to agree.

    Side one validates (O, Gamma2, chi2, lambda2) directly as a compatible
    datum over the extension; side two validates the restriction to the
    base plus the scalar conditions chi2(y) = 0, chi2(Gamma1) chi1(Gamma2)
    = 1 and, when lambda2 != 0, y Gamma2^N2 = Gamma2^N2 y.  The subsidiary
    biconditional formulas are verified independently as well.
    """
    rep = CheckReport("iterated datum equivalence")
    O, H1 = ore.O, ore.base
    if not verify_character(O, chi2):
        rep.add("chi2_character", False)
        return rep
    rep.add("chi2_character", True)
    if not verify_group_like(O, gamma2):
        rep.add("gamma2_group_like", False)
        return rep
    rep.add("gamma2_group_like", True)
    q2 = char_eval(chi2, gamma2)
    N2 = multiplicative_order(q2) if not q2.is_one() else 1
    if N2 is None:
        rep.add("finite_order_q2", False)
        return rep

    # side 1: direct validation over the extension
    d1 = validate_yd_datum(O, gamma2, chi2)
    side1 = False
    if not isinstance(d1, CheckReport):
        c1 = validate_compatible_datum(d1, lam2)
        side1 = not isinstance(c1, CheckReport)

    # side 2: restriction to the base plus the scalar conditions
    g2_base = CoordinateMap(O.dim, ore.sigma.cols)(gamma2)
    side2 = g2_base is not None
    detail = []
    if side2:
        chi2_base = [char_eval(chi2, col) for col in ore.sigma.cols]
        d2 = validate_yd_datum(H1, g2_base, chi2_base)
        if isinstance(d2, CheckReport):
            side2 = False
            detail.append("base datum invalid")
        else:
            c2 = validate_compatible_datum(YDDatum(H1, g2_base, chi2_base, q2), lam2)
            if isinstance(c2, CheckReport):
                side2 = False
                detail.append("base datum not compatible")
    else:
        detail.append("Gamma2 not in the base subalgebra")
    chi2_y = char_eval(chi2, ore.y_vec)
    if not chi2_y.is_zero():
        side2 = False
        detail.append("chi2(y) != 0")
    chi2_g1 = char_eval(chi2, ore.gamma_vec)
    chi1_g2 = czero()
    if g2_base is not None:
        chi1_g2 = char_eval(ore.datum.datum.chi, g2_base)
    pairing = chi2_g1 * chi1_g2
    if not pairing.is_one():
        side2 = False
        detail.append("chi2(Gamma1) chi1(Gamma2) != 1")
    ys = ore.y_vec
    z = O.one_minus_pow_sv(gamma2, N2)
    commutes = O.mul_sv(ys, z) == O.mul_sv(z, ys)  # y commutes with Gamma2^N2
    if not lam2.is_zero() and not commutes:
        side2 = False
        detail.append("y Gamma2^N2 != Gamma2^N2 y")

    rep.add("sides_agree", side1 == side2,
            detail=f"direct={side1} restricted={side2} ({'; '.join(detail)})")
    rep.add("side_direct", True, detail=str(side1))
    rep.add("side_restricted", True, detail=str(side2))

    # subsidiary formula 1: Gamma2 phi(y) = psi(y) Gamma2 <-> chi2(Gamma1) chi1(Gamma2) = 1
    phi2 = phi_map(O, chi2)
    psi2 = psi_map(O, chi2)
    lhs1 = O.mul_sv(gamma2, phi2.apply_sv(ys))
    rhs1 = O.mul_sv(psi2.apply_sv(ys), gamma2)
    rep.add("formula_commutation_vs_pairing", (lhs1 == rhs1) == pairing.is_one(),
            detail=f"lhs==rhs: {lhs1 == rhs1}; pairing==1: {pairing.is_one()}")
    # subsidiary formula 2: sum y1 (1 - Gamma2^N2) S(y2) = 0 <-> commutation
    acc = ad_action(O, ys, z)
    rep.add("formula_ad_vs_commutation", (not acc) == commutes,
            detail=f"ad-zero: {not acc}; commutes: {commutes}")
    # subsidiary formula 3: commutation <-> chi1(Gamma2)^N2 = 1
    if g2_base is not None:
        scal = chi1_g2 ** N2
        rep.add("formula_commutation_vs_power", commutes == scal.is_one(),
                detail=f"commutes: {commutes}; chi1(Gamma2)^N2==1: {scal.is_one()}")
    return rep


def character_lemma_check(ore: OreHopf, eta: Vec) -> CheckReport:
    """Every character of the extension kills y; eta(Gamma)^N = 1 when lambda != 0."""
    rep = CheckReport("character constraints on the extension")
    O = ore.O
    rep.add("eta_character", verify_character(O, eta))
    rep.add("eta_kills_y", char_eval(eta, ore.y_vec).is_zero())
    if not ore.lam.is_zero():
        val = char_eval(eta, ore.gamma_vec) ** ore.N
        rep.add("eta_gamma_power_one", val.is_one())
    return rep
