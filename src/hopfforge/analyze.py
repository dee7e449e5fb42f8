"""Analysis of a bialgebra with an H-bilinear coalgebra projection.

Given (A, pi, sigma) this module computes everything the structure theory
extracts: the coinvariant subalgebra R, the normalizer tau, the induced
pre-bialgebra with its cocycle, thinness and divided-power bases, the
associated (g, chi, q) datum, the scalar lambda(N), x and the cocycle line
tables, the colinearity equivalences, transports between retractions, and
the classification isomorphism onto an Ore-extension Hopf algebra.
`Analysis` chains these stages on one setup and forms each of them once.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Optional, Sequence

from .cyclotomic import CycScalar, q_factorial, q_int
from .hopf import (
    BialgebraSC, HopfSC, ad_equivariant, algebra_map_failures, coalgebra_map_failures,
    char_convpow, char_eval, char_powers, is_central, phi_map, psi_map, skew_primitives, wedge,
    filtration_from,
)
from .linalg import (
    CoordinateMap, Mat, SVec, Subspace, Tensor3,
    cone, czero, image, kernel_from_sparse_rows, kernel_of_images, sv_add_into, sv_axpy,
    sv_outer_axpy, sv_scale, sv_to_dense, zeros,
)
from .cocycle import (
    Cocycle, PreBialgebra, bosonize, check_cocycle, check_prebialgebra, retraction_diagnostics, tau_matrix,
)
from .construct import (
    CompatibleDatum, HypothesisViolation, OreHopf, YDDatum, build_ore_hopf, build_quantum_line,
    lambda_cocycle, universal_map, validate_compatible_datum, validate_yd_datum,
)
from .reports import MAX_WITNESSES, CheckReport
from .yd import YDModule, comodule_map_failures, module_map_failures


class AnalysisError(ValueError):
    """A claim or hypothesis of the theory failed, so the analysis stops."""


class InducedAxiomFailure(AnalysisError):
    pass


class NotThin(AnalysisError):
    pass


class EquivalenceMismatch(AnalysisError):
    pass


class ProjectionSetup:
    """(A, H, sigma, pi) and the normalized integral of H*, decided once.

    `integral` is `hopf.integral(H)`, solved once per H (`H.dual_integral`):
    None exactly when H is not cosemisimple, which is the hypothesis the
    sharpest claims need.
    """

    def __init__(self, A: BialgebraSC, H: HopfSC, sigma: Mat, pi: Mat):
        self.A = A
        self.H = H
        self.sigma = sigma
        self.pi = pi
        self.integral = H.dual_integral


def setup_from_ore(ore: OreHopf) -> ProjectionSetup:
    return ProjectionSetup(ore.O, ore.base, ore.sigma, ore.p)


def validate_setup(s: ProjectionSetup) -> CheckReport:
    """sigma injective bialgebra map; pi an H-bilinear coalgebra retraction.

    A's own bialgebra axioms are not checked here; ``hopfforge check A.alg``
    (``check_hopf``) is the check for them.
    """
    rep = CheckReport("projection setup")
    A, H, sigma, pi = s.A, s.H, s.sigma, s.pi
    rep.add("sigma_injective", sigma.rank() == H.dim)
    # all witnesses are recorded: "unit" follows 8 pairs, and the coalgebra list is not bounded
    bad = list(islice(algebra_map_failures(sigma, H, A), MAX_WITNESSES))
    if sigma.apply_sv(H.unit_sv()) != A.unit_sv():
        bad.append("unit")
    rep.record("sigma_algebra_map", bad)
    rep.record("sigma_coalgebra_map", list(coalgebra_map_failures(sigma, H, A)))
    rep.add("pi_retraction", (pi @ sigma) == Mat.identity(H.dim))
    diag = retraction_diagnostics(A, pi, sigma, H)
    rep.add("pi_coalgebra_map", diag["coalgebra_map"])
    rep.add("pi_H_bilinear", diag["H_bilinear"])
    rep.add("info_pi_algebra_map", True, detail=f"algebra_map={diag['algebra_map']}")
    # pi(r sigma(h)) = eps(r) h on a computed basis of the coinvariants
    if rep.ok:
        bad = []
        for rs in coinvariants(s).pivot_rows.values():
            er = A.counit_sv(rs)
            for h in range(H.dim):
                lhs = pi.apply_sv(A.mul_sv(rs, sigma.cols[h]))
                if lhs != ({h: er} if er else {}):
                    bad.append(h)
        rep.record("pi_normal_on_coinvariants", bad)
    return rep


def coinvariants(s: ProjectionSetup) -> Subspace:
    """R = {a : (id (x) pi) Delta(a) = a (x) 1_H}: the kernel of the images
    e_k -> (id (x) pi) Delta(e_k) - e_k (x) 1_H."""
    A, pi = s.A, s.pi
    unit_h = s.H.unit_sv()
    images = []
    for k in range(A.dim):
        t: dict[tuple[int, int], CycScalar] = {}
        for (i, j), c in A.comult_basis(k).items():
            sv_axpy(t, c, (((i, h), w) for h, w in pi.cols[j].items()))
        sv_axpy(t, -cone(), (((k, h), ch) for h, ch in unit_h.items()))
        images.append(t)
    return kernel_of_images(images)


class InducedPreBialgebra:
    """The pre-bialgebra + cocycle induced on the coinvariants of a setup."""

    def __init__(self, setup: ProjectionSetup, R: Subspace, basis: list[SVec],
                 coords: CoordinateMap, pre: PreBialgebra, xi: Cocycle, tau: Mat):
        self.setup, self.R, self.pre, self.xi, self.tau = setup, R, pre, xi, tau
        self.basis = basis              # the chosen basis vectors inside A
        self.coords = coords            # sparse vector of A -> sparse R-coordinates, or None

    @cached_property
    def omega(self) -> Mat:
        """omega(r (x) h) = r sigma(h), as a matrix R (x) H -> A."""
        A = self.setup.A
        return Mat.of_cols(A.dim, [A.mul_sv(r, sh)
                                   for r in self.basis for sh in self.setup.sigma.cols])

    @cached_property
    def roundtrip(self) -> bool:
        """Whether omega carries R #_xi H onto A (`omega_roundtrip`); only the
        verdict is kept, not the bosonization."""
        return omega_roundtrip(self)


def induced_structures(s: ProjectionSetup, basis: Optional[list[SVec]] = None,
                       verify: bool = True) -> InducedPreBialgebra:
    """Compute (R, m, u, delta, eps, action, coaction, xi) on a basis of R.

    All structure maps are expressed in R-coordinates; an element escaping
    R (x) R (or H (x) R) falsifies the implementation and raises
    InducedAxiomFailure.  With verify=True the pre-bialgebra and cocycle
    axiom suites gate the result.
    """
    A, H, sigma, pi = s.A, s.H, s.sigma, s.pi
    R = coinvariants(s)
    if basis is None:
        basis = list(R.pivot_rows.values())
    elif any(R.reduce(b) for b in basis):
        raise InducedAxiomFailure("supplied basis vector is not coinvariant")
    elif len(basis) != R.dim:
        raise InducedAxiomFailure("supplied basis does not span the coinvariants")
    try:
        coords = CoordinateMap(A.dim, basis)
    except ValueError:
        raise InducedAxiomFailure("supplied basis does not span the coinvariants") from None
    nr = len(basis)
    tau = tau_matrix(A, H, sigma, pi)

    def coords_or_fail(v: SVec, what: str) -> SVec:
        x = coords(v)
        if x is None:
            raise InducedAxiomFailure(f"{what} leaves the coinvariant subspace")
        return x

    # delta(r) = tau(r_1) (x) r_2, the pair form of (tau (x) id) Delta(r) in R (x) R
    comult = Tensor3((nr, nr, nr))
    for k, r in enumerate(basis):
        t: dict[tuple[int, int], CycScalar] = {}
        for (i, j), c in A.comult_sv(r).items():
            sv_axpy(t, c, (((i2, j), w) for i2, w in tau.cols[i].items()))
        x = coords.pair(t)
        if x is None:
            raise InducedAxiomFailure("comultiplication leaves the coinvariant subspace")
        for (a, b), cb in x.items():
            comult[(k, a, b)] = cb
    counit = [A.counit_sv(r) for r in basis]
    # m(r (x) s) = tau(r ._A s) and xi(r (x) s) = pi(r ._A s)
    mult = Tensor3((nr, nr, nr))
    xi_t = Tensor3((nr, nr, H.dim))
    for i in range(nr):
        for j in range(nr):
            prod = A.mul_sv(basis[i], basis[j])
            for k, ck in coords_or_fail(tau.apply_sv(prod), "multiplication").items():
                mult[(i, j, k)] = ck
            for h, ch in pi.apply_sv(prod).items():
                xi_t[(i, j, h)] = ch
    unit = sv_to_dense(coords_or_fail(A.unit_sv(), "unit"), nr)
    # action ^h r = sigma(h_1) r sigma S(h_2); coaction rho(r) = pi(r_1) (x) r_2
    action = Tensor3((H.dim, nr, nr))
    sScols = [sigma.apply_sv(H.antipode_col(h)) for h in range(H.dim)]
    for h in range(H.dim):
        dh = H.comult_basis(h)
        for i, r in enumerate(basis):
            acc: SVec = {}
            for (h1, h2), c in dh.items():
                sv_add_into(acc, A.mul_sv(A.mul_sv(sv_scale(sigma.cols[h1], c), r), sScols[h2]))
            for j, cj in coords_or_fail(acc, "action").items():
                action[(h, i, j)] = cj
    coaction = Tensor3((nr, H.dim, nr))
    for i, r in enumerate(basis):
        pair2: dict[int, SVec] = {}
        for (a, b), c in A.comult_sv(r).items():
            for h, w in pi.cols[a].items():
                sv_axpy(pair2.setdefault(h, {}), c, ((b, w),))
        for h, col in pair2.items():
            if col:
                for j, cj in coords_or_fail(col, "coaction").items():
                    coaction[(i, h, j)] = cj
    yd = YDModule(H, nr, action, coaction)
    pre = PreBialgebra(H, yd, mult, unit, comult, counit)
    xi = Cocycle(xi_t)
    if verify:
        check_prebialgebra(pre).raise_failures(InducedAxiomFailure,
                                               "induced pre-bialgebra fails axioms: ")
        check_cocycle(pre, xi).raise_failures(InducedAxiomFailure, "induced cocycle fails axioms: ")
    return InducedPreBialgebra(s, R, basis, coords, pre, xi, tau)


def omega_roundtrip(ind: InducedPreBialgebra) -> bool:
    """Rebuild R #_xi H from the induced data and compare with A through
    omega(r (x) h) = r sigma(h): both multiplication and comultiplication
    must transport exactly.
    """
    return _omega_is_iso(ind, bosonize(ind.pre, ind.xi, verify=False).B)


def _omega_is_iso(ind: InducedPreBialgebra, B: BialgebraSC) -> bool:
    """omega carries the multiplication and the comultiplication of
    B = R # H onto those of A (counits are not compared)."""
    A, omega = ind.setup.A, ind.omega
    if next(algebra_map_failures(omega, B, A), None) is not None:
        return False
    # the ("counit", k) witnesses are skipped, k alone is a comultiplication failure
    return all(isinstance(w, tuple) for w in coalgebra_map_failures(omega, B, A))


# -- thinness and divided powers ----------------------------------------------


class DividedPowerBasis:
    """d_0 = 1, d_1 = y, ..., d_{N-1} with Delta(d_n) = sum d_t (x) d_{n-t}
    and h . d_n = chi^n(h) d_n, read off the associated datum (g, chi, q).

    ql is the quantum line R_q(H, g, chi) and f: R_q -> R the map
    e_n -> y^n = (n)_q! d_n, both formed once per thin carrier.
    """

    def __init__(self, d: list[SVec], datum: YDDatum, y: SVec):
        self.d = d              # in R-coordinates
        self.q, self.g, self.chi, self.N = datum.q, datum.g, datum.chi, len(d)
        self.y = y              # = d[1] when N > 1
        self.ql = build_quantum_line(datum)
        self.f = Mat.of_cols(self.N, self.y_powers())

    def y_powers(self) -> list[SVec]:
        """y^n = (n)_q! d_n in R-coordinates."""
        return [sv_scale(dn, q_factorial(n_, self.q)) for n_, dn in enumerate(self.d)]


def thinness_and_basis(ind: InducedPreBialgebra) -> Optional[DividedPowerBasis]:
    """The divided-power basis of a thin carrier, or None when it is not thin.

    Thin means: the filtration from K 1 exhausts the carrier with a
    one-dimensional bottom layer, and the primitive space has dimension 1.
    On a thin carrier the datum (g, chi, q) of the primitive line y is
    validated, o(q) = N is verified and the basis d_n = y d_{n-1} / (n)_q is
    built.  Since y^n = (n)_q! d_n with (n)_q! != 0 for n < N, the
    divided-power coproduct and the eigenvalue property h . d_n = chi^n(h) d_n
    hold exactly when f: R_q -> R is a coalgebra map and an H-module map.
    """
    pre = ind.pre
    n = pre.dim
    unit = pre.unit_sv()
    F0 = Subspace(n, [pre.unit])
    layers, exhausts = filtration_from(pre, F0)
    prim = skew_primitives(pre, unit, unit)
    thin = exhausts and F0.dim == 1 and prim.dim == 1
    if not thin:
        return None
    (y,) = prim.pivot_rows.values()
    H = ind.setup.H
    # chi from h . y = chi(h) y; g from rho(y) = g (x) y
    chi = zeros(H.dim)
    for h in range(H.dim):
        img = pre.yd.act({h: cone()}, y)
        lam = _proportionality(img, y)
        if lam is None:
            raise NotThin("action does not preserve the primitive line")
        chi[h] = lam
    co = pre.yd.coact(y)
    slices: dict[int, SVec] = {}
    for (h, j), c in co.items():
        slices.setdefault(h, {})[j] = c
    g: SVec = {}
    for h, sl in slices.items():
        lam = _proportionality(sl, y)
        if lam is None:
            raise NotThin("coaction does not preserve the primitive line")
        g[h] = lam
    datum = validate_yd_datum(H, g, chi)
    if isinstance(datum, CheckReport):
        if datum.entry("g_group_like").ok and datum.entry("chi_character").ok:
            raise NotThin("associated datum fails validation")
        raise NotThin("extracted (g, chi) fail their defining properties")
    order = datum.order()
    if order != n:
        raise NotThin(f"o(q) = {order} differs from dim R = {n}")
    # divided powers d_n = y d_{n-1} / (n)_q
    d = [unit, y] if n > 1 else [unit]
    for k in range(2, n):
        d.append(sv_scale(pre.mul_sv(y, d[-1]), q_int(k, datum.q).inverse()))
    basis = DividedPowerBasis(d, datum, y)
    # the degree is the last entry of the first witness: k, ("counit", k) or (h, k)
    for what, failures in (("divided-power coproduct", coalgebra_map_failures(basis.f, basis.ql, pre)),
                           ("eigenvalue property", module_map_failures(basis.f, basis.ql.yd, pre.yd))):
        bad = next(failures, None)
        if bad is not None:
            raise NotThin(f"{what} fails at degree {bad[-1] if isinstance(bad, tuple) else bad}")
    return basis


def _proportionality(img: SVec, ref: SVec) -> Optional[CycScalar]:
    """img = lambda ref, or None; ref != 0."""
    if not img:
        return czero()
    k = next(iter(ref))
    if k not in img:
        return None
    lam = img[k] / ref[k]
    return lam if img == sv_scale(ref, lam) else None


# -- cocycle analysis -----------------------------------------------------------


class CocycleAnalysis:
    def __init__(self, N: int, q: CycScalar, x: SVec, x_is_zero: bool, support_ok: bool,
                 half_line_constant: bool, half_line_value: Optional[SVec],
                 full_line_constant: Optional[bool], three_half_line_zero: Optional[bool],
                 lam: Optional[CycScalar], lam_datum: Optional[CompatibleDatum],
                 table_matches: Optional[bool], table: Optional[dict] = None,
                 x_claims: Optional[CheckReport] = None):
        self.N, self.q, self.x_is_zero, self.support_ok = N, q, x_is_zero, support_ok
        self.x = x                                  # xi(d_1 (x) d_{N/2-1}), 0 for N odd
        self.half_line_constant, self.half_line_value = half_line_constant, half_line_value
        self.full_line_constant = full_line_constant    # None when x^2 != 0 at even N
        self.three_half_line_zero, self.lam_datum = three_half_line_zero, lam_datum
        self.lam = lam                              # None when not extracted, see lam_missing
        self.table_matches = table_matches          # xi table in the x = 0 regime
        self.table = {} if table is None else table     # (a, b) -> xi(y^a (x) y^b) sparse in H
        self.x_claims = CheckReport("x claims") if x_claims is None else x_claims

    def lam_missing(self) -> str:
        """Why lambda was not extracted (read when lam is None)."""
        if self.full_line_constant is None:
            return "x^2 != 0 at even N"
        return "xi(y, y^(N-1)) is not a multiple of 1 - g^N"


def cocycle_analysis(ind: InducedPreBialgebra, basis: DividedPowerBasis) -> CocycleAnalysis:
    """Everything the theory says about xi on a thin carrier.

    Support, line constancy, the element x with its claims, and the
    extraction of lambda(N) when N is odd or x^2 = 0; the claim that x
    vanishes over a cosemisimple H is made when the setup's integral is
    not None.  When lambda is not a scalar multiple, the raw values stay in
    the table and lam is None.  xi is evaluated once per pair on the
    y-power grid (`table`), and once more for x; since y^a = (a)_q! d_a
    with (a)_q! != 0, xi(d_a (x) d_b) vanishes exactly where the table does.
    """
    s, xi = ind.setup, ind.xi
    H = s.H
    N, q = basis.N, basis.q
    y_pows = basis.f.cols  # y^a = f(e_a)

    table = {(a, b): xi.eval(y_pows[a], y_pows[b]) for a in range(N) for b in range(N)}
    # support: xi(d_a (x) d_b) = 0 unless a+b in {0, N/2, N, 3N/2}
    allowed = {0, N}
    if N % 2 == 0:
        allowed.add(N // 2)
        allowed.add(3 * N // 2)
    support_ok = not any(v for (a, b), v in table.items() if a + b not in allowed)
    # x and its claims
    rep = CheckReport("claims about x")
    x = xi.eval(basis.d[1], basis.d[N // 2 - 1]) if N % 2 == 0 and N > 1 else {}
    x_zero = not x
    if N % 2 == 0:
        ghalf = H.pow_sv(basis.g, N // 2)
        expect: dict[tuple[int, int], CycScalar] = {}
        sv_outer_axpy(expect, cone(), ghalf, x)
        sv_outer_axpy(expect, cone(), x, H.unit_sv())
        rep.add("x_skew_primitive", H.comult_sv(x) == expect)
        chis = char_powers(H, basis.chi, 2 * N + 1)
        rep.add("chi_powers_kill_x", all(not char_eval(chi_c, x) for chi_c in chis))
        # phi(x) = -x and psi(x) = x give phi^c(x) = (-1)^c x and psi^c(x) = x for every c
        rep.add("phi_sign_action_on_x", phi_map(H, basis.chi).apply_sv(x) == sv_scale(x, -cone()))
        rep.add("psi_fixes_x", psi_map(H, basis.chi).apply_sv(x) == x)
        rep.add("x_ad_equivariance", ad_equivariant(H, chis[N // 2], x))
        anti = H.mul_sv(x, basis.g)
        sv_add_into(anti, H.mul_sv(basis.g, x))
        rep.add("x_anticommutes_with_g", not anti)
        if N // 2 == 1:
            rep.add("x_vanishes_when_half_is_one", x_zero)
        if (N // 2) % 2 == 1:
            rep.add("x_squares_to_zero_odd_half", not H.mul_sv(x, x))
        if (N // 2) % 2 == 0:
            rep.add("x_vanishes_even_half_fd", x_zero)
        if s.integral is not None:
            rep.add("x_vanishes_cosemisimple", x_zero)
    # line constancy on a+b = N/2; table[1, N/2 - 1] is half_val by the definition of x
    half_const = True
    half_val: Optional[SVec] = None
    if N % 2 == 0 and N >= 2:
        half_val = sv_scale(x, q_factorial(N // 2 - 1, q))
        half_const = all(table[a, N // 2 - a] == half_val for a in range(2, N // 2))
    # full line a+b = N when x^2 = 0, each a >= 2 against a = 1
    x2_zero = not H.mul_sv(x, x)
    full_const: Optional[bool] = None
    if N % 2 == 1 or x2_zero:
        full_const = all(table[a, N - a] == table[1, N - 1] for a in range(2, N))
    three_half: Optional[bool] = None
    if N % 2 == 0 and x_zero:
        three_half = not any(table[a, 3 * N // 2 - a] for a in range(N // 2 + 1, N))
    elif N % 2 == 1:
        three_half = True
    # lambda extraction
    lam: Optional[CycScalar] = None
    lam_datum: Optional[CompatibleDatum] = None
    table_ok: Optional[bool] = None
    if N % 2 == 1 or x2_zero:
        raw = table[1, N - 1] if N > 1 else {}
        z = H.one_minus_pow_sv(basis.g, N)
        if not z:
            # g^N = 1: the value must vanish and lambda is forced to 0
            lam = czero() if not raw else None
        else:
            lam = _proportionality(raw, z)
        if lam is not None:
            datum = YDDatum(H, basis.g, basis.chi, q)
            out = validate_compatible_datum(datum, lam)
            if not isinstance(out, CheckReport):
                lam_datum = out
        if lam is not None and (N % 2 == 1 or x_zero):
            expect = lambda_cocycle(H, basis.g, N, lam)
            table_ok = all(got == expect.eval_basis(a, b) for (a, b), got in table.items())
    return CocycleAnalysis(N, q, x, x_zero, support_ok, half_const, half_val,
                           full_const, three_half, lam, lam_datum, table_ok, table, rep)


# -- equivalence report ----------------------------------------------------------


class AnalysisReport:
    def __init__(self, associative: bool, equivalences: dict[str, bool],
                 power_comparison: list[bool], consequence_integral: Optional[dict[str, bool]]):
        self.associative, self.equivalences = associative, equivalences
        self.power_comparison, self.consequence_integral = power_comparison, consequence_integral


def equivalence_report(ind: InducedPreBialgebra, basis: DividedPowerBasis,
                       analysis: CocycleAnalysis) -> AnalysisReport:
    """Evaluate items (a)-(d) and (1)-(4) independently and assert the
    biconditionals between them; with a verified ad-invariant integral of H*,
    also assert the consequences of a nontrivial xi.  When xi is trivial,
    (3) is ind's roundtrip verdict, which bosonizes the same tables.

    (a) m left H-colinear; (b) N odd or xi(y (x) y^{N/2-1}) = 0;
    (c) iterated powers of y agree in R and in A for n < N;
    (d) R equals the quantum line of the associated datum;
    (1) xi trivial; (2) lambda(N) = 0; (3) A equals the plain smash product
    through omega; (4) pi is an algebra map.
    """
    s, pre, xi = ind.setup, ind.pre, ind.xi
    H, A = s.H, s.A
    N = basis.N
    a_item = pre.mult_is_colinear
    b_item = N % 2 == 1 or not analysis.table[1, N // 2 - 1]
    # (c): powers in R vs powers in A
    pow_cmp = []
    r_pow = pre.unit_sv()
    a_pow = A.unit_sv()
    ys_a = _combine(basis.y, ind.basis)
    for n_ in range(N):
        pow_cmp.append(_combine(r_pow, ind.basis) == a_pow)
        r_pow = pre.mul_sv(r_pow, basis.y)
        a_pow = A.mul_sv(a_pow, ys_a)
    c_item = all(pow_cmp)
    # y^{.A N} = lambda(1 - sigma(g)^N) when lambda is known
    if analysis.lam is not None:
        gA = s.sigma.apply_sv(basis.g)
        pow_cmp.append(a_pow == A.one_minus_pow_sv(gA, N, analysis.lam))
    # (d): R equals the quantum line on the y-power basis
    d_item = _is_quantum_line(ind, basis)
    # (1)-(4)
    one_item = xi.is_trivial(pre)
    two_item = analysis.lam.is_zero() if analysis.lam is not None else None
    three_item = ind.roundtrip if one_item else _is_plain_smash(ind)
    four_item = (s.pi.apply_sv(A.unit_sv()) == H.unit_sv()
                 and next(algebra_map_failures(s.pi, A, H), None) is None)
    equivalences = {
        "a_colinear": a_item,
        "b_odd_or_half_zero": b_item,
        "c_powers_agree": c_item,
        "d_quantum_line": d_item,
        "1_xi_trivial": one_item,
        "2_datum_trivial": two_item if two_item is not None else False,
        "3_radford_majid": three_item,
        "4_pi_algebra_map": four_item,
    }
    if not (a_item == b_item == c_item == d_item):
        raise EquivalenceMismatch(f"(a)-(d) disagree: {equivalences}")
    if not (one_item == three_item == four_item):
        raise EquivalenceMismatch(f"(1), (3), (4) disagree: {equivalences}")
    if two_item is not None and a_item:
        # with (a)-(d) true the datum triviality joins the equivalence class
        if two_item != one_item:
            raise EquivalenceMismatch(f"(1) and (2) disagree under (a)-(d): {equivalences}")
    consequence = None
    if H.integral_is_ad_invariant:
        # with an ad-invariant integral: xi nontrivial => chi^N = eps, g^N central != 1
        if not one_item:
            chiN = char_convpow(H, basis.chi, N)
            gN = H.pow_sv(basis.g, N)
            consequence = {
                "chi_N_is_counit": chiN == H.counit,
                "g_N_central": is_central(H, gN),
                "g_N_not_one": gN != H.unit_sv(),
            }
            if not all(consequence.values()):
                raise EquivalenceMismatch(f"integral consequence fails: {consequence}")
    return AnalysisReport(pre.mult_is_associative, equivalences, pow_cmp, consequence)


def _combine(coeffs: SVec, vectors: Sequence[SVec]) -> SVec:
    """sum_k c_k v_k over the sparse coefficients c; with the induced basis
    as the v_k this embeds an element of R in A."""
    acc: SVec = {}
    for k, c in coeffs.items():
        sv_axpy(acc, c, vectors[k].items())
    return acc


def _is_quantum_line(ind: InducedPreBialgebra, basis: DividedPowerBasis) -> bool:
    """f = (e_a -> y^a) from R_q(H, g, chi) into R is injective and a map of
    algebras, coalgebras, H-modules and H-comodules.  f and R_q are read from
    the basis, which exists only when `thinness_and_basis` has found f a map
    of coalgebras and of H-modules, so only the other two halves are checked."""
    pre, f, ql = ind.pre, basis.f, basis.ql
    return f.rank() == basis.N and all(next(failures, None) is None for failures in (
        algebra_map_failures(f, ql, pre), comodule_map_failures(f, ql.yd, pre.yd)))


def _is_plain_smash(ind: InducedPreBialgebra) -> bool:
    """A equals the trivial-cocycle bosonization of R through omega."""
    return _omega_is_iso(ind, bosonize(ind.pre, Cocycle.trivial(ind.pre), verify=False).B)


# -- retraction transport and uniqueness ---------------------------------------


def retraction_tools(s1: ProjectionSetup, s2: ProjectionSetup) -> dict:
    """Transports between the coinvariants of two retractions of one sigma.

    tau_1 restricted to R^2 and tau_2 restricted to R^1 are mutual inverse
    coalgebra maps.  When H is cosemisimple and the carriers are thin the
    two retractions are asserted equal; otherwise the verdict is reported
    without assertion.
    """
    if s1.A is not s2.A:
        raise ValueError("retraction comparison needs a shared bialgebra A")
    if s1.sigma != s2.sigma:
        raise ValueError("retraction comparison needs a shared injection sigma")
    ind1 = induced_structures(s1, verify=False)
    ind2 = induced_structures(s2, verify=False)
    # restrictions in coordinates
    t1_on_2 = _restricted(ind1, ind2, "tau_1 does not map R^2 into R^1")
    t2_on_1 = _restricted(ind2, ind1, "tau_2 does not map R^1 into R^2")
    n1, n2 = len(ind1.basis), len(ind2.basis)
    mutual = (t1_on_2 @ t2_on_1 == Mat.identity(n1)) and (t2_on_1 @ t1_on_2 == Mat.identity(n2))
    coalg = _is_coalgebra_map(t1_on_2, ind2.pre, ind1.pre) and \
        _is_coalgebra_map(t2_on_1, ind1.pre, ind2.pre)
    equal = s1.pi == s2.pi
    out = {
        "transport_mutual_inverse": mutual,
        "transport_coalgebra_maps": coalg,
        "retractions_equal": equal,
        "uniqueness_asserted": False,
    }
    if s1.integral is not None and s2.integral is not None:
        if thinness_and_basis(ind1) is not None:
            out["uniqueness_asserted"] = True
            if not equal:
                raise EquivalenceMismatch(
                    "cosemisimple uniqueness violated: distinct retractions of one sigma")
    return out


def _restricted(target: InducedPreBialgebra, source: InducedPreBialgebra, failure: str) -> Mat:
    """tau of target restricted to the coinvariants of source, in coordinates."""
    cols = []
    for b in source.basis:
        img = target.coords(target.tau.apply_sv(b))
        if img is None:
            raise InducedAxiomFailure(failure)
        cols.append(img)
    return Mat.of_cols(len(target.basis), cols)


def _is_coalgebra_map(f: Mat, C, D) -> bool:
    return next(coalgebra_map_failures(f, C, D), None) is None


# -- classification --------------------------------------------------------------


def wedge_layer_of_sigma(s: ProjectionSetup) -> Subspace:
    """sigma(H) wedge sigma(H) inside A (the degree-one layer of the
    sigma(H)-filtration; equals the coradical layer A_1 in the pointed
    connected situations the catalog guarantees)."""
    sigmaH = image(s.sigma)
    return wedge(s.A, sigmaH, sigmaH)


class Analysis:
    """The analysis of one setup, each stage formed once, when first read.

    The stages are validation, induced, roundtrip, basis, cocycle,
    equivalences, A1 and classification.  basis is the divided-power basis,
    or None when R is not thin; cocycle and equivalences need a thin R.
    Each stage before classification calls the module-level function of the
    same step, looked up when the stage is read, so that function can also
    be called, or replaced, alone; roundtrip reads it through the induced
    pre-bialgebra, whose verdict equivalence_report also reads.
    """

    def __init__(self, setup: ProjectionSetup):
        self.setup = setup

    @cached_property
    def validation(self) -> CheckReport:
        return validate_setup(self.setup)

    @cached_property
    def induced(self) -> InducedPreBialgebra:
        return induced_structures(self.setup)

    @cached_property
    def roundtrip(self) -> bool:
        return self.induced.roundtrip

    @cached_property
    def basis(self) -> Optional[DividedPowerBasis]:
        return thinness_and_basis(self.induced)

    @cached_property
    def cocycle(self) -> CocycleAnalysis:
        return cocycle_analysis(self.induced, self.basis)

    @cached_property
    def equivalences(self) -> AnalysisReport:
        return equivalence_report(self.induced, self.basis, self.cocycle)

    @cached_property
    def A1(self) -> Subspace:
        return wedge_layer_of_sigma(self.setup)

    @cached_property
    def classification(self) -> tuple[CompatibleDatum, OreHopf, Mat]:
        """(CompatibleDatum, OreHopf, iso) with iso: O(H, g, chi, lambda) -> A.

        Requires the carrier to be thin and lambda(N) to be extracted with a
        compatible datum.  The generator z is searched in the skew-primitive
        space of A relative to (sigma(g), 1), constrained by the universal-map
        hypotheses and normalized so its coefficient along y is 1.  Also
        verifies the dim(A_1) = 2 dim(H) <-> thin criterion on the instance.
        """
        s = self.setup
        basis, A1 = self.basis, self.A1
        thin = basis is not None
        if (A1.dim == 2 * s.H.dim) != thin:
            raise EquivalenceMismatch(
                f"dim A_1 = {A1.dim} vs 2 dim H = {2 * s.H.dim} disagrees with thin = {thin}")
        if not thin:
            raise NotThin("classification needs a thin coinvariant coalgebra")
        analysis = self.cocycle
        if analysis.lam is None:
            raise AnalysisError(f"lambda not extracted: {analysis.lam_missing()}")
        if analysis.lam_datum is None:
            raise AnalysisError(f"lambda = {analysis.lam} is not compatible with the datum")
        comp = analysis.lam_datum
        ore = build_ore_hopf(comp, verify=False)
        A, H = s.A, s.H
        # search the normalized generator z among (sigma(g), 1)-skew-primitives
        gA = s.sigma.apply_sv(basis.g)
        sk = skew_primitives(A, gA, A.unit_sv(), bial=A)
        # linear constraints: sigma(h) z = z sigma(phi(h)) for all basis h
        phi1 = phi_map(H, basis.chi)
        rows: list[SVec] = []
        zs = list(sk.pivot_rows.values())
        for h in range(H.dim):
            sh = s.sigma.cols[h]
            sph = s.sigma.apply_sv(phi1.cols[h])
            by_t: dict[int, SVec] = {}  # the e_t coefficient of each z_k's equation
            for kk, zk in enumerate(zs):
                diff = A.mul_sv(sh, zk)
                sv_add_into(diff, A.mul_sv(zk, sph), CycScalar.from_rational(-1))
                for t, c in diff.items():
                    by_t.setdefault(t, {})[kk] = c
            rows += (by_t[t] for t in sorted(by_t))
        sol = kernel_from_sparse_rows(rows, len(zs))
        y_in_A = _combine(basis.y, self.induced.basis)
        piv = min(y_in_A)
        fhat: Optional[Mat] = None
        for cand_coords in sol.pivot_rows.values():
            cand = _combine(cand_coords, zs)
            # normalize: coefficient along y equal to 1 (measured at y's pivot)
            if piv not in cand:
                continue
            # z must satisfy the power condition; try it
            try:
                fhat = universal_map(ore, A, s.sigma, sv_scale(cand, y_in_A[piv] / cand[piv]))
            except HypothesisViolation:
                continue
            break
        if fhat is None:
            raise NotThin("no normalized generator satisfies the universal-map hypotheses")
        # bijectivity and sigma-compatibility
        if fhat.rank() != A.dim:
            raise EquivalenceMismatch("classification map is not bijective")
        if (fhat @ ore.sigma) != s.sigma:
            raise EquivalenceMismatch("classification map does not restrict to sigma")
        return comp, ore, fhat


def classify(s: ProjectionSetup):
    """Analysis(s).classification, on a fresh Analysis for every call."""
    return Analysis(s).classification
