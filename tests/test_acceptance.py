"""Acceptance criteria.

One test per criterion; each prints a single PASS line when its assertions
(exact equality everywhere, plus the stated wall-clock bounds) all hold.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from pathlib import Path

import pytest

from hopfforge.cyclotomic import CycScalar, q_binomial, q_factorial
from hopfforge.hopf import (
    check_hopf, cyclic_character, group_algebra_cyclic, group_algebra_integral,
    verify_character, verify_group_like,
)
from hopfforge.linalg import (
    Mat, cone, czero, sv_add_into, sv_from_dense, sv_scale, zeros,
)
from hopfforge.cocycle import Cocycle, bosonize, check_cocycle, retraction_diagnostics
from hopfforge.construct import (
    CompatibleDatum, build_ore_hopf, iterated_datum_check, validate_compatible_datum,
    validate_yd_datum,
)
from hopfforge.analyze import (
    Analysis, ProjectionSetup, induced_structures, retraction_tools, setup_from_ore,
    validate_setup, wedge_layer_of_sigma,
)
from hopfforge.fileformat import AlgebraFile
from hopfforge import catalog

GOLDEN = Path(__file__).parent / "golden"


def rat(x):
    return CycScalar.from_rational(x)


def _announce(num, title, t0):
    print(f"\nACCEPTANCE {num} ({title}): PASS in {time.perf_counter() - t0:.1f}s")


def test_criterion_01_b0_reconstruction():
    t0 = time.perf_counter()
    H = group_algebra_cyclic(6, conductor=6)
    chi1 = cyclic_character(H, rat(-1))
    d = validate_yd_datum(H, {3: cone()}, chi1)
    c = validate_compatible_datum(d, rat(0))
    ore = build_ore_hopf(c)
    O = ore.O
    assert ore.dim == 12
    x = ore.y_vec
    assert O.pow_sv({1: cone()}, 6) == O.unit_sv()            # gamma^6 = 1
    assert O.mul_sv(x, x) == {}                               # x^2 = 0
    anti = dict(O.mul_sv({1: cone()}, x))
    sv_add_into(anti, O.mul_sv(x, {1: cone()}))
    assert anti == {}                                         # gamma x + x gamma = 0
    g3 = O.pow_sv({1: cone()}, 3)
    dx = O.comult_sv(x)
    expect = {}
    for i, ci in g3.items():
        for j, cj in x.items():
            expect[(i, j)] = ci * cj
    for i, ci in x.items():
        for j, cj in O.unit_sv().items():
            expect[(i, j)] = expect.get((i, j), czero()) + ci * cj
    assert dx == {k: v for k, v in expect.items() if v}       # Delta(x) = g^3 (x) x + x (x) 1
    assert O.antipode_sv(x) == sv_scale(O.mul_sv(g3, x), rat(-1))   # S(x) = -gamma^-3 x
    assert check_hopf(O).ok
    # exact match against the golden file
    golden = AlgebraFile(GOLDEN / "b0.alg").to_hopf()
    assert O.mult == golden.mult and O.comult == golden.comult
    assert O.antipode == golden.antipode
    assert O.unit == golden.unit and O.counit == golden.counit
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(1, "B0 reconstruction, dim 12", t0)


def test_criterion_02_xmas_reconstruction(xmas_entry):
    t0 = time.perf_counter()
    ore = xmas_entry.ore
    assert ore.dim == 72 == 6 * 12
    O = ore.O
    q = CycScalar.zeta(6)
    Y = ore.y_vec
    G = ore.gamma_vec
    X = ore.sigma.cols[6]
    assert O.pow_sv(Y, 6) == {}                               # Y^6 = 0
    assert O.mul_sv(G, Y) == sv_scale(O.mul_sv(Y, G), q)      # Gamma Y = q Y Gamma
    anti = dict(O.mul_sv(X, Y))
    sv_add_into(anti, O.mul_sv(Y, X))
    assert anti == {}                                         # X Y = -Y X
    assert check_hopf(O).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(2, "dim-72 reconstruction + full Hopf check", t0)


def test_criterion_03_non_normalized_projection(xmas_entry, xmas_pi_analysis):
    t0 = time.perf_counter()
    setup = xmas_entry.extra["setup_pi"]
    rep = validate_setup(setup)
    assert rep.ok
    assert rep.entry("info_pi_algebra_map").detail == "algebra_map=False"
    ore = xmas_entry.ore
    A = ore.O
    q = CycScalar.zeta(6)
    from hopfforge.analyze import tau_matrix
    tau = tau_matrix(setup)
    Y = ore.y_vec
    X = xmas_entry.extra["X_in_A"]
    y_pows = [A.unit_sv()]
    for _ in range(6):
        y_pows.append(A.mul_sv(y_pows[-1], Y))
    t3, t4, t5 = (tau.apply_sv(y_pows[n]) for n in (3, 4, 5))
    e3 = dict(y_pows[3]); sv_add_into(e3, X, rat(-1))
    e4 = dict(y_pows[4]); sv_add_into(e4, A.mul_sv(y_pows[1], X), -(q * 2 - rat(1)))
    e5 = dict(y_pows[5]); sv_add_into(e5, A.mul_sv(y_pows[2], X), cone())
    assert t3 == e3 and t4 == e4 and t5 == e5
    ind, basis = xmas_pi_analysis.induced, xmas_pi_analysis.basis
    yp = basis.y_powers()
    assert ind.xi.eval(yp[1], yp[2]) == {6: cone()}           # xi(y, y^2) = X
    H2 = setup.H
    co = ind.pre.yd.coact(yp[4])
    XG = H2.mul_sv({6: cone()}, {1: cone()})
    expect = {}
    g4 = H2.pow_sv({1: cone()}, 4)
    for h, ch in g4.items():
        for j, cj in yp[4].items():
            expect[(h, j)] = ch * cj
    for h, ch in XG.items():
        for j, cj in yp[1].items():
            expect[(h, j)] = expect.get((h, j), czero()) + rat(2) * q_binomial(4, 3, q) * ch * cj
    assert co == {k: v for k, v in expect.items() if v}       # rho(y^4) correction term
    er = xmas_pi_analysis.equivalences
    assert not any(er.equivalences[k] for k in
                   ("a_colinear", "b_odd_or_half_zero", "c_powers_agree", "d_quantum_line"))
    assert setup.pi != xmas_entry.setup.pi                    # pi != p
    _announce(3, "non-normalized projection analysis, exact", t0)


def test_criterion_04_minimal_nontrivial_bosonization(c4min_entry, c4min_analysis):
    t0 = time.perf_counter()
    ore = c4min_entry.ore
    assert ore.dim == 8
    assert check_hopf(ore.O).ok
    ind, basis = c4min_analysis.induced, c4min_analysis.basis
    from hopfforge.analyze import _is_quantum_line
    assert _is_quantum_line(ind, basis) and basis.N == 2
    H = ore.base
    yp = basis.y_powers()
    z = dict(H.unit_sv())
    sv_add_into(z, H.pow_sv({1: cone()}, 2), rat(-1))
    assert ind.xi.eval(yp[1], yp[1]) == z and z               # xi(y,y) = 1 - g^2 != 0
    er = c4min_analysis.equivalences
    assert not any(er.equivalences[k] for k in
                   ("1_xi_trivial", "2_datum_trivial", "3_radford_majid", "4_pi_algebra_map"))
    assert er.consequence_integral == {
        "chi_N_is_counit": True, "g_N_central": True, "g_N_not_one": True}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(4, "dim-8 non-trivial bosonization", t0)


def test_criterion_05_omega_roundtrip(b0_entry, xmas_entry, c4min_entry,
                                      smash36_entry, kc12n6_entry):
    t0 = time.perf_counter()
    setups = {
        "b0": b0_entry.setup,
        "c4min": c4min_entry.setup,
        "smash36": smash36_entry.setup,
        "kc12n6": kc12n6_entry.setup,
        "xmas(p)": xmas_entry.setup,
        "xmas(pi)": xmas_entry.extra["setup_pi"],
    }
    for name, s in setups.items():
        assert Analysis(s).roundtrip, name
    _announce(5, "bosonize(induced) reproduces A exactly, all catalog setups", t0)


def test_criterion_06_cocycle_axiom_suite(b0_entry, xmas_entry, c4min_entry,
                                          smash36_entry, kc12n6_entry, xmas_pi_analysis):
    t0 = time.perf_counter()
    setups = [b0_entry.setup, c4min_entry.setup, smash36_entry.setup,
              kc12n6_entry.setup, xmas_entry.setup, xmas_entry.extra["setup_pi"]]
    for s in setups:
        an = Analysis(s)
        rep = check_cocycle(an.induced.pre, an.induced.xi)
        assert rep.ok, rep.describe()
        if an.basis is not None:
            assert an.cocycle.support_ok
    # line constancy on the dim-72 pair with x != 0
    ind, basis, ana = xmas_pi_analysis.induced, xmas_pi_analysis.basis, xmas_pi_analysis.cocycle
    q = basis.q
    yp = basis.y_powers()
    line_val = sv_scale(ana.x, q_factorial(2, q))
    for a in range(1, 3):
        assert ind.xi.eval(yp[a], yp[3 - a]) == line_val
    assert ana.half_line_constant
    # derived instance over K C_12: the a+b = 6 line equals lambda(1 - g^6)
    kc = kc12n6_entry
    an2 = Analysis(kc.setup)
    ind2, basis2 = an2.induced, an2.basis
    assert basis2 is not None
    H = kc.setup.H
    yp2 = basis2.y_powers()
    z = dict(H.unit_sv())
    sv_add_into(z, H.pow_sv({1: cone()}, 6), rat(-1))
    for a in range(1, 6):
        assert ind2.xi.eval(yp2[a], yp2[6 - a]) == z
    _announce(6, "cocycle axiom suite + line structure", t0)


def test_criterion_07_radford_majid_degeneration(b0_entry, smash36_entry, qline6_entry):
    t0 = time.perf_counter()
    for entry in (b0_entry, smash36_entry):
        ind = induced_structures(entry.setup, verify=False)
        assert ind.xi.is_trivial(ind.pre)                      # xi = eps (x) eps
        diag = retraction_diagnostics(entry.ore.O, entry.ore.p, entry.ore.sigma,
                                      entry.ore.base)
        assert diag["algebra_map"]                             # pi multiplicative
    # structure-tensor equality with the plain smash product
    ql = qline6_entry.extra["quantum_line"]
    bos = smash36_entry.extra["bosonization"]
    ore = smash36_entry.ore
    assert bos.B.mult == ore.O.mult and bos.B.comult == ore.O.comult
    _announce(7, "lambda = 0 degenerates to the Radford-Majid smash", t0)


def test_criterion_08_wedge_criterion(xmas_entry, c4min_entry):
    t0 = time.perf_counter()
    A1 = wedge_layer_of_sigma(xmas_entry.extra["setup_pi"])
    assert A1.dim == 24 == 2 * xmas_entry.extra["setup_pi"].H.dim
    A1c = wedge_layer_of_sigma(c4min_entry.setup)
    assert A1c.dim == 8 == 2 * c4min_entry.setup.H.dim
    # non-thin negative control: both sides of the biconditional fail
    control = Analysis(catalog.nonthin_control().setup)
    assert control.basis is None
    assert control.A1.dim != 2 * control.setup.H.dim
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _announce(8, "dim A_1 = 2 dim H  <->  thin", t0)


def test_criterion_09_retraction_uniqueness(b0_entry, smash36_entry, kc12n6_entry,
                                            xmas_entry):
    t0 = time.perf_counter()
    # cosemisimple H (pure group algebras): a second valid retraction is
    # asserted equal to p; perturbed candidates fail validation
    for entry in (b0_entry, smash36_entry, kc12n6_entry):
        ore = entry.ore
        out = retraction_tools(entry.setup, setup_from_ore(ore))
        assert out["uniqueness_asserted"] and out["retractions_equal"]
        H, nh, N = ore.base, ore.base.dim, ore.N
        if N % 2 != 0:
            continue
        Xp = zeros(nh)
        Xp[0] = cone()
        for k, c in H.pow_sv({1: cone()}, N // 2).items():
            Xp[k] = Xp[k] - c
        bad_pi = Mat.zero(nh, ore.dim)
        for j in range(nh):
            bad_pi.rows[j][j] = cone()
            for k, c in H.mul_sv(sv_from_dense(Xp), {j: cone()}).items():
                bad_pi.rows[k][(N // 2) * nh + j] = bad_pi.rows[k][(N // 2) * nh + j] + c
        bad = ProjectionSetup(ore.O, H, ore.sigma, bad_pi, H_cosemisimple=True)
        assert not validate_setup(bad).ok
    # the non-cosemisimple pair (pi, p) on the dim-72 example stays distinct
    out = retraction_tools(xmas_entry.extra["setup_pi"], xmas_entry.setup)
    assert not out["retractions_equal"] and not out["uniqueness_asserted"]
    _announce(9, "retraction uniqueness over cosemisimple H", t0)


def test_criterion_10_q_combinatorics_oracle():
    t0 = time.perf_counter()
    from tests.test_cyclotomic import oracle_q_binomial
    qs = [rat(1), rat(-1), CycScalar.zeta(3), CycScalar.zeta(4),
          CycScalar.zeta(6), CycScalar.zeta(12)]
    for q in qs:
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == oracle_q_binomial(n, k, q)
    z6 = CycScalar.zeta(6)
    for n in range(3):
        assert q_binomial(n, 3, z6).is_zero()
    assert q_binomial(4, 3, z6) == z6 * 2 - rat(1)
    _announce(10, "Gaussian binomials vs brute-force product oracle", t0)


def test_criterion_11_iterated_datum_consistency(b0_entry):
    t0 = time.perf_counter()
    ore = b0_entry.ore
    q = CycScalar.zeta(6)
    chi2 = ore.O.characters["chi2"]
    rep = iterated_datum_check(ore, {1: cone()}, chi2, rat(0))
    assert rep.ok
    rng = random.Random(20260809)
    lams = [rat(0), rat(1), rat(2), rat(-1), q]
    for _ in range(20):
        gamma2 = {rng.randrange(6): cone()}
        m = rng.randrange(6)
        chi_cand = zeros(12)
        for i in range(6):
            chi_cand[i] = (q ** m) ** i
        lam2 = lams[rng.randrange(len(lams))]
        rep = iterated_datum_check(ore, gamma2, chi_cand, lam2)
        assert rep.entry("sides_agree").ok
        for name in ("formula_commutation_vs_pairing", "formula_ad_vs_commutation",
                     "formula_commutation_vs_power"):
            assert rep.entry(name).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(11, "iteration criterion agreement on 20 random candidates", t0)
