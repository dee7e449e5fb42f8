import random
from functools import lru_cache

import pytest

from hopfforge.cyclotomic import CycScalar, q_binomial, q_factorial, q_int
from hopfforge.hopf import (
    BialgebraSC, HopfSC, algebra_map_failures, char_convpow, coalgebra_map_failures, phi_power,
    psi_power, verify_ad_integral, verify_character,
)
from hopfforge.linalg import (
    Mat, Tensor3, cone, czero, image, sv_add_into, sv_from_dense, sv_scale, sv_to_dense, zeros,
)
from hopfforge.cocycle import (
    Cocycle, PreBialgebra, bosonize, is_H_bilinear, retraction_diagnostics, tau_matrix,
)
from hopfforge.reports import CheckReport
from hopfforge.analyze import (
    Analysis, EquivalenceMismatch, InducedPreBialgebra, NotThin, ProjectionSetup,
    _is_coalgebra_map, classify, cocycle_analysis, coinvariants, induced_structures,
    omega_roundtrip, retraction_tools, setup_from_ore, thinness_and_basis, validate_setup,
    wedge_layer_of_sigma,
)
from hopfforge.yd import YDModule
from hopfforge import catalog


def rat(x):
    return CycScalar.from_rational(x)


def test_validate_setup_canonical(b0_entry, c4min_entry, smash36_entry,
                                  xmas_entry, kc12n6_entry):
    for entry in (b0_entry, c4min_entry, smash36_entry, xmas_entry, kc12n6_entry):
        rep = validate_setup(entry.setup)
        assert rep.ok, rep.describe()


def test_dim72_normalized_projection_gives_quantum_line(xmas_entry, kc12n6_entry):
    # the pre-bialgebra associated to the canonical retraction p is a
    # quantum line, and the closed-form antipode S(y) = -Gamma^(-1) y holds
    from hopfforge.analyze import _is_quantum_line
    for entry in (xmas_entry, kc12n6_entry):
        an = Analysis(entry.setup)
        assert an.basis is not None
        assert _is_quantum_line(an.induced, an.basis)
        O, ore = entry.ore.O, entry.ore
        ys = ore.y_vec
        ginv = O.antipode_sv(ore.gamma_vec)
        assert O.antipode_sv(ys) == sv_scale(O.mul_sv(ginv, ys), rat(-1))


def test_validate_setup_xmas_pi(xmas_entry):
    setup = xmas_entry.extra["setup_pi"]
    rep = validate_setup(setup)
    assert rep.ok
    assert rep.entry("info_pi_algebra_map").detail == "algebra_map=False"


def test_validate_setup_rejects_non_bilinear(xmas_entry):
    # an algebra-map projection that is not H-bilinear: compose p with the
    # trivial character on the adjoined generator line only
    ore = xmas_entry.ore
    bad_pi = Mat.zero(12, 72)
    for j in range(12):
        bad_pi.rows[j][j] = cone()
        bad_pi.rows[j][12 + j] = cone()   # also picks up the Y-line: breaks everything
    setup = ProjectionSetup(ore.O, ore.base, ore.sigma, bad_pi)
    rep = validate_setup(setup)
    assert not rep.ok


def test_a_failing_unit_is_named_past_eight_failing_pairs(b0_entry):
    """sigma scaled by 2 fails every basis pair and the unit; the printed line
    names the unit after the first 8 pairs and counts the witnesses it leaves
    out, and a passing line is unchanged."""
    s = b0_entry.setup
    twice = Mat.of_cols(s.sigma.nrows, [sv_scale(col, rat(2)) for col in s.sigma.cols])
    rep = validate_setup(ProjectionSetup(s.A, s.H, twice, s.pi))
    alg = rep.entry("sigma_algebra_map")
    assert len(alg.witnesses) == 9 and alg.witnesses[8] == "unit"
    assert alg.describe() == f"FAIL sigma_algebra_map witnesses={alg.witnesses}"
    coalg = rep.entry("sigma_coalgebra_map")   # k and ("counit", k) for every basis k
    assert len(coalg.witnesses) == 2 * s.H.dim > 8
    assert coalg.describe() == (f"FAIL sigma_coalgebra_map witnesses={coalg.witnesses[:8]}"
                                f" (+{2 * s.H.dim - 8} more)")
    assert rep.entry("sigma_injective").describe() == "PASS sigma_injective"


def test_coinvariants_of_ore(b0_entry, c4min_entry, smash36_entry, kc12n6_entry):
    for entry in (b0_entry, c4min_entry, smash36_entry, kc12n6_entry):
        ore = entry.ore
        R = coinvariants(entry.setup)
        assert R.dim == ore.N
        # span{y^a}: every power of y is coinvariant
        O = ore.O
        y_pow = O.unit_sv()
        for _ in range(ore.N):
            assert not R.reduce(y_pow)
            y_pow = O.mul_sv(y_pow, ore.y_vec)


def test_tau_table_xmas(xmas_entry):
    ore = xmas_entry.ore
    A = ore.O
    s = xmas_entry.extra["setup_pi"]
    tau = tau_matrix(s.A, s.H, s.sigma, s.pi)
    q = CycScalar.zeta(6)
    Y = ore.y_vec
    X = xmas_entry.extra["X_in_A"]
    y_pows = [A.unit_sv()]
    for _ in range(6):
        y_pows.append(A.mul_sv(y_pows[-1], Y))
    # tau(Y^n) = Y^n - binom(n,3)_q Y^(n-3) X
    for n in range(6):
        got = tau.apply_sv(y_pows[n])
        expect = dict(y_pows[n])
        if n >= 3:
            corr = A.mul_sv(y_pows[n - 3], X)
            sv_add_into(expect, corr, -q_binomial(n, 3, q))
        assert got == expect, n
    # explicit worked values
    t4 = tau.apply_sv(y_pows[4])
    e4 = dict(y_pows[4])
    sv_add_into(e4, A.mul_sv(y_pows[1], X), -(q * 2 - rat(1)))
    assert t4 == e4
    t5 = tau.apply_sv(y_pows[5])
    e5 = dict(y_pows[5])
    sv_add_into(e5, A.mul_sv(y_pows[2], X), cone())
    assert t5 == e5


def test_tau_identities(xmas_pi_analysis, xmas_entry):
    # tau(a sigma(h)) = tau(a) eps(h); tau(sigma(h) a) = h . tau(a);
    # r .R s = tau(r .A s); tau(a) .R tau(b) = tau(tau(a) .A b)
    ind = xmas_pi_analysis.induced
    s = ind.setup
    A, H = s.A, s.H
    tau = ind.tau
    import random
    rng = random.Random(5)
    for _ in range(40):
        a = rng.randrange(72)
        h = rng.randrange(12)
        sh = s.sigma.apply_sv({h: cone()})
        lhs = tau.apply_sv(A.mul_sv({a: cone()}, sh))
        rhs = sv_scale(tau.apply_sv({a: cone()}), H.counit[h])
        assert lhs == rhs
        lhs2 = tau.apply_sv(A.mul_sv(sh, {a: cone()}))
        ta = tau.apply_sv({a: cone()})
        rhs2: dict = {}
        for (h1, h2), c in H.comult_basis(h).items():
            left = A.mul_sv(s.sigma.apply_sv({h1: c}), ta)
            right = s.sigma.apply_sv(H.antipode_sv({h2: cone()}))
            sv_add_into(rhs2, A.mul_sv(left, right))
        assert lhs2 == rhs2
        b = rng.randrange(72)
        tb = tau.apply_sv({b: cone()})
        # tau(a) .R tau(b) = tau(tau(a) .A b), with r .R s := tau(r .A s)
        lhs3 = tau.apply_sv(A.mul_sv(ta, tb))
        rhs3 = tau.apply_sv(A.mul_sv(ta, {b: cone()}))
        assert lhs3 == rhs3
    # the clean statements on the induced basis:
    for i in range(6):
        ri = ind.basis[i]
        for j in range(6):
            rj = ind.basis[j]
            prod_A = A.mul_sv(ri, rj)
            m_R = tau.apply_sv(prod_A)
            # m(r,s) expressed through the pre-bialgebra equals tau(r .A s)
            from hopfforge.analyze import _combine
            assert _combine(ind.pre.mul_sv({i: cone()}, {j: cone()}), ind.basis) == m_R


def test_induced_structures_ore_is_quantum_line(b0_entry, c4min_entry, smash36_entry):
    from hopfforge.construct import build_quantum_line
    from hopfforge.analyze import _is_quantum_line
    for entry in (b0_entry, c4min_entry, smash36_entry):
        an = Analysis(entry.setup)
        assert an.basis is not None
        assert _is_quantum_line(an.induced, an.basis)


def test_filtration_layers_all_catalog(b0_entry, c4min_entry, smash36_entry, kc12n6_entry):
    # layer n of the sigma(H)-filtration has dimension (n+1) dim H until it
    # exhausts at N dim H, matching dim R_n * dim H
    from hopfforge.hopf import filtration_from
    for entry in (b0_entry, c4min_entry, smash36_entry, kc12n6_entry):
        ore = entry.ore
        sigmaH = image(ore.sigma)
        layers, exhausts = filtration_from(ore.O, sigmaH)
        assert exhausts
        assert [l.dim for l in layers] == \
            [(n + 1) * ore.base.dim for n in range(ore.N)]


def test_degenerate_order_one_not_thin():
    # N = 1: the coinvariants are K, whose primitive space is zero, so the
    # carrier is not thin and the structure theory does not engage
    from hopfforge.hopf import cyclic_character, group_algebra_cyclic
    from hopfforge.construct import build_ore_hopf, validate_compatible_datum, validate_yd_datum
    H = group_algebra_cyclic(6, conductor=6)
    d = validate_yd_datum(H, {1: cone()}, cyclic_character(H, rat(1)))
    ore = build_ore_hopf(validate_compatible_datum(d, rat(0)))
    assert ore.dim == 6
    ind = induced_structures(setup_from_ore(ore), verify=False)
    assert ind.pre.dim == 1
    assert thinness_and_basis(ind) is None


def test_induced_structures_rejects_bad_basis(c4min_entry):
    from hopfforge.analyze import InducedAxiomFailure
    setup = c4min_entry.setup
    # a vector outside the coinvariants cannot serve as a basis
    with pytest.raises(InducedAxiomFailure):
        induced_structures(setup, basis=[{0: cone()}, {1: cone()}])
    # a dependent set cannot span them either
    with pytest.raises(InducedAxiomFailure):
        induced_structures(setup, basis=[{0: cone()}, {0: cone()}])


@pytest.mark.parametrize("name", ["xmas_pi", "c4min"])
def test_induced_structures_in_a_recombined_basis(name, xmas_entry, c4min_entry):
    """b_k = r_k + c_k r_{k+1} for even k over R's echelon rows r, with zeta
    among the c_k, so the coordinate map works through a non-identity
    transform.  (A full unitriangular recombination makes the induced
    tensors dense, and check_cocycle then takes ~40 s on xmas pi.)"""
    setup = xmas_entry.extra["setup_pi"] if name == "xmas_pi" else c4min_entry.setup
    rows = list(coinvariants(setup).pivot_rows.values())
    rng = random.Random(5)
    z = CycScalar.zeta(6)
    basis = [dict(r) for r in rows]
    for k in range(0, len(rows) - 1, 2):
        c = rng.choice([rat(-2), z, -z])
        sv_add_into(basis[k], rows[k + 1], c)
    ind = induced_structures(setup, basis=basis, verify=True)
    assert any(len(t) > 1 for _, _, t in ind.coords.rows)
    assert omega_roundtrip(ind)
    dp = thinness_and_basis(ind)
    ref_dp = Analysis(setup).basis
    assert dp is not None and ref_dp is not None
    assert (dp.N, dp.q) == (ref_dp.N, ref_dp.q)


def test_thinness_negative_control():
    entry = catalog.nonthin_control()
    an = Analysis(entry.setup)
    assert an.validation.ok
    assert an.induced.pre.dim == 4  # K C_4 as a coalgebra: four group-likes
    assert an.basis is None
    # wedge criterion: dim A1 != 2 dim H matches non-thinness
    assert an.A1.dim == 2  # sigma(H) itself: group algebras add nothing
    assert an.A1.dim != 2 * entry.setup.H.dim


def moved(T, key):
    """A copy of the tensor T with its entry at key moved by +1."""
    return Tensor3(T.shape, {**T.data, key: T[key] + rat(1)})


def with_pre(ind, pre=None, xi=None):
    """ind with its pre-bialgebra or its cocycle replaced."""
    return InducedPreBialgebra(ind.setup, ind.R, ind.basis, ind.coords,
                               pre or ind.pre, xi or ind.xi, ind.tau)


@pytest.mark.parametrize("table, k", [("action", k) for k in range(2, 6)]
                         + [("comult", k) for k in range(2, 6)] + [("coaction", 1)])
def test_one_moved_table_entry_ends_in_its_not_thin(table, k, smash36_entry):
    """smash36's R is thin with N = 6 and d_k a multiple of e_k.  Moving
    h . e_k, the e_1 (x) e_(k-1) term of Delta(e_k) or the 1 (x) e_1 term of
    rho(e_1) by +1 keeps R thin (the filtration and the primitives read
    Delta alone, and y = e_1 keeps its line), and each ends in its own
    NotThin."""
    ind = induced_structures(smash36_entry.setup, verify=False)
    P, V = ind.pre, ind.pre.yd
    action, coaction, comult = V.action, V.coaction, P.comult
    if table == "action":
        action = moved(action, (1, k, k))
    elif table == "comult":
        comult = moved(comult, (k, 1, k - 1))
    else:
        coaction = moved(coaction, (1, 0, 1))
    P2 = PreBialgebra(P.H, YDModule(P.H, P.dim, action, coaction), P.mult, P.unit, comult, P.counit)
    with pytest.raises(NotThin) as err:
        thinness_and_basis(with_pre(ind, pre=P2))
    assert str(err.value) == {
        "action": f"eigenvalue property fails at degree {k}",
        "comult": f"divided-power coproduct fails at degree {k}",
        "coaction": "extracted (g, chi) fail their defining properties",
    }[table]


def ref_xi(xi, u, v):
    """xi(u (x) v), summed entry by entry over the cocycle tensor."""
    out = {}
    for (i, j, h), c in xi.xi.data.items():
        if i in u and j in v:
            out[h] = out.get(h, czero()) + u[i] * v[j] * c
    return {h: c for h, c in out.items() if c}


def ref_multiple(v, z):
    """c with v = c z, or None; 0 when both vanish."""
    if not z:
        return czero() if not v else None
    k = min(z)
    c = v.get(k, czero()) / z[k]
    return c if v == sv_scale(z, c) else None


def ref_line_verdicts(ind, basis):
    """support_ok, the three line verdicts and lambda, with xi evaluated on
    d_a and y^a directly."""
    H, xi, N, q, d, y = ind.setup.H, ind.xi, basis.N, basis.q, basis.d, basis.y_powers()
    allowed = {0, N} | ({N // 2, 3 * N // 2} if N % 2 == 0 else set())
    support = all(not ref_xi(xi, d[a], d[b]) for a in range(N) for b in range(N) if a + b not in allowed)
    x = ref_xi(xi, d[1], d[N // 2 - 1]) if N % 2 == 0 else {}
    half = all(ref_xi(xi, y[a], y[N // 2 - a]) == sv_scale(x, q_factorial(N // 2 - 1, q))
               for a in range(1, N // 2)) if N % 2 == 0 else True
    full = lam = None
    if N % 2 == 1 or not H.mul_sv(x, x):
        line = [ref_xi(xi, y[a], y[N - a]) for a in range(1, N)]
        full = all(v == line[0] for v in line)
        lam = ref_multiple(line[0], H.one_minus_pow_sv(basis.g, N))
    three = None
    if N % 2 == 1:
        three = True
    elif not x:
        three = all(not ref_xi(xi, y[a], y[3 * N // 2 - a]) for a in range(1, N) if 3 * N // 2 - a < N)
    return support, half, full, three, lam


@lru_cache(maxsize=None)
def thin_induced(name):
    s = catalog.xmas().extra["setup_pi"] if name == "xmas_pi" else catalog.ALL_BUILDERS[name]().setup
    ind = induced_structures(s, verify=False)
    return ind, thinness_and_basis(ind)


@pytest.mark.parametrize("name, move", [
    (name, move) for name in ("b0", "xmas", "xmas_pi", "c4min", "smash36", "kc12n6")
    for move in (None, *range(6))] + [(name, (4, 5, 0)) for name in ("xmas", "smash36", "kc12n6")])
def test_cocycle_line_verdicts_match_reference(name, move):
    """The verdicts cocycle_analysis reads off its y-power table agree with
    xi evaluated on d_a and y^a, on each thin catalog carrier and with one
    entry of its xi moved by +1: a nonzero entry at seeds 0-2, which stays
    on the support, any entry at seeds 3-5, and xi(e_4 (x) e_5) on the
    carriers whose d_a is a multiple of e_a, which is on the 3N/2 line."""
    ind, basis = thin_induced(name)
    if isinstance(move, int):
        n, nh = ind.xi.xi.shape[1:]
        keys = sorted(ind.xi.xi.data) if move < 3 else [(i, j, h) for i in range(n) for j in range(n)
                                                       for h in range(nh)]
        move = random.Random(move).choice(keys)
    if move is not None:
        ind = with_pre(ind, xi=Cocycle(moved(ind.xi.xi, move)))
    ana = cocycle_analysis(ind, basis)
    got = (ana.support_ok, ana.half_line_constant, ana.full_line_constant,
           ana.three_half_line_zero, ana.lam)
    assert got == ref_line_verdicts(ind, basis)


def test_divided_power_cross_check_by_linear_solve(xmas_pi_analysis):
    # independent construction: solve the divided-power system degree by
    # degree and compare with d_n = y d_{n-1} / (n)_q
    ind, basis = xmas_pi_analysis.induced, xmas_pi_analysis.basis
    pre = ind.pre
    H = ind.setup.H
    N, q, chi = basis.N, basis.q, basis.chi
    n = pre.dim
    for k in range(2, N):
        # unknown v with Delta(v) = v (x) d0 + d0 (x) v + known middle,
        # plus eigenvalue pinning h.v = chi^k(h) v
        rows = []
        rhs_rows = []
        mid: dict = {}
        for t in range(1, k):
            for a, ca in basis.d[t].items():
                for b, cb in basis.d[k - t].items():
                    mid[(a, b)] = mid.get((a, b), czero()) + ca * cb
        unit_idx = [i for i, c in enumerate(pre.unit) if c]
        eqs: dict = {}
        for col in range(n):
            expr = dict(pre.comult_basis(col))
            # subtract e_col (x) u + u (x) e_col
            for i, c in enumerate(pre.unit):
                if c:
                    for key, sgn in (((col, i), c), ((i, col), c)):
                        cur = expr.get(key, czero()) - sgn
                        if cur:
                            expr[key] = cur
                        else:
                            expr.pop(key, None)
            for key, c in expr.items():
                eqs.setdefault(key, zeros(n))[col] = c
        chik = char_convpow(H, chi, k)
        aug_rows = []
        aug_rhs = []
        for key in sorted(set(eqs) | set(mid)):
            aug_rows.append(eqs.get(key, zeros(n)))
            aug_rhs.append(mid.get(key, czero()))
        for h in range(H.dim):
            for j in range(n):
                row = zeros(n)
                for i in range(n):
                    row[i] = ind.pre.yd.act_basis(h, i).get(j, czero())
                row[j] = row[j] - chik[h]
                aug_rows.append(row)
                aug_rhs.append(czero())
        from hopfforge.linalg import solve
        sol = solve(Mat(aug_rows), aug_rhs)
        assert sol is not None
        assert sol == sv_to_dense(basis.d[k], n), k


def test_formula_linearity_and_hit_actions(xmas_pi_analysis):
    # chi^(a+b)(h) xi(d_a, d_b) = sum h1 xi(d_a, d_b) S(h2), and the hit
    # actions scale xi(d_a, d_b) by q^(c(a+b)) (phi) and fix it (psi)
    ind, basis = xmas_pi_analysis.induced, xmas_pi_analysis.basis
    H = ind.setup.H
    xi, q, N, chi = ind.xi, basis.q, basis.N, basis.chi
    d = basis.d
    for a in range(N):
        for b in range(N):
            val = xi.eval(d[a], d[b])
            chiab = char_convpow(H, chi, a + b)
            for h in range(H.dim):
                lhs = sv_scale(val, chiab[h])
                rhs: dict = {}
                for (h1, h2), c in H.comult_basis(h).items():
                    mid = H.mul_sv({h1: c}, val)
                    sv_add_into(rhs, H.mul_sv(mid, H.antipode_sv({h2: cone()})))
                assert lhs == rhs, (a, b, h)
            for c_ in range(4):
                assert phi_power(H, chi, c_).apply_sv(val) == sv_scale(val, q ** (c_ * (a + b)))
                assert psi_power(H, chi, c_).apply_sv(val) == val
    # chi^c kills xi(d_1 (x) d_a)
    for a in range(N):
        val = xi.eval(d[1], d[a])
        for c_ in range(2 * N):
            chic = char_convpow(H, chi, c_)
            total = czero()
            for i, v in val.items():
                total = total + chic[i] * v
            assert total.is_zero()


def test_formulona_rho(xmas_pi_analysis):
    # rho(d_a d_b) expands through the coactions plus the xi-correction terms
    ind, basis = xmas_pi_analysis.induced, xmas_pi_analysis.basis
    pre, xi, q, N = ind.pre, ind.xi, basis.q, basis.N
    H = ind.setup.H
    d = basis.d

    def coact(sv):
        return pre.yd.coact(sv)

    for a in range(N):
        for b in range(N - a + 1):
            if a >= N or b >= N:
                continue
            lhs = coact(pre.mul_sv(d[a], d[b]))
            rhs: dict = {}
            # leading term: (d_a)_(-1)(d_b)_(-1) (x) (d_a)_0 (d_b)_0
            for (h1, i0), c1 in coact(d[a]).items():
                for (h2, j0), c2 in coact(d[b]).items():
                    prod_h = H.mul_sv({h1: c1 * c2}, {h2: cone()})
                    prod_r = pre.mul_sv({i0: cone()}, {j0: cone()})
                    for hh, ch in prod_h.items():
                        for rr, cr in prod_r.items():
                            key = (hh, rr)
                            rhs[key] = rhs.get(key, czero()) + ch * cr
            for i in range(a + 1):
                for j in range(b + 1):
                    if not (0 < i + j < a + b):
                        continue
                    xiv = xi.eval(d[a - i], d[b - j])
                    if not xiv:
                        continue
                    coef = q ** ((b - j) * i)
                    # + q^((b-j) i) xi(d_{a-i}, d_{b-j}) (d_i)_(-1)(d_j)_(-1) (x) (d_i)_0 (d_j)_0
                    for (h1, i0), c1 in coact(d[i]).items():
                        for (h2, j0), c2 in coact(d[j]).items():
                            lead = H.mul_sv(xiv, H.mul_sv({h1: c1 * c2 * coef}, {h2: cone()}))
                            prod_r = pre.mul_sv({i0: cone()}, {j0: cone()})
                            for hh, ch in lead.items():
                                for rr, cr in prod_r.items():
                                    key = (hh, rr)
                                    rhs[key] = rhs.get(key, czero()) + ch * cr
                    # - q^(j(a-i)) (d_i d_j)_(-1) xi(d_{a-i}, d_{b-j}) (x) (d_i d_j)_0
                    coef2 = q ** (j * (a - i))
                    prod_ij = pre.mul_sv(d[i], d[j])
                    for (hh, rr), cc in coact(prod_ij).items():
                        for h2, c2 in xiv.items():
                            tot = H.mul_sv({hh: cc * coef2}, {h2: c2})
                            for hf, cf in tot.items():
                                key = (hf, rr)
                                rhs[key] = rhs.get(key, czero()) - cf
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs, (a, b)


def test_colinearity_layers_and_correction(xmas_pi_analysis):
    # rho(d_a) = g^a (x) d_a for a <= N/2; the product d_1 d_{N/2} picks up
    # the (xg - q gx) (x) d_1 correction
    ind, basis, ana = xmas_pi_analysis.induced, xmas_pi_analysis.basis, xmas_pi_analysis.cocycle
    pre = ind.pre
    H = ind.setup.H
    q, N = basis.q, basis.N
    d = basis.d
    gs = basis.g
    g_pows = [H.unit_sv()]
    for _ in range(N):
        g_pows.append(H.mul_sv(g_pows[-1], gs))
    for a in range(N // 2 + 1):
        got = pre.yd.coact(d[a])
        expect = {}
        for h, ch in g_pows[a].items():
            for j, cj in d[a].items():
                expect[(h, j)] = ch * cj
        assert got == expect, a
    x_sv = ana.x
    got = pre.yd.coact(pre.mul_sv(d[1], d[N // 2]))
    expect: dict = {}
    prod = pre.mul_sv(d[1], d[N // 2])
    for h, ch in g_pows[1 + N // 2].items():
        for j, cj in prod.items():
            expect[(h, j)] = expect.get((h, j), czero()) + ch * cj
    corr2 = dict(H.mul_sv(x_sv, gs))      # xg - q gx
    sv_add_into(corr2, H.mul_sv(gs, x_sv), -q)
    for h, ch in corr2.items():
        for j, cj in d[1].items():
            key = (h, j)
            expect[key] = expect.get(key, czero()) + ch * cj
    expect = {k: v for k, v in expect.items() if v}
    assert got == expect


def _check_formulona(ind, basis):
    # xi(d_a (x) d_1 d_c) - xi(d_a d_1 (x) d_c) equals the double-sum
    # correction, on all triples (a, 1, c)
    pre, xi, q, N = ind.pre, ind.xi, basis.q, basis.N
    H = ind.setup.H
    d = basis.d
    for a in range(N):
        for c in range(N):
            lhs = dict(xi.eval(d[a], pre.mul_sv(d[1], d[c])))
            sv_add_into(lhs, xi.eval(pre.mul_sv(d[a], d[1]), d[c]), rat(-1))
            rhs: dict = {}
            for i in range(a):
                term = H.mul_sv(xi.eval(d[i], d[c]), xi.eval(d[a - i], d[1]))
                sv_add_into(rhs, term, q ** (c * (a - i) + c))
            for j in range(c):
                term = H.mul_sv(xi.eval(d[a], d[j]), xi.eval(d[1], d[c - j]))
                sv_add_into(rhs, term, -(q ** j))
            assert lhs == rhs, (a, c)


def test_formulona_identity(xmas_pi_analysis):
    _check_formulona(xmas_pi_analysis.induced, xmas_pi_analysis.basis)


def test_formulona_identity_other_induced(c4min_analysis, kc12n6_entry):
    _check_formulona(c4min_analysis.induced, c4min_analysis.basis)
    an = Analysis(kc12n6_entry.setup)
    assert an.basis is not None
    _check_formulona(an.induced, an.basis)


def test_cocycle_analysis_xmas(xmas_pi_analysis):
    basis, ana = xmas_pi_analysis.basis, xmas_pi_analysis.cocycle
    assert not ana.x_is_zero
    assert ana.x_claims.ok
    assert ana.support_ok
    assert ana.half_line_constant
    # line value: xi(y (x) y^2) = (2)_q! x
    x_idx = 6
    assert ana.half_line_value == sv_scale(ana.x, q_factorial(2, basis.q))
    assert ana.full_line_constant  # x^2 = 0 here (N/2 = 3 odd)
    assert ana.lam is not None and ana.lam.is_zero()
    assert ana.lam_datum is not None


def test_cocycle_analysis_c4min(c4min_analysis):
    ana = c4min_analysis.cocycle
    assert ana.x_is_zero          # N/2 = 1 forces x = 0
    assert ana.x_claims.ok
    assert ana.support_ok
    assert ana.lam == rat(1)
    assert ana.table_matches


def test_cocycle_analysis_kc12(kc12n6_entry):
    setup = kc12n6_entry.setup
    an = Analysis(setup)
    ind, basis, ana = an.induced, an.basis, an.cocycle
    assert basis.N == 6
    assert ana.x_is_zero
    assert ana.lam == rat(1)
    assert ana.table_matches
    # the a+b=6 line equals lambda(1 - g^6) with g^6 != 1
    H = setup.H
    yp = basis.y_powers()
    z = dict(H.unit_sv())
    sv_add_into(z, H.pow_sv(basis.g, 6), rat(-1))
    for a in range(1, 6):
        assert ind.xi.eval(yp[a], yp[6 - a]) == z


def test_equivalence_report_xmas(xmas_pi_analysis):
    er = xmas_pi_analysis.equivalences
    for key in ("a_colinear", "b_odd_or_half_zero", "c_powers_agree", "d_quantum_line"):
        assert er.equivalences[key] is False
    for key in ("1_xi_trivial", "3_radford_majid", "4_pi_algebra_map"):
        assert er.equivalences[key] is False
    # powers agree for n = 0, 1, 2 and differ from 3 on
    assert er.power_comparison[:6] == [True, True, True, False, False, False]


def test_equivalence_report_c4min(c4min_analysis):
    er = c4min_analysis.equivalences
    for key in ("a_colinear", "b_odd_or_half_zero", "c_powers_agree", "d_quantum_line"):
        assert er.equivalences[key] is True
    for key in ("1_xi_trivial", "2_datum_trivial", "3_radford_majid", "4_pi_algebra_map"):
        assert er.equivalences[key] is False
    # integral consequence: chi^N = eps and g^N in Z(H) \ {1}
    assert er.consequence_integral == {
        "chi_N_is_counit": True, "g_N_central": True, "g_N_not_one": True}


def test_equivalence_report_trivial_entries(b0_entry, smash36_entry):
    for entry in (b0_entry, smash36_entry):
        er = Analysis(entry.setup).equivalences
        assert all(er.equivalences[k] for k in er.equivalences)


@pytest.mark.parametrize("name, formed", [("smash36", 1), ("xmas_pi", 2)])
def test_plain_smash_reads_the_roundtrip_when_xi_is_trivial(name, formed, monkeypatch):
    """(3) bosonizes the trivial cocycle only when xi is not trivial; for
    smash36 it is the omega_roundtrip verdict, whose tables are the same."""
    from hopfforge import cocycle
    setup = catalog.xmas().extra["setup_pi"] if name == "xmas_pi" else catalog.smash36().setup
    real, calls = cocycle.bosonization_tensors, []
    monkeypatch.setattr(cocycle, "bosonization_tensors", lambda *a: calls.append(1) or real(*a))
    an = Analysis(setup)
    three = an.equivalences.equivalences["3_radford_majid"]
    assert an.roundtrip and len(calls) == formed and three == (name == "smash36")


def test_omega_roundtrip_all_catalog(b0_entry, xmas_entry, c4min_entry,
                                     smash36_entry, kc12n6_entry):
    setups = [b0_entry.setup, c4min_entry.setup, smash36_entry.setup,
              kc12n6_entry.setup, xmas_entry.setup, xmas_entry.extra["setup_pi"]]
    for s in setups:
        assert Analysis(s).roundtrip


def test_retraction_tools_xmas(xmas_entry):
    s_pi = xmas_entry.extra["setup_pi"]
    s_p = xmas_entry.setup
    out = retraction_tools(s_pi, s_p)
    assert out["transport_mutual_inverse"]
    assert out["transport_coalgebra_maps"]
    assert not out["retractions_equal"]
    assert not out["uniqueness_asserted"]   # B0 is not cosemisimple


def test_retraction_tools_identity(smash36_entry):
    out = retraction_tools(smash36_entry.setup, smash36_entry.setup)
    assert out["retractions_equal"] and out["transport_mutual_inverse"]
    assert out["uniqueness_asserted"]       # K C_6 is cosemisimple and R thin


def test_retraction_uniqueness_cosemisimple(smash36_entry, b0_entry):
    # a would-be second retraction pi'(y^a h) = delta_{a0} h + delta_{a,N/2} c(1-g^{N/2}) h
    # violates H-bilinearity for c != 0, so validate_setup rejects it
    for entry, half in ((smash36_entry, 3), (b0_entry, 1)):
        ore = entry.ore
        H, nh, N = ore.base, ore.base.dim, ore.N
        Xp = zeros(nh)
        Xp[0] = cone()
        gh = H.pow_sv({1: cone()}, N // 2 if N % 2 == 0 else 1)
        for k, c in gh.items():
            Xp[k] = Xp[k] - c
        bad_pi = Mat.zero(nh, ore.dim)
        for j in range(nh):
            bad_pi.rows[j][j] = cone()
            prod = H.mul_sv(sv_from_dense(Xp), {j: cone()})
            for k, c in prod.items():
                bad_pi.rows[k][half * nh + j] = bad_pi.rows[k][half * nh + j] + c
        setup_bad = ProjectionSetup(ore.O, H, ore.sigma, bad_pi)
        rep = validate_setup(setup_bad)
        assert not rep.ok
        # while a valid second retraction (p itself) is asserted equal
        out = retraction_tools(entry.setup, setup_from_ore(ore))
        assert out["retractions_equal"]


def test_wedge_layer_criterion(xmas_entry, c4min_entry):
    A1 = wedge_layer_of_sigma(xmas_entry.extra["setup_pi"])
    assert A1.dim == 24 == 2 * 12
    A1c = wedge_layer_of_sigma(c4min_entry.setup)
    assert A1c.dim == 8 == 2 * 4


def test_classify_xmas(xmas_entry):
    s_pi = xmas_entry.extra["setup_pi"]
    comp, ore, iso = classify(s_pi)
    assert comp.N == 6 and comp.lam.is_zero()
    assert ore.base is s_pi.H
    assert iso.rank() == 72
    assert (iso @ ore.sigma) == s_pi.sigma


def test_classify_c4min(c4min_entry):
    comp, ore, iso = classify(c4min_entry.setup)
    assert comp.N == 2 and comp.lam == rat(1)
    assert iso.rank() == 8


def test_classify_nonthin_rejected():
    entry = catalog.nonthin_control()
    with pytest.raises(NotThin):
        classify(entry.setup)


def test_only_a_hypothesis_violation_skips_a_generator(c4min_entry, monkeypatch):
    """classify passes over a candidate generator whose universal map
    violates a hypothesis, and lets any other error from universal_map out."""
    from hopfforge import analyze
    from hopfforge.construct import HypothesisViolation
    for error, expected in ((HypothesisViolation("ore_power"), NotThin),
                            (ZeroDivisionError("inside universal_map"), ZeroDivisionError)):
        def universal_map(*args, error=error):
            raise error
        monkeypatch.setattr(analyze, "universal_map", universal_map)
        with pytest.raises(expected):
            classify(c4min_entry.setup)


def test_lambda_not_extracted_names_the_reason(c4min_entry, monkeypatch):
    # when lambda is not extracted the report and classification name why;
    # the raw value xi(y (x) y) is still carried in the table
    from hopfforge import analyze
    from hopfforge.cli import run_analysis
    from hopfforge.reports import Report
    real = analyze.cocycle_analysis
    for changes, reason in (({"full_line_constant": None}, "x^2 != 0 at even N"),
                            ({}, "xi(y, y^(N-1)) is not a multiple of 1 - g^N")):
        # rebuilt through the constructor, whose keywords are the attribute names
        monkeypatch.setattr(analyze, "cocycle_analysis", lambda *args, c=changes: analyze.CocycleAnalysis(
            **{**vars(real(*args)), "lam": None, **c}))
        an = Analysis(c4min_entry.setup)
        assert an.cocycle.table[(1, 1)]
        rep = Report("c4min")
        run_analysis(c4min_entry.setup, rep)
        assert f"SKIPPED lambda_extraction: {reason}" in rep.lines
        with pytest.raises(analyze.AnalysisError) as err:
            an.classification
        assert str(err.value) == f"lambda not extracted: {reason}"


def test_one_analysis_forms_each_stage_once(xmas_entry, monkeypatch):
    """The report of run_analysis and the classification read off the same
    Analysis form each stage once; classify starts from a fresh Analysis."""
    from hopfforge import analyze, cli
    from hopfforge.reports import Report
    stages = ("validate_setup", "induced_structures", "omega_roundtrip", "thinness_and_basis",
              "cocycle_analysis", "equivalence_report", "wedge_layer_of_sigma")
    calls = dict.fromkeys(stages, 0)
    for name in stages:
        def counted(*args, _fn=getattr(analyze, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(analyze, name, counted)
    made = []

    class Recorded(analyze.Analysis):
        def __init__(self, setup):
            super().__init__(setup)
            made.append(self)

    monkeypatch.setattr(cli, "Analysis", Recorded)
    setup = xmas_entry.extra["setup_pi"]
    rep = Report("analyze xmas pi")
    cli.run_analysis(setup, rep)
    assert rep.exit_code == 0 and len(made) == 1
    comp, ore, iso = made[0].classification
    assert calls == dict.fromkeys(stages, 1)
    analyze.classify(setup)
    fresh = ("induced_structures", "thinness_and_basis", "cocycle_analysis", "wedge_layer_of_sigma")
    assert calls == {name: 1 + (name in fresh) for name in stages}


# -- the morphism checks against the per-pair formulation ----------------------

def ref_algebra_map(f, A, B):
    """Every (i, j) with f(e_i e_j) != f(e_i) f(e_j), f applied to unit vectors."""
    return [(i, j) for i in range(A.dim) for j in range(A.dim)
            if f.apply_sv(A.mul_basis(i, j)) != B.mul_sv(f.apply_sv({i: cone()}),
                                                         f.apply_sv({j: cone()}))]


def ref_coalgebra_map(f, C, D):
    """k for a comultiplication failure, then ("counit", k), accumulated pair by pair."""
    out = []
    for k in range(C.dim):
        lhs = {}
        for (i, j), c in C.comult_basis(k).items():
            for a, ca in f.apply_sv({i: c}).items():
                for b, cb in f.apply_sv({j: cone()}).items():
                    cur = lhs.get((a, b))
                    new = ca * cb if cur is None else cur + ca * cb
                    if new:
                        lhs[(a, b)] = new
                    elif cur is not None:
                        del lhs[(a, b)]
        if lhs != D.comult_sv(f.apply_sv({k: cone()})):
            out.append(k)
        if D.counit_sv(f.apply_sv({k: cone()})) != C.counit[k]:
            out.append(("counit", k))
    return out


def ref_retraction_diagnostics(A, pi, sigma, H):
    bilinear = all(
        pi.apply_sv(A.mul_sv(sigma.cols[h], {b: cone()}))
        == H.mul_sv({h: cone()}, pi.apply_sv({b: cone()}))
        and pi.apply_sv(A.mul_sv({b: cone()}, sigma.cols[h]))
        == H.mul_sv(pi.apply_sv({b: cone()}), {h: cone()})
        for h in range(H.dim) for b in range(A.dim))
    return {"coalgebra_map": not ref_coalgebra_map(pi, A, H),
            "algebra_map": (pi.apply_sv(A.unit_sv()) == H.unit_sv()
                            and not ref_algebra_map(pi, A, H)),
            "H_bilinear": bilinear}


def assert_morphism_checks_match_reference(s):
    A, H, sigma, pi = s.A, s.H, s.sigma, s.pi
    rep = validate_setup(s)
    alg = ref_algebra_map(sigma, H, A)[:8]
    if sigma.apply_sv(H.unit_sv()) != A.unit_sv():
        alg.append("unit")
    coalg = ref_coalgebra_map(sigma, H, A)
    assert (rep.entry("sigma_algebra_map").ok, rep.entry("sigma_algebra_map").witnesses) == (not alg, alg)
    assert (rep.entry("sigma_coalgebra_map").ok, rep.entry("sigma_coalgebra_map").witnesses) == (not coalg, coalg)
    assert retraction_diagnostics(A, pi, sigma, H) == ref_retraction_diagnostics(A, pi, sigma, H)
    assert _is_coalgebra_map(sigma, H, A) == (not coalg)
    assert _is_coalgebra_map(pi, A, H) == (not ref_coalgebra_map(pi, A, H))
    return rep


def plus_one(m, seed):
    """A copy of m with one nonzero entry moved by +1."""
    rows = [list(r) for r in m.rows]
    i, j = random.Random(seed).choice([(i, j) for i, r in enumerate(rows) for j, a in enumerate(r) if a])
    rows[i][j] = rows[i][j] + rat(1)
    return Mat(rows)


@pytest.mark.parametrize("name", ["b0", "xmas", "xmas_pi", "c4min", "smash36", "kc12n6", "nonthin"])
def test_morphism_checks_match_reference_on_catalog(name):
    if name == "xmas_pi":
        setup = catalog.xmas().extra["setup_pi"]
    else:
        setup = catalog.ALL_BUILDERS[name]().setup
    assert assert_morphism_checks_match_reference(setup).ok


# -- characters, the ad-invariant integral and H-bilinearity, one tuple at a time --

def ref_value(f, v):
    """f(v) for a dense covector f and a sparse vector v."""
    return sum((f[k] * c for k, c in v.items()), rat(0))


def ref_times(T, u, v):
    """u v in the algebra T, one product of basis vectors at a time."""
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, w in T.mul_basis(i, j).items():
                out[k] = out.get(k, rat(0)) + ci * cj * w
    return {k: c for k, c in out.items() if c}


def ref_character(B, chi):
    """chi(1) = 1 and chi(e_i e_j) = chi(e_i) chi(e_j) for every basis pair."""
    return ref_value(chi, B.unit_sv()) == rat(1) and all(
        ref_value(chi, B.mul_basis(i, j)) == chi[i] * chi[j] for i in range(B.dim) for j in range(B.dim))


def ref_ad_integral(H, gamma):
    """gamma(1) = 1, sum h_1 gamma(h_2) = gamma(h) 1 for every basis h, and
    gamma(h_1 e_x S(h_2)) = eps(h) gamma(e_x) for every basis pair (h, x)."""
    if ref_value(gamma, H.unit_sv()) != rat(1):
        return False
    for h in range(H.dim):
        left = {}
        for (i, j), c in H.comult_basis(h).items():
            left[i] = left.get(i, rat(0)) + c * gamma[j]
        if {i: c for i, c in left.items() if c} != sv_scale(H.unit_sv(), gamma[h]):
            return False
    for h in range(H.dim):
        for x in range(H.dim):
            ad = {}
            for (h1, h2), c in H.comult_basis(h).items():
                hx = ref_times(H, {h1: c}, {x: cone()})
                for m, v in ref_times(H, hx, H.antipode.cols[h2]).items():
                    ad[m] = ad.get(m, rat(0)) + v
            if ref_value(gamma, ad) != H.counit[h] * gamma[x]:
                return False
    return True


def ref_H_bilinear(A, pi, sigma, H):
    """pi(sigma(h) e_b) = h pi(e_b) and pi(e_b sigma(h)) = pi(e_b) h for every basis pair (h, b)."""
    for h, sh in enumerate(sigma.cols):
        for b in range(A.dim):
            eh, eb, pb = {h: cone()}, {b: cone()}, pi.cols[b]
            if (pi.apply_sv(ref_times(A, sh, eb)) != ref_times(H, eh, pb)
                    or pi.apply_sv(ref_times(A, eb, sh)) != ref_times(H, pb, eh)):
                return False
    return True


def covector_plus_one(v, seed):
    """A copy of the covector v with one entry, zero or not, chosen by seed, moved by +1."""
    v = list(v)
    k = random.Random(seed).randrange(len(v))
    v[k] = v[k] + rat(1)
    return v


def map_plus_one(f, seed):
    """A copy of the map f with one entry, zero or not, chosen by seed, moved by +1."""
    rng = random.Random(seed)
    i, j = rng.randrange(f.nrows), rng.randrange(f.ncols)
    cols = [dict(col) for col in f.cols]
    new = cols[j].get(i, rat(0)) + rat(1)
    if new:
        cols[j][i] = new
    else:
        del cols[j][i]
    return Mat.of_cols(f.nrows, cols)


@pytest.mark.parametrize("name", ["b0", "xmas", "xmas_pi", "c4min", "smash36", "kc12n6", "nonthin"])
def test_character_integral_and_bilinearity_match_reference(name):
    """verify_character, verify_ad_integral and is_H_bilinear give the verdict
    of a per-tuple reference on the catalog's characters (the declared ones
    and the counits), on H's integral (the counit of H where H is not
    cosemisimple, which is no integral there) and on pi, on three copies of
    each moved by +1 in one entry, and on H's integral over three copies of H
    with the antipode so moved."""
    s = catalog.xmas().extra["setup_pi"] if name == "xmas_pi" else catalog.ALL_BUILDERS[name]().setup
    A, H, sigma, pi = s.A, s.H, s.sigma, s.pi
    gamma = H.dual_integral or H.counit
    seeds = (1, 2, 3)
    chars = [(H, chi) for chi in H.characters.values()] + [(H, H.counit), (A, A.counit)]
    chars += [(B, covector_plus_one(chi, seed)) for B, chi in chars for seed in seeds]
    got = [verify_character(B, chi) for B, chi in chars]
    assert got == [ref_character(B, chi) for B, chi in chars]
    # H with its antipode moved: of the three conditions only ad-invariance reads S
    moved_S = [HopfSC(H.dim, H.mult, H.unit, H.comult, H.counit, map_plus_one(H.antipode, seed))
               for seed in seeds]
    integrals = [(H, gamma)] + [(H, covector_plus_one(gamma, seed)) for seed in seeds]
    integrals += [(K, gamma) for K in moved_S]
    got_ad = [verify_ad_integral(K, g) for K, g in integrals]
    assert got_ad == [ref_ad_integral(K, g) for K, g in integrals]
    pis = [pi] + [map_plus_one(pi, seed) for seed in seeds]
    got_pi = [is_H_bilinear(A, p, sigma, H) for p in pis]
    assert got_pi == [ref_H_bilinear(A, p, sigma, H) for p in pis]
    # the catalog data pass, and the moved copies are not all accepted
    n = len(chars) // 4
    assert all(got[:n]) and got_ad[0] == (H.dual_integral is not None) and got_pi[0]
    assert not all(got[n:]) and not any(got_ad[1:]) and not all(got_pi[1:])


@lru_cache(maxsize=None)
def omega_or_fhat(name, which):
    """(f, source, target) for omega: R #_xi H -> A of an induced setup, or for
    f-hat: O -> A of classify.  The columns of xmas pi's omega have two terms;
    smash36's omega and f-hat are monomial in the catalog bases."""
    s = catalog.xmas().extra["setup_pi"] if name == "xmas_pi" else catalog.ALL_BUILDERS[name]().setup
    if which == "fhat":
        _, ore, fhat = classify(s)
        return fhat, ore.O, s.A
    ind = induced_structures(s, verify=False)
    return ind.omega, bosonize(ind.pre, ind.xi, verify=False).B, s.A


def unit_map(images):
    """The map e_j -> e_{images[j]}, or e_j -> 0 where images[j] is None."""
    return Mat.of_cols(len(images), [{} if q is None else {q: cone()} for q in images])


def with_one_cell_doubled(B, seed):
    """A copy of the bialgebra B with one cell (chosen by seed) of each of
    its multiplication, comultiplication and counit doubled."""
    rng = random.Random(seed)
    mult, comult, counit = dict(B.mult.data), dict(B.comult.data), list(B.counit)
    for table in (mult, comult):
        key = rng.choice(sorted(key for key, c in table.items() if c))
        table[key] = table[key] * rat(2)
    k = rng.choice([k for k, c in enumerate(counit) if c])
    counit[k] = counit[k] * rat(2)
    return BialgebraSC(B.dim, Tensor3(B.mult.shape, mult), B.unit, Tensor3(B.comult.shape, comult),
                       counit)


def unit_path_input(name, which, seed):
    """(f, source, target) for the inputs that test the reading of unit and
    zero columns; except for "one12", seeds 1 and 2 move one entry of f by +1."""
    s = catalog.ALL_BUILDERS[name]().setup
    if which == "pi_map":
        # pi: A -> H has zero columns next to its unit columns; it is an
        # algebra map on smash36 but not on kc12n6 (lambda = 1)
        f, source, target = s.pi, s.A, s.H
    elif which == "collide":
        # c4min: e4 e4 = e0 - e2 and Delta(e6) = e6 (x) e2 + e3 (x) e6.  With
        # e0, e2, e3 and e6 sent to e0 and e4 to 0, the images of both
        # collide: the first cancels to f(e4) f(e4) = 0 and the pair passes,
        # the second sums to 2 e0 (x) e0 and the index fails; only the
        # contraction decides them.  e1 = g, sent to 0, fails the counit
        images = [0, None, 0, 0, None, 5, 0, 7]
        assert [images[k] for k, _ in s.A._rows[4][4]] == [0, 0]
        assert [(images[i], images[j]) for i, j in s.A.comult_basis(6)] == [(0, 0), (0, 0)]
        f, source, target = unit_map(images), s.A, s.A
    else:
        f, source, target = omega_or_fhat(name, "omega")
        if which == "one12":
            # one unit entry held at conductor 12 against tables at conductor 6
            assert {c.L for c in target.mult.data.values()} == {6}
            cols = list(f.cols)
            j = random.Random(seed).randrange(len(cols))
            (q, c), = cols[j].items()
            cols[j] = {q: c.promote(12)}
            return Mat.of_cols(f.nrows, cols), source, target
        target = with_one_cell_doubled(target, seed)
    return (f if seed == 0 else plus_one(f, seed)), source, target


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, which", [(name, which) for name in ("b0", "c4min", "smash36")
                                         for which in ("sigma", "pi")]
                         + [("xmas_pi", "omega"), ("smash36", "omega"), ("smash36", "fhat")]
                         + [("smash36", "pi_map"), ("kc12n6", "pi_map"), ("c4min", "collide"),
                            ("smash36", "one12"), ("smash36", "cell")])
def test_morphism_checks_match_reference_on_perturbed_maps(name, which, seed, monkeypatch):
    """Unit and zero columns are read as indices where a pair allows it and
    the rest is contracted: the witnesses, in order, are those of the
    per-pair formulation on every input."""
    if which in ("sigma", "pi"):
        s = catalog.ALL_BUILDERS[name]().setup
        sigma = plus_one(s.sigma, seed) if which == "sigma" else s.sigma
        pi = plus_one(s.pi, seed) if which == "pi" else s.pi
        rep = assert_morphism_checks_match_reference(ProjectionSetup(s.A, s.H, sigma, pi))
        if which == "sigma":
            assert not rep.ok
            assert not (rep.entry("sigma_algebra_map").ok and rep.entry("sigma_coalgebra_map").ok)
        return
    if which in ("omega", "fhat"):
        f, source, target = omega_or_fhat(name, which)
        assert any(len(col) > 1 for col in f.cols) == (name == "xmas_pi")
        f = plus_one(f, seed)
    else:
        f, source, target = unit_path_input(name, which, seed)
    products = []
    monkeypatch.setattr(CycScalar, "__mul__", lambda a, b, mul=CycScalar.__mul__: products.append(1) or mul(a, b))
    alg, coalg = list(algebra_map_failures(f, source, target)), list(coalgebra_map_failures(f, source, target))
    monkeypatch.undo()
    # a map of unit and zero columns whose images never collide is read, not multiplied
    assert (not products) == (which == "one12" or seed == 0 and which in ("pi_map", "cell"))
    assert alg == ref_algebra_map(f, source, target)
    assert coalg == ref_coalgebra_map(f, source, target)
    if which == "one12":
        assert not alg and not coalg
    elif seed == 0 and which not in ("omega", "fhat"):
        assert (not alg) == (which == "pi_map" and name == "smash36")
        assert (not coalg) == (which == "pi_map")
        assert any(isinstance(w, tuple) for w in coalg) == (which in ("cell", "collide"))


def test_analysis_never_promotes_a_rational(monkeypatch, smash36_entry):
    """A conductor-1 operand is read as its constant coordinate, never lifted
    through the promotion table: an exact count, not a timing."""
    from hopfforge.cli import run_analysis
    from hopfforge.reports import Report
    promote, calls = CycScalar.promote, []

    def recording(self, M):
        calls.append((self.L, M))
        return promote(self, M)

    monkeypatch.setattr(CycScalar, "promote", recording)
    rep = Report("analysis of smash36")
    run_analysis(smash36_entry.setup, rep)
    assert rep.exit_code == 0, rep.render()
    from_rationals = [c for c in calls if c[0] == 1]
    # the wrapper sees the route a rational would take
    CycScalar._common(rat(2), CycScalar.zeta(4))
    assert calls[-2:] == [(1, 4), (4, 4)]
    assert from_rationals == []


def test_integral_is_decided_once_per_base_over_an_analysis(kc12n6_entry, monkeypatch):
    """Over one run_analysis of kc12n6 (lambda = 1), the integral of each H
    is solved at most once and checked for ad-invariance at most once, though
    both the datum gate and the equivalence report read the verdict."""
    from hopfforge import hopf
    from hopfforge.cli import run_analysis
    from hopfforge.reports import Report
    calls = []
    for name in ("integral", "verify_ad_integral"):
        real = getattr(hopf, name)
        monkeypatch.setattr(hopf, name, lambda H, *a, real=real, name=name: calls.append((name, id(H)))
                            or real(H, *a))
    H = kc12n6_entry.setup.H
    for name in ("dual_integral", "integral_is_ad_invariant"):  # decided by an earlier test or build
        monkeypatch.delitem(vars(H), name, raising=False)
    rep = Report("kc12n6")
    run_analysis(kc12n6_entry.setup, rep)
    assert rep.exit_code == 0 and rep.kv["lambda"] == "1"
    assert ("verify_ad_integral", id(H)) in calls
    assert len(calls) == len(set(calls))
