import pytest

from hopfforge import catalog
from hopfforge.cyclotomic import CycScalar, q_binomial
from hopfforge.hopf import (
    check_hopf, cyclic_character, group_algebra_cyclic, integral,
    verify_character,
)
from hopfforge.linalg import Mat, cone, czero, kron_index, sv_add_into, sv_scale, zeros
from hopfforge.reports import CheckReport
from hopfforge.construct import (
    CompatibleDatum, HypothesisViolation, InfiniteOrder, NotSubHopf, YDDatum,
    build_ore_hopf, build_quantum_line, character_lemma_check, iterated_datum_check,
    lambda_cocycle, ore_cocycle_table, restrict_datum, universal_map, validate_compatible_datum,
    validate_yd_datum,
)


def rat(x):
    return CycScalar.from_rational(x)


def test_validate_yd_datum_examples(b0_entry):
    H = group_algebra_cyclic(6, conductor=6)
    chi1 = cyclic_character(H, rat(-1))
    d = validate_yd_datum(H, {3: cone()}, chi1)
    assert isinstance(d, YDDatum) and d.q == rat(-1)
    # (B0, gamma, chi2) is valid
    O = b0_entry.ore.O
    d2 = validate_yd_datum(O, {1: cone()}, O.characters["chi2"])
    assert isinstance(d2, YDDatum) and d2.q == CycScalar.zeta(6)
    # degenerate: chi(gamma) = 1 gives q = 1, N = 1, still a valid datum
    chi_triv = cyclic_character(H, rat(1))
    d3 = validate_yd_datum(H, {3: cone()}, chi_triv)
    assert isinstance(d3, YDDatum) and d3.order() == 1


def test_validate_yd_datum_rejects_non_group_like():
    H = group_algebra_cyclic(6, conductor=6)
    chi1 = cyclic_character(H, rat(-1))
    bad = validate_yd_datum(H, {i: rat(1) for i in range(6)}, chi1)
    assert isinstance(bad, CheckReport) and not bad.entry("g_group_like").ok


def test_compatible_datum_gating():
    # (KC4, g, chi(g) = -1, N = 2, lambda = 1): valid nontrivial
    H = group_algebra_cyclic(4)
    chi = cyclic_character(H, rat(-1))
    d = validate_yd_datum(H, {1: cone()}, chi)
    c = validate_compatible_datum(d, rat(1))
    assert isinstance(c, CompatibleDatum) and not c.is_trivial()
    # K C_4 is cosemisimple, so the integral criterion ran too and agreed
    assert integral(H) is not None
    # (KC6, gamma^3, chi1, lambda = 1) invalid: g^2 = 1
    H6 = group_algebra_cyclic(6, conductor=6)
    chi16 = cyclic_character(H6, rat(-1))
    d6 = validate_yd_datum(H6, {3: cone()}, chi16)
    bad = validate_compatible_datum(d6, rat(1))
    assert isinstance(bad, CheckReport)
    # lambda = 0 always valid
    ok0 = validate_compatible_datum(d6, rat(0))
    assert isinstance(ok0, CompatibleDatum)


def test_compatible_datum_cross_checks_the_gating_paths(xmas_entry, monkeypatch):
    # over a cosemisimple H a simplified criterion that disagrees with the raw
    # condition is a FAIL entry; over a non-cosemisimple H only the raw path runs
    from hopfforge import construct
    monkeypatch.setattr(construct, "_integral_gating_holds", lambda *args: (False, True, True))
    H = group_algebra_cyclic(4)
    d = validate_yd_datum(H, {1: cone()}, cyclic_character(H, rat(-1)))
    out = validate_compatible_datum(d, rat(1))
    assert isinstance(out, CheckReport)
    assert [(e.name, e.ok) for e in out.entries] == [
        ("finite_order_q", True), ("gating_paths_agree", False)]
    assert out.entries[1].detail == "raw=True simplified=False"
    d72 = xmas_entry.ore.datum.datum                  # over b0, g^N = 1
    out72 = validate_compatible_datum(d72, rat(1))
    assert [(e.name, e.ok) for e in out72.entries] == [
        ("finite_order_q", True), ("lambda_gating", False)]


def test_quantum_line_structure():
    H = group_algebra_cyclic(6, conductor=6)
    chi = cyclic_character(H, CycScalar.zeta(6))
    d = validate_yd_datum(H, {1: cone()}, chi)
    ql = build_quantum_line(d)
    assert ql.N == 6
    q = d.q
    # delta(y^3) follows the Gaussian binomial expansion
    got = ql.comult_basis(3)
    expect = {(3 - i, i): q_binomial(3, i, q) for i in range(4)}
    assert got == {k: v for k, v in expect.items() if v}
    # q = 1 degenerates to N = 1, R = K
    chi_triv = cyclic_character(H, rat(1))
    d1 = validate_yd_datum(H, {1: cone()}, chi_triv)
    assert build_quantum_line(d1).dim == 1
    # N = 2 line over KC4
    H4 = group_algebra_cyclic(4)
    chi4 = cyclic_character(H4, rat(-1))
    ql2 = build_quantum_line(validate_yd_datum(H4, {1: cone()}, chi4))
    assert ql2.N == 2
    assert ql2.mul_basis(1, 1) == {}
    assert ql2.comult_basis(1) == {(1, 0): cone(), (0, 1): cone()}


def test_quantum_line_rejects_infinite_order():
    H = group_algebra_cyclic(6, conductor=6)
    d = YDDatum(H, {1: cone()}, cyclic_character(H, CycScalar.zeta(6)), rat(2))
    with pytest.raises(InfiniteOrder):
        build_quantum_line(d)


def test_ore_relations_b0(b0_entry):
    ore = b0_entry.ore
    assert ore.dim == 2 * 6 == 12
    assert check_hopf(ore.O).ok


def test_ore_full_hopf_check_lambda_nonzero_dim72(kc12n6_entry):
    # the deformed (lambda = 1) dim-72 instance passes the exhaustive suite
    ore = kc12n6_entry.ore
    assert ore.dim == 72 and ore.lam == rat(1)
    assert check_hopf(ore.O).ok


def test_ore_relations_xmas(xmas_entry):
    ore = xmas_entry.ore
    assert ore.dim == 6 * 12 == 72
    O = ore.O
    q = CycScalar.zeta(6)
    Y = ore.y_vec
    G = ore.gamma_vec
    X = ore.sigma.cols[6]
    assert O.pow_sv(Y, 6) == {}
    assert O.mul_sv(G, Y) == sv_scale(O.mul_sv(Y, G), q)
    anti = dict(O.mul_sv(X, Y))
    sv_add_into(anti, O.mul_sv(Y, X))
    assert anti == {}


def test_ore_dim8(c4min_entry):
    ore = c4min_entry.ore
    assert ore.dim == 8
    O = ore.O
    y = ore.y_vec
    target = dict(O.unit_sv())
    sv_add_into(target, O.pow_sv(ore.gamma_vec, 2), rat(-1))
    assert O.mul_sv(y, y) == target


def test_ore_n1_degenerate():
    H = group_algebra_cyclic(6, conductor=6)
    chi_triv = cyclic_character(H, rat(1))
    d = validate_yd_datum(H, {1: cone()}, chi_triv)
    c = validate_compatible_datum(d, rat(0))
    ore = build_ore_hopf(c)
    assert ore.dim == 6
    assert ore.p == Mat.identity(6)
    assert not ore.y_vec


def test_quantum_binomial_coproduct(xmas_entry):
    # Delta(y^n) = sum binom(n,i)_q y^(n-i) Gamma^i (x) y^i, both sides independent
    ore = xmas_entry.ore
    O = ore.O
    q = CycScalar.zeta(6)
    Y = ore.y_vec
    G = ore.gamma_vec
    y_pows = [O.unit_sv()]
    g_pows = [O.unit_sv()]
    for _ in range(6):
        y_pows.append(O.mul_sv(y_pows[-1], Y))
        g_pows.append(O.mul_sv(g_pows[-1], G))
    for n in range(6):
        got = O.comult_sv(y_pows[n])
        expect: dict = {}
        for i in range(n + 1):
            co = q_binomial(n, i, q)
            left = O.mul_sv(y_pows[n - i], g_pows[i])
            for a, ca in left.items():
                for b, cb in y_pows[i].items():
                    key = (a, b)
                    expect[key] = expect.get(key, czero()) + co * ca * cb
        assert got == {k: v for k, v in expect.items() if v}, n


def test_ore_cocycle_table(c4min_entry, kc12n6_entry, smash36_entry):
    # table: 1 at (0,0); lambda(1 - g^N) on a+b=N with a,b != 0; 0 otherwise
    for entry in (c4min_entry, kc12n6_entry, smash36_entry):
        ore = entry.ore
        H, N, lam = ore.base, ore.N, ore.lam
        table = ore_cocycle_table(ore)
        gN = H.pow_sv({1: cone()}, N)
        z = dict(H.unit_sv())
        sv_add_into(z, gN, rat(-1))
        z = sv_scale(z, lam)
        for (a, b), got in table.items():
            if a == b == 0:
                assert got == H.unit_sv()
            elif a + b == N and a and b:
                assert got == z
            else:
                assert got == {}
        xi = lambda_cocycle(H, ore.datum.datum.g, N, lam)
        assert table == {(a, b): xi.eval_basis(a, b) for a in range(N) for b in range(N)}


def test_lambda0_table_trivial(b0_entry, smash36_entry):
    for entry in (b0_entry, smash36_entry):
        table = ore_cocycle_table(entry.ore)
        H = entry.ore.base
        for (a, b), got in table.items():
            assert got == (H.unit_sv() if a == b == 0 else {})


def test_retraction_gate_decides_no_algebra_map(b0_entry, smash36_entry, monkeypatch):
    """At lambda = 0 p is an algebra map, but the build's retraction gate
    decides only p sigma = id, the coalgebra map and H-bilinearity: with
    every algebra-map scan made to raise, it still passes, and a p that is
    not H-bilinear is still refused."""
    from hopfforge import cocycle, construct
    for entry in (b0_entry, smash36_entry):
        ore = entry.ore
        assert ore.lam.is_zero()
        assert cocycle.retraction_diagnostics(ore.O, ore.p, ore.sigma, ore.base)["algebra_map"]

    def scan(*args):
        raise AssertionError("algebra-map scan")

    monkeypatch.setattr(cocycle, "algebra_map_failures", scan)
    monkeypatch.setattr(construct, "algebra_map_failures", scan)
    for entry in (b0_entry, smash36_entry):
        assert construct._retraction_ok(entry.ore)
    monkeypatch.setattr(construct, "is_H_bilinear", lambda *args: False)
    assert not construct._retraction_ok(b0_entry.ore)


def _cyclic_ore_data(max_dim=36):
    """Every compatible (K C_m, g^k, chi(g) = zeta_m^t, lambda in {0, 1}) with N m <= max_dim."""
    for m in (2, 3, 4, 6):
        H = group_algebra_cyclic(m, conductor=m)
        for k in range(m):
            for t in range(m):
                d = validate_yd_datum(H, {k: cone()},
                                      cyclic_character(H, CycScalar.zeta_power(m, t)))
                if d.order() * m > max_dim:
                    continue
                for lam in (0, 1):
                    c = validate_compatible_datum(d, rat(lam))
                    if isinstance(c, CompatibleDatum):
                        yield f"C{m}-g{k}-chi{t}-N{c.N}-lambda{lam}", c


CYCLIC_ORE_DATA = dict(_cyclic_ore_data())


def test_universal_map_identity(b0_entry):
    ore = b0_entry.ore
    fhat = universal_map(ore, ore.O, ore.sigma, ore.y_vec)
    assert fhat == Mat.identity(12)


@pytest.mark.parametrize("name", ["c4min", "smash36", "xmas", "kc12n6", *CYCLIC_ORE_DATA])
def test_universal_map_identity_over_data(name):
    # sigma(h) y = y sigma(phi(h)), y^N = lambda(1 - Gamma^N), Delta(y) = y (x) 1 + Gamma (x) y,
    # and e_kron(a, j) = y^a sigma(h_j): with the Hopf check these fix O uniquely
    if name in CYCLIC_ORE_DATA:
        ore = build_ore_hopf(CYCLIC_ORE_DATA[name], verify=False)
    else:
        ore = getattr(catalog, name)().ore
    assert universal_map(ore, ore.O, ore.sigma, ore.y_vec) == Mat.identity(ore.dim)


def test_universal_map_violations(b0_entry, c4min_entry):
    ore = c4min_entry.ore
    O = ore.O
    # wrong coproduct hypothesis: b = 1 is group-like, not skew-primitive
    with pytest.raises(HypothesisViolation) as info:
        universal_map(ore, O, ore.sigma, O.unit_sv())
    assert info.value.condition in ("ore_coproduct", "ore_commutation", "ore_power")
    # wrong power: b = y + (1 - Gamma) fails commutation over KC4
    cand = dict(ore.y_vec)
    sv_add_into(cand, {0: cone()})
    sv_add_into(cand, ore.gamma_vec, rat(-1))
    with pytest.raises(HypothesisViolation):
        universal_map(ore, O, ore.sigma, cand)


def test_iterated_datum_xmas(b0_entry):
    ore = b0_entry.ore
    O = ore.O
    chi2 = O.characters["chi2"]
    rep = iterated_datum_check(ore, {1: cone()}, chi2, rat(0))
    assert rep.ok
    assert rep.entry("side_direct").detail == "True"
    # chi2(Gamma1) chi1(Gamma2) = q^3 (-1) = 1 is what makes it work
    q = CycScalar.zeta(6)
    assert (q ** 3) * rat(-1) == cone()


def test_iterated_datum_bad_character(b0_entry):
    ore = b0_entry.ore
    chi_bad = list(ore.O.characters["chi2"])
    chi_bad[6] = cone()  # nonzero on the adjoined generator: not a character
    rep = iterated_datum_check(ore, {1: cone()}, chi_bad, rat(0))
    assert not rep.ok and not rep.entry("chi2_character").ok


def test_iterated_datum_randomized(b0_entry):
    import random
    rng = random.Random(42)
    ore = b0_entry.ore
    O = ore.O
    q = CycScalar.zeta(6)
    lams = [rat(0), rat(1), rat(2), rat(-1), q]
    for _ in range(20):
        k = rng.randrange(6)
        m = rng.randrange(6)
        lam = lams[rng.randrange(len(lams))]
        gamma2 = {k: cone()}
        chi2 = zeros(12)
        for i in range(6):
            chi2[i] = (q ** m) ** i
        rep = iterated_datum_check(ore, gamma2, chi2, lam)
        assert rep.entry("sides_agree").ok, rep.describe()


def test_character_lemma(b0_entry, c4min_entry, kc12n6_entry, smash36_entry):
    # every verified character of the extension kills y;
    # eta(Gamma)^N = 1 whenever lambda != 0
    q = CycScalar.zeta(6)
    for entry, order, values in (
        (b0_entry, 6, [q ** k for k in range(6)]),
        (c4min_entry, 4, [rat(-1) ** k for k in range(4)]),
        (smash36_entry, 6, [q ** k for k in range(6)]),
    ):
        ore = entry.ore
        nh = ore.base.dim
        for m in range(order):
            eta = zeros(ore.dim)
            for k in range(nh):
                eta[kron_index(0, k, nh)] = values[k] ** m
            if verify_character(ore.O, eta):
                rep = character_lemma_check(ore, eta)
                assert rep.ok


def test_restrict_datum(xmas_entry, b0_entry):
    # restrict the dim-72 datum from B0 down to K C_6 = the group-like span
    ore = xmas_entry.ore
    datum = ore.datum
    sub_basis = [{k: cone()} for k in range(6)]
    out = restrict_datum(datum, sub_basis)
    assert isinstance(out, CompatibleDatum)
    assert out.H.dim == 6 and out.N == 6
    # restriction to the full algebra is the identity operation
    full = restrict_datum(datum, [{k: cone()} for k in range(12)])
    assert full.H.dim == 12
    # restriction to span{1} loses g: rejected
    with pytest.raises(NotSubHopf):
        restrict_datum(datum, [{0: cone()}])
    # span of the group-likes plus x is not closed under comultiplication
    with pytest.raises(NotSubHopf):
        restrict_datum(datum, [{k: cone()} for k in range(7)])


def test_lemma_center_consequences(b0_entry):
    # every validated datum: g commutes with declared group-likes and chi
    # convolution-commutes with declared characters (checked in validation)
    O = b0_entry.ore.O
    d = validate_yd_datum(O, {1: cone()}, O.characters["chi2"])
    assert isinstance(d, YDDatum)
