import ast
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfforge import cyclotomic
from hopfforge.cyclotomic import (
    ConductorOverflow, CycScalar, DivisionByZero, ZeroInput,
    cyclotomic_poly, divisors, euler_phi, multiplicative_order, primitive_root,
    q_binomial, q_factorial, q_int, gaussian_polynomial,
)
from hopfforge.linalg import echelon


def rat(x):
    return CycScalar.from_rational(x)


def reduce_conductor(a: CycScalar) -> CycScalar:
    """a at the least conductor d | a.L whose field holds it: the first d at
    which the promotion rows of d solve for a's coordinates."""
    for d in divisors(a.L):
        rows, phi_d = cyclotomic._promotion_rows(d, a.L), euler_phi(d)
        # sum_i x_i rows[i] = a over Q, one equation per coordinate at a.L;
        # the right-hand side is column phi_d
        piv = echelon([{**{i: rat(rows[i][j]) for i in range(phi_d) if rows[i][j]},
                        **({phi_d: rat(Fraction(c, a.den))} if c else {})}
                       for j, c in enumerate(a.nums)])
        if phi_d not in piv:
            sol = [piv[i][phi_d].as_rational() if i in piv and phi_d in piv[i] else Fraction(0)
                   for i in range(phi_d)]
            den = lcm(*(f.denominator for f in sol))
            return CycScalar(d, [int(f * den) for f in sol], den)


# -- independent oracles -------------------------------------------------------

def oracle_reduce_mod_phi6(power: int) -> CycScalar:
    """Brute force: multiply out zeta_6^power and reduce mod x^2 - x + 1."""
    a, b = 1, 0  # coefficients (const, x)
    for _ in range(power):
        # multiply by x: (a + b x) x = a x + b x^2 = a x + b (x - 1)
        a, b = -b, a + b
    return CycScalar(6, [a, b])


def oracle_q_binomial(n: int, k: int, q: CycScalar) -> CycScalar:
    """Coefficient extraction from prod_{i=0}^{n-1} (1 + q^i t).

    The product expands as sum_k q^(k(k-1)/2) binom(n,k)_q t^k, so the
    Gaussian binomial is the t^k coefficient divided by q^(k(k-1)/2).
    """
    poly = [CycScalar.one(q.L)]  # coefficients in t
    power = CycScalar.one(q.L)
    for i in range(n):
        nxt = [CycScalar.zero(q.L)] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d] = nxt[d] + c
            nxt[d + 1] = nxt[d + 1] + c * power
        poly = nxt
        power = power * q
    if k >= len(poly):
        return CycScalar.zero(q.L)
    return poly[k] / q ** (k * (k - 1) // 2)


# -- basic arithmetic ------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert euler_phi(720) == len(cyclotomic_poly(720)) - 1


def test_inverse_of_zeta6_matches_brute_force():
    z = CycScalar.zeta(6)
    assert z.inverse() == oracle_reduce_mod_phi6(5)
    assert z.inverse() == z ** 5
    assert z * z.inverse() == CycScalar.one(6)


def test_add_identity():
    assert rat(1) + rat(0) == rat(1)


def test_zeta6_square_reduces():
    z = CycScalar.zeta(6)
    assert z * z == z - rat(1)
    assert z * z == oracle_reduce_mod_phi6(2)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        rat(1) / rat(0)
    with pytest.raises(DivisionByZero):
        CycScalar.zero(6).inverse()
    with pytest.raises(DivisionByZero):
        CycScalar(6, [1, 2], 0)


def test_constructor_checks_outside_input():
    # a wrong coefficient count is refused; a negative denominator is folded
    # into the sign, and the result is in lowest terms
    for L, nums in ((6, [1]), (6, [1, 2, 3]), (12, [0, 0, 0]), (1, [])):
        with pytest.raises(ValueError):
            CycScalar(L, nums)
    assert triple(CycScalar(6, [2, -4], -6)) == (6, 3, (-1, 2))
    assert triple(CycScalar(12, (0, 0, 0, 0), -5)) == (12, 1, (0, 0, 0, 0))
    assert triple(CycScalar(1, iter([-3]), -9)) == (1, 3, (1,))


def test_conductor_promotion_and_cap():
    z3, z4 = CycScalar.zeta(3), CycScalar.zeta(4)
    prod = z3 * z4
    assert prod.L == 12
    assert prod == CycScalar.zeta_power(12, 7)
    from hopfforge.cyclotomic import set_conductor_cap, conductor_cap
    old = conductor_cap()
    try:
        set_conductor_cap(10)
        for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a == b):
            with pytest.raises(ConductorOverflow):
                op(CycScalar.zeta(3), CycScalar.zeta(4))
            with pytest.raises(ConductorOverflow):
                op(CycScalar.zeta(4), CycScalar(3, [1, 2], 5))
    finally:
        set_conductor_cap(old)


def test_cross_conductor_equality_and_hash():
    z6 = CycScalar.zeta(6)
    z3 = CycScalar.zeta(3)
    assert z6 ** 2 == z3
    assert hash(z6 ** 2) == hash(z3)
    assert reduce_conductor(z6 ** 2).L == 3


def test_primitive_root_examples():
    assert primitive_root(1) == rat(1)
    assert primitive_root(2) == rat(-1)
    z = primitive_root(6)
    assert z * z == z - rat(1)
    for n in (1, 2, 3, 4, 6, 12):
        assert multiplicative_order(primitive_root(n)) == n


def test_multiplicative_order_examples():
    assert multiplicative_order(rat(-1)) == 2
    assert multiplicative_order(CycScalar.zeta(6)) == 6
    assert multiplicative_order(rat(2)) is None
    assert multiplicative_order(rat(1) / rat(2)) is None
    with pytest.raises(ZeroInput):
        multiplicative_order(rat(0))


# -- q-combinatorics ------------------------------------------------------------

Q_SET = [rat(1), rat(-1)] + [CycScalar.zeta(n) for n in (3, 4, 6, 12)]


def test_q_binomial_against_oracle():
    for q in Q_SET:
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == oracle_q_binomial(n, k, q), (n, k, str(q))


def test_q_binomial_worked_values_at_zeta6():
    q = CycScalar.zeta(6)
    for n in range(3):
        assert q_binomial(n, 3, q).is_zero()
    assert q_binomial(4, 3, q) == q * 2 - rat(1)
    assert q_binomial(5, 3, q) == rat(-1)
    for n in range(13):
        assert q_binomial(n, 0, q).is_one()


def test_row_vanishing_at_order_n():
    for q, N in [(rat(-1), 2), (CycScalar.zeta(3), 3), (CycScalar.zeta(6), 6),
                 (CycScalar.zeta(12), 12)]:
        for k in range(1, N):
            assert q_binomial(N, k, q).is_zero(), (N, k)


def test_pascal_identity_and_symmetry():
    for q in Q_SET:
        for n in range(1, 13):
            for k in range(n + 1):
                lhs = q_binomial(n, k, q)
                if k >= 1:
                    rhs = q_binomial(n - 1, k - 1, q) + (q ** k) * q_binomial(n - 1, k, q)
                    assert lhs == rhs, (n, k, str(q))
                assert lhs == q_binomial(n, n - k, q)


def test_factorial_recursion():
    for q in Q_SET:
        for n in range(1, 13):
            assert q_int(n, q) * q_factorial(n - 1, q) == q_factorial(n, q)


def test_gaussian_polynomial_is_integral():
    # the symbolic quotient has integer coefficients and degree k(n-k)
    p = gaussian_polynomial(6, 3)
    assert all(isinstance(c, int) for c in p)
    assert len(p) - 1 == 9
    assert q_binomial(6, 3, rat(1)) == rat(20)


# -- field axioms ------------------------------------------------------------------

def _random_scalar(rng, L):
    phi = euler_phi(L)
    return CycScalar(L, [rng.randrange(-9, 10) for _ in range(phi)],
                     rng.randrange(1, 7))


def test_field_axioms_randomized():
    rng = random.Random(20260809)
    conductors = sorted(set([2] + ORACLE_CONDUCTORS))
    for trial in range(1000):
        L = conductors[trial % len(conductors)]
        a, b, c = (_random_scalar(rng, L) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inverse() == CycScalar.one(L)


@st.composite
def small_cyclotomic(draw):
    L = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    phi = euler_phi(L)
    nums = draw(st.lists(st.integers(-20, 20), min_size=phi, max_size=phi))
    den = draw(st.integers(1, 12))
    return CycScalar(L, nums, den)


@settings(max_examples=200, deadline=None)
@given(small_cyclotomic(), small_cyclotomic(), small_cyclotomic())
def test_ring_laws_hypothesis(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycScalar.zero(a.L)


@settings(max_examples=100, deadline=None)
@given(small_cyclotomic())
def test_inverse_law_hypothesis(a):
    if not a.is_zero():
        assert (a / a).is_one()
        assert a.inverse().inverse() == a


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.sampled_from([1, 2, 3, 4, 6, 12]))
def test_pascal_hypothesis(n, k, L):
    q = CycScalar.zeta(L)
    if k > n:
        assert q_binomial(n, k, q).is_zero()
    elif k == 0:
        assert q_binomial(n, k, q).is_one()
    else:
        assert q_binomial(n, k, q) == \
            q_binomial(n - 1, k - 1, q) + (q ** k) * q_binomial(n - 1, k, q)


# -- a rational operand against promotion to the other's conductor --------------

@st.composite
def rational_and_other(draw):
    """(r, v): r at conductor 1 (den 1 or not, and often exactly 1), v at a
    conductor > 1 and often a constant, equal to r or not, so that == meets
    both answers."""
    if draw(st.integers(0, 3)) == 0:
        r = CycScalar.one()
    else:
        r = CycScalar(1, [draw(st.integers(-6, 6))], draw(st.sampled_from([1, 1, 2, 3, 4, 6])))
    L = draw(st.sampled_from([2, 3, 4, 6, 12]))
    phi = euler_phi(L)
    if draw(st.booleans()):
        v = CycScalar.from_rational(r.as_rational() + draw(st.sampled_from([0, 0, 1, Fraction(1, 2)])), L)
    else:
        nums = draw(st.lists(st.integers(-4, 4), min_size=phi, max_size=phi))
        v = CycScalar(L, nums, draw(st.sampled_from([1, 1, 2, 3, 4, 12])))
    return r, v


def triple(s):
    return (s.L, s.den, s.nums)


@settings(max_examples=300, deadline=None)
@given(rational_and_other())
def test_rational_operand_matches_promotion(case):
    r, v = case
    # the promotion route: r lifted to v's conductor, then the same-conductor op
    rp, vp = CycScalar._common(r, v)
    assert vp is v
    assert triple(rp) == triple(CycScalar.from_rational(r.as_rational(), v.L))
    for a, b, ap, bp in ((r, v, rp, v), (v, r, v, rp)):
        assert triple(a * b) == triple(ap * bp)
        assert triple(a + b) == triple(ap + bp)
        assert (a == b) is (ap == bp)
        assert (a - b) == (ap - bp)


def test_rational_operand_respects_the_conductor_cap():
    from hopfforge.cyclotomic import set_conductor_cap, conductor_cap
    old = conductor_cap()
    try:
        z = CycScalar.zeta(12)
        set_conductor_cap(10)
        for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a == b):
            for r in (rat(2), rat(1)):
                with pytest.raises(ConductorOverflow):
                    op(r, z)
                with pytest.raises(ConductorOverflow):
                    op(z, r)
        # a unit operand is read after the cap check, not before it
        with pytest.raises(ConductorOverflow):
            1 * z
    finally:
        set_conductor_cap(old)


def test_a_unit_operand_returns_the_other_operand():
    # every value is canonical, so the other operand is the product itself
    for L in ORACLE_CONDUCTORS:
        for v in (CycScalar.zeta(L) * rat(Fraction(3, 2)) + rat(1), -CycScalar.one(L)):
            assert v * CycScalar.one(v.L) is v
            assert CycScalar.one(v.L) * v is v
            assert CycScalar.one() * v is v
            assert v * CycScalar.one() is v
            assert 1 * v is v and v * 1 is v
    # a mixed conductor still promotes first, so the product is a new value
    p = CycScalar.one(4) * CycScalar.zeta(6)
    assert triple(p) == triple(CycScalar.zeta(6).promote(12)) == (12, 1, (0, 0, 1, 0))


def test_a_rational_one_returns_the_other_operand_within_the_cap():
    """An exact rational 1 against any conductor returns the other operand;
    other rationals still give the promoted kernel's (L, den, nums), and a
    conductor past the cap still raises."""
    from hopfforge.cyclotomic import conductor_cap, set_conductor_cap
    for L in ORACLE_CONDUCTORS:
        v = CycScalar.zeta(L) * rat(Fraction(5, 2)) - rat(Fraction(1, 3))
        assert rat(1) * v is v and v * rat(1) is v
        for c in (2, -1, Fraction(1, 3)):
            promoted = cyclotomic._KERNELS[L](CycScalar.from_rational(c, L), v)
            assert triple(rat(c) * v) == triple(v * rat(c)) == triple(promoted)
    old = conductor_cap()
    try:
        for L in ORACLE_CONDUCTORS[1:]:
            set_conductor_cap(L - 1)
            with pytest.raises(ConductorOverflow):
                rat(1) * CycScalar.zeta(L)
            with pytest.raises(ConductorOverflow):
                CycScalar.zeta(L) * rat(1)
    finally:
        set_conductor_cap(old)


def test_scalars_are_written_only_where_they_are_built():
    """No module of the package assigns or deletes .L, .den or .nums, or sets
    them with setattr, outside _canonical and CycScalar.__init__; the product
    and sum kernels write them only in the source their generators build.  A
    product may return one of its operands, so a value once built is shared
    and must never change."""
    fields = {"L", "den", "nums"}
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    writes = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (owner + "." if owner else "") + child.name, path)
                continue
            if isinstance(child, ast.Attribute) and child.attr in fields:
                written = isinstance(child.ctx, (ast.Store, ast.Del))
            elif isinstance(child, ast.Call):
                written = (getattr(child.func, "id", None) in ("setattr", "delattr")
                           or getattr(child.func, "attr", None) in ("__setattr__", "__delattr__")) \
                    and any(isinstance(a, ast.Constant) and a.value in fields for a in child.args)
            else:
                written = False
            if written:
                writes.append((path.name, owner, child.lineno))
            visit(child, owner, path)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    assert {(name, owner) for name, owner, _ in writes} == {
        ("cyclotomic.py", "_canonical"), ("cyclotomic.py", "CycScalar.__init__")}, writes


# -- sympy oracle for the multiply ----------------------------------------------

# Each conductor has its own generated product kernel: a prime, prime powers,
# products of primes, and phi(L) up to 8.
ORACLE_CONDUCTORS = [1, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def oracle_operand(draw, integral, conductors=ORACLE_CONDUCTORS):
    """A CycScalar at one of the conductors, often with zero coefficients, and
    now and then exactly 1 or -1 there."""
    L = draw(st.sampled_from(conductors))
    phi = euler_phi(L)
    unit = draw(st.sampled_from([0] * 6 + [1, -1]))
    if unit:
        return CycScalar(L, [unit] + [0] * (phi - 1))
    nums = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    den = 1 if integral else draw(st.integers(2, 12))
    return CycScalar(L, nums, den)


@st.composite
def oracle_pair(draw, integral):
    """(a, b) whose lcm conductor is again one of ORACLE_CONDUCTORS; a mixed
    pair is promoted there (4 and 6 to 12, 5 and 3 to 15, 3 and 8 to 24)."""
    a = draw(oracle_operand(integral))
    return a, draw(oracle_operand(integral, [L for L in ORACLE_CONDUCTORS
                                             if a.L * L // gcd(a.L, L) in ORACLE_CONDUCTORS]))


def sympy_coords(sympy, a, b, op):
    """Power-basis coordinates of op(a, b) in Q(zeta_M), M = lcm(a.L, b.L), from
    sympy's polynomial remainder modulo its own cyclotomic polynomial."""
    x = sympy.Symbol("x")
    M = a.L * b.L // gcd(a.L, b.L)

    def poly(s):
        # zeta_L = zeta_M^(M/L)
        step = M // s.L
        return sum(sympy.Rational(c, s.den) * x ** (step * i) for i, c in enumerate(s.nums))

    rem = sympy.Poly(sympy.rem(sympy.expand(op(poly(a), poly(b))), sympy.cyclotomic_poly(M, x), x),
                     x, domain="QQ")
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return M, coeffs + [Fraction(0)] * (euler_phi(M) - len(coeffs))


def on_coordinates(a, b, op):
    """(coordinates, K): op(a, b), op "mul" or "add", unreduced, from the
    coordinate kernels K at M = lcm(a.L, b.L)."""
    M = a.L * b.L // gcd(a.L, b.L)
    K = cyclotomic.COORDINATE_KERNELS[M]
    x, y = a.promote(M), b.promote(M)
    return getattr(K, op)(x.nums + (x.den,), y.nums + (y.den,)), K


def normalized(expect):
    """The coordinates (n0, ..., den) in lowest terms of sympy's coefficients, None for 0."""
    den = 1
    for f in expect:
        den = den * f.denominator // gcd(den, f.denominator)
    return tuple(int(f * den) for f in expect) + (den,) if any(expect) else None


def same_as_sympy(K, raw, expect):
    """Whether K's same and equal, both ways round, read the coordinates raw
    as sympy's coefficients: against their lowest terms, and as the entry of
    a one-key vector against that entry, or against no entry for 0."""
    norm = normalized(expect)
    value = norm or (0,) * len(expect) + (1,)
    vector = {0: norm} if norm else {}
    return (K.same(raw, value) and K.same(value, raw)
            and K.equal({0: raw}, vector) and K.equal(vector, {0: raw}))


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda integral: st.tuples(st.just(integral), oracle_pair(integral))))
def test_mul_add_match_sympy_remainder(sympy, case):
    # integral operands give integral results, the others reduce by a gcd;
    # the coordinate kernels give the same values before any gcd
    integral, (a, b) = case
    for result, op, name in ((a * b, lambda p, q: p * q, "mul"), (a + b, lambda p, q: p + q, "add")):
        M, expect = sympy_coords(sympy, a, b, op)
        assert result.L == M
        assert result.coeffs() == expect
        raw, K = on_coordinates(a, b, name)
        assert [Fraction(c, raw[-1]) for c in raw[:-1]] == expect and raw[-1] > 0
        assert same_as_sympy(K, raw, expect)
        assert result.den > 0 and gcd(result.den, *result.nums) == 1
        assert (result.den == 1) or not integral
        assert bool(result) == any(expect) == (not result.is_zero())
    assert bool(a) == any(a.nums) and a.is_zero() == (not any(a.nums))


@st.composite
def sum_branch_pair(draw):
    """(a, b) aimed at the branches of the sum kernel, which independent
    denominators rarely reach: b with a's denominator at a's conductor, b = -a,
    or a conductor-1 operand against one at any of ORACLE_CONDUCTORS."""
    kind = draw(st.sampled_from(["same_den", "negation", "rational"]))
    a = draw(oracle_operand(False))
    if kind == "negation":
        return a, -a
    if kind == "rational":
        r = draw(oracle_operand(draw(st.booleans()), [1]))
        return (r, a) if draw(st.booleans()) else (a, r)
    phi = euler_phi(a.L)
    b = CycScalar(a.L, draw(st.lists(st.integers(-6, 6), min_size=phi, max_size=phi)), a.den)
    assume(b.den == a.den)
    return a, b


@settings(max_examples=150, deadline=None)
@given(sum_branch_pair())
def test_sum_kernel_branches_match_sympy_remainder(sympy, case):
    a, b = case
    M, expect = sympy_coords(sympy, a, b, lambda p, q: p + q)
    den = 1
    for f in expect:
        den = den * f.denominator // gcd(den, f.denominator)
    s = a + b
    assert triple(s) == (M, den, tuple(int(f * den) for f in expect))
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    if a == -b:
        assert triple(s) == (M, 1, (0,) * euler_phi(M)) and not s
    # on coordinates: over the common denominator when there is one, else over
    # the product of the two; the same value as the sum above, and as no
    # entry for 0
    raw, K = on_coordinates(a, b, "add")
    assert [Fraction(c, raw[-1]) for c in raw[:-1]] == expect
    assert raw[-1] == (a.den if a.den == b.den else a.den * b.den)
    assert same_as_sympy(K, raw, expect)
    assert normalized(expect) == (None if a == -b else s.nums + (s.den,))


def test_coordinate_kernels_match_sympy_at_every_conductor(sympy):
    """At each of ORACLE_CONDUCTORS: a product, sums over equal and over
    unequal denominators, and a sum that cancels to 0."""
    for L in ORACLE_CONDUCTORS:
        phi = euler_phi(L)
        a = CycScalar(L, [k - 2 for k in range(phi)] if phi > 1 else [3], 4)
        b = CycScalar(L, [(-1) ** k * (k + 1) for k in range(phi)], 4)
        c = CycScalar(L, [1] + [0] * (phi - 1), 6) + CycScalar.zeta(L)
        assert a.den == b.den != c.den
        for x, y, name, op in ((a, c, "mul", lambda p, q: p * q), (a, b, "add", lambda p, q: p + q),
                               (a, c, "add", lambda p, q: p + q), (c, -c, "add", lambda p, q: p + q)):
            raw, K = on_coordinates(x, y, name)
            M, expect = sympy_coords(sympy, x, y, op)
            assert M == L and [Fraction(k, raw[-1]) for k in raw[:-1]] == expect
            assert same_as_sympy(K, raw, expect)
        raw, K = on_coordinates(c, -c, "add")
        assert not any(raw[:-1]) and K.equal({0: raw}, {}) and K.equal({}, {0: raw})


@st.composite
def unreduced(draw, s):
    """s's coordinates with its nums and den times a positive factor: a den of
    1, a common factor, or both."""
    f = draw(st.sampled_from([1, 1, 2, 3, 10]))
    return tuple(c * f for c in s.nums) + (s.den * f,)


@st.composite
def scalar_pair(draw, L):
    """(a, b) at conductor L: equal, both 0, apart in one coordinate, or drawn apart."""
    phi = euler_phi(L)
    a = draw(oracle_operand(draw(st.booleans()), [L]))
    kind = draw(st.sampled_from(["equal", "zero", "one_coordinate", "apart"]))
    if kind == "equal":
        return a, a
    if kind == "zero":
        return CycScalar.zero(L), CycScalar.zero(L)
    if kind == "one_coordinate":
        k = draw(st.integers(0, phi - 1))
        return a, a + CycScalar(L, [int(i == k) for i in range(phi)], draw(st.sampled_from([1, 7, a.den])))
    return a, draw(oracle_operand(draw(st.booleans()), [L]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_same_and_equal_agree_with_scalar_equality(sympy, data):
    """same on unreduced coordinates decides what CycScalar equality and
    sympy's remainder of a - b decide; equal on vectors decides it entry by
    entry, a missing key read as 0, against zero entries over dens > 1."""
    L = data.draw(st.sampled_from(ORACLE_CONDUCTORS))
    K = cyclotomic.COORDINATE_KERNELS[L]
    a, b = data.draw(scalar_pair(L))
    u, v = data.draw(unreduced(a)), data.draw(unreduced(b))
    _, diff = sympy_coords(sympy, a, b, lambda p, q: p - q)
    assert K.same(u, v) == K.same(v, u) == (a == b) == (not any(diff))
    p, q, agree = {}, {}, True
    for key in range(data.draw(st.integers(0, 4))):
        x, y = data.draw(scalar_pair(L))
        held = data.draw(st.sampled_from(["both", "p", "q"]))
        if held != "q":
            p[key] = data.draw(unreduced(x))
        if held != "p":
            q[key] = data.draw(unreduced(y))
        agree = agree and (x if key in p else 0) == (y if key in q else 0)
    assert K.equal(p, q) == K.equal(q, p) == agree


def test_mul_returns_the_other_operand_for_the_unit_object(sympy):
    """mul skips the kernels' one, the object: it returns the other operand
    itself.  A fresh tuple equal to one, or to 1 over an unreduced den, takes
    the convolution and gives sympy's product."""
    for L in ORACLE_CONDUCTORS:
        K = cyclotomic.COORDINATE_KERNELS[L]
        v = CycScalar.zeta(L) * rat(Fraction(3, 2)) - rat(Fraction(1, 5))
        u = v.nums + (v.den,)
        assert K.one == CycScalar.one(L).nums + (1,)
        assert K.mul(K.one, u) is u and K.mul(u, K.one) is u
        _, expect = sympy_coords(sympy, CycScalar.one(L), v, lambda p, q: p * q)
        for fresh in (tuple(list(K.one)), tuple(3 * c for c in K.one)):
            assert fresh is not K.one
            for w in (K.mul(fresh, u), K.mul(u, fresh)):
                assert w is not u and [Fraction(c, w[-1]) for c in w[:-1]] == expect
                assert same_as_sympy(K, w, expect)


def test_each_conductor_generates_its_kernels_once(monkeypatch):
    made = []

    def counted(generate):
        def gen(L):
            made.append((generate.__name__, L))
            return generate(L)
        return gen

    for name, generate in (("_KERNELS", cyclotomic._product_kernel), ("_SUMS", cyclotomic._sum_kernel),
                           ("COORDINATE_KERNELS", cyclotomic._coordinate_kernels)):
        monkeypatch.setattr(cyclotomic, name, cyclotomic._Kernels(counted(generate)))
    for _ in range(3):
        for L in ORACLE_CONDUCTORS:
            z = CycScalar.zeta(L) * rat(Fraction(1, 2))
            assert (z + z * z) * (z + CycScalar.one(L)) == z * z + z * z * z + z + z * z
            K = cyclotomic.COORDINATE_KERNELS[L]
            w = z.nums + (z.den,)
            v = K.add(K.mul(w, w), w)
            assert K.same(v, (z * z + z).nums + ((z * z + z).den,)) and v[-1] > (z * z + z).den
            assert K.equal({0: v}, {0: (z * z + z).nums + ((z * z + z).den,)})
    # a mixed pair is promoted to a conductor whose kernels already exist
    assert CycScalar.zeta(4) + CycScalar.zeta(6) == CycScalar.zeta(6) + CycScalar.zeta(4)
    assert sorted(made) == sorted((g, L) for g in ("_product_kernel", "_sum_kernel", "_coordinate_kernels")
                                  for L in ORACLE_CONDUCTORS)


def sympy_poly(sympy, s, M):
    """s in Q(zeta_M), M a multiple of s.L, as a sympy polynomial in zeta_M."""
    x = sympy.Symbol("x")
    step = M // s.L
    return x, sum((sympy.Rational(c, s.den) * x ** (step * i) for i, c in enumerate(s.nums)),
                  sympy.Integer(0))


def sympy_reduced(sympy, expr, x, M):
    """Power-basis coordinates of expr mod Phi_M, from sympy's remainder."""
    rem = sympy.Poly(sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(M, x), x), x, domain="QQ")
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return coeffs + [Fraction(0)] * (euler_phi(M) - len(coeffs))


@settings(max_examples=80, deadline=None)
@given(oracle_operand(False))
def test_inverse_matches_sympy_invert(sympy, a):
    if a.is_zero():
        return
    x, p = sympy_poly(sympy, a, a.L)
    inv = a.inverse()
    assert inv.L == a.L
    assert inv.coeffs() == sympy_reduced(sympy, sympy.invert(p, sympy.cyclotomic_poly(a.L, x), x), x, a.L)
    assert inv.den > 0 and gcd(inv.den, *inv.nums) == 1


def test_inverse_sweep_is_canonical_and_inverts():
    # seeded: full-width values, values promoted from a proper subfield
    # Q(zeta_d), d | L, and rationals carried at L; x * x^-1 is one and
    # x^-1 is canonical at x's own conductor
    rng = random.Random(20261019)
    for L in sorted(set([2] + ORACLE_CONDUCTORS)):
        phi = euler_phi(L)
        proper = [d for d in divisors(L) if d != L] or [L]
        values = []
        while len(values) < 240:
            kind = len(values) % 3
            if kind == 0:
                x = CycScalar(L, [rng.randrange(-9, 10) for _ in range(phi)], rng.randrange(1, 13))
            elif kind == 1:
                d = rng.choice(proper)
                x = CycScalar(d, [rng.randrange(-5, 6) for _ in range(euler_phi(d))],
                              rng.randrange(1, 7)).promote(L)
            else:
                x = CycScalar.from_rational(Fraction(rng.randrange(-30, 31), rng.randrange(1, 9)), L)
            if not x.is_zero():
                values.append(x)
        assert any(not x.is_rational() for x in values) or phi == 1
        for x in values:
            inv = x.inverse()
            assert inv.L == x.L
            assert inv.den > 0 and gcd(inv.den, *inv.nums) == 1
            assert (x * inv).is_one() and (inv * x).is_one()
            if x.is_rational():
                assert inv.as_rational() == 1 / x.as_rational()
    for L in (1, 2, 3, 4, 5, 12, 24):
        with pytest.raises(DivisionByZero):
            CycScalar.zero(L).inverse()
        with pytest.raises(DivisionByZero):
            CycScalar.one(L) / CycScalar.zero(L)


@st.composite
def subfield_element(draw):
    """An element of Q(zeta_L) that often lies in a proper subfield Q(zeta_d):
    drawn at a divisor d of L, then promoted to L."""
    L = draw(st.sampled_from([4, 6, 8, 12]))
    d = draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
    nums = draw(st.lists(st.integers(-4, 4), min_size=euler_phi(d), max_size=euler_phi(d)))
    return CycScalar(d, nums, draw(st.integers(1, 6))).promote(L)


@settings(max_examples=80, deadline=None)
@given(subfield_element())
def test_reduce_conductor_matches_galois_fixed_field(sympy, a):
    # a lies in Q(zeta_d), d | L, iff sigma_k(a) = a for every unit k = 1 mod d,
    # where sigma_k substitutes x -> x^k; the smallest such d is the conductor
    x, p = sympy_poly(sympy, a, a.L)
    coords = sympy_reduced(sympy, p, x, a.L)
    units = [k for k in range(1, a.L + 1) if gcd(k, a.L) == 1]
    expect = next(d for d in range(1, a.L + 1) if a.L % d == 0 and all(
        sympy_reduced(sympy, p.subs(x, x ** k), x, a.L) == coords for k in units if k % d == 1 % d))
    r = reduce_conductor(a)
    assert r.L == expect
    _, q = sympy_poly(sympy, r, a.L)
    assert sympy_reduced(sympy, q, x, a.L) == coords
