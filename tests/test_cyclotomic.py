import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge.cyclotomic import (
    ConductorOverflow, CycScalar, DivisionByZero, RootOfUnity, ZeroInput,
    cyclotomic_poly, euler_phi, multiplicative_order, primitive_root,
    q_binomial, q_factorial, q_int, gaussian_polynomial,
)


def rat(x):
    return CycScalar.from_rational(x)


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


def test_conductor_promotion_and_cap():
    z3, z4 = CycScalar.zeta(3), CycScalar.zeta(4)
    prod = z3 * z4
    assert prod.L == 12
    assert prod == CycScalar.zeta_power(12, 7)
    from hopfforge.cyclotomic import set_conductor_cap, conductor_cap
    old = conductor_cap()
    try:
        set_conductor_cap(10)
        with pytest.raises(ConductorOverflow):
            CycScalar.zeta(3) * CycScalar.zeta(4)
    finally:
        set_conductor_cap(old)


def test_cross_conductor_equality_and_hash():
    z6 = CycScalar.zeta(6)
    z3 = CycScalar.zeta(3)
    assert z6 ** 2 == z3
    assert hash(z6 ** 2) == hash(z3)
    assert (z6 ** 2).reduce_conductor().L == 3


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


def test_root_of_unity_embedding():
    r = RootOfUnity(6, 2)
    assert r.order == 3
    assert r.to_cyc() == CycScalar.zeta(6) ** 2
    assert r.to_cyc(12) == CycScalar.zeta(12) ** 4
    assert RootOfUnity(6, 2) == RootOfUnity(3, 1)


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
    conductors = [1, 2, 3, 4, 6, 12]
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
    """(r, v): r at conductor 1 (den 1 or not), v at a conductor > 1 and often a
    constant, equal to r or not, so that == meets both answers."""
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
            with pytest.raises(ConductorOverflow):
                op(rat(2), z)
            with pytest.raises(ConductorOverflow):
                op(z, rat(2))
    finally:
        set_conductor_cap(old)


# -- sympy oracle for the multiply ----------------------------------------------

ORACLE_CONDUCTORS = [1, 4, 6, 12]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def oracle_operand(draw, integral):
    """A CycScalar at one of ORACLE_CONDUCTORS, often with zero coefficients."""
    L = draw(st.sampled_from(ORACLE_CONDUCTORS))
    phi = euler_phi(L)
    nums = draw(st.lists(st.integers(-4, 4), min_size=phi, max_size=phi))
    den = 1 if integral else draw(st.integers(2, 12))
    return CycScalar(L, nums, den)


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


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda integral: st.tuples(
    st.just(integral), oracle_operand(integral), oracle_operand(integral))))
def test_mul_add_match_sympy_remainder(sympy, case):
    # integral operands take the den == 1 shortcuts, the others the gcd paths
    integral, a, b = case
    for result, op in ((a * b, lambda p, q: p * q), (a + b, lambda p, q: p + q)):
        M, expect = sympy_coords(sympy, a, b, op)
        assert result.L == M
        assert result.coeffs() == expect
        assert result.den > 0 and gcd(result.den, *result.nums) == 1
        assert (result.den == 1) or not integral
        assert bool(result) == any(expect) == (not result.is_zero())
    assert bool(a) == any(a.nums) and a.is_zero() == (not any(a.nums))


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
    r = a.reduce_conductor()
    assert r.L == expect
    _, q = sympy_poly(sympy, r, a.L)
    assert sympy_reduced(sympy, q, x, a.L) == coords
