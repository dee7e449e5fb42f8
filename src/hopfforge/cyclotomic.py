"""Exact arithmetic in cyclotomic fields Q(zeta_L), plus q-combinatorics.

Every scalar in this package is a ``CycScalar``: an element of Q(zeta_L)
stored in the power basis 1, z, ..., z^(phi(L)-1) reduced modulo the L-th
cyclotomic polynomial.  Arithmetic is exact; there is no floating point
anywhere.  Elements at different conductors are promoted to the lcm
automatically (capped, see ``set_conductor_cap``); a rational operand
(conductor 1) is not promoted but read as its constant coordinate.

Internally an element is a vector of integers over a single positive
denominator, normalized so gcd(den, coefficients) = 1.  That makes the
representation canonical: two equal field elements at the same conductor
have identical components.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Union


class DivisionByZero(ZeroDivisionError):
    pass


class ConductorOverflow(ValueError):
    pass


class ZeroInput(ValueError):
    pass


_DEFAULT_CAP = 720
_conductor_cap = int(os.environ.get("HOPFFORGE_CONDUCTOR_CAP", _DEFAULT_CAP))


def set_conductor_cap(cap: int) -> None:
    """Set the largest conductor automatic promotion may produce."""
    global _conductor_cap
    if cap < 1:
        raise ValueError("conductor cap must be positive")
    _conductor_cap = cap


def conductor_cap() -> int:
    return _conductor_cap


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_mul_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # exact division of integer polynomials by a monic-leading divisor
    num_l = list(num)
    dn = len(den) - 1
    if den[-1] not in (1, -1):
        raise ValueError("divisor must have unit leading coefficient")
    lead = den[-1]
    q = [0] * max(len(num_l) - dn, 1)
    for i in range(len(num_l) - 1, dn - 1, -1):
        c = num_l[i]
        if c == 0:
            continue
        if c % lead != 0:
            raise ValueError("non-exact polynomial division")
        f = c // lead
        q[i - dn] = f
        for j, dj in enumerate(den):
            num_l[i - dn + j] -= f * dj
    while len(num_l) > 1 and num_l[-1] == 0:
        num_l.pop()
    return tuple(q), tuple(num_l)


@lru_cache(maxsize=None)
def cyclotomic_poly(L: int) -> tuple[int, ...]:
    """Coefficients of the L-th cyclotomic polynomial, ascending, monic."""
    if L < 1:
        raise ValueError("conductor must be positive")
    # (x^L - 1) / prod of Phi_d for proper divisors d
    num: tuple[int, ...] = tuple([-1] + [0] * (L - 1) + [1])
    for d in divisors(L):
        if d == L:
            continue
        q, r = _poly_divmod_int(num, cyclotomic_poly(d))
        if any(r_i != 0 for r_i in r):
            raise AssertionError("cyclotomic division must be exact")
        num = q
    return num


@lru_cache(maxsize=None)
def _reduction_rows(L: int) -> tuple[tuple[int, ...], ...]:
    """Rows expressing x^k mod Phi_L for phi(L) <= k <= 2*phi(L)-2."""
    phi = euler_phi(L)
    poly = cyclotomic_poly(L)
    rows = []
    # x^phi = -(lower part of Phi_L)  (Phi_L is monic)
    cur = [-c for c in poly[:-1]]
    rows.append(tuple(cur))
    for _ in range(phi - 2):
        nxt = [0] * phi
        carry = cur[phi - 1]
        for i in range(phi - 1, 0, -1):
            nxt[i] = cur[i - 1]
        if carry:
            for i in range(phi):
                nxt[i] += carry * rows[0][i]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _promotion_rows(L: int, M: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis images of zeta_L^i inside Q(zeta_M), for L | M."""
    if M % L != 0:
        raise ValueError("promotion requires L | M")
    step = M // L
    phi_l, phi_m = euler_phi(L), euler_phi(M)
    rows = []
    for i in range(phi_l):
        rows.append(_reduce_monomial(M, i * step, phi_m))
    return tuple(rows)


def _reduce_monomial(L: int, k: int, phi: int) -> tuple[int, ...]:
    """x^k mod Phi_L as an integer row of length phi."""
    if k < phi:
        row = [0] * phi
        row[k] = 1
        return tuple(row)
    red = _reduction_rows(L)
    # repeatedly shift a single monomial down; k < L always in our usage
    vec = [0] * phi
    vec[phi - 1] = 1
    # vec currently represents x^(phi-1); multiply by x (k - phi + 1) times
    for _ in range(k - phi + 1):
        carry = vec[phi - 1]
        for i in range(phi - 1, 0, -1):
            vec[i] = vec[i - 1]
        vec[0] = 0
        if carry:
            top = red[0]
            for i in range(phi):
                vec[i] += carry * top[i]
    return tuple(vec)


@lru_cache(maxsize=None)
def _trace_of_power(L: int, k: int) -> Fraction:
    """Normalized trace of zeta_L^k down to Q, i.e. Tr/phi(L).

    Uses Tr(zeta_n^k) = mu(n/gcd(n,k)) * phi(n)/phi(n/gcd(n,k)).
    """
    g = gcd(L, k % L) if L > 1 else 1
    n = L // g if L > 1 else 1
    # Moebius mu(n)
    mu, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return Fraction(0)
            mu = -mu
        p += 1
    if m > 1:
        mu = -mu
    return Fraction(mu, euler_phi(n))


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


Rational = Union[int, Fraction]


class CycScalar:
    """An exact element of the cyclotomic field Q(zeta_L)."""

    __slots__ = ("L", "den", "nums")

    def __init__(self, L: int, nums: Iterable[int], den: int = 1, _normalized: bool = False):
        self.L = L
        if _normalized:
            self.nums = tuple(nums)
            self.den = den
            return
        nums = list(nums)
        phi = euler_phi(L)
        if len(nums) != phi:
            raise ValueError(f"need {phi} coefficients at conductor {L}, got {len(nums)}")
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            den = -den
            nums = [-c for c in nums]
        g = den
        for c in nums:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            nums = [c // g for c in nums]
        self.nums = tuple(nums)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value: Rational, L: int = 1) -> "CycScalar":
        f = Fraction(value)
        nums = [0] * euler_phi(L)
        nums[0] = f.numerator
        return CycScalar(L, nums, f.denominator)

    @staticmethod
    def zero(L: int = 1) -> "CycScalar":
        return CycScalar(L, [0] * euler_phi(L), 1, _normalized=True)

    @staticmethod
    def one(L: int = 1) -> "CycScalar":
        nums = [0] * euler_phi(L)
        nums[0] = 1
        return CycScalar(L, nums, 1, _normalized=True)

    @staticmethod
    def zeta(L: int) -> "CycScalar":
        """The distinguished primitive L-th root of unity zeta_L."""
        phi = euler_phi(L)
        return CycScalar(L, _reduce_monomial(L, 1 % L, phi))

    @staticmethod
    def zeta_power(L: int, k: int) -> "CycScalar":
        phi = euler_phi(L)
        return CycScalar(L, _reduce_monomial(L, k % L, phi))

    def coeffs(self) -> list[Fraction]:
        """Power-basis coordinates as exact rationals."""
        return [Fraction(c, self.den) for c in self.nums]

    # -- conductor handling -------------------------------------------

    def promote(self, M: int) -> "CycScalar":
        if M == self.L:
            return self
        if self.L == 1:
            out = [0] * euler_phi(M)
            out[0] = self.nums[0]
            return CycScalar(M, out, self.den, _normalized=True)
        if M % self.L != 0:
            raise ValueError(f"cannot promote conductor {self.L} to {M}")
        rows = _promotion_rows(self.L, M)
        phi_m = euler_phi(M)
        out = [0] * phi_m
        for i, c in enumerate(self.nums):
            if c:
                row = rows[i]
                for j in range(phi_m):
                    if row[j]:
                        out[j] += c * row[j]
        return CycScalar(M, out, self.den)

    @staticmethod
    def _common(a: "CycScalar", b: "CycScalar") -> tuple["CycScalar", "CycScalar"]:
        if a.L == b.L:
            return a, b
        M = _lcm(a.L, b.L)
        if M > _conductor_cap:
            raise ConductorOverflow(f"lcm conductor {M} exceeds cap {_conductor_cap}")
        return a.promote(M), b.promote(M)

    def reduce_conductor(self) -> "CycScalar":
        """Smallest-conductor representation of this element."""
        if self.L == 1:
            return self
        for d in divisors(self.L):
            if d == self.L:
                break
            cand = self._try_express_at(d)
            if cand is not None:
                return cand
        return self

    def _try_express_at(self, d: int) -> Optional["CycScalar"]:
        rows = _promotion_rows(d, self.L)
        phi_d, phi_L = euler_phi(d), euler_phi(self.L)
        # solve sum_i x_i * rows[i] = self.coeffs() over Q
        aug = [[Fraction(rows[i][j]) for i in range(phi_d)] + [Fraction(self.nums[j], self.den)]
               for j in range(phi_L)]
        ncols = phi_d
        pivots = []
        r = 0
        for c in range(ncols):
            pr = None
            for rr in range(r, len(aug)):
                if aug[rr][c] != 0:
                    pr = rr
                    break
            if pr is None:
                continue
            aug[r], aug[pr] = aug[pr], aug[r]
            pv = aug[r][c]
            aug[r] = [x / pv for x in aug[r]]
            for rr in range(len(aug)):
                if rr != r and aug[rr][c] != 0:
                    f = aug[rr][c]
                    aug[rr] = [x - f * y for x, y in zip(aug[rr], aug[r])]
            pivots.append(c)
            r += 1
        for rr in range(r, len(aug)):
            if aug[rr][ncols] != 0:
                return None
        sol = [Fraction(0)] * ncols
        for i, c in enumerate(pivots):
            sol[c] = aug[i][ncols]
        den = 1
        for f in sol:
            den = _lcm(den, f.denominator)
        return CycScalar(d, [int(f * den) for f in sol], den)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and all(c == 0 for c in self.nums[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.L == other.L:
            a, b = self, other
        elif self.L == 1 or other.L == 1:
            return _rational_sum(self, other)
        else:
            a, b = CycScalar._common(self, other)
        if a.den == b.den:
            return CycScalar(a.L, [x + y for x, y in zip(a.nums, b.nums)], a.den, _normalized=a.den == 1)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        return CycScalar(a.L, [x * fa + y * fb for x, y in zip(a.nums, b.nums)], a.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.L, [-c for c in self.nums], self.den, _normalized=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.L == other.L:
            a, b = self, other
        elif self.L == 1 or other.L == 1:
            return _rational_product(self, other)
        else:
            a, b = CycScalar._common(self, other)
        an, bn = a.nums, b.nums
        phi = len(an)
        if phi == 1:
            out = [an[0] * bn[0]]
        else:
            conv = [0] * (2 * phi - 1)
            for i in range(phi):
                ai = an[i]
                if ai:
                    for j in range(phi):
                        bj = bn[j]
                        if bj:
                            conv[i + j] += ai * bj
            out = conv[:phi]
            if any(conv[phi:]):
                red = _reduction_rows(a.L)
                for k in range(phi, 2 * phi - 1):
                    ck = conv[k]
                    if ck:
                        row = red[k - phi]
                        for j in range(phi):
                            if row[j]:
                                out[j] += ck * row[j]
        den = a.den * b.den
        # integral operands give an integral, hence already normalized, product
        return CycScalar(a.L, out, den, _normalized=den == 1)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return CycScalar.from_rational(1 / self.as_rational(), self.L)
        # extended gcd of self (as polynomial over Q) with Phi_L
        phi_poly = [Fraction(c) for c in cyclotomic_poly(self.L)]
        a = [Fraction(c, self.den) for c in self.nums]
        r0, r1 = phi_poly, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul_frac(q, s1))
        # r0 = gcd (a unit since Phi_L has no roots in common with a != 0)
        deg = _poly_deg(r0)
        if deg != 0:
            raise AssertionError("element shares a factor with the cyclotomic polynomial")
        inv_lead = 1 / r0[0]
        inv_coeffs = [c * inv_lead for c in s0]
        # s0 * a = gcd (mod Phi), so s0/gcd is the inverse; reduce mod Phi
        _, rem = _poly_divmod_frac(inv_coeffs, phi_poly)
        phi = euler_phi(self.L)
        rem = rem + [Fraction(0)] * (phi - len(rem))
        den = 1
        for f in rem:
            den = _lcm(den, f.denominator)
        return CycScalar(self.L, [int(f * den) for f in rem[:phi]], den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CycScalar.one(self.L)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) is not CycScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.L == other.L:
            return self.den == other.den and self.nums == other.nums
        if self.L == 1 or other.L == 1:
            return _rational_equal(self, other)
        a, b = CycScalar._common(self, other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        # conductor-independent: normalized traces of x and x^2
        t1 = sum((Fraction(c, self.den) * _trace_of_power(self.L, i) for i, c in enumerate(self.nums)),
                 Fraction(0))
        sq = self * self
        t2 = sum((Fraction(c, sq.den) * _trace_of_power(sq.L, i) for i, c in enumerate(sq.nums)),
                 Fraction(0))
        return hash((t1, t2))

    def __bool__(self):
        return any(self.nums)

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.nums):
            if c == 0:
                continue
            f = Fraction(c, self.den)
            mag = abs(f)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "z" if mag == 1 else f"{mag}*z"
            else:
                body = f"z^{k}" if mag == 1 else f"{mag}*z^{k}"
            if not parts:
                parts.append(body if f > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if f > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Cyc({self.L}; {self})"


# -- a rational operand against one at another conductor ----------------------
# The lcm conductor is the other operand's, so nothing is promoted: the
# rational is read as its constant coordinate.  The results equal, in L, den
# and nums, those of promoting it and applying the same-conductor operation.
# They live outside the dunder methods: inlined there, they slowed the
# equal-conductor path that the checkers run (verify wall_s about +4%).


def _rational_first(a: CycScalar, b: CycScalar) -> tuple[CycScalar, CycScalar]:
    """(r, v): r the operand at conductor 1, v the other; the cap holds as for promotion."""
    r, v = (a, b) if a.L == 1 else (b, a)
    if v.L > _conductor_cap:
        raise ConductorOverflow(f"lcm conductor {v.L} exceeds cap {_conductor_cap}")
    return r, v


def _rational_sum(a: CycScalar, b: CycScalar) -> CycScalar:
    """a + b: the rational shifts the constant coordinate of the other."""
    r, v = _rational_first(a, b)
    if r.den == v.den:
        nums = list(v.nums)
        nums[0] += r.nums[0]
        return CycScalar(v.L, nums, v.den, _normalized=v.den == 1)
    g = gcd(r.den, v.den)
    fr, fv = v.den // g, r.den // g
    nums = [x * fv for x in v.nums]
    nums[0] += r.nums[0] * fr
    return CycScalar(v.L, nums, r.den * fr)


def _rational_product(a: CycScalar, b: CycScalar) -> CycScalar:
    """a * b: the rational scales the coefficients of the other."""
    r, v = _rational_first(a, b)
    c, den = r.nums[0], r.den * v.den
    return CycScalar(v.L, [c * x for x in v.nums], den, _normalized=den == 1)


def _rational_equal(a: CycScalar, b: CycScalar) -> bool:
    """a == b: the other is the constant r, every other coefficient zero."""
    r, v = _rational_first(a, b)
    return r.den == v.den and r.nums[0] == v.nums[0] and not any(v.nums[1:])


def _coerce(x) -> "CycScalar":
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar.from_rational(x)
    return NotImplemented


# -- rational polynomial helpers for inverse --------------------------------

def _poly_deg(p: list[Fraction]) -> int:
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    dn = _poly_deg(den)
    if dn == 0 and den[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    q = [Fraction(0)] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        if i >= len(num) or num[i] == 0:
            continue
        f = num[i] / den[dn]
        q[i - dn] = f
        for j in range(dn + 1):
            num[i - dn + j] -= f * den[j]
    d = _poly_deg(num)
    return q, num[: d + 1]


# -- roots of unity ----------------------------------------------------------


class RootOfUnity:
    """zeta_L^e, kept in lowest terms e/L of the rotation it denotes."""

    __slots__ = ("conductor", "exponent")

    def __init__(self, conductor: int, exponent: int):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        self.exponent = exponent % conductor

    @property
    def order(self) -> int:
        return self.conductor // gcd(self.conductor, self.exponent) if self.exponent else 1

    def to_cyc(self, conductor: Optional[int] = None) -> CycScalar:
        L = conductor or self.conductor
        if L % self.conductor != 0:
            raise ValueError("target conductor must be a multiple")
        return CycScalar.zeta_power(L, self.exponent * (L // self.conductor))

    def __eq__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        g1 = gcd(self.conductor, self.exponent) if self.exponent else self.conductor
        g2 = gcd(other.conductor, other.exponent) if other.exponent else other.conductor
        return (self.conductor // g1, self.exponent // g1) == (other.conductor // g2, other.exponent // g2)

    def __hash__(self):
        g = gcd(self.conductor, self.exponent) if self.exponent else self.conductor
        return hash((self.conductor // g, self.exponent // g))

    def __repr__(self):
        return f"RootOfUnity(zeta_{self.conductor}^{self.exponent})"


def primitive_root(N: int) -> CycScalar:
    """zeta_N as a CycScalar at conductor N; its multiplicative order is N."""
    if N < 1:
        raise ValueError("N must be positive")
    return CycScalar.zeta(N)


def multiplicative_order(a: CycScalar) -> Optional[int]:
    """Least n >= 1 with a^n = 1, or None if a is not a root of unity.

    Roots of unity inside Q(zeta_L) all have order dividing lcm(2, L),
    so the search space is finite and the question is decidable.
    """
    if a.is_zero():
        raise ZeroInput("order of zero is undefined")
    bound = _lcm(2, a.L)
    one = CycScalar.one(a.L)
    for n in divisors(bound):
        if (a ** n) == one:
            return n
    return None


# -- q-combinatorics ---------------------------------------------------------


def q_int(n: int, q: CycScalar) -> CycScalar:
    """(n)_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    total = CycScalar.zero(q.L)
    power = CycScalar.one(q.L)
    for _ in range(n):
        total = total + power
        power = power * q
    return total


def q_factorial(n: int, q: CycScalar) -> CycScalar:
    if n < 0:
        raise ValueError("n must be non-negative")
    total = CycScalar.one(q.L)
    for i in range(1, n + 1):
        total = total * q_int(i, q)
    return total


@lru_cache(maxsize=None)
def gaussian_polynomial(n: int, k: int) -> tuple[int, ...]:
    """Integer coefficients of the Gaussian binomial as a polynomial in q.

    Computed by cancelling prod (q^(n-i+1) - 1) / prod (q^i - 1) symbolically
    before any specialization, so evaluation at roots of unity never divides
    a vanished factor.
    """
    if k < 0 or k > n:
        return (0,)
    num: tuple[int, ...] = (1,)
    den: tuple[int, ...] = (1,)
    for i in range(1, k + 1):
        num = _poly_mul_int(num, tuple([-1] + [0] * (n - i) + [1]))
        den = _poly_mul_int(den, tuple([-1] + [0] * (i - 1) + [1]))
    q, r = _poly_divmod_int(num, den)
    if any(c != 0 for c in r):
        raise AssertionError("Gaussian binomial division must be exact")
    return q


def q_binomial(n: int, k: int, q: CycScalar) -> CycScalar:
    """Gaussian binomial coefficient specialized at q; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if k > n:
        return CycScalar.zero(q.L)
    coeffs = gaussian_polynomial(n, k)
    # Horner evaluation
    acc = CycScalar.zero(q.L)
    for c in reversed(coeffs):
        acc = acc * q
        if c:
            acc = acc + CycScalar.from_rational(c)
    return acc
