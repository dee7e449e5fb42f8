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
have identical components.  Every value is built by one canonical
constructor, ``_canonical``; ``CycScalar(...)`` validates outside input and
then goes through it too.  A product or a sum at conductor L runs through a
straight-line kernel generated once for L and kept for the rest of the
process: ``_product_kernel`` builds the product's from the reduction rows of
Phi_L, ``_sum_kernel`` the sum's, and both end in ``_canonical`` unrolled.
``COORDINATE_KERNELS[L]`` runs the same lines on bare integer coordinates,
unreduced, skips products by its ``one`` and compares values with no gcd.
An inverse is the product of the Galois conjugates over the norm, formed
with the same kernels.  A product with an operand exactly 1 returns the
other operand object itself, so values are shared and never mutated once
built.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import SimpleNamespace
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


@lru_cache(maxsize=None)
def _conjugation_rows(L: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis images of zeta_L^(k*i) for i < phi(L): the rows of the
    Galois automorphism sigma_k: zeta_L -> zeta_L^k, for k prime to L."""
    phi = euler_phi(L)
    return tuple(_reduce_monomial(L, k * i % L, phi) for i in range(phi))


def _row_combination(nums: tuple[int, ...], rows: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """sum_i nums[i] * rows[i], each row an integer row of length n."""
    out = [0] * n
    for c, row in zip(nums, rows):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return tuple(out)


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


def _canonical(L: int, nums: tuple[int, ...], den: int) -> "CycScalar":
    """The element nums/den at conductor L (den > 0), in lowest terms."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = tuple([c // g for c in nums])
    s = object.__new__(CycScalar)
    s.L, s.den, s.nums = L, den, nums
    return s


def _compile(L: int, name: str, src: list[str]) -> dict:
    """The namespace of kernel source `src` at conductor L, compiled."""
    namespace = {"gcd": gcd, "new": object.__new__, "CycScalar": CycScalar}
    exec(compile("\n".join(src), f"<{name} kernel at conductor {L}>", "exec"), namespace)
    return namespace


def _kernel(L: int, name: str, head: list[str]):
    """Compile head, which leaves the output coordinates n0, n1, ... and den,
    followed by ``_canonical`` unrolled over them, as ``name(a, b)`` at L."""
    seq = "".join(f"n{k}, " for k in range(euler_phi(L)))
    return _compile(L, name, [
        f"def {name}(a, b):", *head,
        f"    g = gcd(den, {seq})",
        "    s = new(CycScalar)",
        "    if g == 1:",
        f"        s.L, s.den, s.nums = {L}, den, ({seq})",
        "    else:",
        f"        s.L, s.den, s.nums = {L}, den // g, ({seq.replace(',', ' // g,')})",
        "    return s"])[name]


def _unpack(phi: int) -> list[str]:
    return [f"    {''.join(f'{x}{k}, ' for k in range(phi))}= {x}.nums" for x in "ab"] + [
        "    da, db = a.den, b.den"]


def _convolution(L: int) -> list[str]:
    """Lines that leave in n0, n1, ... the product at conductor L of the
    coordinates a0, a1, ... and b0, b1, ...: built from the integers of Phi_L
    alone, each coefficient of x^m, m >= phi, of the convolution is named once
    and folded into the output coordinates through the row of x^m mod Phi_L."""
    phi = euler_phi(L)
    red = _reduction_rows(L)

    def conv(m: int) -> str:
        return " + ".join(f"a{i} * b{m - i}" for i in range(max(0, m - phi + 1), min(m, phi - 1) + 1))

    def signed(c: int, m: int) -> str:
        return f" {'+-'[c < 0]} {'' if abs(c) == 1 else f'{abs(c)} * '}c{m}"

    return [f"    c{m} = {conv(m)}" for m in range(phi, 2 * phi - 1)] + [
        f"    n{k} = {conv(k)}" + "".join(signed(red[m - phi][k], m) for m in range(phi, 2 * phi - 1)
                                    if red[m - phi][k]) for k in range(phi)]


def _addition(phi: int) -> list[str]:
    """Lines that leave in n0, n1, ... and den the sum of (a0, a1, ...)/da and
    (b0, b1, ...)/db: over da when the denominators agree, else over da db."""
    return ["    if da == db:", *[f"        n{k} = a{k} + b{k}" for k in range(phi)], "        den = da",
            "    else:", *[f"        n{k} = a{k} * db + b{k} * da" for k in range(phi)],
            "        den = da * db"]


def _product_kernel(L: int):
    """The product at conductor L as one straight-line function of the operands:
    the lines of ``_convolution``, then ``_canonical`` unrolled (``_kernel``).
    When b, and then a, is exactly 1 the kernel returns the other operand
    object: it is canonical, so it equals the product in L, den and nums.
    """
    phi = euler_phi(L)

    def is_one(x: str) -> str:
        return " and ".join([f"{x}0 == 1"] + [f"{x}{k} == 0" for k in range(1, phi)] + [f"d{x} == 1"])

    head = _unpack(phi) + [f"    if {is_one('b')}: return a", f"    if {is_one('a')}: return b"]
    return _kernel(L, "product", head + _convolution(L) + ["    den = da * db"])


def _sum_kernel(L: int):
    """The sum at conductor L as one straight-line function of the operands:
    the lines of ``_addition``, then ``_canonical`` unrolled (``_kernel``)."""
    return _kernel(L, "sum", _unpack(euler_phi(L)) + _addition(euler_phi(L)))


def _coordinate_kernels(L: int) -> SimpleNamespace:
    """mul, add, axpy, same and equal at conductor L on coordinates (n0, ...,
    n_{phi-1}, den), the value (n0 + n1 z + ...)/den, den > 0, unreduced, and
    ``one`` = (1, 0, ..., 0, 1).  mul and add form no gcd and no object, mul
    returns the other operand for the object ``one``, and axpy is
    ``linalg.sv_axpy`` over them.  same(u, v) is u_k dv == v_k du for every k,
    exact as both dens are positive; equal(p, q) compares vectors by it, a
    missing key read as 0 and zero entries, which axpy leaves, allowed."""
    phi = euler_phi(L)
    n = ", ".join(f"n{k}" for k in range(phi))
    unpack = [f"    {', '.join(f'{x}{k}' for k in range(phi))}, d{x} = {x}" for x in "ab"]
    ns = _compile(L, "coordinate", [
        f"one, zero = (1, {'0, ' * (phi - 1)}1), {(0,) * phi}",
        "def mul(a, b):",
        "    if a is one: return b",
        "    if b is one: return a",
        *unpack, *_convolution(L), f"    return {n}, da * db",
        "def add(a, b):", *unpack, *_addition(phi), f"    return {n}, den",
        "def axpy(acc, c, terms):",
        "    for key, w in terms:",
        "        cur = acc.get(key)",
        "        acc[key] = mul(c, w) if cur is None else add(cur, mul(c, w))",
        "def same(a, b):",
        "    if a == b: return True",
        "    if a[-1] == b[-1]: return False",
        *unpack,
        f"    return {' and '.join(f'a{k} * db == b{k} * da' for k in range(phi))}",
        "def equal(p, q):",
        "    found = 0",
        "    for key, v in p.items():",
        "        w = q.get(key)",
        "        if w is None:",
        "            if v[:-1] != zero: return False",
        "        elif v == w or same(v, w): found += 1",
        "        else: return False",
        "    return found == len(q) or all(key in p or w[:-1] == zero for key, w in q.items())"])
    return SimpleNamespace(**{k: ns[k] for k in ("one", "mul", "add", "axpy", "same", "equal")})


class _Kernels(dict):
    """Kernels by conductor, each generated by `generate` on first use and
    kept: one source is compiled per conductor and kind of kernel."""

    def __init__(self, generate):
        super().__init__()
        self.generate = generate

    def __missing__(self, L: int):
        kernel = self[L] = self.generate(L)
        return kernel


_KERNELS = _Kernels(_product_kernel)
_SUMS = _Kernels(_sum_kernel)
COORDINATE_KERNELS = _Kernels(_coordinate_kernels)


Rational = Union[int, Fraction]


class CycScalar:
    """An exact element of the cyclotomic field Q(zeta_L)."""

    __slots__ = ("L", "den", "nums")

    def __init__(self, L: int, nums: Iterable[int], den: int = 1):
        nums = tuple(nums)
        phi = euler_phi(L)
        if len(nums) != phi:
            raise ValueError(f"need {phi} coefficients at conductor {L}, got {len(nums)}")
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            den, nums = -den, tuple([-c for c in nums])
        c = _canonical(L, nums, den)
        self.L, self.den, self.nums = L, c.den, c.nums

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value: Rational, L: int = 1) -> "CycScalar":
        f = Fraction(value)
        nums = [0] * euler_phi(L)
        nums[0] = f.numerator
        return CycScalar(L, nums, f.denominator)

    @staticmethod
    def zero(L: int = 1) -> "CycScalar":
        return _canonical(L, (0,) * euler_phi(L), 1)

    @staticmethod
    def one(L: int = 1) -> "CycScalar":
        return _canonical(L, (1,) + (0,) * (euler_phi(L) - 1), 1)

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
            return _canonical(M, self.nums + (0,) * (euler_phi(M) - 1), self.den)
        if M % self.L != 0:
            raise ValueError(f"cannot promote conductor {self.L} to {M}")
        return _canonical(M, _row_combination(self.nums, _promotion_rows(self.L, M), euler_phi(M)), self.den)

    @staticmethod
    def _common(a: "CycScalar", b: "CycScalar") -> tuple["CycScalar", "CycScalar"]:
        if a.L == b.L:
            return a, b
        M = _lcm(a.L, b.L)
        if M > _conductor_cap:
            raise ConductorOverflow(f"lcm conductor {M} exceeds cap {_conductor_cap}")
        return a.promote(M), b.promote(M)

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
            return _SUMS[self.L](self, other)
        if self.L == 1 or other.L == 1:
            return _rational_sum(self, other)
        a, b = CycScalar._common(self, other)
        return _SUMS[a.L](a, b)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.L, tuple([-c for c in self.nums]), self.den)

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
            return _KERNELS[self.L](self, other)
        if self.L == 1 or other.L == 1:
            r, v = (self, other) if self.L == 1 else (other, self)
            if r.den == 1 and r.nums == (1,) and v.L <= _conductor_cap:
                return v
            return _rational_product(self, other)
        a, b = CycScalar._common(self, other)
        return _KERNELS[a.L](a, b)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """1/x as the product y of the Galois conjugates sigma_k(x), 1 < k < L,
        k prime to L, over the norm N(x) = x * y, which is rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return CycScalar.from_rational(1 / self.as_rational(), self.L)
        L, phi = self.L, euler_phi(self.L)
        conjugates = [_canonical(L, _row_combination(self.nums, _conjugation_rows(L, k), phi), self.den)
                      for k in range(2, L) if gcd(k, L) == 1]
        y = conjugates[0]
        for conj in conjugates[1:]:
            y = y * conj
        # L > 2 here, so the conjugates pair off as complex conjugates and N(x) > 0
        norm = self * y
        if not norm.is_rational() or norm.nums[0] <= 0:
            raise AssertionError("the norm of a nonzero element must be a positive rational")
        return _canonical(L, tuple([c * norm.den for c in y.nums]), y.den * norm.nums[0])

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
# `__mul__` returns the other operand itself for an exact rational 1 within
# the cap, the object a product by 1 equals.  `linalg.sv_axpy` stores that
# operand without the call when the 1 is the shared `cone()`, as it is in most
# of the analysis tables' products.  Every other case takes the calls below.


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
        return _canonical(v.L, (v.nums[0] + r.nums[0],) + v.nums[1:], v.den)
    g = gcd(r.den, v.den)
    fr, fv = v.den // g, r.den // g
    nums = [x * fv for x in v.nums]
    nums[0] += r.nums[0] * fr
    return _canonical(v.L, tuple(nums), r.den * fr)


def _rational_product(a: CycScalar, b: CycScalar) -> CycScalar:
    """a * b: the rational scales the coefficients of the other."""
    r, v = _rational_first(a, b)
    c = r.nums[0]
    return _canonical(v.L, tuple([c * x for x in v.nums]), r.den * v.den)


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
