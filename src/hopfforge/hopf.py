"""Structure-constant algebras, coalgebras, bialgebras and Hopf algebras.

Everything is presented by sparse structure tensors over exact cyclotomic
scalars and checked exhaustively over basis tuples; violations come back
as report entries with witnesses, never as silent errors.
"""

from __future__ import annotations

import operator
import weakref
from functools import cached_property
from itertools import islice, product
from math import lcm
from typing import Iterable, Iterator, Optional

from .cyclotomic import COORDINATE_KERNELS, ConductorOverflow, CycScalar, conductor_cap
from .linalg import (
    Mat, SVec, Subspace, Tensor3, Vec,
    ShapeMismatch, basis_vec, cone, czero, echelon, kernel_from_sparse_rows,
    sv_add_into, sv_axpy, sv_from_dense, sv_outer_axpy, sv_scale, zeros,
)
from .reports import MAX_WITNESSES, CheckReport


class NotABialgebra(ValueError):
    pass


class NotGroupLike(ValueError):
    pass


class AxiomViolation(ValueError):
    pass


class AlgebraSC:
    """Algebra by structure constants: e_i * e_j = sum_k mult[i,j,k] e_k."""

    def __init__(self, dim: int, mult: Tensor3, unit: Vec):
        if mult.shape != (dim, dim, dim):
            raise ShapeMismatch("multiplication tensor has wrong shape")
        if len(unit) != dim:
            raise ShapeMismatch("unit vector has wrong dimension")
        self.dim = dim
        self.mult = mult
        self.unit = list(unit)
        self._unit = sv_from_dense(self.unit)
        # _rows[i][j] = e_i e_j as a tuple of (k, c), () when it is zero
        self._rows: list[list[tuple]] = [[()] * dim for _ in range(dim)]
        for (i, j, k), c in mult.data.items():
            if c:
                self._rows[i][j] += ((k, c),)

    def unit_sv(self) -> SVec:
        return dict(self._unit)

    def mul_basis(self, i: int, j: int) -> SVec:
        return dict(self._rows[i][j])

    def mul_sv(self, a: SVec, b: SVec) -> SVec:
        out: SVec = {}
        for i, ca in a.items():
            row = self._rows[i]
            for j, cb in b.items():
                terms = row[j]
                if terms:
                    sv_axpy(out, ca * cb, terms)
        return out

    def powers_sv(self, a: SVec, n: int) -> list[SVec]:
        """[1, a, ..., a^(n-1)]."""
        out = [self.unit_sv()]
        for _ in range(n - 1):
            out.append(self.mul_sv(out[-1], a))
        return out

    def pow_sv(self, a: SVec, n: int) -> SVec:
        return self.powers_sv(a, n + 1)[-1]

    def one_minus_pow_sv(self, a: SVec, n: int, scale: Optional[CycScalar] = None) -> SVec:
        """1 - a^n, times `scale` when one is given."""
        out = self.unit_sv()
        sv_axpy(out, -cone(), self.pow_sv(a, n).items())
        return out if scale is None else sv_scale(out, scale)


class CoalgebraSC:
    """Coalgebra by structure constants: Delta(e_k) = sum comult[k,i,j] e_i (x) e_j."""

    def __init__(self, dim: int, comult: Tensor3, counit: Vec):
        if comult.shape != (dim, dim, dim):
            raise ShapeMismatch("comultiplication tensor has wrong shape")
        if len(counit) != dim:
            raise ShapeMismatch("counit covector has wrong dimension")
        self.dim = dim
        self.comult = comult
        self.counit = list(counit)
        self._by_k: dict[int, dict[tuple[int, int], CycScalar]] = {}
        for (k, i, j), c in comult.data.items():
            self._by_k.setdefault(k, {})[(i, j)] = c

    def comult_basis(self, k: int) -> dict[tuple[int, int], CycScalar]:
        return self._by_k.get(k, {})

    def comult_sv(self, v: SVec) -> dict[tuple[int, int], CycScalar]:
        out: dict[tuple[int, int], CycScalar] = {}
        for k, c in v.items():
            d = self._by_k.get(k)
            if d:
                sv_axpy(out, c, d.items())
        return out

    def counit_sv(self, v: SVec) -> CycScalar:
        total = czero()
        for k, c in v.items():
            e = self.counit[k]
            if e:
                total = total + e * c
        return total


class BialgebraSC(AlgebraSC, CoalgebraSC):
    """Algebra + coalgebra on one carrier (compatibility checked on demand)."""

    def __init__(self, dim: int, mult: Tensor3, unit: Vec, comult: Tensor3, counit: Vec):
        AlgebraSC.__init__(self, dim, mult, unit)
        CoalgebraSC.__init__(self, dim, comult, counit)

    @cached_property
    def dual_integral(self) -> Optional[Vec]:
        """`integral(B)`, solved once per object: B must not change afterwards."""
        return integral(self)


class HopfSC(BialgebraSC):
    """Bialgebra with an antipode matrix plus declared extra data.

    Group-likes and characters are declared and verified, never enumerated.
    No hypothesis is declared: cosemisimplicity is decided by `integral`.
    """

    def __init__(self, dim: int, mult: Tensor3, unit: Vec, comult: Tensor3, counit: Vec,
                 antipode: Optional[Mat] = None, labels: Optional[list[str]] = None,
                 conductor: int = 1, group_likes: Optional[dict[str, SVec]] = None,
                 characters: Optional[dict[str, Vec]] = None):
        super().__init__(dim, mult, unit, comult, counit)
        if antipode is not None and (antipode.nrows != dim or antipode.ncols != dim):
            raise ShapeMismatch("antipode matrix has wrong shape")
        self.antipode = antipode
        self.labels = labels or [f"e{i}" for i in range(dim)]
        self.conductor = conductor
        self.group_likes = dict(group_likes or {})
        self.characters = dict(characters or {})

    def antipode_sv(self, v: SVec) -> SVec:
        if self.antipode is None:
            raise NotABialgebra("no antipode stored")
        return self.antipode.apply_sv(v)

    def antipode_col(self, j: int) -> SVec:
        """S(e_j), the j-th stored column of the antipode matrix."""
        if self.antipode is None:
            raise NotABialgebra("no antipode stored")
        return self.antipode.cols[j]

    @cached_property
    def integral_is_ad_invariant(self) -> bool:
        """Whether `verify_ad_integral` accepts `dual_integral`, decided once per H
        object: it reads the antipode, which must be set before the first read."""
        return self.dual_integral is not None and verify_ad_integral(self, self.dual_integral)


# -- axiom checkers ----------------------------------------------------------
#
# The checkers contract the structure tables directly, so every product they
# form is a product of structure constants; they still visit every basis tuple
# (a failing associativity scan stops at its eighth witness).  Each lifts every
# distinct constant it reads once (`_Lifted`) to integer coordinates
# (n_0, ..., n_{phi-1}, den) at their lcm conductor M, and its loops run on
# those through the coordinate kernels of M: no promotion, no gcd and no
# CycScalar, and the two sides of an equation compared in normal form, one gcd
# per compared entry.  Associativity and the multiplicativity of Delta and eps
# also have loops on ids: when their constants take few values they read them
# through a value table (`_Values`) and form what depends only on a cell once.


def _mult_constants(A: AlgebraSC) -> Iterator[CycScalar]:
    return (c for row in A._rows for cell in row for _, c in cell)


def _comult_constants(C: CoalgebraSC) -> Iterator[CycScalar]:
    return (c for d in C._by_k.values() for c in d.values())


class _Full(Exception):
    """A value table was asked to number more values than its cap."""


class _Lazy(dict):
    """A memo that forms each missing entry with `make(key)` on first use."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Lifted:
    """The constants one check reads, as coordinates at their lcm conductor M,
    with `K` the coordinate kernels of M.  `lift` promotes each distinct
    constant once.  Nonzero constants at more than one conductor, with M past
    the conductor cap, raise ConductorOverflow here, before any kernel or
    table is formed; constants all at one conductor are read there, cap or not."""

    def __init__(self, *groups: Iterable[CycScalar]):
        conductors = {c.L for g in groups for c in g if c}
        self.M = lcm(1, *conductors)
        if len(conductors) > 1 and self.M > conductor_cap():
            raise ConductorOverflow(f"lcm conductor {self.M} exceeds cap {conductor_cap()}")
        self.coords: dict[tuple, tuple] = {}  # (L, den, nums) of a constant read -> its coordinates

    @property
    def K(self):
        return COORDINATE_KERNELS[self.M]

    def lift(self, c: CycScalar) -> tuple:
        """c as the check reads it: its coordinates at M."""
        key = (c.L, c.den, c.nums)
        v = self.coords.get(key)
        if v is None:
            if c.L != self.M:
                c = c.promote(self.M) if c else CycScalar.zero(self.M)
            v = self.coords[key] = c.nums + (c.den,)
        return v

    def table(self, A: AlgebraSC) -> list[list[tuple]]:
        """A's row table over coordinates."""
        return [[tuple((k, self.lift(c)) for k, c in cell) for cell in row] for row in A._rows]

    def coproducts(self, C: CoalgebraSC) -> list[tuple]:
        """Delta(e_k) as the check reads it, as a tuple of ((i, j), c) for each k."""
        return [tuple((ij, self.lift(c)) for ij, c in C.comult_basis(k).items()) for k in range(C.dim)]


class _Values(_Lifted):
    """The values read and formed by a check that has a loop on ids.

    When the n nonzero constants take P distinct values with P*P <= n, the
    check runs on ids (`numbered`): id 0 is zero and each other value at M,
    keyed by its normalized (den, nums), gets the next small int, so `if v`
    and dict equality mean what they mean on scalars; `one` is the id of 1.
    `mul[a][b]` and `add[a][b]` form each product and sum of two numbered
    values once.  A cell is a vector as a tuple of (index, id) sorted by
    index, zeros dropped, and `cell` gives equal vectors equal cell ids (0 is
    the zero vector).  The table numbers at most `cap` = n + 1 nonzero values
    (room for the constants' values and 1), and its cells hold at most `cap`
    (index, id) pairs in all, so it never outgrows the constants the check
    reads.  A check that needs more raises _Full inside the table, `_drop`s
    it and finishes on the lifted scalars, with the same witnesses.
    Otherwise the check runs on the lifted scalars from the start.
    """

    def __init__(self, *groups: Iterable[CycScalar]):
        consts = [c for g in groups for c in g if c]
        super().__init__(consts)
        self.n = len(consts)
        self.cap = self.n + 1
        # the memos reach the table through a weak proxy, so the table is freed
        # as soon as its check lets go of it, not at a later cycle collection
        self._me = weakref.proxy(self)
        self._drop()
        if self.M <= conductor_cap():
            self.number(CycScalar.zero(self.M))
            for c in consts:
                if (c.L, c.den, c.nums) not in self.raw:
                    self.raw[c.L, c.den, c.nums] = self.number(c.promote(self.M))
                    if (len(self.values) - 1) ** 2 > self.n:
                        self._drop()
                        return
            self.numbered = True
            self.one = self.number(CycScalar.one(self.M))
            me = self._me
            self.scaled = _Lazy(lambda ax: me.cell((k, me.mul[ax[0]][v]) for k, v in me.cells[ax[1]]))
            self.sums = _Lazy(lambda xy: me._sum_cells(xy))

    def _drop(self) -> None:
        """Go over to the lifted scalars: drop every value, memo and cell."""
        self.numbered = False
        self.values: list[CycScalar] = []
        self.ids: dict[tuple, int] = {}  # (den, nums) of a value at M -> its id
        self.raw: dict[tuple, int] = {}  # (L, den, nums) of a constant read -> its id
        self.mul: list[_Lazy] = []
        self.add: list[_Lazy] = []
        self.cells: list[tuple] = [()]
        self.cell_ids: dict[tuple, int] = {(): 0}
        self.held = 0  # (index, id) pairs in all cells
        self.scaled, self.sums = {}, {}

    # -- numbering ----------------------------------------------------------

    def number(self, v: CycScalar) -> int:
        """The id of v, a value at M."""
        key = (v.den, v.nums)
        i = self.ids.get(key)
        if i is None:
            i = len(self.values)
            if i > self.cap:
                raise _Full
            self.ids[key] = i
            self.values.append(v)
            me = self._me
            self.mul.append(_Lazy(lambda b, a=i: me._form(operator.mul, me.mul, a, b)))
            self.add.append(_Lazy(lambda b, a=i: me._form(operator.add, me.add, a, b)))
        return i

    def _form(self, op, memo: list, a: int, b: int) -> int:
        """The id of op(values[a], values[b]), read off memo[b] when it holds it."""
        hit = memo[b].get(a)
        return self.number(op(self.values[a], self.values[b])) if hit is None else hit

    def _axpy(self, acc: dict, c: int, terms: Iterable) -> None:
        """sv_axpy on ids: acc += c * w over the (key, w) terms, zeros dropped."""
        mc, add = self.mul[c], self.add
        for key, w in terms:
            cur = acc.get(key)
            new = mc[w] if cur is None else add[cur][mc[w]]
            if new:
                acc[key] = new
            elif cur is not None:
                del acc[key]

    def cell(self, terms: Iterable[tuple[int, int]]) -> int:
        """The cell id of a vector given as (index, id) pairs sorted by index."""
        key = tuple(terms)
        i = self.cell_ids.get(key)
        if i is None:
            self.held += len(key)
            if self.held > self.cap:
                raise _Full
            i = self.cell_ids[key] = len(self.cells)
            self.cells.append(key)
        return i

    def add_cells(self, x: int, y: int) -> int:
        """The cell id of the sum of cells x and y."""
        if not x or not y:
            return x or y
        return self.sums[x, y] if x < y else self.sums[y, x]

    def _sum_cells(self, xy: tuple[int, int]) -> int:
        acc = dict(self.cells[xy[0]])
        self._axpy(acc, self.one, self.cells[xy[1]])
        return self.cell(sorted(acc.items()))

    # -- the check's tables -------------------------------------------------

    def lift(self, c: CycScalar):
        """c as the check reads it: its id while numbered, else the lifted scalar."""
        if not self.numbered:
            return super().lift(c)
        key = (c.L, c.den, c.nums)
        i = self.raw.get(key)
        if i is None:
            i = self.raw[key] = self.number(c.promote(self.M))
        return i

    def cell_table(self, A: AlgebraSC) -> list[list[int]]:
        """A's row table as cell ids."""
        return [[self.cell(sorted((k, self.lift(c)) for k, c in cell)) for cell in row]
                for row in A._rows]


def associativity_failures(A: AlgebraSC) -> Iterator[tuple[int, int, int]]:
    """Every (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in lexicographic order."""
    V = _Values(_mult_constants(A))
    if V.numbered:
        yield from _numbered_associativity(A, V)
    else:
        yield from _scalar_associativity(V.K, V.table(A), A.dim)


def _numbered_associativity(A: AlgebraSC, V: _Values) -> Iterator[tuple[int, int, int]]:
    """Associativity a whole (i, j) row at a time, on cell ids.

    The row of (e_i e_j) e_k over all k depends only on the vector e_i e_j:
    it is the sum of the rows a T[m], each scaled once per (m, a), over the
    terms a e_m of that vector, and it is formed once per cell.  The row of
    e_i (e_j e_k) maps row j through the cell -> e_i (cell) memo of i.
    Equal cells are equal vectors, so one list comparison settles a row and
    only a mismatching row is scanned for its k.  When the table fills up,
    the scan goes on from the same row on scalars.
    """
    n = A.dim
    i = j = 0
    try:
        T = V.cell_table(A)
        cells, scaled, add_cells = V.cells, V.scaled, V.add_cells
        scaled_rows = _Lazy(lambda ma: [scaled[ma[1], x] for x in T[ma[0]]])

        def left_row(c: int) -> list[int]:
            row = None
            for m, a in cells[c]:
                scaled_row = scaled_rows[m, a]
                row = scaled_row if row is None else list(map(add_cells, row, scaled_row))
            return row or [0] * n

        left_rows = _Lazy(left_row)
        for i in range(n):
            Ti = T[i]

            def times_i(c: int, Ti=Ti) -> int:
                out = 0
                for m, b in cells[c]:
                    out = add_cells(out, scaled[b, Ti[m]])
                return out

            right_of = _Lazy(times_i).__getitem__
            for j in range(n):
                left = left_rows[Ti[j]]
                right = list(map(right_of, T[j]))
                if left != right:
                    for k in range(n):
                        if left[k] != right[k]:
                            yield i, j, k
    except _Full:
        V._drop()
        yield from _scalar_associativity(V.K, V.table(A), n, i, j)


def _scalar_associativity(K, T: list[list[tuple]], n: int, i0: int = 0,
                          j0: int = 0) -> Iterator[tuple[int, int, int]]:
    """Associativity tuple by tuple on a row table over coordinates, with the
    coordinate kernels K, from row (i0, j0) on.

    (e_i e_j) e_k = sum_m mult[i,j,m] e_m e_k and e_i (e_j e_k) =
    sum_m mult[j,k,m] e_i e_m are contracted straight from the table.  When
    e_i e_j and e_j e_k have at most one term each, the two sides are a
    nonzero scalar times one cell, or 0, and are settled from the cells: both
    empty pass, one empty is a witness, two single terms are compared as
    (index, scalar) pairs.  This relies on no cell holding a zero (AlgebraSC
    drops them), so a nonempty cell times a nonzero scalar is never 0.
    """
    mul, axpy, normal, normalize = K.mul, K.axpy, K.normal, K.normalize
    empty = ((),) * n
    for i in range(i0, n):
        Ti = T[i]
        for j in range(j0 if i == i0 else 0, n):
            ij, Tj = Ti[j], T[j]
            short = len(ij) <= 1
            if short:
                if ij:
                    (m, a), = ij
                    Tm = T[m]
                else:
                    Tm = empty
            for k in range(n):
                jk = Tj[k]
                if short and len(jk) <= 1:
                    left = Tm[k]
                    if jk:
                        (m2, b), = jk
                        right = Ti[m2]
                    else:
                        right = ()
                    if not left or not right:
                        if left or right:
                            yield i, j, k
                        continue
                    if len(left) == 1 and len(right) == 1:
                        (x, c), = left
                        (y, d), = right
                        if x == y and normal(mul(a, c)) == normal(mul(b, d)):
                            continue
                        yield i, j, k
                        continue
                lhs: dict[int, tuple] = {}
                for m, c in ij:
                    axpy(lhs, c, T[m][k])
                rhs: dict[int, tuple] = {}
                for m, c in jk:
                    axpy(rhs, c, Ti[m])
                if normalize(lhs) != normalize(rhs):
                    yield i, j, k


def check_algebra(A: AlgebraSC) -> CheckReport:
    rep = CheckReport("algebra axioms")
    witnesses = list(islice(associativity_failures(A), MAX_WITNESSES))
    rep.add("associativity", not witnesses, witnesses)
    rep.record("two_sided_unit", unit_failures(A))
    return rep


def unit_failures(A: AlgebraSC) -> list[int]:
    """Every i with 1 e_i != e_i or e_i 1 != e_i, in order."""
    u = A.unit_sv()
    out = []
    for i in range(A.dim):
        left: SVec = {}
        right: SVec = {}
        for m, c in u.items():
            sv_axpy(left, c, A._rows[m][i])
            sv_axpy(right, c, A._rows[i][m])
        if left != {i: cone()} or right != {i: cone()}:
            out.append(i)
    return out


def unit_group_like(B: BialgebraSC) -> tuple[bool, bool]:
    """(Delta(1) = 1 (x) 1, eps(1) = 1)."""
    u = B.unit_sv()
    uu: dict[tuple[int, int], CycScalar] = {}
    sv_outer_axpy(uu, cone(), u, u)
    return B.comult_sv(u) == uu, B.counit_sv(u).is_one()


def check_coalgebra(C: CoalgebraSC) -> CheckReport:
    rep = CheckReport("coalgebra axioms")
    L = _Lifted(_comult_constants(C), C.counit)
    n, D, one = C.dim, L.coproducts(C), L.lift(CycScalar.one(L.M))
    axpy, normalize = L.K.axpy, L.K.normalize
    counit = [L.lift(c) if c else None for c in C.counit]
    coassoc = []
    for k in range(n):
        left: dict[tuple[int, int, int], tuple] = {}
        right: dict[tuple[int, int, int], tuple] = {}
        for (a, b), c in D[k]:
            axpy(left, c, (((x, y, b), w) for (x, y), w in D[a]))
            axpy(right, c, (((a, x, y), w) for (x, y), w in D[b]))
        if normalize(left) != normalize(right):
            coassoc.append(k)
    bad_counit = []
    for k in range(n):
        lhs_l: dict[int, tuple] = {}
        lhs_r: dict[int, tuple] = {}
        for (a, b), c in D[k]:
            if counit[a]:
                axpy(lhs_l, counit[a], ((b, c),))
            if counit[b]:
                axpy(lhs_r, counit[b], ((a, c),))
        if normalize(lhs_l) != {k: one} or normalize(lhs_r) != {k: one}:
            bad_counit.append(k)
    rep.record("coassociativity", coassoc)
    rep.record("counit", bad_counit)
    return rep


def check_bialgebra(B: BialgebraSC) -> CheckReport:
    rep = CheckReport("bialgebra axioms")
    rep.merge(check_algebra(B))
    rep.merge(check_coalgebra(B))
    comult, counit = _bialgebra_failures(
        _Values(_mult_constants(B), _comult_constants(B), B.counit), B)
    rep.add("comult_is_algebra_map", not comult, comult)
    rep.add("counit_is_algebra_map", not counit, counit)
    comult_unit, counit_unit = unit_group_like(B)
    rep.add("comult_unit", comult_unit)
    rep.add("counit_unit", counit_unit)
    return rep


def _bialgebra_failures(V: _Values, B: BialgebraSC) -> tuple[list, list]:
    """Every (i, j) where Delta, and where eps, fails to be multiplicative.

    On ids the loops are `_numbered_bialgebra`'s; when its table fills up
    they start again on coordinates.  There each term ca e_a1 (x) e_a2 of
    Delta(e_i) is scaled into its left cells ca e_a1 e_b once per row i, so a
    pair of coproduct terms with nonempty cells forms 2 products per entry.
    """
    if V.numbered:
        try:
            return _numbered_bialgebra(V, B)
        except _Full:
            V._drop()
    K = V.K
    n, mul, add, axpy, normal, normalize = B.dim, K.mul, K.add, K.axpy, K.normal, K.normalize
    T, D = V.table(B), V.coproducts(B)
    counit, zero = [V.lift(c) for c in B.counit], V.lift(CycScalar.zero(V.M))
    comult, bad_counit = [], []
    for i in range(n):
        Ti, ei = T[i], counit[i]
        di = [([tuple((x, mul(ca, cx)) for x, cx in cell) for cell in T[a1]], T[a2])
              for (a1, a2), ca in D[i]]
        for j in range(n):
            lhs: dict[tuple[int, int], tuple] = {}
            eps = zero
            for m, c in Ti[j]:
                axpy(lhs, c, D[m])
                if B.counit[m]:
                    eps = add(eps, mul(counit[m], c))
            rhs: dict[tuple[int, int], tuple] = {}
            for S1, T2 in di:
                for (b1, b2), cb in D[j]:
                    left, right = S1[b1], T2[b2]
                    if left and right:
                        for x, cx in left:
                            axpy(rhs, mul(cx, cb), [((x, y), cy) for y, cy in right])
            if normalize(lhs) != normalize(rhs):
                comult.append((i, j))
            if normal(eps) != normal(mul(ei, counit[j])):
                bad_counit.append((i, j))
    return comult, bad_counit


def _numbered_bialgebra(V: _Values, B: BialgebraSC) -> tuple[list, list]:
    """Both multiplicativity loops on ids, with B (x) B keyed by x n + y.

    Delta(e_i e_j) and eps(e_i e_j) depend only on the cell of e_i e_j, so
    both are formed once per cell.  The terms of Delta(e_i) Delta(e_j) are
    gathered pair by pair, each coefficient read straight from the product
    memo, and summed by one `_axpy` call per (i, j).
    """
    n, mul, add, one, axpy = B.dim, V.mul, V.add, V.one, V._axpy
    C, D = V.cell_table(B), V.coproducts(B)
    cells = V.cells
    # each cell's terms with x n in place of x: Delta(e_i) Delta(e_j) is keyed by x n + y
    shifted = [tuple((x * n, c) for x, c in cell) for cell in cells]
    flat = [tuple((x * n + y, c) for (x, y), c in d) for d in D]
    counit = [V.lift(c) for c in B.counit]

    def of_cell(cell: int) -> tuple[dict, int]:
        delta, eps = {}, 0
        for m, c in cells[cell]:
            axpy(delta, c, flat[m])
            if counit[m]:
                eps = add[eps][mul[counit[m]][c]]
        return delta, eps

    by_cell = _Lazy(of_cell)
    comult, bad_counit = [], []
    for i in range(n):
        Ci, eps_i = C[i], mul[counit[i]]
        di = [(C[a1], C[a2], mul[ca]) for (a1, a2), ca in D[i]]
        for j in range(n):
            dj = D[j]
            terms = [(xn + y, mul[mul[cx][c]][cy])
                     for C1, C2, mca in di
                     for (b1, b2), cb in dj
                     for left in (C1[b1],) if left
                     for right in (C2[b2],) if right
                     for c in (mca[cb],)
                     for xn, cx in shifted[left] for y, cy in cells[right]]
            rhs: dict[int, int] = {}
            axpy(rhs, one, terms)
            delta, eps = by_cell[Ci[j]]
            if delta != rhs:
                comult.append((i, j))
            if eps != eps_i[counit[j]]:
                bad_counit.append((i, j))
    return comult, bad_counit


def _antipode_axiom_entry(rep: CheckReport, B: BialgebraSC, S: Mat) -> None:
    """S(h_1) h_2 = eps(h) 1 = h_1 S(h_2) on every basis vector h, contracted
    from the multiplication rows and the columns of S."""
    L = _Lifted(_mult_constants(B), _comult_constants(B), B.counit, B.unit,
                (a for col in S.cols for a in col.values()))
    n, lift, mul, axpy, normalize = B.dim, L.lift, L.K.mul, L.K.axpy, L.K.normalize
    D = L.coproducts(B)
    T = _Lazy(lambda ij: tuple((k, lift(c)) for k, c in B._rows[ij[0]][ij[1]]))  # cells lifted as read
    scols = [[(s, lift(a)) for s, a in sorted(col.items())] for col in S.cols]
    u = [(i, lift(c)) for i, c in B.unit_sv().items()]
    left, right = [], []
    for k in range(n):
        target: dict[int, tuple] = {}
        axpy(target, lift(B.counit[k]), u)
        target = normalize(target)
        lhs: dict[int, tuple] = {}
        rhs: dict[int, tuple] = {}
        for (i, j), c in D[k]:
            for s, a in scols[i]:
                axpy(lhs, mul(a, c), T[s, j])
            for s, a in scols[j]:
                axpy(rhs, mul(c, a), T[i, s])
        if normalize(lhs) != target:
            left.append(k)
        if normalize(rhs) != target:
            right.append(k)
    rep.record("antipode_left", left)
    rep.record("antipode_right", right)


def check_hopf(H: HopfSC) -> CheckReport:
    rep = CheckReport("Hopf algebra axioms")
    rep.merge(check_bialgebra(H))
    if H.antipode is None:
        rep.add("antipode_present", False, detail="no antipode stored")
        return rep
    rep.add("antipode_present", True)
    _antipode_axiom_entry(rep, H, H.antipode)
    return rep


# -- morphism checks ----------------------------------------------------------
#
# Each check reads the columns f(e_j) of the map once and then visits every
# basis pair (algebra) or basis vector (coalgebra).  Whether f keeps the unit
# is left to the caller; the counit is checked with the comultiplication.


def algebra_map_failures(f: Mat, A: AlgebraSC, B: AlgebraSC) -> Iterator[tuple[int, int]]:
    """Every (i, j) with f(e_i e_j) != f(e_i) f(e_j), in lexicographic order."""
    cols = f.cols
    n = A.dim
    for i in range(n):
        fi, Ai = cols[i], A._rows[i]
        for j in range(n):
            lhs: SVec = {}
            for k, c in Ai[j]:
                sv_axpy(lhs, c, cols[k].items())
            if lhs != B.mul_sv(fi, cols[j]):
                yield i, j


def coalgebra_map_failures(f: Mat, C: CoalgebraSC, D: CoalgebraSC) -> Iterator:
    """For each k in order: k when (f (x) f) Delta_C(e_k) != Delta_D f(e_k),
    then ("counit", k) when eps_D f(e_k) != eps_C(e_k)."""
    cols = f.cols
    for k in range(C.dim):
        lhs: dict[tuple[int, int], CycScalar] = {}
        for (i, j), c in C.comult_basis(k).items():
            fj = cols[j]
            for a, ca in cols[i].items():
                sv_axpy(lhs, c * ca, (((a, b), cb) for b, cb in fj.items()))
        if lhs != D.comult_sv(cols[k]):
            yield k
        if D.counit_sv(cols[k]) != C.counit[k]:
            yield "counit", k


# -- convolution and antipode solving ---------------------------------------


def convolution(f: Mat, g: Mat, C: CoalgebraSC, A: AlgebraSC) -> Mat:
    """Convolution product m_A (f (x) g) Delta_C of maps C -> A."""
    if f.ncols != C.dim or g.ncols != C.dim or f.nrows != A.dim or g.nrows != A.dim:
        raise ShapeMismatch("convolution shape mismatch")
    cols = []
    for k in range(C.dim):
        acc: SVec = {}
        for (i, j), c in C.comult_basis(k).items():
            sv_add_into(acc, A.mul_sv(sv_scale(f.cols[i], c), g.cols[j]))
        cols.append(acc)
    return Mat.of_cols(A.dim, cols)


def unit_counit_map(B: BialgebraSC) -> Mat:
    return Mat.of_cols(B.dim, [sv_scale(B.unit_sv(), e) for e in B.counit])


ANTIPODE_SOLVE_DIM_CAP = 24


def compute_antipode(B: BialgebraSC, dim_cap: int = ANTIPODE_SOLVE_DIM_CAP) -> Optional[Mat]:
    """Solve m(S (x) id)Delta = u eps = m(id (x) S)Delta for the antipode matrix.

    Returns None when the system is inconsistent (no antipode).  The sparse
    solve has dim^2 unknowns and up to that many pivot rows, so it is capped;
    structured constructors carry closed-form antipodes instead.  An antipode
    is unique, so a consistent system has no free unknowns.
    """
    n = B.dim
    if n > dim_cap:
        raise ShapeMismatch(f"antipode solve capped at dim {dim_cap} (got {n})")
    if not check_bialgebra(B).ok:
        raise NotABialgebra("antipode solve needs a verified bialgebra")
    # unknowns x[(p, s)] = S[s][p], flattened as p * n + s; the equations of
    # (k, t) are rows of the system [rows | rhs], left axiom then right axiom
    aug_rows = []
    for k in range(n):
        rows_l: list[SVec] = [{} for _ in range(n)]
        rows_r: list[SVec] = [{} for _ in range(n)]
        for (i, j), c in B.comult_basis(k).items():
            for s in range(n):
                # left axiom: sum_s x[i,s] (e_s e_j)_t; right: sum_s x[j,s] (e_i e_s)_t
                for t, w in B._rows[s][j]:
                    sv_axpy(rows_l[t], c, [(i * n + s, w)])
                for t, w in B._rows[i][s]:
                    sv_axpy(rows_r[t], c, [(j * n + s, w)])
        for t in range(n):
            target = B.counit[k] * B.unit[t]
            for r in (rows_l[t], rows_r[t]):
                if target:
                    r[n * n] = target
                if r:
                    aug_rows.append(r)
    piv = echelon(aug_rows)
    if n * n in piv:
        return None
    # x[p * n + s] = S[s][p] is the rhs of its pivot row, every free unknown 0
    cols: list[SVec] = [{} for _ in range(n)]
    for ps, r in piv.items():
        if n * n in r:
            p, s = divmod(ps, n)
            cols[p][s] = r[n * n]
    return Mat.of_cols(n, cols)


# -- group-likes, characters, hit actions ------------------------------------


def verify_group_like(B: BialgebraSC, c: SVec) -> bool:
    cc: dict[tuple[int, int], CycScalar] = {}
    sv_outer_axpy(cc, cone(), c, c)
    return B.comult_sv(c) == cc and B.counit_sv(c).is_one()


def verify_character(B: BialgebraSC, chi: Vec) -> bool:
    if not char_eval(chi, B.unit_sv()).is_one():
        return False
    for i in range(B.dim):
        xi = chi[i]
        for j in range(B.dim):
            lhs = czero()
            for k, w in B.mul_basis(i, j).items():
                if chi[k]:
                    lhs = lhs + w * chi[k]
            if lhs != xi * chi[j]:
                return False
    return True


def char_eval(chi: Vec, v: SVec) -> CycScalar:
    """chi(v), the functional chi summed over the entries of v."""
    total = czero()
    for k, c in v.items():
        if chi[k]:
            total = total + chi[k] * c
    return total


def char_convolve(B: CoalgebraSC, chi: Vec, eta: Vec) -> Vec:
    out = zeros(B.dim)
    for k in range(B.dim):
        total = czero()
        for (i, j), c in B.comult_basis(k).items():
            if chi[i] and eta[j]:
                total = total + c * chi[i] * eta[j]
        out[k] = total
    return out


def char_powers(B: CoalgebraSC, chi: Vec, n: int) -> list[Vec]:
    """The convolution powers [chi^0, ..., chi^(n-1)], chi^0 the counit, by
    one convolution with chi per step."""
    out = [list(B.counit)]
    for _ in range(n - 1):
        out.append(char_convolve(B, out[-1], chi))
    return out[:n]


def char_convpow(B: CoalgebraSC, chi: Vec, n: int) -> Vec:
    return char_powers(B, chi, n + 1)[n]


def _hit_map(B: CoalgebraSC, chi: Vec, leg: int) -> Mat:
    """h -> sum chi(h_1) h_2 (leg 0) or h -> sum h_1 chi(h_2) (leg 1) as a matrix."""
    cols = []
    for k in range(B.dim):
        acc: SVec = {}
        for ij, c in B.comult_basis(k).items():
            if chi[ij[leg]]:
                sv_add_into(acc, {ij[1 - leg]: c * chi[ij[leg]]})
        cols.append(acc)
    return Mat.of_cols(B.dim, cols)


def phi_map(B: CoalgebraSC, chi: Vec) -> Mat:
    """The hit action h -> sum chi(h_1) h_2 as a matrix."""
    return _hit_map(B, chi, 0)


def psi_map(B: CoalgebraSC, chi: Vec) -> Mat:
    """The dual hit action h -> sum h_1 chi(h_2) as a matrix."""
    return _hit_map(B, chi, 1)


def _map_power(step: Mat, c: int) -> Mat:
    out = Mat.identity(step.nrows)
    for _ in range(c):
        out = step @ out
    return out


def phi_power(B: CoalgebraSC, chi: Vec, c: int) -> Mat:
    return _map_power(phi_map(B, chi), c)


def psi_power(B: CoalgebraSC, chi: Vec, c: int) -> Mat:
    return _map_power(psi_map(B, chi), c)


def ad_action(H: HopfSC, h: SVec, z: SVec) -> SVec:
    """The adjoint action ad_h(z) = sum h_1 z S(h_2), extended linearly in h;
    S(h_2) is read off a column of the antipode, not formed as a product."""
    out: SVec = {}
    for k, ck in h.items():
        for (h1, h2), c in H.comult_basis(k).items():
            sv_add_into(out, H.mul_sv(H.mul_sv({h1: ck * c}, z), H.antipode_col(h2)))
    return out


def ad_equivariant(H: HopfSC, chi: Vec, z: SVec) -> bool:
    """chi(h) z = ad_h(z) for every basis vector h."""
    return all(ad_action(H, {h: cone()}, z) == sv_scale(z, chi[h]) for h in range(H.dim))


def is_central(A: AlgebraSC, z: SVec) -> bool:
    """z e_h = e_h z for every basis vector e_h."""
    return all(A.mul_sv(z, {h: cone()}) == A.mul_sv({h: cone()}, z) for h in range(A.dim))


def kaplansky_check(H: HopfSC, chi: Vec, z: SVec, n: int) -> tuple[bool, bool]:
    """Evaluate both sides of the ad-equivariance <-> commutation equivalence.

    Returns (ad_condition, commutation_condition) where the first is
    chi^n(h) z = sum h_1 z S(h_2) for all basis h and the second is
    h z = z phi^n(h) for all basis h.  The two must agree.
    """
    ad_ok = ad_equivariant(H, char_convpow(H, chi, n), z)
    phin = phi_power(H, chi, n)
    comm_ok = True
    for h in range(H.dim):
        lhs = H.mul_sv({h: cone()}, z)
        rhs = H.mul_sv(z, phin.cols[h])
        if lhs != rhs:
            comm_ok = False
            break
    return ad_ok, comm_ok


# -- integrals ----------------------------------------------------------------


def verify_ad_integral(H: HopfSC, gamma: Vec) -> bool:
    """The three defining conditions, checked over all basis tuples."""
    if H.antipode is None:
        raise NotABialgebra("ad-invariant integral needs an antipode")
    u = H.unit_sv()
    if not char_eval(gamma, u).is_one():
        return False
    for h in range(H.dim):
        acc: SVec = {}
        for (i, j), c in H.comult_basis(h).items():
            if gamma[j]:
                sv_add_into(acc, {i: c * gamma[j]})
        if acc != sv_scale(u, gamma[h]):
            return False
    for h in range(H.dim):
        eps_h = H.counit[h]
        for x in range(H.dim):
            total = czero()
            for k, w in ad_action(H, {h: cone()}, {x: cone()}).items():
                if gamma[k]:
                    total = total + w * gamma[k]
            if total != eps_h * gamma[x]:
                return False
    return True


def integral(H: BialgebraSC) -> Optional[Vec]:
    """The integral of H*, normalized to lambda(1) = 1, or None when H is not
    cosemisimple.

    One sparse kernel solve of (id (x) lambda)Delta(e_h) = lambda(e_h) 1 over
    every basis h.  On a finite-dimensional Hopf algebra the solutions form a
    line, and H is cosemisimple exactly when they do not vanish at 1
    (Larson-Sweedler); in characteristic 0 that is S^2 = id (Larson-Radford).
    Any other solution space also gives None.  No antipode is read.
    """
    n = H.dim
    unit = H.unit_sv()
    rows: dict[tuple[int, int], SVec] = {}  # (h, i): the e_i coefficient of equation h
    for h in range(n):
        for (i, j), c in H.comult_basis(h).items():
            sv_add_into(rows.setdefault((h, i), {}), {j: c})
        for i, u in unit.items():
            sv_add_into(rows.setdefault((h, i), {}), {h: -u})
    sol = kernel_from_sparse_rows(rows.values(), n)
    if sol.dim != 1:
        return None
    (lam,) = sol.pivot_rows.values()
    at_one = char_eval(H.unit, lam)  # lambda(1)
    if not at_one:
        return None
    inv = cone() / at_one
    gamma = zeros(n)
    for k, c in lam.items():
        gamma[k] = c * inv
    return gamma


# -- primitives, wedge, filtrations ------------------------------------------


def skew_primitives(C: CoalgebraSC, g: SVec, h: SVec,
                    bial: Optional[BialgebraSC] = None) -> Subspace:
    """{c : Delta c = c (x) h + g (x) c} by an exact linear solve.

    g and h must be group-like when a bialgebra is supplied for the check.
    """
    if bial is not None:
        for v in (g, h):
            if not verify_group_like(bial, v):
                raise NotGroupLike("skew primitives need group-like reference vectors")
    n = C.dim
    rows: dict[tuple[int, int], SVec] = {}
    for k in range(n):
        items: dict[tuple[int, int], CycScalar] = dict(C.comult_basis(k))
        # subtract e_k (x) h + g (x) e_k
        delta = {(k, j): cj for j, cj in h.items()}
        for i, ci in g.items():
            delta[(i, k)] = delta.get((i, k), czero()) + ci
        sv_axpy(items, -cone(), delta.items())
        for key, c in items.items():
            rows.setdefault(key, {})[k] = c
    return kernel_from_sparse_rows(rows.values(), n)


def primitives(C: CoalgebraSC, unit: Optional[SVec] = None) -> Subspace:
    """Primitive elements Delta c = c (x) 1 + 1 (x) c."""
    if unit is None:
        if not isinstance(C, AlgebraSC):
            raise ValueError("primitives of a bare coalgebra need the reference unit vector")
        unit = C.unit_sv()
    return skew_primitives(C, unit, unit)


def wedge(C: CoalgebraSC, U: Subspace, W: Subspace) -> Subspace:
    """U wedge W = Delta^{-1}(U (x) C + C (x) W), computed sparsely.

    Membership: reduce the coefficient matrix of Delta(v) column-wise by U,
    then row-wise by W; v is in the wedge iff the residual vanishes.
    """
    n = C.dim
    if U.ambient != n or W.ambient != n:
        raise ShapeMismatch("subspace ambient dimension mismatch")
    u_piv, w_piv = U.pivot_rows, W.pivot_rows
    eq_rows: dict[tuple[int, int], SVec] = {}
    for k in range(n):
        t: dict[tuple[int, int], CycScalar] = dict(C.comult_basis(k))
        # column reduction (first leg) by U; the pivot rows are reduced, so
        # no term this adds has its first leg at a pivot of U
        for (i, j) in [key for key in t if key[0] in u_piv]:
            sv_axpy(t, -t.pop((i, j)), (((i2, j), w) for i2, w in u_piv[i].items() if i2 != i))
        # row reduction (second leg) by W, likewise
        for (i, j) in [key for key in t if key[1] in w_piv]:
            sv_axpy(t, -t.pop((i, j)), (((i, j2), w) for j2, w in w_piv[j].items() if j2 != j))
        for key, c in t.items():
            eq_rows.setdefault(key, {})[k] = c
    return kernel_from_sparse_rows(eq_rows.values(), n)


def filtration_from(C: CoalgebraSC, F0: Subspace) -> tuple[list[Subspace], bool]:
    """Iterate F_{n+1} = wedge(F_n, F0) until stationary.

    Returns the strictly increasing chain of layers and whether it exhausts
    the carrier (for F0 = K 1 this is the connectedness test).  For a
    subcoalgebra F0 each layer contains the one before, so the dimensions
    grow until two layers are equal, at most dim C steps.
    """
    layers = [F0]
    while True:
        nxt = wedge(C, layers[-1], F0)
        if nxt.dim <= layers[-1].dim:
            return layers, layers[-1].dim == C.dim
        layers.append(nxt)


# -- concrete builders --------------------------------------------------------


def group_algebra_cyclic(n: int, conductor: int = 1, generator_label: str = "g") -> HopfSC:
    """The group algebra K C_n with basis 1, g, ..., g^(n-1)."""
    names = ["1"] + [f"{generator_label}{'' if k == 1 else k}" for k in range(1, n)]
    return _cyclic_group_algebra([n], conductor, lambda e: names[e[0]])


def cyclic_character(H: HopfSC, value: CycScalar, generator_index: int = 1) -> Vec:
    """Character of K C_n sending the generator basis vector to the given root."""
    n = H.dim
    chi = zeros(n)
    power = cone()
    chi[0] = cone()
    # basis is 1, g, g^2, ...: the k-th basis vector is g^k
    for k in range(1, n):
        power = power * value
        chi[k] = power
    if not verify_character(H, chi):
        raise ValueError("value does not define a character (needs value^n = 1)")
    return chi


def group_algebra_product_cyclic(orders: list[int], conductor: int = 1) -> HopfSC:
    """Group algebra of a direct product of cyclic groups."""
    return _cyclic_group_algebra(
        orders, conductor, lambda e: "*".join(f"g{i}^{t}" for i, t in enumerate(e)) or "1")


def _cyclic_group_algebra(orders: list[int], conductor: int, label) -> HopfSC:
    """K[C_{orders[0]} x C_{orders[1]} x ...], the basis vector of the element
    e (a tuple of exponents, in lexicographic order) labelled label(e)."""
    elements = list(product(*[range(d) for d in orders]))
    index = {e: a for a, e in enumerate(elements)}
    n = len(elements)
    mult = Tensor3((n, n, n))
    comult = Tensor3((n, n, n))
    for a, ea in enumerate(elements):
        for b, eb in enumerate(elements):
            mult[(a, b, index[tuple((x + y) % d for x, y, d in zip(ea, eb, orders))])] = cone()
        comult[(a, a, a)] = cone()
    S = Mat.of_cols(n, [{index[tuple(-x % d for x, d in zip(e, orders))]: cone()}
                        for e in elements])
    labels = [label(e) for e in elements]
    group_likes = {labels[a]: {a: cone()} for a in range(n)}
    return HopfSC(n, mult, basis_vec(n, 0), comult, [cone()] * n, S, labels=labels,
                  conductor=conductor, group_likes=group_likes)
