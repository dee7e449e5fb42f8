"""Structure-constant algebras, coalgebras, bialgebras and Hopf algebras.

Everything is presented by sparse structure tensors over exact cyclotomic
scalars and checked exhaustively over basis tuples; violations come back
as report entries with witnesses, never as silent errors.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice, product
from math import lcm
from typing import Callable, Iterable, Iterator, Optional

from .cyclotomic import COORDINATE_KERNELS, ConductorOverflow, CycScalar, conductor_cap
from .linalg import (
    Mat, SVec, Subspace, Tensor3, Vec,
    ShapeMismatch, basis_vec, cone, czero, echelon, echelon_add, kernel_from_sparse_rows,
    kernel_of_images, sv_add_into, sv_axpy, sv_from_dense, sv_outer_axpy, sv_scale, zeros,
)
from .reports import MAX_WITNESSES, CheckReport


class NotABialgebra(ValueError):
    pass


class NotGroupLike(ValueError):
    pass


class AxiomViolation(ValueError):
    pass


def row_table(t: Tensor3) -> list[list[tuple]]:
    """t as rows: [i][j] is the tuple of (k, c) with t[i, j, k] = c != 0."""
    n1, n2, _ = t.shape
    rows: list[list[tuple]] = [[()] * n2 for _ in range(n1)]
    for (i, j, k), c in t.data.items():
        if c:
            rows[i][j] += ((k, c),)
    return rows


def by_first_index(t: Tensor3) -> dict[int, dict[tuple[int, int], CycScalar]]:
    """t as {i: {(j, k): t[i, j, k]}} over its stored entries."""
    out: dict[int, dict[tuple[int, int], CycScalar]] = {}
    for (i, j, k), c in t.data.items():
        out.setdefault(i, {})[(j, k)] = c
    return out


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
        self._rows = row_table(mult)

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
        self._by_k = by_first_index(comult)

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
    def adjoint(self) -> Tensor3:
        """`adjoint_action(self)`, formed once per H object: it reads the
        antipode, which must be set before the first read."""
        return adjoint_action(self)

    @cached_property
    def integral_is_ad_invariant(self) -> bool:
        """Whether `verify_ad_integral` accepts `dual_integral`, decided once per H
        object: it reads the antipode, which must be set before the first read."""
        return self.dual_integral is not None and verify_ad_integral(self, self.dual_integral)


# -- axiom checkers ----------------------------------------------------------
#
# The checkers contract the structure tables directly, so every product they
# form is a product of structure constants.  One check lifts every distinct
# constant it reads once (`_Lifted`) to integer coordinates (n_0, ...,
# n_{phi-1}, den) at their lcm conductor M, and its loops run on those through
# the coordinate kernels of M: no promotion, no gcd and no CycScalar.  A
# constant equal to 1 lifts to the kernels' `one`, which their products skip,
# and the two sides of an equation are compared by cross-multiplication.
# check_hopf lifts once for every entry, so M spans the unit and antipode
# too, and passes the lifting down through check_bialgebra to check_algebra
# and check_coalgebra, each of which lifts for itself only when called alone.
#
# Associativity (n^3 tuples) and the multiplicativity of Delta and eps (n^2
# pairs) are decided on a generating set.  The x in A with (xy)z = x(yz) for
# all y, z form a subspace T, closed under products: for a, b in T, ((ab)y)z =
# (a(by))z = a((by)z) = a(b(yz)) = (ab)(yz).  No unit enters, so when the
# right-nested words x_1 (x_2 (... x_k)) over a set X of basis vectors span
# A, A is associative exactly when every tuple (x, j, k) with x in X passes.
# Given associativity, the same argument holds for {x : Delta(xy) =
# Delta(x) Delta(y) for all y}, as Delta((ab)y) = Delta(a) Delta(b) Delta(y)
# = Delta(ab) Delta(y), and for eps, so the pairs (x, j) with x in X decide
# both.  X is `generating_set(A)`, chosen greedily over the basis indices
# ranked by support reach (how much of the basis the powers of e_x reach,
# then how many nonempty cells row x has, then the index), so a rescaled
# basis needs about as few rows as its catalog basis; a reverse pass over
# the picks drops those the later ones make redundant, and is skipped when
# no pick lies in the reach of the picks after it, where it would keep them
# all.  The verdict holds for any X whose words span A, and the greedy
# visits every index, so the order only changes which X is found.
# Each axiom has one loop, over a given set of rows i: the checks run it on
# the rows X (the Delta/eps loop once associativity passes), and on every
# row, in order, when associativity fails or the rows X find a failure.
# That full scan is the one that lists witnesses, so entries and witnesses
# are those of a tuple-by-tuple scan (a failing associativity scan stops at
# its eighth witness), and every basis tuple is decided, by the reduction or
# by the full scan.


def _mult_constants(A: AlgebraSC) -> Iterator[CycScalar]:
    return (c for row in A._rows for cell in row for _, c in cell)


def _comult_constants(C: CoalgebraSC) -> Iterator[CycScalar]:
    return (c for d in C._by_k.values() for c in d.values())


def _counit_constants(C: CoalgebraSC) -> Iterator[CycScalar]:
    return (c for c in C.counit if c)


class _Lifted:
    """The constants one check reads, as coordinates at their lcm conductor M,
    with `K` the coordinate kernels of M.  `lift` promotes each distinct
    constant once, and maps one equal to 1 onto `K.one`, the object that
    `K.mul` skips.  The groups hold no zero (the dense unit and counit are
    passed filtered), so a zero's conductor never counts toward M.
    Constants at more than one conductor, with M past the conductor cap,
    raise ConductorOverflow here, before any kernel or table is formed;
    constants all at one conductor are read there, cap or not.

    One lifting serves every entry of one check of one structure A, so
    `table(A)`, `generators(A)` and `coproducts(A)` are formed on their
    first call and kept: every loop of the check reads the same ones."""

    def __init__(self, *groups: Iterable[CycScalar]):
        conductors = {c.L for g in groups for c in g}
        self.M = lcm(1, *conductors)
        if len(conductors) > 1 and self.M > conductor_cap():
            raise ConductorOverflow(f"lcm conductor {self.M} exceeds cap {conductor_cap()}")
        self.coords: dict[tuple, tuple] = {}  # (L, den, nums) of a constant read -> its coordinates
        self._table: Optional[list[list[tuple]]] = None
        self._generators: Optional[list[int]] = None
        self._coproducts: Optional[list[tuple]] = None

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
            v = self.coords[key] = self.K.one if c.is_one() else c.nums + (c.den,)
        return v

    def table(self, A: AlgebraSC) -> list[list[tuple]]:
        """A's row table over coordinates."""
        if self._table is None:
            self._table = [[tuple((k, self.lift(c)) for k, c in cell) for cell in row]
                           for row in A._rows]
        return self._table

    def generators(self, A: AlgebraSC) -> list[int]:
        """`generating_set(A)`."""
        if self._generators is None:
            self._generators = generating_set(A)
        return self._generators

    def coproducts(self, C: CoalgebraSC) -> list[tuple]:
        """Delta(e_k) as the check reads it, as a tuple of ((i, j), c) for each k."""
        if self._coproducts is None:
            self._coproducts = [tuple((ij, self.lift(c)) for ij, c in C.comult_basis(k).items())
                                for k in range(C.dim)]
        return self._coproducts


def generating_set(A: AlgebraSC) -> list[int]:
    """A greedy generating set X of basis indices, in increasing order.

    The greedy (`_greedy`) visits every basis index once and picks each x
    with e_x outside the span W of the right-nested words x_1 (x_2 (...
    x_k)) over the picks so far.  It visits the indices by support reach:
    those whose powers reach more of the basis first
    (`_support_reach(A, (x,))`), then those with more nonempty cells in
    their row, then by index, read from the supports of A's table alone.
    It then runs once more over the picks in reverse, followed by every
    other index, which drops the picks that the later ones make redundant
    (in an associative A it keeps a subset of them).  That pass is skipped
    when no pick lies in the reach of the picks after it: no word over
    those can hold e_x for an earlier pick x, so the pass would keep every
    pick, reach the first pass's W, and so pick no other index, each of
    which lay in W when the first pass visited it.  Each pick x puts e_x
    itself in W, so every visited index ends in W and the words over X
    span A, for any bilinear product and in any order.
    """
    rows = A._rows
    rank = sorted(range(A.dim),
                  key=lambda x: (-len(_support_reach(A, (x,))), rows[x].count(()), x))
    X = _greedy(A, rank)
    if any(X[k] in _support_reach(A, X[k + 1:]) for k in range(len(X) - 1)):
        X = _greedy(A, X[::-1] + [i for i in rank if i not in X])
    return sorted(X)


def _support_reach(A: AlgebraSC, X: Iterable[int]) -> set[int]:
    """The indices X and those reached from them by repeated left
    multiplication by e_x, x in X, read from the supports of A's cells: it
    holds the support of every word over X."""
    rows = [A._rows[x] for x in X]
    reach = set(X)
    todo = list(reach)
    while todo:
        m = todo.pop()
        for row in rows:
            for k, _ in row[m]:
                if k not in reach:
                    reach.add(k)
                    todo.append(k)
    return reach


def _greedy(A: AlgebraSC, order: Iterable[int]) -> list[int]:
    """The indices x, in the given order, with e_x outside W when they are
    visited.

    W, the span of the words over the picks so far, is kept as reduced
    pivot rows (`echelon_add`) together with the words that added them; each
    pick x adds e_x, and W is closed again under left multiplication by X.
    """
    one = cone()
    W: dict[int, SVec] = {}
    X: list[int] = []
    words: list[SVec] = []  # the words that added a pivot to W; they span W
    done: list[int] = []    # done[w]: X[:done[w]] have multiplied words[w]

    def add(v: SVec) -> None:
        if echelon_add(W, v):
            words.append(v)
            done.append(0)

    for i in order:
        if W.get(i) == {i: one}:  # in reduced echelon form: e_i lies in W
            continue
        X.append(i)
        add({i: one})
        w = 0
        while w < len(words):
            for x in X[done[w]:]:
                add(A.mul_sv({x: one}, words[w]))
            done[w] = len(X)
            w += 1
    return X


def associativity_failures(A: AlgebraSC) -> Iterator[tuple[int, int, int]]:
    """Every (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in lexicographic order."""
    L = _Lifted(_mult_constants(A))
    yield from _scalar_associativity(L.K, L.table(A), A.dim, range(A.dim))


def _scalar_associativity(K, T: list[list[tuple]], n: int,
                          rows: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Every failing tuple (i, j, k) with i in rows, in order, on a row table
    over coordinates, with the coordinate kernels K.

    (e_i e_j) e_k = sum_m mult[i,j,m] e_m e_k and e_i (e_j e_k) =
    sum_m mult[j,k,m] e_i e_m are contracted straight from the table.  When
    e_i e_j and e_j e_k have at most one term each, the two sides are a
    nonzero scalar times one cell, or 0, and are settled from the cells: both
    empty pass, one empty is a witness, two single terms are compared as
    (index, scalar) pairs.  This relies on no cell holding a zero (AlgebraSC
    drops them), so a nonempty cell times a nonzero scalar is never 0.
    """
    mul, axpy, same, equal = K.mul, K.axpy, K.same, K.equal
    empty = ((),) * n
    for i in rows:
        Ti = T[i]
        for j in range(n):
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
                        if x == y and same(mul(a, c), mul(b, d)):
                            continue
                        yield i, j, k
                        continue
                lhs: dict[int, tuple] = {}
                for m, c in ij:
                    axpy(lhs, c, T[m][k])
                rhs: dict[int, tuple] = {}
                for m, c in jk:
                    axpy(rhs, c, Ti[m])
                if not equal(lhs, rhs):
                    yield i, j, k


def check_algebra(A: AlgebraSC, lifted: Optional[_Lifted] = None) -> CheckReport:
    """Associativity, decided on the rows `generating_set(A)` (see above),
    and the two-sided unit, on the `lifted` of the calling check, if any."""
    L = lifted or _Lifted(_mult_constants(A))
    rep = CheckReport("algebra axioms")
    K, T, n = L.K, L.table(A), A.dim
    witnesses = []
    if next(_scalar_associativity(K, T, n, L.generators(A)), None) is not None:
        witnesses = list(islice(_scalar_associativity(K, T, n, range(n)), MAX_WITNESSES))
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


def check_coalgebra(C: CoalgebraSC, lifted: Optional[_Lifted] = None) -> CheckReport:
    rep = CheckReport("coalgebra axioms")
    L = lifted or _Lifted(_comult_constants(C), _counit_constants(C))
    n, D, one = C.dim, L.coproducts(C), L.K.one
    axpy, equal = L.K.axpy, L.K.equal
    counit = [L.lift(c) if c else None for c in C.counit]
    coassoc = []
    for k in range(n):
        left: dict[tuple[int, int, int], tuple] = {}
        right: dict[tuple[int, int, int], tuple] = {}
        for (a, b), c in D[k]:
            axpy(left, c, (((x, y, b), w) for (x, y), w in D[a]))
            axpy(right, c, (((a, x, y), w) for (x, y), w in D[b]))
        if not equal(left, right):
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
        if not equal(lhs_l, {k: one}) or not equal(lhs_r, {k: one}):
            bad_counit.append(k)
    rep.record("coassociativity", coassoc)
    rep.record("counit", bad_counit)
    return rep


def check_bialgebra(B: BialgebraSC, lifted: Optional[_Lifted] = None) -> CheckReport:
    """The algebra and coalgebra axioms and Delta, eps multiplicative, on one
    lifting: check_hopf's `lifted`, else one formed here."""
    rep = CheckReport("bialgebra axioms")
    L = lifted or _Lifted(_mult_constants(B), _comult_constants(B), _counit_constants(B))
    rep.merge(check_algebra(B, L))
    rep.merge(check_coalgebra(B, L))
    comult, counit = [], []
    if not rep.entry("associativity").ok or any(_bialgebra_failures(L, B, L.generators(B))):
        comult, counit = _bialgebra_failures(L, B, range(B.dim))
    rep.add("comult_is_algebra_map", not comult, comult)
    rep.add("counit_is_algebra_map", not counit, counit)
    comult_unit, counit_unit = unit_group_like(B)
    rep.add("comult_unit", comult_unit)
    rep.add("counit_unit", counit_unit)
    return rep


def _bialgebra_failures(L: _Lifted, B: BialgebraSC, rows: Iterable[int]) -> tuple[list, list]:
    """Every (i, j) with i in rows, in order, where Delta, and where eps,
    fails to be multiplicative.

    Each term ca e_a1 (x) e_a2 of Delta(e_i) is scaled into its left cells
    ca e_a1 e_b once per row i, so a pair of coproduct terms with nonempty
    cells forms 2 products per entry.
    """
    K = L.K
    n, mul, add, axpy, same, equal = B.dim, K.mul, K.add, K.axpy, K.same, K.equal
    T, D = L.table(B), L.coproducts(B)
    counit, zero = [L.lift(c) for c in B.counit], L.lift(CycScalar.zero(L.M))
    comult, bad_counit = [], []
    for i in rows:
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
            if not equal(lhs, rhs):
                comult.append((i, j))
            if not same(eps, mul(ei, counit[j])):
                bad_counit.append((i, j))
    return comult, bad_counit


def _antipode_axiom_entry(rep: CheckReport, L: _Lifted, H: HopfSC) -> None:
    """S(h_1) h_2 = eps(h) 1 = h_1 S(h_2) on every basis vector h, contracted
    from L's row table and coproducts and the columns of S."""
    n, lift, mul, axpy, equal = H.dim, L.lift, L.K.mul, L.K.axpy, L.K.equal
    T, D = L.table(H), L.coproducts(H)
    scols = [[(s, lift(a)) for s, a in sorted(col.items())] for col in H.antipode.cols]
    u = [(i, lift(c)) for i, c in H.unit_sv().items()]
    left, right = [], []
    for k in range(n):
        target: dict[int, tuple] = {}
        axpy(target, lift(H.counit[k]), u)
        lhs: dict[int, tuple] = {}
        rhs: dict[int, tuple] = {}
        for (i, j), c in D[k]:
            for s, a in scols[i]:
                axpy(lhs, mul(a, c), T[s][j])
            for s, a in scols[j]:
                axpy(rhs, mul(c, a), T[i][s])
        if not equal(lhs, target):
            left.append(k)
        if not equal(rhs, target):
            right.append(k)
    rep.record("antipode_left", left)
    rep.record("antipode_right", right)


def check_hopf(H: HopfSC) -> CheckReport:
    rep = CheckReport("Hopf algebra axioms")
    S = H.antipode
    read = () if S is None else (H._unit.values(), (a for col in S.cols for a in col.values()))
    L = _Lifted(_mult_constants(H), _comult_constants(H), _counit_constants(H), *read)
    rep.merge(check_bialgebra(H, L))
    if S is None:
        rep.add("antipode_present", False, detail="no antipode stored")
        return rep
    rep.add("antipode_present", True)
    _antipode_axiom_entry(rep, L, H)
    return rep


# -- morphism checks ----------------------------------------------------------
#
# Every map equation of the checks has one of two shapes, with a map g on the
# first factor:
#   bilinear:  f(S(e_x, e_v)) = T(g(e_x), f(e_v)) for every basis pair (x, v),
#   colinear:  (g (x) f) delta_C(e_k) = delta_D(f(e_k)) for every basis index k.
# g = f for algebra maps (characters too, to K) and coalgebra maps; g = id_H,
# with actions S, T and coactions delta_C, delta_D, for H-module and
# H-comodule maps, `yd.check_yd`'s module associativity and coassociativity,
# the ad-invariant integral (H -> K both ways) and `cocycle.is_H_bilinear`.  A
# column that is one entry equal to 1 is a unit column, read as its index p,
# and an empty column is a zero column; id_H is all unit columns.  Where the
# columns at x, v and at every term k of S(e_x, e_v) are unit or zero and the
# images p_k are distinct, f(S(e_x, e_v)) is {p_k: c} as read and is compared
# with T's cell at (p_x, p_v) (or 0) with no product formed; an index k whose
# delta_C terms (i, j) have such columns with distinct images (p_i, p_j) is
# decided the same way, and so is eps_C(e_k) against eps_D(e_{p_k}).  Any
# other pair or index is contracted in the same loop and order, so the
# witnesses and their order are those of the contraction throughout.  Whether
# f keeps the unit is left to the caller.


def _unit_columns(f: Mat) -> tuple[list[tuple], list]:
    """f's columns as tuples of (row, c), and for each column: p_j when it is
    a unit column, -1 when it is zero, else None."""
    cols = [tuple(col.items()) for col in f.cols]
    return cols, [-1 if not col else col[0][0] if len(col) == 1 and col[0][1].is_one() else None
                  for col in cols]


def bilinear_failures(g: Mat, f: Mat, S: list[list[tuple]],
                      T: list[list[tuple]]) -> Iterator[tuple[int, int]]:
    """Every (x, v) with f(S(e_x, e_v)) != T(g(e_x), f(e_v)), x first, then v;
    S and T are row tables, S[x][v] = S(e_x, e_v) as a tuple of (k, c)."""
    cols, p = _unit_columns(f)
    gcols, pg = (cols, p) if g is f else _unit_columns(g)
    for x, Sx in enumerate(S):
        # T(g(e_x), f(e_v)) = sum g(e_x)_a f(e_v)_b T(e_a, e_b), read from T's rows a
        gx, px = [(T[a], ca) for a, ca in gcols[x]], pg[x]
        for v, pv in enumerate(p):
            if px is not None and pv is not None:
                lhs: SVec = {}
                for k, c in Sx[v]:
                    q = p[k]
                    if q is None or q in lhs:
                        break
                    if q >= 0:
                        lhs[q] = c
                else:
                    if lhs != (dict(T[px][pv]) if px >= 0 and pv >= 0 else {}):
                        yield x, v
                    continue
            lhs = {}
            for k, c in Sx[v]:
                sv_axpy(lhs, c, cols[k])
            rhs: SVec = {}
            fv = cols[v]
            for Ta, ca in gx:
                for b, cb in fv:
                    terms = Ta[b]
                    if terms:
                        sv_axpy(rhs, ca * cb, terms)
            if lhs != rhs:
                yield x, v


def colinear_failures(g: Mat, f: Mat, delta_C: Callable[[int], dict],
                      delta_D: Callable[[int], dict], counits: Optional[tuple] = None) -> Iterator:
    """For each k in order: k when (g (x) f) delta_C(e_k) != delta_D(f(e_k)),
    then, where counits = (C, D) is given, ("counit", k) when eps_D f(e_k) !=
    eps_C(e_k); delta_C(k) and delta_D(k) read a basis vector's coproduct or
    coaction as {(i, j): c}."""
    cols, p = _unit_columns(f)
    gcols, pg = (cols, p) if g is f else _unit_columns(g)
    for k, pk in enumerate(p):
        if pk is not None:
            lhs: dict[tuple[int, int], CycScalar] = {}
            for (i, j), c in delta_C(k).items():
                a, b = pg[i], p[j]
                if a is None or b is None or (a, b) in lhs:
                    break
                if a >= 0 and b >= 0:
                    lhs[(a, b)] = c
            else:
                if lhs != (delta_D(pk) if pk >= 0 else {}):
                    yield k
                if counits and (counits[1].counit[pk] if pk >= 0 else czero()) != counits[0].counit[k]:
                    yield "counit", k
                continue
        lhs = {}
        for (i, j), c in delta_C(k).items():
            fj = cols[j]
            for a, ca in gcols[i]:
                sv_axpy(lhs, c * ca, (((a, b), cb) for b, cb in fj))
        rhs: dict[tuple[int, int], CycScalar] = {}
        for a, ca in cols[k]:
            sv_axpy(rhs, ca, delta_D(a).items())
        if lhs != rhs:
            yield k
        if counits and counits[1].counit_sv(f.cols[k]) != counits[0].counit[k]:
            yield "counit", k


def algebra_map_failures(f: Mat, A: AlgebraSC, B: AlgebraSC) -> Iterator[tuple[int, int]]:
    """Every (i, j) with f(e_i e_j) != f(e_i) f(e_j), in lexicographic order."""
    return bilinear_failures(f, f, A._rows, B._rows)


def coalgebra_map_failures(f: Mat, C: CoalgebraSC, D: CoalgebraSC) -> Iterator:
    """For each k in order: k when (f (x) f) Delta_C(e_k) != Delta_D f(e_k),
    then ("counit", k) when eps_D f(e_k) != eps_C(e_k)."""
    return colinear_failures(f, f, C.comult_basis, D.comult_basis, (C, D))


# -- convolution and antipode solving ---------------------------------------


def convolution(f: Mat, g: Mat, C: CoalgebraSC, A: AlgebraSC) -> Mat:
    """Convolution product m_A (f (x) g) Delta_C of maps C -> A (`cocycle.tau_matrix`
    is id * sigma S pi), one `sv_axpy` of a product e_a e_b of A per term of
    Delta_C(e_k), entry of f and entry of g."""
    if f.ncols != C.dim or g.ncols != C.dim or f.nrows != A.dim or g.nrows != A.dim:
        raise ShapeMismatch("convolution shape mismatch")
    cols, one = [], cone()
    for k in range(C.dim):
        acc: SVec = {}
        for (i, j), c in C.comult_basis(k).items():
            for a, ca in f.cols[i].items():
                cf = c if ca is one else c * ca
                for b, cb in g.cols[j].items():
                    sv_axpy(acc, cf * cb, A._rows[a][b])
        cols.append(acc)
    return Mat.of_cols(A.dim, cols)


def unit_counit_map(B: BialgebraSC) -> Mat:
    return Mat.of_cols(B.dim, [sv_scale(B.unit_sv(), e) for e in B.counit])


ANTIPODE_SOLVE_DIM_CAP = 24


def compute_antipode(B: BialgebraSC) -> Optional[Mat]:
    """Solve m(S (x) id)Delta = u eps = m(id (x) S)Delta for the antipode matrix.

    Returns None when the system is inconsistent (no antipode).  The sparse
    solve has dim^2 unknowns and up to that many pivot rows, so it is capped;
    structured constructors carry closed-form antipodes instead.  An antipode
    is unique, so a consistent system has no free unknowns.
    """
    n = B.dim
    if n > ANTIPODE_SOLVE_DIM_CAP:
        raise ShapeMismatch(f"antipode solve capped at dim {ANTIPODE_SOLVE_DIM_CAP} (got {n})")
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
    """chi(1) = 1 and chi is an algebra map from B to K, whose row table is e_0 e_0 = e_0."""
    f = Mat.of_cols(1, [{0: c} if c else {} for c in chi])
    return (char_eval(chi, B.unit_sv()).is_one()
            and next(bilinear_failures(f, f, B._rows, [[((0, cone()),)]]), None) is None)


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


def phi_power(B: CoalgebraSC, chi: Vec, c: int) -> Mat:
    """phi_chi^c = phi_(chi^c), as phi_chi phi_eta = phi_(eta * chi) by coassociativity."""
    return phi_map(B, char_convpow(B, chi, c))


def psi_power(B: CoalgebraSC, chi: Vec, c: int) -> Mat:
    """psi_chi^c = psi_(chi^c), as psi_chi psi_eta = psi_(chi * eta) by coassociativity."""
    return psi_map(B, char_convpow(B, chi, c))


def ad_action(H: HopfSC, h: SVec, z: SVec) -> SVec:
    """The adjoint action ad_h(z) = sum h_1 z S(h_2), extended linearly in h;
    S(h_2) is read off a column of the antipode, not formed as a product."""
    out: SVec = {}
    for k, ck in h.items():
        for (h1, h2), c in H.comult_basis(k).items():
            sv_add_into(out, H.mul_sv(H.mul_sv({h1: ck * c}, z), H.antipode_col(h2)))
    return out


def adjoint_action(H: HopfSC) -> Tensor3:
    """Left adjoint action of H on itself: h . x = sum h_1 x S(h_2)."""
    t = Tensor3((H.dim, H.dim, H.dim))
    for h in range(H.dim):
        for x in range(H.dim):
            for k, w in ad_action(H, {h: cone()}, {x: cone()}).items():
                t[(h, x, k)] = w
    return t


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
    """gamma(1) = 1, and gamma is a YD-module map from (H, ad, Delta) to K: a
    comodule map to K coacting by 1 (x) -, which is the integral condition, and
    a module map to K acting through eps, which is ad-invariance."""
    if H.antipode is None:
        raise NotABialgebra("ad-invariant integral needs an antipode")
    if not char_eval(gamma, H.unit_sv()).is_one():
        return False
    f, id_H = Mat.of_cols(1, [{0: c} if c else {} for c in gamma]), Mat.identity(H.dim)
    K_eps = [[((0, e),)] if e else [()] for e in H.counit]
    one = {(i, 0): c for i, c in H.unit_sv().items()}  # the coaction of K
    return (next(colinear_failures(id_H, f, H.comult_basis, lambda _: one), None) is None
            and next(bilinear_failures(id_H, f, row_table(H.adjoint), K_eps), None) is None)


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
    """{c : Delta c = c (x) h + g (x) c}: the kernel of the images
    e_k -> Delta(e_k) - e_k (x) h - g (x) e_k.

    g and h must be group-like when a bialgebra is supplied for the check.
    """
    if bial is not None:
        for v in (g, h):
            if not verify_group_like(bial, v):
                raise NotGroupLike("skew primitives need group-like reference vectors")
    images = []
    for k in range(C.dim):
        image: dict[tuple[int, int], CycScalar] = dict(C.comult_basis(k))
        # subtract e_k (x) h + g (x) e_k, whose e_k (x) e_k terms may cancel
        delta = {(k, j): cj for j, cj in h.items()}
        sv_axpy(delta, cone(), (((i, k), ci) for i, ci in g.items()))
        sv_axpy(image, -cone(), delta.items())
        images.append(image)
    return kernel_of_images(images)


def primitives(C: CoalgebraSC, unit: Optional[SVec] = None) -> Subspace:
    """Primitive elements Delta c = c (x) 1 + 1 (x) c."""
    if unit is None:
        if not isinstance(C, AlgebraSC):
            raise ValueError("primitives of a bare coalgebra need the reference unit vector")
        unit = C.unit_sv()
    return skew_primitives(C, unit, unit)


def wedge(C: CoalgebraSC, U: Subspace, W: Subspace) -> Subspace:
    """U wedge W = Delta^{-1}(U (x) C + C (x) W), computed sparsely.

    Reduce the coefficient matrix of Delta(e_k) column-wise by U, then
    row-wise by W; the wedge is the kernel of these residuals.
    """
    n = C.dim
    if U.ambient != n or W.ambient != n:
        raise ShapeMismatch("subspace ambient dimension mismatch")
    u_piv, w_piv = U.pivot_rows, W.pivot_rows
    residuals = []
    for k in range(n):
        t: dict[tuple[int, int], CycScalar] = dict(C.comult_basis(k))
        # column reduction (first leg) by U; the pivot rows are reduced, so
        # no term this adds has its first leg at a pivot of U
        for (i, j) in [key for key in t if key[0] in u_piv]:
            sv_axpy(t, -t.pop((i, j)), (((i2, j), w) for i2, w in u_piv[i].items() if i2 != i))
        # row reduction (second leg) by W, likewise
        for (i, j) in [key for key in t if key[1] in w_piv]:
            sv_axpy(t, -t.pop((i, j)), (((i, j2), w) for j2, w in w_piv[j].items() if j2 != j))
        residuals.append(t)
    return kernel_of_images(residuals)


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


def group_algebra_cyclic(n: int, conductor: int = 1) -> HopfSC:
    """The group algebra K C_n with basis 1, g, ..., g^(n-1)."""
    names = ["1"] + [f"g{'' if k == 1 else k}" for k in range(1, n)]
    return _cyclic_group_algebra([n], conductor, lambda e: names[e[0]])


def cyclic_character(H: HopfSC, value: CycScalar) -> Vec:
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
