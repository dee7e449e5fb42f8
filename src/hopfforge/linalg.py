"""Exact sparse linear algebra over cyclotomic scalars.

Conventions used by the whole package:

* a linear map f: V -> W is a ``Mat`` of shape (dim W, dim V) acting on
  column vectors, held as its sparse columns, the images f(e_j);
* tensor-product bases are ordered row-major, index(i, j) = i * dim2 + j;
* subspaces are stored as the sparse pivot rows {pivot column: row} of
  their reduced row-echelon basis, which makes subspace equality the
  equality of those pivot-row dicts;
* "express v in this basis" is one ``CoordinateMap``, built once per basis.

An element of an algebra or coalgebra is a sparse vector (``SVec``), a dict
index -> nonzero CycScalar, from where it is formed to where it is used.  A
functional (a character, a counit, an integral) is a dense list indexed by
basis (``Vec``), and so is a structure's stored unit.  ``sv_from_dense`` and
``sv_to_dense`` convert only at those boundaries.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence

from .cyclotomic import CycScalar

Vec = list
SVec = dict


class ShapeMismatch(ValueError):
    pass


_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


def czero() -> CycScalar:
    return _ZERO


def cone() -> CycScalar:
    return _ONE


def zeros(n: int) -> Vec:
    return [_ZERO] * n


def basis_vec(n: int, i: int) -> Vec:
    v = [_ZERO] * n
    v[i] = _ONE
    return v


# -- sparse vectors ----------------------------------------------------------


def sv_from_dense(v: Vec) -> SVec:
    if isinstance(v, dict):
        raise TypeError("sv_from_dense takes a dense vector, not a sparse one")
    return {i: c for i, c in enumerate(v) if c}


def sv_to_dense(sv: SVec, n: int) -> Vec:
    if not isinstance(sv, dict):
        raise TypeError("sv_to_dense takes a sparse vector, not a dense one")
    out = [_ZERO] * n
    for i, c in sv.items():
        out[i] = c
    return out


def sv_axpy(acc: dict, c: CycScalar, terms: Iterable) -> None:
    """acc += c * w over the (key, w) terms, c != 0; entries that cancel are dropped.

    The one sparse accumulation kernel: vectors keyed by index and tensors
    keyed by index tuples both go through it.  Every term source keeps
    nonzero values only, so c * w on a fresh key is stored untested; a
    caller whose scale c can be 0 tests it first.  Where c or w is the
    shared one `cone()`, the other operand itself is stored: it has the value
    and (L, den, nums) of c * w, and no product is formed, so the conductor
    cap is not read.
    """
    one = c is _ONE
    for key, w in terms:
        cw = w if one else c if w is _ONE else c * w
        cur = acc.get(key)
        if cur is None:
            acc[key] = cw
        else:
            new = cur + cw
            if new:
                acc[key] = new
            else:
                del acc[key]


def sv_outer_axpy(acc: dict, c: CycScalar, a: SVec, b: SVec) -> None:
    """acc += c * (a (x) b), keyed by index pairs (x, y)."""
    if b:
        for x, ca in a.items():
            sv_axpy(acc, c * ca, (((x, y), cb) for y, cb in b.items()))


def sv_add_into(acc: SVec, sv: SVec, scale: Optional[CycScalar] = None) -> None:
    """acc += scale * sv through `sv_axpy`; no scale adds sv, a zero scale adds nothing."""
    if scale is None or scale:
        sv_axpy(acc, _ONE if scale is None else scale, sv.items())


def sv_scale(sv: SVec, c: CycScalar) -> SVec:
    if not c:
        return {}
    return {i: c * v for i, v in sv.items()}


def kron_index(i: int, j: int, n2: int) -> int:
    return i * n2 + j


class Mat:
    """An exact linear map held as its sparse columns: ``cols[j]`` is f(e_j)
    as {row: nonzero entry}.  A column never holds a zero, and only an
    assignment through the ``rows`` views changes one after its ``Mat`` is built."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, rows: Sequence[Sequence[CycScalar]], nrows: Optional[int] = None,
                 ncols: Optional[int] = None):
        rows = [list(r) for r in rows]
        self.nrows = len(rows) if nrows is None else nrows
        self.ncols = len(rows[0]) if (ncols is None and rows) else (ncols or 0)
        self.cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(rows):
            if len(r) != self.ncols:
                raise ShapeMismatch("ragged rows")
            for j, a in enumerate(r):
                if a:
                    self.cols[j][i] = a

    @staticmethod
    def of_cols(nrows: int, cols: list[SVec]) -> "Mat":
        """The map with f(e_j) = cols[j]; the columns must hold no zeros, and
        the Mat keeps them as they are."""
        m = Mat.__new__(Mat)
        m.nrows, m.ncols, m.cols = nrows, len(cols), cols
        return m

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Mat":
        return Mat.of_cols(nrows, [{} for _ in range(ncols)])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.of_cols(n, [{i: _ONE} for i in range(n)])

    @property
    def rows(self) -> list["_RowView"]:
        """Dense views of the rows, read from the columns; an assignment into
        a view writes through to the columns."""
        return [_RowView(self.cols, i) for i in range(self.nrows)]

    def apply_sv(self, sv: SVec) -> SVec:
        out: SVec = {}
        for j, c in sv.items():
            sv_axpy(out, c, self.cols[j].items())
        return out

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ShapeMismatch("matrix product shape mismatch")
        return Mat.of_cols(self.nrows, [self.apply_sv(col) for col in other.cols])

    def _entrywise(self, other: "Mat", op) -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix shapes differ")
        cols = []
        for a, b in zip(self.cols, other.cols):
            col = dict(a)
            for i, c in b.items():
                new = op(col.get(i, _ZERO), c)
                if new:
                    col[i] = new
                else:
                    del col[i]
            cols.append(col)
        return Mat.of_cols(self.nrows, cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub)

    def scale(self, c: CycScalar) -> "Mat":
        return Mat.of_cols(self.nrows, [sv_scale(col, c) for col in self.cols])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.cols == other.cols

    def is_zero(self) -> bool:
        return not any(self.cols)

    def rank(self) -> int:
        return len(echelon(self.cols))

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse needs a square matrix")
        # the echelon of [A^T | I], column j of A keyed with n + j: 1; its
        # right halves are the rows of (A^T)^-1, the columns of A^-1
        n = self.nrows
        piv = echelon({**col, n + j: _ONE} for j, col in enumerate(self.cols))
        if any(p >= n for p in piv):
            raise ValueError("matrix is singular")
        return Mat.of_cols(n, [{j - n: c for j, c in piv[p].items() if j >= n} for p in range(n)])

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


class _RowView:
    """Row i of a Mat's columns as a dense sequence; assigning zero removes the entry."""

    __slots__ = ("cols", "i")

    def __init__(self, cols: list[SVec], i: int):
        self.cols, self.i = cols, i

    def __len__(self):
        return len(self.cols)

    def __iter__(self):
        return (col.get(self.i, _ZERO) for col in self.cols)

    def __getitem__(self, j: int) -> CycScalar:
        return self.cols[j].get(self.i, _ZERO)

    def __setitem__(self, j: int, c: CycScalar) -> None:
        if c:
            self.cols[j][self.i] = c
        else:
            self.cols[j].pop(self.i, None)

    def __eq__(self, other):
        return list(self) == list(other)


def echelon(rows: Iterable[SVec]) -> dict[int, SVec]:
    """The reduced row echelon form of sparse rows, as {pivot column: row}.

    Each incoming row is reduced by the pivot rows found so far, the
    remainder is scaled to 1 at its least column, and that column is cleared
    from the other pivot rows.  The reduced echelon form of a row space is
    unique, so the result does not depend on the order or scale of the rows.
    """
    piv: dict[int, SVec] = {}
    for raw in rows:
        echelon_add(piv, raw)
    return piv


def echelon_add(piv: dict[int, SVec], raw: SVec) -> bool:
    """One step of ``echelon``: add the sparse row raw to the reduced pivot
    rows piv in place, and return whether it added a pivot (False when raw
    lies in their span)."""
    row = dict(raw)
    for p, c in [(p, c) for p, c in row.items() if p in piv]:
        sv_axpy(row, -c, piv[p].items())
    if not row:
        return False
    p = min(row)
    if not row[p].is_one():
        row = sv_scale(row, row[p].inverse())
    for other in piv.values():
        c = other.get(p)
        if c:
            sv_axpy(other, -c, row.items())
    piv[p] = row
    return True


def rref(rows: list[list[CycScalar]]) -> tuple[list[list[CycScalar]], list[int]]:
    """In-place reduced row echelon form of dense rows; returns (rows, pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    piv = echelon(sv_from_dense(r) for r in rows)
    pivots = sorted(piv)
    rows[:] = [sv_to_dense(piv[p], ncols) for p in pivots]
    return rows, pivots


class Subspace:
    """A subspace of K^n held as its reduced row-echelon basis: the sparse
    pivot rows {pivot column: row} of ``echelon``, in pivot order (canonical)."""

    __slots__ = ("ambient", "pivot_rows")

    def __init__(self, ambient: int, rows: Iterable[Vec]):
        sparse = []
        for r in rows:
            if len(r) != ambient:
                raise ShapeMismatch("basis vector has wrong ambient dimension")
            sparse.append(sv_from_dense(r))
        self.ambient = ambient
        self.pivot_rows = dict(sorted(echelon(sparse).items()))

    @staticmethod
    def _of_echelon(ambient: int, piv: dict[int, SVec]) -> "Subspace":
        """The span of the pivot rows that ``echelon`` returned, which are
        already its reduced row-echelon basis."""
        S = Subspace.__new__(Subspace)
        S.ambient, S.pivot_rows = ambient, dict(sorted(piv.items()))
        return S

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace._of_echelon(n, {i: {i: _ONE} for i in range(n)})

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    @property
    def pivots(self) -> list[int]:
        return list(self.pivot_rows)

    def reduce(self, v: SVec) -> SVec:
        """Remainder of the sparse vector v modulo this subspace (empty iff v is a member)."""
        out = dict(v)
        for p, c in [(p, c) for p, c in v.items() if p in self.pivot_rows]:
            sv_axpy(out, -c, self.pivot_rows[p].items())
        return out

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ShapeMismatch("ambient dimensions differ")
        return not any(self.reduce(r) for r in other.pivot_rows.values())

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ShapeMismatch("ambient dimensions differ")
        return Subspace._of_echelon(self.ambient, echelon([*self.pivot_rows.values(),
                                                           *other.pivot_rows.values()]))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.pivot_rows == other.pivot_rows

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _transpose(cols: Iterable[dict]) -> dict:
    """The sparse rows {i: {j: entry}} of the sparse columns cols[j], i any hashable key."""
    rows: dict = {}
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows.setdefault(i, {})[j] = c
    return rows


def solve(A: Mat, b: Vec) -> Optional[Vec]:
    """One exact solution of A x = b, or None when inconsistent."""
    if len(b) != A.nrows:
        raise ShapeMismatch("rhs dimension mismatch")
    n = A.ncols
    piv = echelon(_transpose([*A.cols, sv_from_dense(b)]).values())
    if n in piv:
        return None
    x = zeros(n)
    for p, r in piv.items():
        x[p] = r.get(n, _ZERO)
    return x


class CoordinateMap:
    """Coordinates of sparse vectors of K^n in a fixed list of independent
    sparse vectors of K^n.

    The basis rows B are reduced once, together with the transform T, to
    echelon rows E = T B.  A vector v of the span is sum_k v[p_k] E_k, with
    p_k the pivot of E_k, so its coordinates are sum_k v[p_k] T_k; the
    sparse residual v - sum_k v[p_k] E_k is zero exactly on the span.
    """

    __slots__ = ("rows",)

    def __init__(self, n: int, basis: Sequence[SVec]):
        piv = echelon({**b, n + k: _ONE} for k, b in enumerate(basis))
        if any(p >= n for p in piv):
            raise ValueError("coordinate basis is linearly dependent")
        self.rows = [(p, {j: c for j, c in r.items() if j < n},
                      {j - n: c for j, c in r.items() if j >= n}) for p, r in sorted(piv.items())]

    def __call__(self, v: SVec) -> Optional[SVec]:
        """x with v = sum_k x_k b_k, or None when v is off the span."""
        resid = dict(v)
        x: SVec = {}
        for p, e, t in self.rows:
            c = v.get(p)
            if c:
                sv_axpy(resid, -c, e.items())
                sv_axpy(x, c, t.items())
        return None if resid else x

    def pair(self, t: dict) -> Optional[dict]:
        """An element of V (x) V keyed (i, j) in basis (x) basis, keyed (a, b):
        the first legs are expressed first, then the second; None when t is
        off span (x) span."""
        first_legs: dict[int, SVec] = {}    # keyed by the second-leg index j
        for (i, j), c in t.items():
            first_legs.setdefault(j, {})[i] = c
        second_legs: dict[int, SVec] = {}   # keyed by the first coordinate a
        for j, col in first_legs.items():
            x = self(col)
            if x is None:
                return None
            for a, ca in x.items():
                second_legs.setdefault(a, {})[j] = ca
        out: dict = {}
        for a in sorted(second_legs):
            x = self(second_legs[a])
            if x is None:
                return None
            for b, cb in x.items():
                out[(a, b)] = cb
        return out


def kernel(A: Mat) -> Subspace:
    return kernel_of_images(A.cols)


def image(A: Mat) -> Subspace:
    return Subspace._of_echelon(A.nrows, echelon(A.cols))


def preimage(f: Mat, W: Subspace) -> Subspace:
    """{v : f(v) in W}, the exact pullback of W along f: the kernel of the
    residuals of f's columns modulo W."""
    if f.nrows != W.ambient:
        raise ShapeMismatch("codomain does not match subspace ambient")
    return kernel_of_images([W.reduce(col) for col in f.cols])


def kernel_of_images(images: Sequence[dict]) -> Subspace:
    """The kernel of e_j -> images[j] on K^n, n = len(images), each image keyed by
    any hashable basis key: one equation row per key, solved by ``kernel_from_sparse_rows``."""
    return kernel_from_sparse_rows(_transpose(images).values(), len(images))


def kernel_from_sparse_rows(rows: Iterable[SVec], n: int) -> Subspace:
    """Kernel of a (possibly huge) stack of sparse equation rows over K^n.

    ``echelon`` keeps at most n pivot rows, so the cost tracks the nonzero
    structure instead of the row count.
    """
    return _kernel_of_echelon(echelon(rows), n)


def _kernel_of_echelon(piv: dict[int, SVec], n: int) -> Subspace:
    """The kernel read off reduced pivot rows over K^n: each free column f
    gives e_f - sum_p r_p[f] e_p."""
    free = ({**{p: -r[f] for p, r in sorted(piv.items()) if f in r}, f: _ONE}
            for f in range(n) if f not in piv)
    return Subspace._of_echelon(n, echelon(free))


class Tensor3:
    """Sparse order-3 tensor over cyclotomic scalars.

    The package stores multiplication tensors as (i, j, k) with
    e_i * e_j = sum_k t[i,j,k] e_k, comultiplications as (k, i, j) with
    Delta(e_k) = sum t[k,i,j] e_i (x) e_j, actions as (h, i, j), coactions
    as (i, h, j) and cocycles as (i, j, h).
    """

    __slots__ = ("shape", "data")

    def __init__(self, shape: tuple[int, int, int], entries=None):
        self.shape = shape
        self.data: dict[tuple[int, int, int], CycScalar] = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for key, c in items:
                self[key] = c

    def __setitem__(self, key: tuple[int, int, int], c: CycScalar) -> None:
        i, j, k = key
        n1, n2, n3 = self.shape
        if not (0 <= i < n1 and 0 <= j < n2 and 0 <= k < n3):
            raise ShapeMismatch(f"index {key} out of range for shape {self.shape}")
        if c:
            self.data[key] = c
        else:
            self.data.pop(key, None)

    def __getitem__(self, key: tuple[int, int, int]) -> CycScalar:
        return self.data.get(key, _ZERO)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if set(self.data) != set(other.data):
            return False
        return all(self.data[k] == other.data[k] for k in self.data)

    def contract(self, axis: int, v: Vec) -> Mat:
        """Contract the given axis (1, 2 or 3) against a vector.

        Result is a matrix over the remaining axes, in order.
        """
        if axis not in (1, 2, 3):
            raise ShapeMismatch("axis must be 1, 2 or 3")
        if len(v) != self.shape[axis - 1]:
            raise ShapeMismatch("vector length does not match axis dimension")
        row_ax, col_ax = [a for a in range(3) if a != axis - 1]
        cols: list[SVec] = [{} for _ in range(self.shape[col_ax])]
        for idx, c in self.data.items():
            w = v[idx[axis - 1]]
            if w:
                sv_axpy(cols[idx[col_ax]], w, ((idx[row_ax], c),))
        return Mat.of_cols(self.shape[row_ax], cols)

    def __repr__(self):
        return f"Tensor3(shape={self.shape}, nnz={len(self.data)})"


def map_tensor_product(f: Mat, g: Mat) -> Mat:
    """f (x) g on Kronecker-ordered bases: (f(x)g)(e_i (x) e_j) = f e_i (x) g e_j."""
    return Mat.of_cols(f.nrows * g.nrows, [{i * g.nrows + j: a * b for i, a in fk.items()
                                            for j, b in gl.items()}
                                           for fk in f.cols for gl in g.cols])
