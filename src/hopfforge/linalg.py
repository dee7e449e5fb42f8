"""Exact dense/sparse linear algebra over cyclotomic scalars.

Conventions used by the whole package:

* a linear map f: V -> W is a ``Mat`` of shape (dim W, dim V) acting on
  column vectors;
* tensor-product bases are ordered row-major, index(i, j) = i * dim2 + j;
* subspaces are stored as reduced row-echelon bases, which makes subspace
  equality plain row-matrix equality;
* "express v in this basis" is one ``CoordinateMap``, built once per basis.

Vectors are plain lists of CycScalar; "sparse vectors" are dicts index ->
nonzero CycScalar (used heavily by the structure-constant layer).
"""

from __future__ import annotations

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


def vec_eq(a: Vec, b: Vec) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def vec_is_zero(a: Vec) -> bool:
    return all(x.is_zero() for x in a)


def dot(a: Vec, b: Vec) -> CycScalar:
    if len(a) != len(b):
        raise ShapeMismatch("vector dimensions differ")
    total = _ZERO
    for x, y in zip(a, b):
        if x and y:
            total = total + x * y
    return total


# -- sparse vectors ----------------------------------------------------------


def sv_from_dense(v: Vec) -> SVec:
    return {i: c for i, c in enumerate(v) if c}


def sv_to_dense(sv: SVec, n: int) -> Vec:
    out = [_ZERO] * n
    for i, c in sv.items():
        out[i] = c
    return out


def sv_axpy(acc: dict, c: CycScalar, terms: Iterable) -> None:
    """acc += c * w over the (key, w) terms; entries that cancel are dropped.

    The one sparse accumulation kernel: vectors keyed by index and tensors
    keyed by index tuples both go through it.
    """
    for key, w in terms:
        cur = acc.get(key)
        new = c * w if cur is None else cur + c * w
        if new:
            acc[key] = new
        elif cur is not None:
            del acc[key]


def sv_outer_axpy(acc: dict, c: CycScalar, a: SVec, b: SVec) -> None:
    """acc += c * (a (x) b), keyed by index pairs (x, y)."""
    if b:
        for x, ca in a.items():
            sv_axpy(acc, c * ca, (((x, y), cb) for y, cb in b.items()))


def sv_add_into(acc: SVec, sv: SVec, scale: Optional[CycScalar] = None) -> None:
    if scale is not None:
        sv_axpy(acc, scale, sv.items())
        return
    for i, c in sv.items():
        cur = acc.get(i)
        new = c if cur is None else cur + c
        if new:
            acc[i] = new
        elif cur is not None:
            del acc[i]


def sv_scale(sv: SVec, c: CycScalar) -> SVec:
    if not c:
        return {}
    return {i: c * v for i, v in sv.items()}


def kron_index(i: int, j: int, n2: int) -> int:
    return i * n2 + j


class Mat:
    """Dense exact matrix; also the carrier for every LinearMap."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence[CycScalar]], nrows: Optional[int] = None,
                 ncols: Optional[int] = None):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows) if nrows is None else nrows
        self.ncols = len(self.rows[0]) if (ncols is None and self.rows) else (ncols or 0)
        for r in self.rows:
            if len(r) != self.ncols:
                raise ShapeMismatch("ragged rows")

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Mat":
        return Mat([[_ZERO] * ncols for _ in range(nrows)], nrows, ncols)

    @staticmethod
    def identity(n: int) -> "Mat":
        m = Mat.zero(n, n)
        for i in range(n):
            m.rows[i][i] = _ONE
        return m

    @staticmethod
    def from_cols(cols: Sequence[Vec]) -> "Mat":
        if not cols:
            return Mat([], 0, 0)
        n = len(cols[0])
        return Mat([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def col(self, j: int) -> Vec:
        return [self.rows[i][j] for i in range(self.nrows)]

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise ShapeMismatch(f"map of shape {self.nrows}x{self.ncols} applied to dim {len(v)}")
        return [dot(row, v) for row in self.rows]

    def apply_sv(self, sv: SVec) -> SVec:
        out: SVec = {}
        for j, c in sv.items():
            sv_axpy(out, c, ((i, row[j]) for i, row in enumerate(self.rows) if row[j]))
        return out

    def sparse_cols(self) -> list[SVec]:
        """The images f(e_j) of every basis vector, as sparse vectors."""
        cols: list[SVec] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a:
                    cols[j][i] = a
        return cols

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ShapeMismatch("matrix product shape mismatch")
        orows = [sv_from_dense(r) for r in other.rows]
        out = []
        for ri in self.rows:
            acc: SVec = {}
            for k, a in enumerate(ri):
                if a:
                    sv_axpy(acc, a, orows[k].items())
            out.append(sv_to_dense(acc, other.ncols))
        return Mat(out, self.nrows, other.ncols)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix sum shape mismatch")
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix difference shape mismatch")
        return Mat([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c: CycScalar) -> "Mat":
        return Mat([[c * a for a in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2))

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def rank(self) -> int:
        return len(echelon(sv_from_dense(r) for r in self.rows))

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse needs a square matrix")
        n = self.nrows
        piv = echelon({**sv_from_dense(r), n + i: _ONE} for i, r in enumerate(self.rows))
        if any(p >= n for p in piv):
            raise ValueError("matrix is singular")
        return Mat([sv_to_dense({j - n: c for j, c in piv[p].items() if j >= n}, n)
                    for p in range(n)], n, n)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def echelon(rows: Iterable[SVec]) -> dict[int, SVec]:
    """The reduced row echelon form of sparse rows, as {pivot column: row}.

    Each incoming row is reduced by the pivot rows found so far, the
    remainder is scaled to 1 at its least column, and that column is cleared
    from the other pivot rows.  The reduced echelon form of a row space is
    unique, so the result does not depend on the order or scale of the rows.
    """
    piv: dict[int, SVec] = {}
    for raw in rows:
        row = dict(raw)
        for p, c in [(p, c) for p, c in row.items() if p in piv]:
            sv_axpy(row, -c, piv[p].items())
        if not row:
            continue
        p = min(row)
        if not row[p].is_one():
            row = sv_scale(row, row[p].inverse())
        for other in piv.values():
            c = other.get(p)
            if c:
                sv_axpy(other, -c, row.items())
        piv[p] = row
    return piv


def rref(rows: list[list[CycScalar]]) -> tuple[list[list[CycScalar]], list[int]]:
    """In-place reduced row echelon form of dense rows; returns (rows, pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    piv = echelon(sv_from_dense(r) for r in rows)
    pivots = sorted(piv)
    rows[:] = [sv_to_dense(piv[p], ncols) for p in pivots]
    return rows, pivots


class Subspace:
    """A subspace of K^n held as a reduced row-echelon basis (canonical)."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: Iterable[Vec]):
        work = [list(r) for r in rows]
        for r in work:
            if len(r) != ambient:
                raise ShapeMismatch("basis vector has wrong ambient dimension")
        self.ambient = ambient
        self.rows, self.pivots = rref(work)

    @staticmethod
    def _of_echelon(ambient: int, piv: dict[int, SVec]) -> "Subspace":
        """The span of the pivot rows that ``echelon`` returned, which are
        already its reduced row-echelon basis."""
        S = Subspace.__new__(Subspace)
        S.ambient, S.pivots = ambient, sorted(piv)
        S.rows = [sv_to_dense(piv[p], ambient) for p in S.pivots]
        return S

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, [basis_vec(n, i) for i in range(n)])

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, [])

    @staticmethod
    def span(vectors: Iterable[Vec], ambient: int) -> "Subspace":
        return Subspace(ambient, vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_vec(self, v: Vec) -> Vec:
        """Remainder of v modulo this subspace (zero iff v is a member)."""
        if len(v) != self.ambient:
            raise ShapeMismatch("vector has wrong ambient dimension")
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def contains_vec(self, v: Vec) -> bool:
        return vec_is_zero(self.reduce_vec(v))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ShapeMismatch("ambient dimensions differ")
        return all(self.contains_vec(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ShapeMismatch("ambient dimensions differ")
        return Subspace(self.ambient, [list(r) for r in self.rows] + [list(r) for r in other.rows])

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ShapeMismatch("ambient dimensions differ")
        # Zassenhaus: rref of [U|U ; W|0], rows with zero left half carry the
        # intersection in their right half.
        n = self.ambient
        work = [list(r) + list(r) for r in self.rows]
        work += [list(r) + zeros(n) for r in other.rows]
        rows, _ = rref(work)
        out = [r[n:] for r in rows if vec_is_zero(r[:n])]
        return Subspace(n, out)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        return all(vec_eq(a, b) for a, b in zip(self.rows, other.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def solve(A: Mat, b: Vec) -> Optional[Vec]:
    """One exact solution of A x = b, or None when inconsistent."""
    if len(b) != A.nrows:
        raise ShapeMismatch("rhs dimension mismatch")
    n = A.ncols
    piv = echelon(sv_from_dense(list(r) + [b[i]]) for i, r in enumerate(A.rows))
    if n in piv:
        return None
    x = zeros(n)
    for p, r in piv.items():
        x[p] = r.get(n, _ZERO)
    return x


class CoordinateMap:
    """Coordinates of sparse vectors in a fixed list of independent vectors.

    The basis rows B are reduced once, together with the transform T, to
    echelon rows E = T B.  A vector v of the span is sum_k v[p_k] E_k, with
    p_k the pivot of E_k, so its coordinates are sum_k v[p_k] T_k; the
    sparse residual v - sum_k v[p_k] E_k is zero exactly on the span.
    """

    __slots__ = ("rows",)

    def __init__(self, basis: Sequence[Vec]):
        m = len(basis)
        n = len(basis[0]) if m else 0
        piv = echelon({**sv_from_dense(b), n + k: _ONE} for k, b in enumerate(basis))
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
    return _kernel_of_echelon(echelon(sv_from_dense(r) for r in A.rows), A.ncols)


def image(A: Mat) -> Subspace:
    return Subspace(A.nrows, [A.col(j) for j in range(A.ncols)])


def preimage(f: Mat, W: Subspace) -> Subspace:
    """{v : f(v) in W}, the exact pullback of W along f."""
    if f.nrows != W.ambient:
        raise ShapeMismatch("codomain does not match subspace ambient")
    resid_rows = []
    images = [f.col(j) for j in range(f.ncols)]
    reduced = [W.reduce_vec(v) for v in images]
    for i in range(W.ambient):
        row = [reduced[j][i] for j in range(f.ncols)]
        if not vec_is_zero(row):
            resid_rows.append(row)
    if not resid_rows:
        return Subspace.full(f.ncols)
    return kernel(Mat(resid_rows, len(resid_rows), f.ncols))


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

    def add_to(self, key: tuple[int, int, int], c: CycScalar) -> None:
        if not c:
            return
        cur = self.data.get(key)
        new = c if cur is None else cur + c
        self[key] = new

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
        n1, n2, n3 = self.shape
        dims = {1: n1, 2: n2, 3: n3}
        if axis not in dims:
            raise ShapeMismatch("axis must be 1, 2 or 3")
        if len(v) != dims[axis]:
            raise ShapeMismatch("vector length does not match axis dimension")
        if axis == 1:
            out = Mat.zero(n2, n3)
        elif axis == 2:
            out = Mat.zero(n1, n3)
        else:
            out = Mat.zero(n1, n2)
        for (i, j, k), c in self.data.items():
            if axis == 1:
                w = v[i]
                if w:
                    out.rows[j][k] = out.rows[j][k] + w * c
            elif axis == 2:
                w = v[j]
                if w:
                    out.rows[i][k] = out.rows[i][k] + w * c
            else:
                w = v[k]
                if w:
                    out.rows[i][j] = out.rows[i][j] + w * c
        return out

    def apply_map(self, axis: int, m: Mat) -> "Tensor3":
        """Push the given axis through a linear map (new axis dim = m.nrows)."""
        n1, n2, n3 = self.shape
        dims = [n1, n2, n3]
        if m.ncols != dims[axis - 1]:
            raise ShapeMismatch("map domain does not match axis dimension")
        dims[axis - 1] = m.nrows
        out = Tensor3(tuple(dims))
        for (i, j, k), c in self.data.items():
            idx = (i, j, k)
            a = idx[axis - 1]
            for b in range(m.nrows):
                w = m.rows[b][a]
                if w:
                    new = list(idx)
                    new[axis - 1] = b
                    out.add_to(tuple(new), w * c)
        return out

    def __repr__(self):
        return f"Tensor3(shape={self.shape}, nnz={len(self.data)})"


def map_tensor_product(f: Mat, g: Mat) -> Mat:
    """f (x) g on Kronecker-ordered bases: (f(x)g)(e_i (x) e_j) = f e_i (x) g e_j."""
    out = Mat.zero(f.nrows * g.nrows, f.ncols * g.ncols)
    for i in range(f.nrows):
        fi = f.rows[i]
        for k in range(f.ncols):
            a = fi[k]
            if not a:
                continue
            for j in range(g.nrows):
                gj = g.rows[j]
                for l in range(g.ncols):
                    b = gj[l]
                    if b:
                        out.rows[i * g.nrows + j][k * g.ncols + l] = a * b
    return out
