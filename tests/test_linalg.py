import ast
import random
from pathlib import Path

import pytest

from hopfforge.cyclotomic import CycScalar, euler_phi
from hopfforge.hopf import group_algebra_cyclic
from hopfforge.linalg import (
    CoordinateMap, Mat, ShapeMismatch, Subspace, Tensor3,
    basis_vec, cone, czero, echelon, image, kernel, kernel_from_sparse_rows, map_tensor_product,
    preimage, rref, solve, sv_axpy, sv_from_dense, sv_scale, sv_to_dense, vec_eq, vec_is_zero,
    zeros,
)


def rat(x):
    return CycScalar.from_rational(x)


def rand_mat(rng, nrows, ncols, L=6):
    phi = euler_phi(L)
    return Mat([[CycScalar(L, [rng.randrange(-3, 4) for _ in range(phi)])
                 for _ in range(ncols)] for _ in range(nrows)])


def test_solve_identity():
    b = [rat(2), rat(-1), rat(5)]
    assert solve(Mat.identity(3), b) == b


def test_solve_inconsistent():
    A = Mat([[rat(1), rat(1)], [rat(1), rat(1)]])
    assert solve(A, [rat(0), rat(1)]) is None


def test_kernel_of_difference_row():
    K = kernel(Mat([[rat(1), rat(-1)]]))
    assert K.dim == 1
    assert K.contains_vec([rat(1), rat(1)])


def test_kernel_of_counit_covector():
    H = group_algebra_cyclic(6)
    K = kernel(Mat([H.counit]))
    assert K.dim == 5  # the augmentation ideal


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        m = rand_mat(rng, 4, 6)
        rows1, p1 = rref([list(r) for r in m.rows])
        rows2, p2 = rref([list(r) for r in rows1])
        assert p1 == p2
        assert all(vec_eq(a, b) for a, b in zip(rows1, rows2))


def test_subspace_dimension_formula():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(2, 21)
        U = Subspace(n, [rand_mat(rng, 1, n).rows[0] for _ in range(rng.randrange(1, 4))])
        W = Subspace(n, [rand_mat(rng, 1, n).rows[0] for _ in range(rng.randrange(1, 4))])
        assert U.sum(W).dim + U.intersect(W).dim == U.dim + W.dim


def test_subspace_trivial_ops():
    V = Subspace(4, [basis_vec(4, 0), basis_vec(4, 2)])
    assert V.intersect(V) == V
    assert V.sum(V) == V
    assert V.contains(V)
    assert preimage(Mat.identity(4), V) == V


def test_preimage_contracts():
    rng = random.Random(13)
    for _ in range(10):
        f = rand_mat(rng, 4, 5)
        W = Subspace(4, [rand_mat(rng, 1, 4).rows[0]])
        pre = preimage(f, W)
        assert preimage(f, image(f)) == Subspace.full(5)
        assert pre.contains(kernel(f))
        for row in pre.rows:
            assert W.contains_vec(f.apply(list(row)))


def test_preimage_wedge_oracle_kc2():
    # direct 4-dimensional solve: preimage of K1 (x) C + C (x) K1 under Delta
    H = group_algebra_cyclic(2)
    dm = Mat.zero(4, 2)
    for (k, i, j), c in H.comult.data.items():
        dm.rows[i * 2 + j][k] = c
    U = Subspace(4, [basis_vec(4, 0), basis_vec(4, 1), basis_vec(4, 2)])
    got = preimage(dm, U)
    assert got == Subspace(2, [basis_vec(2, 0)])


def reference_rref(rows):
    """Dense Gauss-Jordan, independent of linalg.echelon: pivot on the first
    nonzero row of the least column left, then clear that column everywhere."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((rr for rr in range(r, len(rows)) if rows[rr][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c]:
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_kernel(m, n):
    """Echelon rows and pivots of the kernel of the dense rows m over K^n."""
    rows, pivots = reference_rref(m)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = zeros(n)
        v[f] = cone()
        for r, p in zip(rows, pivots):
            v[p] = -r[f]
        basis.append(v)
    return reference_rref(basis)


def test_kernel_from_sparse_rows_matches_dense():
    rng = random.Random(17)
    for trial in range(24):
        nrows, n = rng.randrange(1, 8), rng.randrange(1, 8)
        if trial % 2:   # rank at most k: a product of two thin factors
            k = rng.randrange(1, n + 1)
            m = sparse_mixed_mat(rng, nrows, k + 1, 0.8) @ sparse_mixed_mat(rng, k + 1, n, 0.8)
        else:
            m = sparse_mixed_mat(rng, nrows, n, 0.7)
        sparse_rows = [{j: c for j, c in enumerate(row) if c} for row in m.rows]
        got = kernel_from_sparse_rows(sparse_rows, n)
        ref_rows, ref_pivots = reference_kernel(m.rows, n)
        assert got.pivots == ref_pivots
        assert all(vec_eq(a, b) for a, b in zip(got.rows, ref_rows))
        assert got == kernel(m)
        assert all(vec_is_zero(m.apply(v)) for v in got.rows)


def test_echelon_is_canonical():
    """Shuffled rows, rows scaled by nonzero zeta-multiples and rows with a
    linear combination of them appended all give the same pivot rows."""
    rng = random.Random(19)
    z = CycScalar.zeta(12)
    for trial in range(20):
        nrows, n = rng.randrange(1, 7), rng.randrange(1, 8)
        rows = [sv_from_dense(r) for r in sparse_mixed_mat(rng, nrows, n).rows]
        want = echelon(rows)
        ref_rows, ref_pivots = reference_rref([sv_to_dense(r, n) for r in rows])
        assert sorted(want) == ref_pivots
        assert all(vec_eq(sv_to_dense(want[p], n), r) for p, r in zip(ref_pivots, ref_rows))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert echelon(shuffled) == want
        scales = [rat(rng.choice([1, -2, 3])) * z ** rng.randrange(12) for _ in rows]
        assert echelon([sv_scale(r, c) for r, c in zip(rows, scales)]) == want
        combo: dict = {}
        for r in rows:
            sv_axpy(combo, z ** rng.randrange(12) * rat(rng.randrange(-2, 3)), r.items())
        assert echelon(rows + [combo]) == want
        assert echelon([combo] + rows) == want


def test_coordinate_map_on_non_echelon_bases():
    """Independent bases with zeta entries, not in echelon form, so the
    transform is not the identity."""
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randrange(2, 13)
        m = rng.randrange(1, min(n, 8) + 1)
        while True:
            basis = rand_mat(rng, m, n).rows
            if Subspace(n, basis).dim == m:
                break
        coords = CoordinateMap(basis)
        x = [CycScalar(6, [rng.randrange(-2, 3), rng.randrange(-2, 3)]) for _ in range(m)]
        v = [czero()] * n
        for xk, b in zip(x, basis):
            v = [a + xk * c for a, c in zip(v, b)]
        got = coords(sv_from_dense(v))
        assert got == sv_from_dense(x)
        assert vec_eq(sv_to_dense(got, m), solve(Mat.from_cols(basis), v))
        # off the span: None from the map and from solve, and None from the
        # pair form when a first leg is off the span
        if m < n:
            off = next(e for e in (basis_vec(n, i) for i in range(n))
                       if not Subspace(n, basis).contains_vec(e))
            assert coords(sv_from_dense([a + c for a, c in zip(v, off)])) is None
            assert solve(Mat.from_cols(basis), off) is None
            assert coords.pair({(i, j): cone() for i, a in enumerate(off) if a
                                for j, c in enumerate(basis[0]) if c}) is None
        # pair form: coordinates of b_a (x) b_b are e_(a, b)
        a, b = rng.randrange(m), rng.randrange(m)
        t = {}
        for i, ci in enumerate(basis[a]):
            for j, cj in enumerate(basis[b]):
                if ci * cj:
                    t[(i, j)] = ci * cj
        assert coords.pair(t) == {(a, b): cone()}


def test_coordinate_map_rejects_dependent_basis():
    import pytest
    v = [cone(), CycScalar.zeta(6)]
    with pytest.raises(ValueError):
        CoordinateMap([v, [CycScalar.zeta(6) * c for c in v]])


def test_tensor_contract_unit_axis():
    H = group_algebra_cyclic(2)
    assert H.mult.contract(1, H.unit) == Mat.identity(2)
    H6 = group_algebra_cyclic(6)
    assert H6.comult.contract(2, H6.counit) == Mat.identity(6)


def test_tensor_apply_map():
    t = Tensor3((2, 2, 2), {(0, 1, 1): rat(3)})
    m = Mat([[rat(0), rat(1)], [rat(1), rat(0)]])  # swap
    out = t.apply_map(2, m)
    assert out[(0, 0, 1)] == rat(3)
    assert out[(0, 1, 1)] == rat(0)


def test_map_tensor_product_kronecker_contract():
    rng = random.Random(23)
    f = rand_mat(rng, 2, 3)
    g = rand_mat(rng, 3, 2)
    fg = map_tensor_product(f, g)
    assert map_tensor_product(Mat.identity(3), Mat.identity(4)) == Mat.identity(12)
    for i in range(3):
        for j in range(2):
            e = zeros(6)
            e[i * 2 + j] = cone()
            got = fg.apply(e)
            fi, gj = f.apply(basis_vec(3, i)), g.apply(basis_vec(2, j))
            expect = [fi[a] * gj[b] for a in range(2) for b in range(3)]
            assert vec_eq(got, expect)


def test_mat_inverse():
    rng = random.Random(29)
    for _ in range(5):
        while True:
            m = rand_mat(rng, 4, 4)
            if m.rank() == 4:
                break
        assert m @ m.inverse() == Mat.identity(4)


def reference_matmul(A, B):
    """Dense triple loop: (AB)[i][j] = sum_k A[i][k] B[k][j], every k visited."""
    out = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            total = CycScalar.zero()
            for k in range(A.ncols):
                total = total + A.rows[i][k] * B.rows[k][j]
            row.append(total)
        out.append(row)
    return out


def sparse_mixed_mat(rng, nrows, ncols, density=0.4):
    """Mostly zero, entries at conductors 1, 4, 6 and 12, with one all-zero
    row and one all-zero column when the shape allows."""
    def entry():
        L = rng.choice([1, 1, 4, 6, 12])
        return CycScalar(L, [rng.randrange(-2, 3) for _ in range(euler_phi(L))], rng.choice([1, 2, 3]))
    rows = [[entry() if rng.random() < density else czero() for _ in range(ncols)] for _ in range(nrows)]
    if nrows and ncols:
        zr, zc = rng.randrange(nrows), rng.randrange(ncols)
        rows[zr] = [czero()] * ncols
        for r in rows:
            r[zc] = czero()
    return Mat(rows, nrows, ncols)


def test_matmul_matches_dense_reference():
    rng = random.Random(31)
    shapes = [(3, 4, 5), (5, 5, 5), (1, 6, 2), (4, 1, 3), (0, 3, 4), (3, 0, 4), (3, 4, 0)]
    for trial in range(40):
        n, m, p = shapes[trial % len(shapes)]
        A, B = sparse_mixed_mat(rng, n, m), sparse_mixed_mat(rng, m, p)
        C = A @ B
        assert (C.nrows, C.ncols) == (n, p) and len(C.rows) == n
        assert all(len(r) == p for r in C.rows)
        assert C == Mat(reference_matmul(A, B), n, p)
    # cancellation inside a sum leaves a zero entry, and the identity is neutral
    A = Mat([[rat(1), rat(1)]])
    B = Mat([[CycScalar.zeta(6)], [-CycScalar.zeta(6)]])
    assert (A @ B).rows == [[czero()]] and not (A @ B).rows[0][0]
    A = sparse_mixed_mat(rng, 4, 4)
    assert Mat.identity(4) @ A == A and A @ Mat.identity(4) == A


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        Mat.zero(2, 3) @ Mat.zero(2, 3)
    with pytest.raises(ShapeMismatch):
        Mat([], 0, 2) @ Mat.zero(3, 1)


def test_sparse_accumulation_lives_in_the_kernels():
    """The accumulate-and-drop idiom appears only in the three kernels on
    scalars and in their one counterpart on the ids of a check's value table."""
    kernels = {("linalg.py", "sv_axpy"), ("linalg.py", "sv_add_into"),
               ("linalg.py", "Tensor3.add_to"), ("hopf.py", "_Values._axpy")}
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        spans = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if isinstance(child, ast.FunctionDef):
                        spans.append((child.lineno, child.end_lineno, name))
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(text), "")
        for lineno, line in enumerate(text.splitlines(), 1):
            if "cur is None" in line:
                owners = [s for s in spans if s[0] <= lineno <= s[1]]
                found.append((path.name, max(owners)[2] if owners else None))
    assert sorted(found) == sorted(kernels)


def calls_by_function(path):
    """(innermost enclosing function, called name) for every call in a file;
    functions are named with their class, as "Mat.rank"."""
    found = set()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                visit(child, name + ".", name if isinstance(child, ast.FunctionDef) else owner)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                found.add((owner, f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)))
            visit(child, prefix, owner)

    visit(ast.parse(path.read_text()), "", None)
    return found


def test_one_echelon_routine_and_no_private_imports():
    """Every exact solve goes through linalg.echelon: in linalg.py only
    echelon inverts a pivot, rref (its dense wrapper) is called only inside
    linalg.py, and each solver calls echelon or rref.  No module of the
    package imports a _-prefixed name from another, so a second solver
    cannot come back unnoticed."""
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    calls, private_imports = {}, []
    for path in sorted(src.glob("*.py")):
        calls[path.name] = calls_by_function(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("hopfforge")):
                private_imports += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert {f for f, name in calls["linalg.py"] if name == "inverse"} == {"echelon"}
    assert {m for m, c in calls.items() if any(name == "rref" for _, name in c)} == {"linalg.py"}
    solvers = {("linalg.py", f) for f in ("rref", "kernel_from_sparse_rows", "kernel", "solve",
                                         "Mat.rank", "Mat.inverse", "CoordinateMap.__init__")}
    solvers |= {("hopf.py", "compute_antipode"), ("cyclotomic.py", "CycScalar._try_express_at")}
    eliminating = {(m, f) for m, c in calls.items() for f, name in c if name in ("echelon", "rref")}
    assert solvers - eliminating == set()
    assert private_imports == []
