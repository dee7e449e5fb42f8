import ast
import random
from pathlib import Path

import pytest

from hopfforge.cyclotomic import CycScalar, euler_phi
from hopfforge.hopf import group_algebra_cyclic
from hopfforge.linalg import (
    CoordinateMap, Mat, ShapeMismatch, Subspace, Tensor3,
    basis_vec, cone, czero, image, kernel, kernel_from_sparse_rows, map_tensor_product,
    preimage, rref, solve, sv_from_dense, sv_to_dense, vec_eq, zeros,
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


def test_kernel_from_sparse_rows_matches_dense():
    rng = random.Random(17)
    for _ in range(10):
        m = rand_mat(rng, 6, 5)
        sparse_rows = [{j: c for j, c in enumerate(row) if c} for row in m.rows]
        assert kernel_from_sparse_rows(sparse_rows, 5) == kernel(m)


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


def sparse_mixed_mat(rng, nrows, ncols):
    """Mostly zero, entries at conductors 1, 4, 6 and 12, with one all-zero
    row and one all-zero column when the shape allows."""
    def entry():
        L = rng.choice([1, 1, 4, 6, 12])
        return CycScalar(L, [rng.randrange(-2, 3) for _ in range(euler_phi(L))], rng.choice([1, 2, 3]))
    rows = [[entry() if rng.random() < 0.4 else czero() for _ in range(ncols)] for _ in range(nrows)]
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


def test_one_echelon_routine_and_no_private_imports():
    """rref is called only inside linalg.py, and no module of the package
    imports a _-prefixed name from another, so a second coordinate solver
    cannot come back unnoticed."""
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    rref_callers, private_imports = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name == "rref":
                    rref_callers.append(path.name)
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("hopfforge")):
                private_imports += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert set(rref_callers) == {"linalg.py"}
    assert private_imports == []
