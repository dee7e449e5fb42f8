import ast
import random
from pathlib import Path

import pytest

from hopfforge.cyclotomic import CycScalar, euler_phi
from hopfforge.hopf import group_algebra_cyclic
from hopfforge.linalg import (
    CoordinateMap, Mat, ShapeMismatch, Subspace,
    basis_vec, cone, czero, echelon, image, kernel, kernel_from_sparse_rows, map_tensor_product,
    preimage, rref, solve, sv_axpy, sv_from_dense, sv_scale, sv_to_dense, zeros,
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


def test_dense_conversions_reject_the_other_form():
    """sv_from_dense of a sparse vector would read its values as a dense
    list, and sv_to_dense of a dense one has no items: both raise."""
    c = CycScalar.zeta(6)
    with pytest.raises(TypeError):
        sv_from_dense({5: c, 7: c})
    with pytest.raises(TypeError):
        sv_to_dense([c, czero()], 2)
    assert sv_to_dense(sv_from_dense([czero(), c]), 2) == [czero(), c]


def test_kernel_of_difference_row():
    K = kernel(Mat([[rat(1), rat(-1)]]))
    assert K.dim == 1
    assert not K.reduce({0: rat(1), 1: rat(1)})


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
        assert rows1 == rows2


def test_subspace_dimension_formula():
    """dim(U + W) + dim(U n W) = dim U + dim W, with U's and W's pivots and
    rows as the dense reference gives them, U n W inside both and U + W
    containing both.  The rows have mixed conductors, and W shares a random
    combination of U's rows, so the intersection is rarely zero."""
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(2, 21)
        u_rows = [rand_mat(rng, 1, n).rows[0] for _ in range(rng.randrange(1, 4))]
        u_rows += sparse_mixed_mat(rng, rng.randrange(1, 4), n, 0.6).rows
        shared = zeros(n)
        for r in u_rows:
            L = rng.choice([1, 4, 6, 12])
            c = CycScalar(L, [rng.randrange(-2, 3) for _ in range(euler_phi(L))])
            shared = [a + c * b for a, b in zip(shared, r)]
        w_rows = [rand_mat(rng, 1, n).rows[0] for _ in range(rng.randrange(0, 3))]
        w_rows += sparse_mixed_mat(rng, rng.randrange(1, 4), n, 0.6).rows + [shared]
        U, W = Subspace(n, u_rows), Subspace(n, w_rows)
        for S, rows in ((U, u_rows), (W, w_rows)):
            ref_rows, ref_pivots = reference_rref(rows)
            assert S.pivots == ref_pivots
            assert [sv_to_dense(r, n) for r in S.pivot_rows.values()] == ref_rows
        meet, join = U.intersect(W), U.sum(W)
        assert join.dim + meet.dim == U.dim + W.dim
        assert not any(U.reduce(r) or W.reduce(r) for r in meet.pivot_rows.values())
        assert join.contains(U) and join.contains(W)


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
        for row in pre.pivot_rows.values():
            assert not W.reduce(f.apply_sv(row))


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
        assert [sv_to_dense(r, n) for r in got.pivot_rows.values()] == ref_rows
        assert got == kernel(m)
        assert not any(m.apply_sv(v) for v in got.pivot_rows.values())


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
        assert [sv_to_dense(want[p], n) for p in ref_pivots] == ref_rows
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
        basis_sv = [sv_from_dense(b) for b in basis]
        coords = CoordinateMap(n, basis_sv)
        x = [CycScalar(6, [rng.randrange(-2, 3), rng.randrange(-2, 3)]) for _ in range(m)]
        v = [czero()] * n
        for xk, b in zip(x, basis):
            v = [a + xk * c for a, c in zip(v, b)]
        got = coords(sv_from_dense(v))
        assert got == sv_from_dense(x)
        assert sv_to_dense(got, m) == solve(Mat.of_cols(n, basis_sv), v)
        # off the span: None from the map and from solve, and None from the
        # pair form when a first leg is off the span
        if m < n:
            off = next(e for e in (basis_vec(n, i) for i in range(n))
                       if Subspace(n, basis).reduce(sv_from_dense(e)))
            assert coords(sv_from_dense([a + c for a, c in zip(v, off)])) is None
            assert solve(Mat.of_cols(n, basis_sv), off) is None
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
    v = {0: cone(), 1: CycScalar.zeta(6)}
    with pytest.raises(ValueError):
        CoordinateMap(2, [v, sv_scale(v, CycScalar.zeta(6))])


def test_tensor_contract_unit_axis():
    H = group_algebra_cyclic(2)
    assert H.mult.contract(1, H.unit) == Mat.identity(2)
    H6 = group_algebra_cyclic(6)
    assert H6.comult.contract(2, H6.counit) == Mat.identity(6)


def test_map_tensor_product_kronecker_contract():
    rng = random.Random(23)
    f = rand_mat(rng, 2, 3)
    g = rand_mat(rng, 3, 2)
    fg = map_tensor_product(f, g)
    assert map_tensor_product(Mat.identity(3), Mat.identity(4)) == Mat.identity(12)
    for i in range(3):
        for j in range(2):
            got = sv_to_dense(fg.cols[i * 2 + j], 6)
            fi, gj = sv_to_dense(f.cols[i], 2), sv_to_dense(g.cols[j], 3)
            assert got == [fi[a] * gj[b] for a in range(2) for b in range(3)]


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


def dense(M):
    """The entries of M read straight from its column store, as dense rows."""
    return [[M.cols[j].get(i, czero()) for j in range(M.ncols)] for i in range(M.nrows)]


def assert_dense(M, rows, nrows, ncols):
    """M has the given shape, stores no zero, and has the given dense entries."""
    assert (M.nrows, M.ncols) == (nrows, ncols) and len(M.cols) == ncols
    assert all(c for col in M.cols for c in col.values())
    assert all(i in range(nrows) for col in M.cols for i in col)
    assert dense(M) == rows and len(rows) == nrows


def check_against_dense(rng, M):
    """Sums, differences, scaling, application, rank, inverse and the row
    views of M against dense arithmetic on its entries."""
    n, m = M.nrows, M.ncols
    ref = dense(M)
    D = sparse_mixed_mat(rng, n, m)
    ref_d = dense(D)
    assert_dense(M + D, [[a + b for a, b in zip(r, s)] for r, s in zip(ref, ref_d)], n, m)
    assert_dense(M - D, [[a - b for a, b in zip(r, s)] for r, s in zip(ref, ref_d)], n, m)
    assert_dense(M - M, [[czero()] * m for _ in range(n)], n, m)
    assert (M - M).is_zero() and (M.is_zero() == (not any(map(any, ref))))
    for c in (CycScalar.zeta(12) * rat(-2), czero()):
        assert_dense(M.scale(c), [[c * a for a in r] for r in ref], n, m)
    v = [CycScalar(4, [rng.randrange(-2, 3), rng.randrange(-2, 3)]) if rng.random() < 0.7 else czero()
         for _ in range(m)]
    want = [sum((a * x for a, x in zip(r, v)), czero()) for r in ref]
    assert M.apply_sv(sv_from_dense(v)) == sv_from_dense(want)
    assert M.rank() == len(reference_rref(ref)[1])
    if n == m and n:
        with pytest.raises(ValueError):   # a draw has a zero row, so it is singular
            M.inverse()
        S = M + Mat.identity(n).scale(rat(3))
        if S.rank() == n == len(reference_rref(dense(S))[1]):
            eye = [[cone() if i == j else czero() for j in range(n)] for i in range(n)]
            Sinv = S.inverse()
            assert_dense(Mat(reference_matmul(S, Sinv), n, n), eye, n, n)
            assert_dense(Mat(reference_matmul(Sinv, S), n, n), eye, n, n)
    # the row views write through to the columns; zero removes the entry
    W = Mat(ref, n, m)
    assert W == M and Mat(W.rows, n, m) == M
    if n and m:
        i, j = rng.randrange(n), rng.randrange(m)
        c = CycScalar.zeta(6) + rat(rng.randrange(1, 4))
        W.rows[i][j] = c
        assert W.cols[j][i] == c and W.rows[i][j] == c
        assert Mat(W.rows, n, m) == W
        W.rows[i][j] = czero()
        assert i not in W.cols[j] and not W.rows[i][j]
        assert Mat(W.rows, n, m) == W


def test_matmul_matches_dense_reference():
    rng = random.Random(31)
    extra = random.Random(37)   # the draws of check_against_dense
    shapes = [(3, 4, 5), (5, 5, 5), (1, 6, 2), (4, 1, 3), (0, 3, 4), (3, 0, 4), (3, 4, 0)]
    for trial in range(40):
        n, m, p = shapes[trial % len(shapes)]
        A, B = sparse_mixed_mat(rng, n, m), sparse_mixed_mat(rng, m, p)
        C = A @ B
        assert (C.nrows, C.ncols) == (n, p) and len(C.rows) == n
        assert all(len(r) == p for r in C.rows)
        assert C == Mat(reference_matmul(A, B), n, p)
        check_against_dense(extra, A)
        check_against_dense(extra, B)
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


def test_witnesses_are_recorded_only_by_the_report():
    """A check builds its witness list and hands it to CheckReport.add (which
    keeps MAX_WITNESSES) or CheckReport.record (which keeps all): no module
    but reports.py flips an entry or appends to it, or spells out the cap."""
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    found = [(path.name, lineno, pattern)
             for path in sorted(src.glob("*.py")) if path.name != "reports.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             for pattern in (".ok = False", ".witnesses.append", "< 8") if pattern in line]
    assert found == []


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
    echelon inverts a pivot, rref (its dense wrapper) is called by no module
    of the package, and each solver calls echelon or rref.  No module of the
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
    assert {m for m, c in calls.items() if any(name == "rref" for _, name in c)} == set()
    solvers = {("linalg.py", f) for f in ("rref", "kernel_from_sparse_rows", "kernel", "solve",
                                         "Mat.rank", "Mat.inverse", "CoordinateMap.__init__")}
    solvers |= {("hopf.py", "compute_antipode"), ("cyclotomic.py", "CycScalar._try_express_at")}
    eliminating = {(m, f) for m, c in calls.items() for f, name in c if name in ("echelon", "rref")}
    assert solvers - eliminating == set()
    assert private_imports == []


def test_dense_conversions_only_at_the_boundaries():
    """An element of an algebra is a sparse vector from where it is formed to
    where it is used, so sv_from_dense and sv_to_dense are called only where
    a dense form enters or leaves: the functions below, and no others."""
    allowed = {
        ("hopf.py", "AlgebraSC.__init__", "sv_from_dense"),    # the stored unit, once
        ("linalg.py", "Subspace.__init__", "sv_from_dense"),   # a span of dense rows
        ("linalg.py", "rref", "sv_from_dense"),                # echelon on dense rows
        ("linalg.py", "rref", "sv_to_dense"),
        ("linalg.py", "solve", "sv_from_dense"),               # a dense right-hand side
        ("analyze.py", "induced_structures", "sv_to_dense"),   # R's stored unit
        ("construct.py", "restrict_datum", "sv_to_dense"),     # the subalgebra's stored unit
    }
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    found = {(path.name, f, name) for path in sorted(src.glob("*.py"))
             for f, name in calls_by_function(path) if name in ("sv_from_dense", "sv_to_dense")}
    assert found == allowed


def test_the_analysis_stage_chain_is_written_once():
    """The analysis stages are chained in analyze.Analysis alone: each stage
    function is called from its Analysis stage (omega_roundtrip from the
    roundtrip of the induced pre-bialgebra that Analysis.roundtrip reads),
    induced_structures and thinness_and_basis also from retraction_tools,
    and from nowhere else, so cli.py calls none of them."""
    chained = {
        "validate_setup": {"Analysis.validation"},
        "induced_structures": {"Analysis.induced", "retraction_tools"},
        "omega_roundtrip": {"InducedPreBialgebra.roundtrip"},
        "thinness_and_basis": {"Analysis.basis", "retraction_tools"},
        "cocycle_analysis": {"Analysis.cocycle"},
        "equivalence_report": {"Analysis.equivalences"},
        "wedge_layer_of_sigma": {"Analysis.A1"},
    }
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    found = {name: set() for name in chained}
    for path in sorted(src.glob("*.py")):
        for f, name in calls_by_function(path):
            if name in found:
                found[name].add((path.name, f))
    assert found == {name: {("analyze.py", f) for f in fs} for name, fs in chained.items()}


def test_map_store_is_written_only_in_linalg():
    """No module but linalg.py assigns into, deletes from or calls a mutating
    dict method on <expr>.rows[...] or <expr>.cols[...], and no module names
    sparse_cols: a Mat's store is decided in linalg.py alone."""
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"

    def into_store(node):
        """Whether node is <expr>.rows[...] or <expr>.cols[...], subscripted any number of times."""
        if not isinstance(node, ast.Subscript):
            return False
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in ("rows", "cols")

    writes = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if "sparse_cols" in text:
            writes.append((path.name, "sparse_cols"))
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(text)):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("pop", "popitem", "setdefault", "update", "clear", "__setitem__"):
                targets = [node.func.value]
            writes += [(path.name, node.lineno) for t in targets
                       for sub in ast.walk(t) if into_store(sub)]
    assert writes == []


def names_used(tree):
    """Every name a module reads, string annotations included."""
    names, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            annotations += [x.annotation for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                            if x is not None and x.annotation is not None]
            annotations += [node.returns] if node.returns is not None else []
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def test_no_unused_imports():
    """No module of the package but __init__.py imports a name it never uses."""
    src = Path(__file__).resolve().parent.parent / "src" / "hopfforge"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.name, name) for name in bound if name not in used]
    assert unused == []
    # a name used only in a string annotation counts as used
    assert "AlgebraSC" in names_used(ast.parse('def f(B: "HopfSC | AlgebraSC"): pass'))
