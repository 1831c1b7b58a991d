import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from rrsmooth import assembly, mesh as m, simplex, tetrahedra, triangles
from rrsmooth.assembly import (
    assemble,
    assemble_preconditioner,
    energy_gradient,
    gradient_matrix,
    preconditioner_topology,
    scatter_index,
    spd_audit,
    write_matrix_market,
)
from rrsmooth.errors import DegenerateElement, DisconnectedMesh, NoFixedVertices
from rrsmooth.generate import (
    CUBE,
    EQUILATERAL,
    SQUARE,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    gen_mesh,
    perturb_mesh,
)
from rrsmooth.optim import cg_solve

from conftest import random_tets, random_triangles


def jittered(kind, n, seed, amplitude=0.2):
    base = gen_mesh(GeneratorSpec(kind, n))
    return perturb_mesh(base, RandomJitter(amplitude=amplitude, seed=seed))


class TestAssemble:
    def test_two_triangle_square_energy(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2], [0, 2, 3]])
        F, _, _ = energy_gradient(m.SimplexMesh(verts, cells))
        assert F == pytest.approx(1.2071067811865475, rel=1e-12)

    def test_equilateral_patch_is_stationary(self):
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(EQUILATERAL, 6)), m.FIX_ALL)
        _, g, _ = energy_gradient(mesh)
        assert np.abs(g[~mesh.fixed_mask()]).max() <= 1e-10

    def test_scatter_equals_matvec(self):
        for mesh in (jittered(SQUARE, 4, seed=1), jittered(CUBE, 3, seed=2)):
            gradient = energy_gradient(mesh)[1].T.ravel()
            gv = gradient_matrix(mesh) @ mesh.vertices.T.ravel()
            rel = np.linalg.norm(gradient - gv) / np.linalg.norm(gv)
            assert rel <= 1e-12

    def test_gradient_equals_per_element_accumulation(self):
        # Oracle: accumulate per-element gradients without any matrix.
        from rrsmooth import tetrahedra

        mesh = jittered(CUBE, 2, seed=3)
        grads = tetrahedra.gradient(tetrahedra.geometry(mesh.vertices[mesh.cells]))
        expected = np.zeros_like(mesh.vertices)
        for cell, g in zip(mesh.cells, grads):
            expected[cell] += g / mesh.n_cells
        np.testing.assert_allclose(
            energy_gradient(mesh)[1],
            expected,
            rtol=1e-12,
            atol=1e-15,
        )

    @pytest.mark.parametrize(
        "kind,n,seed", [(SQUARE, 3, 4), (EQUILATERAL, 3, 5), (CUBE, 2, 6)]
    )
    def test_gradient_matches_finite_differences_of_energy(self, kind, n, seed):
        mesh = jittered(kind, n, seed=seed)
        _, g, _ = energy_gradient(mesh)
        h = 1e-6 * mesh.mean_edge_length()
        free = np.flatnonzero(~mesh.fixed_mask())
        gfd = np.zeros_like(g)
        for v in free:
            for d in range(mesh.dim):
                up = mesh.vertices.copy()
                up[v, d] += h
                dn = mesh.vertices.copy()
                dn[v, d] -= h
                gfd[v, d] = (
                    energy_gradient(mesh.with_vertices(up))[0]
                    - energy_gradient(mesh.with_vertices(dn))[0]
                ) / (2 * h)
        rel = np.linalg.norm(g[free] - gfd[free]) / np.linalg.norm(gfd[free])
        assert rel <= 1e-6

    def test_block_symmetry_structure(self):
        # Each vertex pair is summed once and mirrored: exact, not to roundoff.
        for mesh in (jittered(SQUARE, 3, seed=7), jittered(CUBE, 2, seed=8)):
            A, *B_blocks = assemble(mesh)
            assert (A != A.T).nnz == 0
            for B in B_blocks:
                assert (B != -B.T).nnz == 0
                stored = B.tocoo()
                assert np.all(stored.row != stored.col)

    def test_degenerate_cell_reports_index(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = m.SimplexMesh(verts, cells)
        mesh.vertices[3] = [0.5, 0.5]  # collapses cell 1 onto the diagonal
        with pytest.raises(DegenerateElement) as exc:
            assemble(mesh)
        assert exc.value.cell == 1

    def test_assembly_is_deterministic(self):
        mesh = jittered(CUBE, 2, seed=9)
        (F1, g1, _), (F2, g2, _) = energy_gradient(mesh), energy_gradient(mesh)
        assert F1 == F2
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(assemble(mesh)[0].data, assemble(mesh)[0].data)


@pytest.mark.parametrize("case", ["triangles", "tets", "jittered-cube"])
def test_gradient_is_exact_under_translation(case):
    # q - 1e6 is exact, so both calls see the same coordinate differences;
    # a gradient built from differences alone cannot move.
    if case == "triangles":
        pts = random_triangles(200, seed=21)
        grad = lambda q: triangles.gradient(triangles.geometry(q))
    elif case == "tets":
        pts = random_tets(200, seed=22)
        grad = lambda q: tetrahedra.gradient(tetrahedra.geometry(q))
    else:
        mesh = jittered(CUBE, 3, seed=4)
        pts = mesh.vertices
        grad = lambda v: energy_gradient(mesh.with_vertices(v))[1]
    q = pts + 1e6
    far, near = grad(q), grad(q - 1e6)
    axes = tuple(range(1, near.ndim))
    rel = np.linalg.norm(far - near, axis=axes) / np.linalg.norm(near, axis=axes)
    assert rel.max() <= 1e-12


class TestGradientScatter:
    @pytest.mark.parametrize(
        "mesh",
        [jittered(SQUARE, 6, seed=4, amplitude=0.3),
         perturb_mesh(jittered(CUBE, 3, seed=4), PlantSliver(count=1, eps=0.01))],
        ids=["square", "slivered-cube"],
    )
    def test_bincount_gives_the_bits_of_add_at(self, mesh):
        # Both sum each field entry from zero, in (coordinate, slot, cell) order.
        kernel = m.kernel(mesh.dim)
        grads = kernel.gradient(kernel.geometry(mesh.vertices[mesh.cells]), 1.0 / mesh.n_cells)
        expected = np.zeros_like(mesh.vertices)
        for c in range(mesh.dim):
            for slot in range(mesh.dim + 1):
                np.add.at(expected[:, c], mesh.cells[:, slot], grads[:, slot, c])
        _, got, _ = energy_gradient(mesh)
        assert got.tobytes() == expected.tobytes()
        _, given, _ = energy_gradient(mesh, scatter_index(mesh))
        assert given.tobytes() == expected.tobytes()


class TestOneGeometryPass:
    @pytest.mark.parametrize("kind, n", [(SQUARE, 4), (CUBE, 2)], ids=["square", "cube"])
    @pytest.mark.parametrize(
        "build",
        [energy_gradient, assemble, assemble_preconditioner],
        ids=lambda f: f.__name__,
    )
    def test_one_degeneracy_check_per_call(self, monkeypatch, kind, n, build):
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(kind, n)), m.FIX_ALL)
        calls = []
        check = simplex.check_degenerate

        def counted(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(simplex, "check_degenerate", counted)
        build(mesh)
        assert len(calls) == 1


class TestPreconditioner:
    def test_requires_fixed_vertices(self):
        with pytest.raises(NoFixedVertices):
            assemble_preconditioner(gen_mesh(GeneratorSpec(CUBE, 2)))

    @staticmethod
    def two_parts(kind):
        """A jittered mesh and two copies of it at the same coordinates, fixed
        at their boundaries: two components, each with a fixed vertex."""
        a = jittered(kind, 3, seed=4)
        cells = np.vstack([a.cells, a.cells + a.n_vertices])
        both = m.SimplexMesh(np.vstack([a.vertices] * 2), cells)
        return a, m.classify_boundary(both, m.FIX_ALL)

    @pytest.mark.parametrize("kind", [SQUARE, CUBE])
    def test_every_part_with_a_fixed_vertex_gives_p(self, kind):
        # Each part's rows are its own P: twice the cells halve every weight.
        a, both = self.two_parts(kind)
        one = assemble_preconditioner(m.classify_boundary(a, m.FIX_ALL)).P
        two = assemble_preconditioner(both)
        assert (two.P != 0.5 * sparse.block_diag([one, one], format="csr")).nnz == 0
        assert spd_audit(two).n_components == 2

    def test_disconnected_mesh_rejected(self):
        # A part whose vertices are all free leaves P singular; one of its
        # vertices is named.
        a, both = self.two_parts(CUBE)
        kind = both.constraint_kind.copy()
        kind[a.n_vertices :] = m.FREE
        loose = m.SimplexMesh(both.vertices, both.cells, kind)
        with pytest.raises(DisconnectedMesh, match=f"^vertex {a.n_vertices}'s component"):
            assemble_preconditioner(loose)

    def test_vertex_no_cell_uses_left_out(self):
        # Its gradient row is zero, so it never moves: P leaves it out, as it
        # leaves out the fixed vertices, and is the P of the mesh without it.
        cube = m.classify_boundary(jittered(CUBE, 3, seed=2), m.FIX_ALL)
        verts = np.vstack([cube.vertices, [[0.5, 0.5, 0.5 + 1e-3]]])
        lonely = m.classify_boundary(m.SimplexMesh(verts, cube.cells), m.FIX_ALL)
        assert not lonely.fixed_mask()[-1]
        pre, alone = assemble_preconditioner(lonely), assemble_preconditioner(cube)
        assert pre.active.tolist() == alone.active.tolist()
        assert (pre.P != alone.P).nnz == 0

    def test_a_fixed_vertex_no_cell_uses_fixes_nothing(self):
        cube = gen_mesh(GeneratorSpec(CUBE, 2))
        kind = np.r_[np.full(cube.n_vertices, m.FREE), m.FIXED]
        lonely = m.SimplexMesh(np.vstack([cube.vertices, [[5.0, 5.0, 5.0]]]), cube.cells, kind)
        with pytest.raises(NoFixedVertices):
            assemble_preconditioner(lonely)

    def test_disconnected_mesh_names_a_used_vertex(self):
        # Vertex 0 is used by no cell; the first vertex of the unfixed part is.
        a, both = self.two_parts(CUBE)
        kind = np.r_[m.FREE, both.constraint_kind]
        kind[1 + a.n_vertices :] = m.FREE
        loose = m.SimplexMesh(np.vstack([[[5.0, 5.0, 5.0]], both.vertices]), both.cells + 1, kind)
        with pytest.raises(DisconnectedMesh, match=f"^vertex {1 + a.n_vertices}'s component"):
            assemble_preconditioner(loose)

    def test_audit_on_generated_meshes(self):
        for kind, n in ((SQUARE, 4), (EQUILATERAL, 4), (CUBE, 3)):
            mesh = m.classify_boundary(gen_mesh(GeneratorSpec(kind, n)), m.FIX_ALL)
            pre = assemble_preconditioner(mesh)
            report = spd_audit(pre)
            assert report.symmetry_residual == 0.0
            assert report.weakly_dominant
            assert report.strictly_dominant_rows >= 1
            assert report.n_components == 1

    def test_audit_on_jittered_slivered_cube(self):
        from rrsmooth.generate import PlantSliver

        mesh = jittered(CUBE, 4, seed=10)
        mesh = perturb_mesh(mesh, PlantSliver(count=2, eps=0.05))
        mesh = m.classify_boundary(mesh, m.FIX_ALL)
        report = spd_audit(assemble_preconditioner(mesh))
        assert report.weakly_dominant
        assert report.symmetry_residual == 0.0

    @pytest.mark.parametrize("policy", [m.FIX_ALL, m.SLIDE_PLANAR])
    @pytest.mark.parametrize(
        "mesh",
        [jittered(CUBE, 6, seed=1, amplitude=0.3),
         perturb_mesh(jittered(CUBE, 4, seed=10), PlantSliver(count=2, eps=0.05))],
        ids=["jittered", "slivered"],
    )
    def test_exactly_symmetric(self, mesh, policy):
        # (i, j) and (j, i) read one pair sum. Summed apart, 228 of the 1333
        # stored entries of the jittered fix-all cube differed from their mirror.
        P = assemble_preconditioner(m.classify_boundary(mesh, policy)).P
        assert (P != P.T).nnz == 0

    def test_positive_definite_by_inverse_power_iteration(self):
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(CUBE, 3)), m.FIX_ALL)
        pre = assemble_preconditioner(mesh)
        assert pre.n <= 300
        lu = splu(pre.P.tocsc())
        v = np.ones(pre.n) / np.sqrt(pre.n)
        for _ in range(200):
            v = lu.solve(v)
            v /= np.linalg.norm(v)
        lam_min = float(v @ (pre.P @ v))
        assert lam_min > 0

    def test_strict_dominance_next_to_fixed_vertices(self):
        # Oracle: recompute row sums after deleting fixed columns.
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(CUBE, 2)), m.FIX_ALL)
        pre = assemble_preconditioner(mesh)
        A_full = coo_laplacian(mesh)
        adjacency_to_fixed = np.asarray(
            np.abs(A_full[:, mesh.fixed_mask()]).sum(axis=1)
        ).ravel()
        P = pre.P
        diag = P.diagonal()
        off = np.asarray(np.abs(P).sum(axis=1)).ravel() - np.abs(diag)
        margin = diag - off
        touches = adjacency_to_fixed[pre.active] > 0
        assert np.all(margin[touches] > 1e-12 * np.abs(P.data).max())


def coo_laplacian(mesh):
    """The unreduced P by a COO scatter of every entry of the dense local
    Laplacians."""
    kernel = m.kernel(mesh.dim)
    g = kernel.geometry(mesh.vertices[mesh.cells])
    local = simplex.laplacian(kernel.precond_weights(g), kernel.EDGES)
    local = (g.mu / mesh.n_cells)[:, None, None] * local
    k = mesh.cells.shape[1]
    rows = np.repeat(mesh.cells, k, axis=1).ravel()
    cols = np.tile(mesh.cells, k).ravel()
    nv = mesh.n_vertices
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def coo_preconditioner(mesh):
    """P by the COO scatter, then the active rows and columns."""
    active = np.flatnonzero(~mesh.fixed_mask())
    return coo_laplacian(mesh)[active][:, active]


BUILD_CASES = pytest.mark.parametrize(
    "kind, n, policy",
    [(SQUARE, 6, m.FIX_ALL), (SQUARE, 6, m.SLIDE_PLANAR),
     (CUBE, 3, m.FIX_ALL), (CUBE, 3, m.SLIDE_PLANAR)],
    ids=["square-fix-all", "square-slide-planar", "cube-fix-all", "cube-slide-planar"],
)


class TestFixedPattern:
    @BUILD_CASES
    def test_matches_the_coo_build(self, kind, n, policy):
        # Only the summation order differs: cell order here, scipy's
        # duplicate sum there. Every sum has terms of one sign.
        mesh = m.classify_boundary(jittered(kind, n, seed=7), policy)
        pre = assemble_preconditioner(mesh)
        ref = coo_preconditioner(mesh)
        assert pre.P.has_canonical_format
        np.testing.assert_array_equal(pre.active, np.flatnonzero(~mesh.fixed_mask()))
        assert pre.P.nnz == ref.nnz
        diff = np.abs((pre.P - ref).toarray()).max()
        assert diff <= 1e-15 * np.abs(ref.data).max()

    @BUILD_CASES
    def test_kept_geometry_gives_the_fresh_build(self, kind, n, policy):
        # The diagonals add their terms in the CSR build's order, and in 2D no
        # pair has more than two terms, so 2D keeps the bits of the CSR build,
        # which summed (i, j) apart from (j, i).
        mesh = m.classify_boundary(jittered(kind, n, seed=7), policy)
        _, _, geometry = energy_gradient(mesh)
        topology = preconditioner_topology(mesh)
        kept = assemble_preconditioner(mesh, topology, geometry)
        fresh = assemble_preconditioner(mesh)
        references = [pair_sum_reference(mesh, geometry)]
        if mesh.dim == 2:
            references.append(csr_reference(mesh, geometry))
        for name in ("data", "indices", "indptr"):
            assert getattr(kept.P, name).tobytes() == getattr(fresh.P, name).tobytes()
            for csr in references:
                assert getattr(kept.P, name).dtype == getattr(csr, name).dtype
                assert getattr(kept.P, name).tobytes() == getattr(csr, name).tobytes()

    @pytest.mark.parametrize("policy", [m.FIX_ALL, m.SLIDE_PLANAR])
    @pytest.mark.parametrize("kind", [SQUARE, EQUILATERAL])
    def test_2d_preconditioner_is_a_on_the_free_rows(self, kind, policy):
        # The paper's processing from A to P is the identity for triangles,
        # and both sum by one pair index. Summed in two orders, they differed
        # by up to 3.6e-15 on the jittered square.
        mesh = m.classify_boundary(jittered(kind, 8, seed=1, amplitude=0.3), policy)
        active = np.flatnonzero(~mesh.fixed_mask())
        A = assemble(mesh)[0][active][:, active]
        P = assemble_preconditioner(mesh).P
        assert A.toarray().tobytes() == P.toarray().tobytes()

    @BUILD_CASES
    def test_ell_product_has_the_bits_of_the_csr_product(self, rng, kind, n, policy):
        mesh = m.classify_boundary(jittered(kind, n, seed=7), policy)
        pre = assemble_preconditioner(mesh)
        for _ in range(5):
            x = rng.normal(size=pre.n)
            assert np.array_equal(pre @ x, pre.P @ x)
        b = rng.normal(size=pre.n)
        x, info = cg_solve(pre, b, tol=1e-10)
        ref, ref_info = cg_solve(pre.P, b, tol=1e-10)
        assert info == ref_info
        assert x.tobytes() == ref.tobytes()


def pair_sum_reference(mesh, geometry):
    """P by a loop over every (edge, cell) weight w, in (edge, cell) order:
    -w into the sum of its vertex pair, then w into its tail's and, after
    all tails, its head's diagonal. (i, j) and (j, i) both read the pair's sum."""
    kernel = m.kernel(mesh.dim)
    w = assembly._cell_weights(mesh, geometry.mu) * kernel.precond_weights(geometry)
    tail, head = kernel.EDGES
    i, j, w = mesh.cells[:, tail].T.ravel(), mesh.cells[:, head].T.ravel(), w.ravel()
    sums = {}
    for a, b, x in zip(i.tolist(), j.tolist(), w.tolist()):
        pair = (min(a, b), max(a, b))
        sums[pair] = sums.get(pair, 0.0) - x
    for v, x in [*zip(i.tolist(), w.tolist()), *zip(j.tolist(), w.tolist())]:
        sums[v, v] = sums.get((v, v), 0.0) + x
    active = np.flatnonzero(~mesh.fixed_mask())
    row_of = {v: r for r, v in enumerate(active.tolist())}
    entries = {}
    for (a, b), total in sums.items():
        if a in row_of and b in row_of:
            entries[row_of[a], row_of[b]] = entries[row_of[b], row_of[a]] = total
    keys = sorted(entries)
    n = len(active)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount([r for r, _ in keys], minlength=n), out=indptr[1:])
    indices = np.array([c for _, c in keys], dtype=np.int32)
    data = np.array([entries[k] for k in keys])
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def csr_reference(mesh, geometry):
    """P by the CSR build the ELL layout replaced: np.unique keys of the
    active (row, column) pairs in row-major order, one np.bincount into them."""
    kernel = m.kernel(mesh.dim)
    active = np.flatnonzero(~mesh.fixed_mask())
    n = len(active)
    row_of = np.full(mesh.n_vertices, -1)
    row_of[active] = np.arange(n)
    tail, head = kernel.EDGES
    i, j = row_of[mesh.cells[:, tail].T], row_of[mesh.cells[:, head].T]
    rows = np.concatenate([i, j, i, j]).ravel()
    cols = np.concatenate([j, i, i, j]).ravel()
    w = assembly._cell_weights(mesh, geometry.mu) * kernel.precond_weights(geometry)
    entries = np.concatenate([-w, -w, w, w]).ravel()
    kept = (rows >= 0) & (cols >= 0)
    keys, inverse = np.unique(rows[kept] * n + cols[kept], return_inverse=True)
    data = np.bincount(inverse, weights=entries[kept], minlength=len(keys))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    indices = (keys % n).astype(np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


class TestMatrixMarket:
    def test_dump_format(self, tmp_path):
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(SQUARE, 2)), m.FIX_ALL)
        pre = assemble_preconditioner(mesh)
        path = tmp_path / "p.mtx"
        write_matrix_market(pre.P, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        rows, cols, nnz = map(int, lines[1].split())
        assert rows == cols == pre.n
        assert nnz == len(lines) - 2
        i, j, v = lines[2].split()
        assert int(i) >= 1 and int(j) >= 1
        float(v)

    def test_one_string_has_the_bytes_of_the_per_entry_loop(self, tmp_path):
        def per_entry(mat, path):
            """The writer as it was: one f-string per entry."""
            coo = sparse.coo_matrix(mat)
            with open(path, "w") as fh:
                fh.write("%%MatrixMarket matrix coordinate real general\n")
                fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
                for i, j, v in zip(coo.row, coo.col, coo.data):
                    fh.write(f"{i + 1} {j + 1} {v:.17g}\n")

        values = [-1.5, 5e-324, -2.2250738585072014e-309, 0.1, 1 / 3, -2 / 3, 1e300,
                  -1.7976931348623157e308, 123456789.01234567, -0.0]
        rows = [0, 0, 1, 2, 3, 5, 7, 8, 10, 11]
        cols = [0, 11, 3, 2, 1, 5, 9, 0, 10, 4]
        matrices = {
            "edge-cases": sparse.csr_matrix((values, (rows, cols)), shape=(12, 12)),
            "g_f": gradient_matrix(jittered(CUBE, 2, seed=5)),
            "empty": sparse.csr_matrix((3, 4)),
        }
        for name, mat in matrices.items():
            got, expected = tmp_path / f"{name}.mtx", tmp_path / f"{name}-ref.mtx"
            write_matrix_market(mat, got)
            per_entry(mat, expected)
            assert got.read_bytes() == expected.read_bytes(), name
