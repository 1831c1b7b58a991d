import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from rrsmooth import assembly, mesh as m, simplex, tetrahedra, triangles
from rrsmooth.assembly import (
    assemble,
    assemble_preconditioner,
    energy_gradient,
    field_to_vec,
    preconditioner_topology,
    spd_audit,
    vec_to_field,
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
        system = assemble(m.SimplexMesh(verts, cells))
        assert system.F == pytest.approx(1.2071067811865475, rel=1e-12)

    def test_equilateral_patch_is_stationary(self):
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(EQUILATERAL, 6)), m.FIX_ALL)
        system = assemble(mesh)
        g = system.gradient_field()
        assert np.abs(g[mesh.free_mask()]).max() <= 1e-10

    def test_scatter_equals_matvec(self):
        for mesh in (jittered(SQUARE, 4, seed=1), jittered(CUBE, 3, seed=2)):
            system = assemble(mesh)
            gv = system.gradient_matvec()
            rel = np.linalg.norm(system.gradient - gv) / np.linalg.norm(gv)
            assert rel <= 1e-12

    def test_gradient_equals_per_element_accumulation(self):
        # Oracle: accumulate per-element gradients without any matrix.
        from rrsmooth import tetrahedra

        mesh = jittered(CUBE, 2, seed=3)
        _, grads = tetrahedra.radius_ratio_gradient(mesh.cell_points())
        expected = np.zeros_like(mesh.vertices)
        for cell, g in zip(mesh.cells, grads):
            expected[cell] += g / mesh.n_cells
        system = assemble(mesh)
        np.testing.assert_allclose(
            system.gradient_field(), expected, rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize(
        "kind,n,seed", [(SQUARE, 3, 4), (EQUILATERAL, 3, 5), (CUBE, 2, 6)]
    )
    def test_gradient_matches_finite_differences_of_energy(self, kind, n, seed):
        mesh = jittered(kind, n, seed=seed)
        system = assemble(mesh)
        g = system.gradient_field()
        h = 1e-6 * mesh.mean_edge_length()
        free = np.flatnonzero(mesh.free_mask())
        gfd = np.zeros_like(g)
        for v in free:
            for d in range(mesh.dim):
                up = mesh.vertices.copy()
                up[v, d] += h
                dn = mesh.vertices.copy()
                dn[v, d] -= h
                gfd[v, d] = (
                    assemble(mesh.with_vertices(up)).F
                    - assemble(mesh.with_vertices(dn)).F
                ) / (2 * h)
        rel = np.linalg.norm(g[free] - gfd[free]) / np.linalg.norm(gfd[free])
        assert rel <= 1e-6

    def test_block_symmetry_structure(self):
        for mesh in (jittered(SQUARE, 3, seed=7), jittered(CUBE, 2, seed=8)):
            system = assemble(mesh)
            assert np.abs((system.A - system.A.T).data).max() <= 1e-14 * np.abs(
                system.A.data
            ).max() if (system.A - system.A.T).nnz else True
            for B in system.B_blocks:
                BT = (B + B.T).tocoo()
                scale = np.abs(B.data).max()
                assert BT.nnz == 0 or np.abs(BT.data).max() <= 1e-14 * scale

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
        s1, s2 = assemble(mesh), assemble(mesh)
        assert s1.F == s2.F
        np.testing.assert_array_equal(s1.gradient, s2.gradient)
        np.testing.assert_array_equal(s1.A.data, s2.A.data)

    def test_field_vec_roundtrip(self):
        field = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(
            vec_to_field(field_to_vec(field), 4, 3), field
        )


@pytest.mark.parametrize("case", ["triangles", "tets", "jittered-cube"])
def test_gradient_is_exact_under_translation(case):
    # q - 1e6 is exact, so both calls see the same coordinate differences;
    # a gradient built from differences alone cannot move.
    if case == "triangles":
        pts = random_triangles(200, seed=21)
        grad = lambda q: triangles.radius_ratio_gradient(q)[1]
    elif case == "tets":
        pts = random_tets(200, seed=22)
        grad = lambda q: tetrahedra.radius_ratio_gradient(q)[1]
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
        # Both sum each vertex's entries in cell order, starting from zero.
        _, grads = m.kernel(mesh.dim).radius_ratio_gradient(mesh.cell_points())
        expected = np.zeros_like(mesh.vertices)
        np.add.at(expected, mesh.cells, grads / mesh.n_cells)
        _, got, _ = energy_gradient(mesh)
        assert got.tobytes() == expected.tobytes()


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

    def test_disconnected_mesh_rejected(self):
        a = gen_mesh(GeneratorSpec(CUBE, 1))
        b = gen_mesh(GeneratorSpec(CUBE, 1))
        verts = np.vstack([a.vertices, b.vertices + np.array([3.0, 0.0, 0.0])])
        cells = np.vstack([a.cells, b.cells + a.n_vertices])
        both = m.classify_boundary(m.SimplexMesh(verts, cells), m.FIX_ALL)
        with pytest.raises(DisconnectedMesh):
            assemble_preconditioner(both)

    def test_vertex_no_cell_uses_rejected(self):
        cube = gen_mesh(GeneratorSpec(CUBE, 2))
        verts = np.vstack([cube.vertices, [[0.5, 0.5, 0.5 + 1e-3]]])
        lonely = m.classify_boundary(m.SimplexMesh(verts, cube.cells), m.FIX_ALL)
        assert not lonely.fixed_mask()[-1]
        with pytest.raises(DisconnectedMesh):
            assemble_preconditioner(lonely)

    def test_audit_on_generated_meshes(self):
        for kind, n in ((SQUARE, 4), (EQUILATERAL, 4), (CUBE, 3)):
            mesh = m.classify_boundary(gen_mesh(GeneratorSpec(kind, n)), m.FIX_ALL)
            pre = assemble_preconditioner(mesh)
            report = spd_audit(pre)
            assert report.symmetry_residual <= 1e-12 * report.matrix_norm
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
        assert report.symmetry_residual <= 1e-12 * report.matrix_norm

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
        full_pts = mesh.cell_points()
        mu, A_abs = tetrahedra.abs_local_matrix(full_pts)
        local = (mu / mesh.n_cells)[:, None, None] * A_abs
        A_full = assembly._scatter_square(mesh.cells, local, mesh.n_vertices)
        adjacency_to_fixed = np.asarray(
            np.abs(A_full[:, mesh.fixed_mask()]).sum(axis=1)
        ).ravel()
        P = pre.P
        diag = P.diagonal()
        off = np.asarray(np.abs(P).sum(axis=1)).ravel() - np.abs(diag)
        margin = diag - off
        touches = adjacency_to_fixed[pre.active] > 0
        assert np.all(margin[touches] > 1e-12 * np.abs(P.data).max())


def coo_preconditioner(mesh):
    """P by a COO scatter of every entry of the dense local Laplacians, then
    the active rows and columns."""
    kernel = m.kernel(mesh.dim)
    g = kernel.geometry(mesh.cell_points())
    local = simplex.laplacian(kernel.precond_weights(g), kernel.EDGES)
    local = (g.mu / mesh.n_cells)[:, None, None] * local
    k = mesh.cells.shape[1]
    rows = np.repeat(mesh.cells, k, axis=1).ravel()
    cols = np.tile(mesh.cells, k).ravel()
    nv = mesh.n_vertices
    full = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    active = np.flatnonzero(~mesh.fixed_mask())
    return full[active][:, active]


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
        mesh = m.classify_boundary(jittered(kind, n, seed=7), policy)
        _, _, geometry = energy_gradient(mesh)
        topology = preconditioner_topology(mesh)
        kept = assemble_preconditioner(mesh, topology, geometry)
        fresh = assemble_preconditioner(mesh)
        csr = csr_reference(mesh, geometry)
        for name in ("data", "indices", "indptr"):
            assert getattr(kept.P, name).tobytes() == getattr(fresh.P, name).tobytes()
            assert getattr(kept.P, name).dtype == getattr(csr, name).dtype
            assert getattr(kept.P, name).tobytes() == getattr(csr, name).tobytes()

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
