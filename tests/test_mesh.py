import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from rrsmooth import mesh as m, simplex, tetrahedra, triangles
from rrsmooth.assembly import energy_gradient
from rrsmooth.errors import DegenerateElement, InvalidSpec, MeshError, NonPlanarPatch
from rrsmooth.optim import OptimizeConfig, optimize
from rrsmooth.generate import (
    CUBE,
    EQUILATERAL,
    SQUARE,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    VertexDisplace,
    gen_mesh,
    perturb_mesh,
)

from conftest import random_tets, random_triangles


def unit_square_two_tris():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 2, 3]])
    return m.SimplexMesh(verts, cells)


class TestValidate:
    def test_valid_mesh_has_no_violations(self):
        assert m.validate(unit_square_two_tris()) == []

    def test_swapped_cell_reports_orientation(self):
        bad = unit_square_two_tris()
        bad.cells[0] = bad.cells[0][[0, 2, 1]]
        v = m.validate(bad)
        assert len(v) == 1
        assert v[0].rule == "non-positive-orientation"
        assert v[0].index == 0

    def test_out_of_range_index(self):
        bad = unit_square_two_tris()
        bad.cells[1, 2] = 4
        v = m.validate(bad)
        assert any(x.rule == "index-out-of-range" and x.index == 1 for x in v)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mesh_without_cells(self, dim):
        empty = m.SimplexMesh(np.zeros((dim + 1, dim)), np.zeros((0, dim + 1), int))
        assert [v.rule for v in m.validate(empty)] == ["no-cells"]
        with pytest.raises(MeshError, match="no-cells"):
            optimize(empty)

    def test_repeated_vertex(self):
        bad = unit_square_two_tris()
        bad.cells[1, 2] = bad.cells[1, 0]
        v = m.validate(bad)
        assert any(x.rule == "repeated-vertex" for x in v)

    @pytest.mark.parametrize("kernel", [triangles, tetrahedra], ids=["triangle", "tet"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_degeneracy_threshold(self, kernel, factor):
        # One cell of unit diameter whose measure is factor * DEGENERACY_RTOL:
        # validate and the kernel must draw the line at the same place.
        h = factor * kernel.DEGENERACY_RTOL
        if kernel is triangles:
            P = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0 * h]])
        else:
            P = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.25, 0.25, 6.0 * h]])
        flagged = m.validate(one_cell(P))
        # The apex moving down at unit speed reaches the base at its height.
        down = np.zeros_like(P)
        down[-1, -1] = -1.0
        if factor < 1:
            assert [v.rule for v in flagged] == ["non-positive-orientation"]
            with pytest.raises(DegenerateElement):
                kernel.radius_ratio(P[None])
            with pytest.raises(DegenerateElement):
                m.max_step_before_inversion(one_cell(P), down)
        else:
            assert flagged == []
            assert np.isfinite(kernel.radius_ratio(P[None])).all()
            lam = m.max_step_before_inversion(one_cell(P), down)
            assert lam == pytest.approx(P[-1, -1], rel=1e-12)

    @pytest.mark.parametrize("kernel", [triangles, tetrahedra], ids=["triangle", "tet"])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_diameters_are_the_coordinate_spread(self, kernel, offset):
        # The threshold scale must keep the bits of np.ptp over the vertices.
        k = 3 if kernel is triangles else 4
        pts = np.random.default_rng(7).normal(size=(500, k, k - 1)) + offset
        assert np.array_equal(kernel.diameters(pts), np.ptp(pts, axis=1).max(axis=1))

    @staticmethod
    def sliding_corner(normal):
        """The square of the slide-normal bug: vertex 0 slides along ``normal``."""
        mesh = perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, 4)), RandomJitter(amplitude=0.3, seed=1))
        mesh = m.classify_boundary(mesh, m.FIX_ALL)
        mesh.constraint_kind[0] = m.SLIDE
        mesh.slide_normals[0] = normal
        return mesh

    @pytest.mark.parametrize(
        "normal", [(0.0, 0.0), (0.0, 2.0), (np.nan, 1.0), (np.inf, 0.0)],
        ids=["zero", "length-2", "nan", "inf"],
    )
    def test_bad_slide_normal_is_reported(self, normal):
        mesh = self.sliding_corner(normal)
        v = m.validate(mesh)
        assert [(x.rule, x.index) for x in v] == [("bad-slide-normal", 0)]
        # Unchecked, lbfgs moved this vertex off its line: (0, 0) -> (0.081, 0.081).
        with pytest.raises(MeshError, match=r"bad-slide-normal\[0\]"):
            optimize(mesh, OptimizeConfig(method="lbfgs", max_iters=20))

    @pytest.mark.parametrize("factor, flagged", [(0.5, False), (2.0, True)])
    def test_slide_normal_tolerance(self, factor, flagged):
        mesh = self.sliding_corner((0.0, 1.0 + factor * m.SLIDE_NORMAL_TOL))
        assert bool(m.validate(mesh)) is flagged
        unit = self.sliding_corner((0.0, 1.0))
        assert m.validate(unit) == []

    def test_repair_orientation(self):
        bad = unit_square_two_tris()
        bad.cells[0] = bad.cells[0][[0, 2, 1]]
        fixed, repaired = m.repair_orientation(bad.vertices, bad.cells)
        assert list(repaired) == [0]
        assert m.validate(m.SimplexMesh(bad.vertices, fixed)) == []


class TestGenerators:
    @pytest.mark.parametrize(
        "kind,n", [(EQUILATERAL, 4), (SQUARE, 3), (CUBE, 2)]
    )
    def test_generated_meshes_validate(self, kind, n):
        mesh = gen_mesh(GeneratorSpec(kind, n))
        assert m.validate(mesh) == []

    def test_equilateral_quality_is_one(self):
        mesh = gen_mesh(GeneratorSpec(EQUILATERAL, 4))
        stats = m.quality_stats(mesh)
        assert stats.n_cells == 32
        assert stats.min_q == pytest.approx(1.0, abs=1e-12)
        assert stats.max_q == pytest.approx(1.0, abs=1e-12)

    def test_square_grid_quality(self):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 2))
        assert mesh.n_cells == 8
        stats = m.quality_stats(mesh)
        assert stats.min_q == pytest.approx(1.0 / 1.2071067811865475, rel=1e-10)
        assert stats.min_q == pytest.approx(stats.max_q)

    def test_cube_counts_and_volume(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 2))
        assert mesh.n_cells == 48
        vols = mesh.signed_measures()
        assert np.all(vols > 0)
        assert vols.sum() == pytest.approx(1.0, rel=1e-12)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            gen_mesh(GeneratorSpec(CUBE, 0))
        with pytest.raises(InvalidSpec):
            gen_mesh(GeneratorSpec("pyramid", 2))


class TestQualityStats:
    def test_histogram_sums_to_cell_count(self):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
        stats = m.quality_stats(mesh)
        assert stats.histogram.sum() == mesh.n_cells
        assert stats.min_q <= stats.mean_q <= stats.max_q

    def test_histogram_keeps_cells_with_roundoff_above_one(self):
        # Equilateral elements evaluate to q = 1 + a few ulp; they must land
        # in the top bin, not fall out of range.
        mesh = gen_mesh(GeneratorSpec(EQUILATERAL, 8))
        stats = m.quality_stats(mesh)
        assert stats.max_q >= 1.0
        assert stats.histogram.sum() == mesh.n_cells
        assert stats.histogram[-1] == mesh.n_cells

    def test_cell_order_permutation_invariant(self):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
        shuffled = m.SimplexMesh(mesh.vertices, mesh.cells[::-1].copy())
        a, b = m.quality_stats(mesh), m.quality_stats(shuffled)
        assert a.min_q == b.min_q and a.max_q == b.max_q
        assert np.array_equal(a.histogram, b.histogram)

    def test_planted_sliver_counts_below_threshold(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 4))
        slivered = perturb_mesh(mesh, PlantSliver(count=1, eps=0.01))
        stats = m.quality_stats(slivered)
        assert stats.below_threshold_count >= 1
        assert stats.min_q < 0.05


class TestClassifyBoundary:
    def test_fix_all_square(self):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
        tagged = m.classify_boundary(mesh, m.FIX_ALL)
        boundary = np.unique(m.boundary_facets(mesh)[0])
        assert np.array_equal(np.flatnonzero(tagged.fixed_mask()), boundary)
        # 4 sides of 3 interior vertices each plus 4 corners on the n=4 grid.
        assert tagged.fixed_mask().sum() == 16
        assert (~tagged.fixed_mask()).sum() == 9

    def test_slide_planar_cube(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 3))
        tagged = m.classify_boundary(mesh, m.SLIDE_PLANAR)
        kind = tagged.constraint_kind
        grid = np.round(mesh.vertices * 3).astype(int)
        on_face = (grid == 0) | (grid == 3)
        n_extreme = on_face.sum(axis=1)
        assert np.all(kind[n_extreme >= 2] == m.FIXED)
        face_interior = n_extreme == 1
        assert np.all(kind[face_interior] == m.SLIDE)
        assert np.all(kind[n_extreme == 0] == m.FREE)
        # Slide normals align with the face axis.
        for v in np.flatnonzero(face_interior):
            axis = np.flatnonzero(on_face[v])[0]
            assert abs(tagged.slide_normals[v, axis]) == pytest.approx(1.0)

    def test_sphere_surface_raises_non_planar(self):
        # Tet fan over an icosahedron: boundary is the curved surface.
        phi = (1 + np.sqrt(5)) / 2
        ico = np.array(
            [
                [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
                [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
                [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
            ],
            dtype=float,
        )
        faces = np.array(
            [
                [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
                [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
                [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
                [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
            ]
        )
        verts = np.vstack([ico, [[0.0, 0.0, 0.0]]])
        center = 12
        cells = np.array([[f[0], f[1], f[2], center] for f in faces])
        cells, _ = m.repair_orientation(verts, cells)
        sphere = m.SimplexMesh(verts, cells)
        assert m.validate(sphere) == []
        with pytest.raises(NonPlanarPatch):
            m.classify_boundary(sphere, m.SLIDE_PLANAR)


def same_partition(a, b):
    """Whether label arrays a and b split the vertices alike (up to relabelling)."""
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == len(np.unique(a)) == len(np.unique(b))


@st.composite
def graphs(draw):
    """(n, edges) with edges among the first k <= n vertices: the rest are
    isolated, and a small k makes self-loops and repeated edges likely."""
    n = draw(st.integers(1, 60))
    end = st.integers(0, draw(st.integers(1, n)) - 1)
    return n, draw(st.lists(st.tuples(end, end), max_size=80))


class TestComponents:
    @settings(max_examples=30, deadline=None, database=None)
    @given(graph=graphs())
    @example(graph=(5, []))
    @example(graph=(7, [(0, 0), (0, 1), (2, 2), (3, 5), (3, 5), (5, 3)]))
    def test_matches_scipy(self, graph):
        n, edges = graph
        i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        count, labels = m.components(n, i, j)
        adjacency = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
        expected, reference = connected_components(adjacency, directed=False)
        assert count == expected
        assert same_partition(labels, reference)
        assert set(labels.tolist()) == set(range(count))

    def test_long_path_in_shuffled_order(self, rng):
        order = rng.permutation(2000)
        count, labels = m.components(2000, order[:-1], order[1:])
        assert count == 1
        assert np.all(labels == 0)


def one_cell(P):
    return m.SimplexMesh(P, np.arange(len(P))[None])


def jittered(kind):
    mesh = gen_mesh(GeneratorSpec(kind, 6 if kind == SQUARE else 3))
    return perturb_mesh(mesh, RandomJitter(amplitude=0.2, seed=5))


def random_direction(mesh, still, rng):
    """Normal random vertex velocities with a share `still` held at zero."""
    d = rng.normal(size=mesh.vertices.shape)
    d[rng.random(mesh.n_vertices) < still] = 0.0
    return d


CAP_CASES = pytest.mark.parametrize(
    "kind,still",
    [(SQUARE, 0.0), (SQUARE, 0.9), (CUBE, 0.0), (CUBE, 0.9)],
    ids=["square-dense", "square-sparse", "cube-dense", "cube-sparse"],
)


class TestStepBound:
    @pytest.mark.filterwarnings("error")
    def test_zero_direction_is_unbounded(self):
        # No cell loses measure under a zero direction, a rigid translation,
        # a dilation or a linearized rotation about the z axis (measure
        # factor 1 + t**2), even far from the origin.
        for mesh in (unit_square_two_tris(), gen_mesh(GeneratorSpec(CUBE, 2))):
            far = mesh.with_vertices(mesh.vertices + 1e6)
            translation = np.broadcast_to(np.arange(1.0, far.dim + 1.0), far.vertices.shape)
            dilation = far.vertices - far.vertices.mean(axis=0)
            rotation = np.zeros_like(dilation)
            rotation[:, 0], rotation[:, 1] = -dilation[:, 1], dilation[:, 0]
            for d in (np.zeros_like(far.vertices), translation, dilation, rotation):
                assert m.max_step_before_inversion(far, d) == np.inf

    def test_a_bound_past_the_float_range_is_unbounded(self, rng):
        # A direction of size 1e-310 puts the largest root s near 1e-310,
        # whose reciprocal overflows; every finite step is then safe.
        for mesh in (unit_square_two_tris(), gen_mesh(GeneratorSpec(CUBE, 2))):
            d = 1e-310 * rng.normal(size=mesh.vertices.shape)
            assert m.max_step_before_inversion(mesh, d) == np.inf

    def test_single_triangle_height_bound(self):
        tri = m.SimplexMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]), np.array([[0, 1, 2]])
        )
        d = np.zeros((3, 2))
        d[2, 1] = -1.0  # apex straight down at unit speed, inverts at its height
        lam = m.max_step_before_inversion(tri, d)
        assert lam == pytest.approx(0.8, rel=1e-12)

    @CAP_CASES
    def test_random_directions_keep_measures_positive(self, rng, kind, still):
        mesh = jittered(kind)
        for trial in range(10):
            d = random_direction(mesh, still, rng)
            lam = m.max_step_before_inversion(mesh, d)
            assert np.isfinite(lam)
            moved = mesh.with_vertices(mesh.vertices + 0.999 * lam * d)
            assert np.all(moved.signed_measures() > 0)

    @CAP_CASES
    def test_bound_is_tight(self, rng, kind, still):
        mesh = jittered(kind)
        for trial in range(10):
            d = random_direction(mesh, still, rng)
            lam = m.max_step_before_inversion(mesh, d)
            moved = mesh.with_vertices(mesh.vertices + 1.01 * lam * d)
            assert np.any(moved.signed_measures() <= 0)

    def test_double_roots_in_2d(self):
        # Contracting toward p at rate a scales the area by (1 - a t)**2: the
        # cell touches zero at t = 1/a. Rounding turns a third of these double
        # roots into complex pairs with a tiny imaginary part.
        rng = np.random.default_rng(5)
        for P in random_triangles(1000, seed=3):
            a = rng.uniform(0.1, 10.0)
            lam = m.max_step_before_inversion(one_cell(P), a * (rng.uniform(-1, 1, 2) - P))
            assert 1 - 1e-6 <= lam * a <= 1 + 1e-6

    def test_double_roots_in_3d(self):
        # Scaling by I - t D, D = Q diag(a, a, b) Q^T, gives the volume
        # factor (1 - a t)**2 (1 - b t) with b < a: the first zero is the
        # double root t = 1/a. This fails with a real-root tolerance of 1e-8.
        rng = np.random.default_rng(5)
        for P in random_tets(1000, seed=3):
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(-10.0, a)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            D = Q @ np.diag([a, a, b]) @ Q.T
            d = -(P - rng.uniform(-1, 1, 3)) @ D.T
            lam = m.max_step_before_inversion(one_cell(P), d)
            assert 1 - 1e-6 <= lam * a <= 1 + 1e-6

    def test_tet_contracting_to_its_centroid(self):
        # Volume factor (1 - t)**3: a triple root at t = 1, which eigenvalue
        # rounding splits by up to ~1e-5. This fails with a real-root
        # tolerance of 1e-5.
        for P in random_tets(1000, seed=0):
            lam = m.max_step_before_inversion(one_cell(P), P.mean(axis=0) - P)
            assert 1 - 1e-4 <= lam <= 1 + 1e-6

    def test_inverted_cell_raises_with_its_index(self, rng):
        square = unit_square_two_tris()
        square.cells[1] = square.cells[1][[0, 2, 1]]
        cube = gen_mesh(GeneratorSpec(CUBE, 2))
        cube.cells[5] = cube.cells[5][[0, 1, 3, 2]]
        for mesh, cell in ((square, 1), (cube, 5)):
            with pytest.raises(DegenerateElement) as exc:
                m.max_step_before_inversion(mesh, rng.normal(size=mesh.vertices.shape))
            assert exc.value.cell == cell


    # At lam the cell that sets the cap is flat to within rounding: over 3000
    # random cases of this property (both kinds, both policies), the smallest
    # |measure| / diameter**dim at lam was at most 2.4e-15 (10.7 eps), so the
    # degeneracy threshold DEGENERACY_RTOL (45 eps) leaves a margin of 4.2.
    @pytest.mark.parametrize("kind, largest", [(SQUARE, 6), (CUBE, 3)], ids=["square", "cube"])
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        data=st.data(),
        amplitude=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from([m.FIX_ALL, m.SLIDE_PLANAR]),
    )
    def test_cap_is_sound_and_tight(self, kind, largest, data, amplitude, seed, policy):
        base = gen_mesh(GeneratorSpec(kind, data.draw(st.integers(2, largest))))
        mesh = m.classify_boundary(perturb_mesh(base, RandomJitter(amplitude, seed)), policy)
        rng = np.random.default_rng(seed)
        d = m.constraint_projector(mesh)(rng.normal(size=mesh.vertices.shape))
        kept = energy_gradient(mesh)[2]
        lam = m.max_step_before_inversion(mesh, d, geometry=kept)
        assert bits(lam) == bits(m.max_step_before_inversion(mesh, d))
        if lam == np.inf:
            # No measure polynomial has a positive root: positive at any step.
            assert np.all(mesh.with_vertices(mesh.vertices + 1e6 * d).signed_measures() > 0)
            return
        before = mesh.with_vertices(mesh.vertices + (1.0 - 1e-9) * lam * d)
        assert np.all(before.signed_measures() > 0)
        at = mesh.with_vertices(mesh.vertices + lam * d)
        scale = simplex.diameters(at.cell_points()) ** mesh.dim
        assert np.any(np.abs(at.signed_measures()) <= simplex.DEGENERACY_RTOL * scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_direction_raises_with_its_vertex(self, bad):
        # Before the check a NaN gave an unbounded step in 2D and numpy's
        # LinAlgError in 3D; a NaN root bound would also prune silently.
        for mesh in (unit_square_two_tris(), gen_mesh(GeneratorSpec(CUBE, 2))):
            d = np.ones_like(mesh.vertices)
            d[2, 1] = bad
            with pytest.raises(ValueError, match="at vertex 2$"):
                m.max_step_before_inversion(mesh, d)

    @pytest.mark.parametrize("still", [0.0, 0.9], ids=["dense", "sparse"])
    def test_pruned_cap_matches_the_full_batch(self, monkeypatch, rng, still):
        mesh = jittered(CUBE)
        solved = count_solved_rows(monkeypatch)
        for trial in range(10):
            d = random_direction(mesh, still, rng)
            lam = m.max_step_before_inversion(mesh, d)
            assert bits(lam) == bits(1.0 / full_batch_root(m._measure_polynomials(mesh, d)))
        assert sum(solved) < 10 * mesh.n_cells

    def test_nothing_pruned_when_every_cell_can_bind(self, monkeypatch):
        # Contracting to a point gives every cell the triple root s = 1 and
        # the bound 6, so every cell is solved.
        mesh = jittered(CUBE)
        d = mesh.vertices.mean(axis=0) - mesh.vertices
        solved = count_solved_rows(monkeypatch)
        lam = m.max_step_before_inversion(mesh, d)
        assert sum(solved) == mesh.n_cells > m._CAP_FIRST_ROWS
        assert bits(lam) == bits(1.0 / full_batch_root(m._measure_polynomials(mesh, d)))
        assert 1 - 1e-4 <= lam <= 1 + 1e-6


def bits(x):
    return np.float64(x).tobytes()


def cubic_roots(a):
    companion = np.zeros((len(a), 3, 3))
    companion[:, 0] = -a
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    return np.linalg.eigvals(companion)


def full_batch_root(a):
    """Largest positive real root over every row, all solved in one batch."""
    roots = cubic_roots(a)
    real = np.abs(roots.imag) <= m.REAL_ROOT_RTOL * np.abs(roots)
    return np.where(real & (roots.real > 0), roots.real, 0.0).max(initial=0.0)


def count_solved_rows(monkeypatch):
    solved = []
    solve = m._row_roots

    def counted(a):
        solved.append(len(a))
        return solve(a)

    monkeypatch.setattr(m, "_row_roots", counted)
    return solved


def stacked_cells(points):
    """One mesh holding each (dim + 1, dim) point set as its own cell."""
    n, k, dim = points.shape
    return m.SimplexMesh(points.reshape(-1, dim), np.arange(n * k).reshape(n, k))


class TestRootBound:
    def assert_bounds_roots(self, a):
        bound = m._root_bound(a) * (1.0 + m.ROOT_BOUND_RTOL)
        assert np.all(np.abs(cubic_roots(a)) <= bound[:, None])

    def test_random_cubics(self):
        rng = np.random.default_rng(11)
        a = rng.choice([-1.0, 1.0], (20000, 3)) * 10.0 ** rng.uniform(-100, 100, (20000, 3))
        a[rng.random(a.shape) < 0.1] = 0.0
        a[:1000] = rng.normal(size=(1000, 3))
        self.assert_bounds_roots(a)

    def test_double_and_triple_roots(self):
        # The cells of test_double_roots_in_3d and of the centroid test.
        rng = np.random.default_rng(5)
        P = random_tets(300, seed=3)
        a = rng.uniform(0.1, 10.0, 300)
        b = rng.uniform(-10.0, a)
        Q = np.linalg.qr(rng.normal(size=(300, 3, 3)))[0]
        D = Q @ (np.stack([a, a, b], axis=1)[:, :, None] * np.swapaxes(Q, 1, 2))
        d = -np.einsum("nij,nkj->nki", D, P - rng.uniform(-1, 1, (300, 1, 3)))
        double = m._measure_polynomials(stacked_cells(P), d.reshape(-1, 3))
        P = random_tets(300, seed=0)
        triple = m._measure_polynomials(
            stacked_cells(P), (P.mean(axis=1, keepdims=True) - P).reshape(-1, 3)
        )
        self.assert_bounds_roots(np.concatenate([double, triple]))

    def test_bound_is_attained_and_rounding_crosses_it(self):
        # s**3 - r s**2 - r**2 s - 2 r**3 has the root 2r, equal to its
        # bound; LAPACK's root lands a few ulp above it on about half of
        # them, which is why pruning widens the bound by ROOT_BOUND_RTOL.
        r = np.geomspace(1e-90, 1e90, 4001)
        a = np.stack([-r, -r * r, -2.0 * r**3], axis=1)
        excess = np.abs(cubic_roots(a)).max(axis=1) / m._root_bound(a) - 1.0
        assert np.any(excess > 0.0)
        assert excess.max() <= 1e-3 * m.ROOT_BOUND_RTOL

    def test_margin_keeps_a_cell_whose_root_rounds_above_its_bound(self, monkeypatch):
        # A cell on the extremal family whose computed root exceeds its
        # bound, behind 64 cells with the bound 20 rho and the real root rho
        # in between: without the margin it is pruned and the cap is wrong.
        r = np.geomspace(0.5, 2.0, 2001)
        a = np.stack([-r, -r * r, -2.0 * r**3], axis=1)
        top = m._row_roots(a)
        i = np.argmax(top / m._root_bound(a))
        rho = 0.5 * (m._root_bound(a)[i] + top[i])
        decoy = np.array([[-rho, 100 * rho**2, -100 * rho**3]])
        s_decoy = m._row_roots(decoy)[0]
        assert m._root_bound(a)[i] < s_decoy < top[i]
        batch = np.concatenate([np.repeat(decoy, m._CAP_FIRST_ROWS, axis=0), a[i : i + 1]])
        assert m._largest_real_root(batch) == top[i] == full_batch_root(batch)
        monkeypatch.setattr(m, "ROOT_BOUND_RTOL", 0.0)
        assert m._largest_real_root(batch) == s_decoy


class TestPerturb:
    def test_jitter_zero_amplitude_is_identity(self):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
        out = perturb_mesh(mesh, RandomJitter(amplitude=0.0, seed=7))
        np.testing.assert_array_equal(out.vertices, mesh.vertices)

    def test_jitter_deterministic_and_valid(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 3))
        a = perturb_mesh(mesh, RandomJitter(amplitude=0.2, seed=11))
        b = perturb_mesh(mesh, RandomJitter(amplitude=0.2, seed=11))
        np.testing.assert_array_equal(a.vertices, b.vertices)
        assert m.validate(a) == []
        assert not np.array_equal(a.vertices, mesh.vertices)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf])
    def test_jitter_rejects_a_non_finite_amplitude(self, amplitude):
        mesh = gen_mesh(GeneratorSpec(CUBE, 3))
        with pytest.raises(InvalidSpec, match="amplitude must be finite"):
            perturb_mesh(mesh, RandomJitter(amplitude=amplitude, seed=1))

    def test_jitter_leaves_boundary_alone(self):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
        out = perturb_mesh(mesh, RandomJitter(amplitude=0.3, seed=3))
        boundary = np.unique(m.boundary_facets(mesh)[0])
        np.testing.assert_array_equal(out.vertices[boundary], mesh.vertices[boundary])

    def test_displace_two_lattice_vertices(self):
        mesh = gen_mesh(GeneratorSpec(EQUILATERAL, 8))
        interior = np.flatnonzero(
            ~np.isin(np.arange(mesh.n_vertices), np.unique(m.boundary_facets(mesh)[0]))
        )
        a, b = interior[len(interior) // 3], interior[2 * len(interior) // 3]
        # 0.3 edge lengths, halfway between two lattice neighbor directions.
        d = (0.3 * np.cos(np.pi / 6), 0.3 * np.sin(np.pi / 6))
        moved = perturb_mesh(
            mesh, VertexDisplace(((int(a), d), (int(b), (-d[0], -d[1]))))
        )
        assert m.validate(moved) == []
        assert m.quality_stats(moved).min_q < 0.9

    def test_displace_across_facet_raises(self):
        tri = m.SimplexMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]), np.array([[0, 1, 2]])
        )
        from rrsmooth.errors import WouldInvert

        with pytest.raises(WouldInvert):
            perturb_mesh(tri, VertexDisplace(((2, (0.0, -1.0)),)))

    def test_plant_slivers_deterministic(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 4))
        a = perturb_mesh(mesh, PlantSliver(count=2, eps=0.01))
        b = perturb_mesh(mesh, PlantSliver(count=2, eps=0.01))
        np.testing.assert_array_equal(a.vertices, b.vertices)
        assert m.validate(a) == []
        assert m.quality_stats(a).below_threshold_count >= 2


class TestXorShift:
    def test_deterministic_stream(self):
        from rrsmooth.generate import XorShift64Star

        a = XorShift64Star(12345)
        b = XorShift64Star(12345)
        seq_a = [a.next_float() for _ in range(100)]
        seq_b = [b.next_float() for _ in range(100)]
        assert seq_a == seq_b
        assert all(0.0 <= v < 1.0 for v in seq_a)
        assert len(set(seq_a)) == len(seq_a)

    def test_zero_seed_is_usable(self):
        from rrsmooth.generate import XorShift64Star

        r = XorShift64Star(0)
        vals = [r.next_symmetric() for _ in range(10)]
        assert any(v != vals[0] for v in vals)
        assert all(-1.0 <= v < 1.0 for v in vals)


class TestConstraintProjector:
    def test_projection_rules(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 2))
        tagged = m.classify_boundary(mesh, m.SLIDE_PLANAR)
        project = m.constraint_projector(tagged)
        field = np.ones_like(tagged.vertices)
        out = project(field)
        assert np.all(out[tagged.fixed_mask()] == 0.0)
        slide = tagged.slide_mask()
        dots = np.einsum("ij,ij->i", out[slide], tagged.slide_normals[slide])
        np.testing.assert_allclose(dots, 0.0, atol=1e-14)
        free = tagged.constraint_kind == m.FREE
        np.testing.assert_array_equal(out[free], field[free])
