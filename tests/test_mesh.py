import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from rrsmooth import cap, mesh as m, optim, simplex, tetrahedra, triangles
from rrsmooth.assembly import energy_gradient
from rrsmooth.errors import DegenerateElement, InvalidSpec, MeshError, NonPlanarPatch
from rrsmooth.optim import STEP_CAP_FACTOR, OptimizeConfig, optimize
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

from conftest import random_tets, random_triangles, rejected, stacked_cells


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

    @pytest.mark.parametrize(
        "vertices, cells, kind, message",
        [
            (np.zeros((3, 4)), [[0, 1, 2]], None, r"vertices must be \(n, 2\) or \(n, 3\)"),
            (np.zeros(3), [[0, 1, 2]], None, r"vertices must be \(n, 2\) or \(n, 3\)"),
            (np.zeros((3, 2)), [[0, 1, 2, 0]], None, r"cells must be \(m, dim \+ 1\)"),
            (np.zeros((3, 2)), [0, 1, 2], None, r"cells must be \(m, dim \+ 1\)"),
            (np.zeros((3, 2)), [[0, 1, 2]], [0, 0], "constraint arrays do not match"),
        ],
        ids=["4-columns", "flat-vertices", "cell-width", "flat-cells", "constraint-count"],
    )
    def test_shape_errors(self, vertices, cells, kind, message):
        with pytest.raises(ValueError, match=message):
            m.SimplexMesh(vertices, cells, kind)

    def test_repeated_vertex(self):
        bad = unit_square_two_tris()
        bad.cells[1, 2] = bad.cells[1, 0]
        v = m.validate(bad)
        assert any(x.rule == "repeated-vertex" for x in v)

    @pytest.mark.parametrize("kernel", [triangles, tetrahedra], ids=["triangle", "tet"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_degeneracy_threshold(self, kernel, factor):
        # One cell whose measure is factor * DEGENERACY_RTOL * S**(dim/2), S
        # its sum of squared edges: 1.5 for the triangle, 5.375 for the tet
        # (the apex's height moves S by less than an ulp). validate and the
        # kernel must draw the line at the same place.
        h = factor * simplex.DEGENERACY_RTOL
        if kernel is triangles:
            P = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0 * h * 1.5]])
        else:
            P = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.25, 0.25, 6.0 * h * 5.375**1.5]])
        flagged = m.validate(one_cell(P))
        # The apex moving down at unit speed reaches the base at its height.
        down = np.zeros_like(P)
        down[-1, -1] = -1.0
        if factor < 1:
            assert [v.rule for v in flagged] == ["non-positive-orientation"]
            with pytest.raises(DegenerateElement):
                kernel.geometry(P[None])
            with pytest.raises(DegenerateElement):
                cap.max_step_before_inversion(one_cell(P), down)
        else:
            assert flagged == []
            assert np.isfinite(kernel.geometry(P[None]).mu).all()
            lam, _ = cap.max_step_before_inversion(one_cell(P), down)
            assert lam == pytest.approx(P[-1, -1], rel=1e-12)

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

    @pytest.mark.parametrize("kind", [3, -1])
    def test_unknown_constraint_kind_is_reported(self, kind):
        mesh = self.sliding_corner((0.0, 1.0))
        unknown = np.flatnonzero(~mesh.fixed_mask())
        mesh.constraint_kind[unknown] = kind
        v = m.validate(mesh)
        assert [(x.rule, x.index) for x in v] == [
            ("unknown-constraint-kind", int(i)) for i in unknown
        ]
        assert str(v[0]) == f"unknown-constraint-kind[{unknown[0]}]: constraint kind {kind}"
        # Unchecked, lbfgs moved them as free vertices, by up to 0.076 in 5 iterations.
        with pytest.raises(MeshError, match="unknown-constraint-kind"):
            optimize(mesh, OptimizeConfig(method="lbfgs", max_iters=5))

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

    def test_table_reads_the_bin_count_and_threshold(self, monkeypatch):
        monkeypatch.setattr(m, "HISTOGRAM_BINS", 10)
        monkeypatch.setattr(m, "POOR_QUALITY_THRESHOLD", 0.25)
        lines = m.quality_stats(gen_mesh(GeneratorSpec(SQUARE, 4))).format_table().splitlines()
        assert lines[5] == "histogram (10 uniform bins on [0, 1]):"
        assert len(lines) == 6 + 10 and lines[-1].startswith("  [0.90,1.00)")
        # Every statistic's value starts in column 21.
        assert lines[4] == "count q < 0.25       0"
        assert {len(line) - len(line.split()[-1]) for line in lines[:5]} == {21}


class TestClassifyBoundary:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown boundary policy 'slide'"):
            m.classify_boundary(gen_mesh(GeneratorSpec(SQUARE, 2)), "slide")

    def test_fix_all_square(self):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
        tagged = m.classify_boundary(mesh, m.FIX_ALL)
        boundary = np.unique(m.boundary_facets(mesh)[0])
        assert np.array_equal(np.flatnonzero(tagged.fixed_mask()), boundary)
        # 4 sides of 3 interior vertices each plus 4 corners on the n=4 grid.
        assert tagged.fixed_mask().sum() == 16
        assert (~tagged.fixed_mask()).sum() == 9

    @pytest.mark.parametrize("kind", [SQUARE, CUBE])
    def test_boundary_facets_match_a_counting_reference(self, rng, kind):
        mesh = jittered(kind)
        shuffled = m.SimplexMesh(mesh.vertices, mesh.cells[rng.permutation(mesh.n_cells)])
        for case in (mesh, shuffled):
            local = m.kernel(case.dim).FACETS
            facets = np.concatenate([case.cells[:, list(f)] for f in local])
            owners = np.tile(np.arange(case.n_cells), len(local))
            _, inverse, counts = np.unique(
                np.sort(facets, axis=1), axis=0, return_inverse=True, return_counts=True
            )
            single = counts[inverse] == 1
            got_facets, got_owners = m.boundary_facets(case)
            np.testing.assert_array_equal(got_facets, facets[single])
            np.testing.assert_array_equal(got_owners, owners[single])

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
        # Numbered in order of each component's smallest vertex.
        first = [labels.tolist().index(k) for k in range(count)]
        assert first == sorted(first)

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
                assert cap.max_step_before_inversion(far, d) == (np.inf, -1)

    def test_a_bound_past_the_float_range_is_unbounded(self, rng):
        # A direction of size 1e-310 puts the largest root s near 1e-310,
        # whose reciprocal overflows; every finite step is then safe.
        for mesh in (unit_square_two_tris(), gen_mesh(GeneratorSpec(CUBE, 2))):
            d = 1e-310 * rng.normal(size=mesh.vertices.shape)
            assert cap.max_step_before_inversion(mesh, d)[0] == np.inf

    def test_single_triangle_height_bound(self):
        tri = m.SimplexMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]), np.array([[0, 1, 2]])
        )
        d = np.zeros((3, 2))
        d[2, 1] = -1.0  # apex straight down at unit speed, inverts at its height
        lam, cell = cap.max_step_before_inversion(tri, d)
        assert lam == pytest.approx(0.8, rel=1e-12)
        assert cell == 0

    @CAP_CASES
    def test_random_directions_keep_measures_positive(self, rng, kind, still):
        mesh = jittered(kind)
        for trial in range(10):
            d = random_direction(mesh, still, rng)
            lam, _ = cap.max_step_before_inversion(mesh, d)
            assert np.isfinite(lam)
            moved = mesh.with_vertices(mesh.vertices + 0.999 * lam * d)
            assert np.all(moved.signed_measures() > 0)

    @CAP_CASES
    def test_bound_is_tight(self, rng, kind, still):
        mesh = jittered(kind)
        for trial in range(10):
            d = random_direction(mesh, still, rng)
            lam, _ = cap.max_step_before_inversion(mesh, d)
            moved = mesh.with_vertices(mesh.vertices + 1.01 * lam * d)
            assert np.any(moved.signed_measures() <= 0)

    def test_double_roots_in_2d(self):
        # Contracting toward p at rate a scales the area by (1 - a t)**2: the
        # cell touches zero at t = 1/a. Rounding turns a third of these double
        # roots into complex pairs with a tiny imaginary part.
        rng = np.random.default_rng(5)
        for P in random_triangles(1000, seed=3):
            a = rng.uniform(0.1, 10.0)
            lam, _ = cap.max_step_before_inversion(one_cell(P), a * (rng.uniform(-1, 1, 2) - P))
            assert 1 - 1e-6 <= lam * a <= 1 + 1e-6

    @pytest.mark.parametrize("family", ["random", "double"])
    def test_triangles_solve_as_the_closed_form(self, family):
        # A triangle's area polynomial is solved as a cubic with a zero root.
        # Every row the pruned solve solves agrees with the closed-form
        # quadratic to 8 ulps of its largest root modulus (1e-7 of it for the
        # tangential double roots of test_double_roots_in_2d, which rounding
        # splits by ~sqrt(eps)), every row it skips has a smaller reference
        # root, and no cell's exact area reaches zero before the cap, its root
        # raised by that tolerance.
        rng = np.random.default_rng(5)
        P = random_triangles(960, seed=3)
        if family == "random":
            d = rng.normal(size=P.shape)
            rtol = 8.0 * np.finfo(float).eps
        else:
            d = rng.uniform(0.1, 10.0, (len(P), 1, 1)) * (rng.uniform(-1, 1, (len(P), 1, 2)) - P)
            rtol = 1e-7
        for group in np.split(np.arange(len(P)), 60):
            mesh, dg = stacked_cells(P[group]), d[group].reshape(-1, 2)
            a = cap._measure_polynomials(mesh, dg, mesh.geometry().edges)
            assert np.all(a[:, 2] == 0.0)
            ref, modulus = quadratic_roots(a)
            roots, rows = cap._binding_roots(a)
            assert np.all(np.abs(roots - ref[rows]) <= rtol * modulus[rows])
            assert np.all(np.delete(ref, rows) < roots.max())
            lam, cell = cap.max_step_before_inversion(mesh, dg)
            assert ref[cell] >= ref.max() - 2.0 * rtol * modulus.max()
            T = Fraction(1.0 / (1.0 / lam + rtol * modulus[cell]))
            c0, up, down = (exact_areas(mesh, dg, t) for t in (0, 1, -1))
            for A0, A1, A_1 in zip(c0, up, down):
                B, C = (A1 - A_1) / 2, (A1 + A_1) / 2 - A0
                assert A0 + B * T + C * T * T > 0
                if C > 0 and 0 < -B / (2 * C) < T:
                    assert A0 - B * B / (4 * C) > 0

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
            lam, _ = cap.max_step_before_inversion(one_cell(P), d)
            assert 1 - 1e-6 <= lam * a <= 1 + 1e-6

    def test_tet_contracting_to_its_centroid(self):
        # Volume factor (1 - t)**3: a triple root at t = 1, which eigenvalue
        # rounding splits by up to ~1e-5. This fails with a real-root
        # tolerance of 1e-5.
        for P in random_tets(1000, seed=0):
            lam, _ = cap.max_step_before_inversion(one_cell(P), P.mean(axis=0) - P)
            assert 1 - 1e-4 <= lam <= 1 + 1e-6

    def test_inverted_cell_raises_with_its_index(self, rng):
        square = unit_square_two_tris()
        square.cells[1] = square.cells[1][[0, 2, 1]]
        cube = gen_mesh(GeneratorSpec(CUBE, 2))
        cube.cells[5] = cube.cells[5][[0, 1, 3, 2]]
        for mesh, cell in ((square, 1), (cube, 5)):
            with pytest.raises(DegenerateElement) as exc:
                cap.max_step_before_inversion(mesh, rng.normal(size=mesh.vertices.shape))
            assert exc.value.cell == cell


    # At lam the cell that sets the cap is flat to within rounding. The
    # rounding lives in the coefficients, which scale with the cells at the
    # start of the step, so the flatness bound does too: at lam the binding
    # cell may have shrunk toward a point. Over 4000 random cases of this
    # property (both kinds, both policies), the smallest |measure| at lam
    # over the start's diameter**dim was at most 6.0e-16 (2.7 eps), so the
    # degeneracy threshold DEGENERACY_RTOL (45 eps) leaves a margin of 16.
    # Scaled by the diameter at lam, it reached 53 and 14 DEGENERACY_RTOL on
    # the two pinned draws (see test_cap_where_two_sliding_vertices_collide).
    # A size above the kind's largest n runs the largest n. The direction is
    # scaled by 10**scale.
    @pytest.mark.parametrize("kind, largest", [(SQUARE, 6), (CUBE, 3)], ids=["square", "cube"])
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        size=st.integers(2, 6),
        amplitude=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from([m.FIX_ALL, m.SLIDE_PLANAR]),
        scale=st.floats(-300.0, 300.0),
    )
    @example(size=2, amplitude=0.227, seed=1570120090, policy=m.SLIDE_PLANAR, scale=0.0)
    @example(size=2, amplitude=0.264, seed=4293267156, policy=m.SLIDE_PLANAR, scale=0.0)
    def test_cap_is_sound_and_tight(self, kind, largest, size, amplitude, seed, policy, scale):
        mesh, unit = cap_case(kind, min(size, largest), amplitude, seed, policy)
        d = 10.0**scale * unit
        kept = energy_gradient(mesh)[2]
        lam, cell = cap.max_step_before_inversion(mesh, d, edges=kept.edges)
        fresh, fresh_cell = cap.max_step_before_inversion(mesh, d)
        assert (bits(lam), cell) == (bits(fresh), fresh_cell)
        if lam == np.inf:
            # No measure polynomial has a positive root, or the cap is past the
            # float range, which at 10**scale >= 1e-300 puts the cap along
            # unit above 1e8: positive at 1e6 unit.
            assert np.all(mesh.with_vertices(mesh.vertices + 1e6 * unit).signed_measures() > 0)
            return
        before = mesh.with_vertices(mesh.vertices + (1.0 - 1e-9) * lam * d)
        assert np.all(before.signed_measures() > 0)
        at = mesh.with_vertices(mesh.vertices + lam * d)
        scale = np.ptp(mesh.vertices[mesh.cells], axis=1).max(axis=1) ** mesh.dim
        assert np.any(np.abs(at.signed_measures()) <= simplex.DEGENERACY_RTOL * scale)

    @pytest.mark.parametrize(
        "amplitude, seed", [(0.227, 1570120090), (0.264, 4293267156)], ids=["a", "b"]
    )
    def test_cap_where_two_sliding_vertices_collide(self, amplitude, seed):
        # On these square n=2 slide-planar draws two sliding vertices reach a
        # fixed corner together: the binding cell's squared diameter falls to
        # 3e-5 / 5e-5 at lam. The cap is still right in exact arithmetic:
        # every cell is positive just before lam, and the binding one is
        # negative just after.
        mesh, d = cap_case(SQUARE, 2, amplitude, seed, m.SLIDE_PLANAR)
        lam, _ = cap.max_step_before_inversion(mesh, d)
        binding = np.argmin(np.abs(mesh.with_vertices(mesh.vertices + lam * d).signed_measures()))
        margin = Fraction(1, 10**13)
        before = exact_areas(mesh, d, Fraction(lam) * (1 - margin))
        after = exact_areas(mesh, d, Fraction(lam) * (1 + margin))
        assert all(a > 0 for a in before)
        assert after[binding] < 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_direction_raises_with_its_vertex(self, bad):
        # Before the check a NaN gave an unbounded step in 2D and numpy's
        # LinAlgError in 3D; a NaN root bound would also prune silently.
        for mesh in (unit_square_two_tris(), gen_mesh(GeneratorSpec(CUBE, 2))):
            d = np.ones_like(mesh.vertices)
            d[2, 1] = bad
            with pytest.raises(ValueError, match="at vertex 2$"):
                cap.max_step_before_inversion(mesh, d)

    @pytest.mark.parametrize("still", [0.0, 0.9], ids=["dense", "sparse"])
    def test_pruned_cap_matches_the_full_batch(self, monkeypatch, rng, still):
        mesh = jittered(CUBE)
        solved = count_solved_rows(monkeypatch)
        for trial in range(10):
            d = random_direction(mesh, still, rng)
            lam, _ = cap.max_step_before_inversion(mesh, d)
            assert bits(lam) == bits(batch_step(mesh, d, mesh.geometry()))
        assert sum(solved) < 10 * mesh.n_cells

    def test_nothing_pruned_when_every_cell_can_bind(self, monkeypatch):
        # Contracting to a point gives every cell the triple root s = 1 and
        # the bound 6, so every cell is solved.
        mesh = jittered(CUBE)
        d = mesh.vertices.mean(axis=0) - mesh.vertices
        solved = count_solved_rows(monkeypatch)
        lam, _ = cap.max_step_before_inversion(mesh, d)
        assert sum(solved) == mesh.n_cells > cap._CAP_FIRST_ROWS
        assert bits(lam) == bits(batch_step(mesh, d, mesh.geometry()))
        assert 1 - 1e-4 <= lam <= 1 + 1e-6


class TestLowerBound:
    """``step_lower_bounds``: no cell's cap lies below its bound, and the
    row-pruned cap has the bits of the full one."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        dim=st.sampled_from([2, 3]),
        family=st.sampled_from(["random", "flat", "sliver", "sliding", "tangential"]),
        seed=st.integers(0, 2**32 - 1),
        flatness=st.floats(-12.0, 0.0),
        offset=st.floats(0.0, 8.0),
        scale=st.floats(-300.0, 300.0),
    )
    def test_no_cap_is_below_its_bound(self, dim, family, seed, flatness, offset, scale):
        # 64 cells of one family, far from the origin and with the direction
        # scaled by powers of ten: every cell's bound is at most its own cap,
        # so the smallest bound is at most the cap.
        rng = np.random.default_rng(seed)
        pts, d = bound_cells(dim, family, rng, 10.0**flatness)
        pts = pts + 10.0**offset * rng.uniform(-1.0, 1.0, (len(pts), 1, dim))
        keep = ~rejected(m.kernel(dim), pts)
        assume(keep.any())
        mesh = stacked_cells(pts[keep])
        d = 10.0**scale * d[keep].reshape(-1, dim)
        lower = cap.step_lower_bounds(mesh, d, mesh.geometry())
        scaled, k = cap._scaled(mesh, d)
        roots = cap._row_roots(cap._measure_polynomials(mesh, scaled, mesh.geometry().edges))
        with np.errstate(divide="ignore", over="ignore"):
            caps = np.ldexp(1.0 / roots, k)
        assert np.all(lower <= caps)
        lam, _ = cap.max_step_before_inversion(mesh, d)
        assert STEP_CAP_FACTOR * lower.min() <= STEP_CAP_FACTOR * lam

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rounding_needs_the_margin(self, monkeypatch, dim):
        # A flat right-angled cell, its last vertex at relative height 1e-10
        # over vertex 0, turned and moved at random, with that vertex pushed
        # straight through the opposite facet. Its measure is linear in t,
        # so its exact step is -c0 / c1 in rationals, and its bound lies
        # within 1e-20 of it: rounding alone decides the side. Unlowered,
        # the bound exceeds the exact step on some of these cells, so a search
        # could skip a cap that binds; lowered by LOWER_BOUND_RTOL it is below
        # both the exact step and the computed cap on every one.
        rng = np.random.default_rng(4)
        over = 0
        for _ in range(40):
            pts, d = flat_cells(dim, rng, 1e-10, 1)
            pts += 10.0 ** rng.uniform(0, 4) * rng.uniform(-1.0, 1.0, dim)
            mesh, d = stacked_cells(pts), d.reshape(-1, dim)
            step = exact_linear_step(mesh.vertices, d)
            lowered = cap.step_lower_bounds(mesh, d, mesh.geometry())[0]
            with monkeypatch.context() as patch:
                patch.setattr(cap, "LOWER_BOUND_RTOL", 0.0)
                unlowered = cap.step_lower_bounds(mesh, d, mesh.geometry())[0]
            over += Fraction(unlowered) > step
            assert Fraction(lowered) <= step
            assert lowered <= cap.max_step_before_inversion(mesh, d)[0]
        assert over > 0

    def test_a_tiny_direction_keeps_a_finite_bound(self, monkeypatch):
        # A direction of 1e-170 on every vertex is rescaled to the mesh's
        # extent, so its cap is 1e170 times the one along the unit direction.
        # A cell whose differences are below 1e-154 of the direction's largest
        # entry still has ||D||_F**2 out of the normal range, and below 1e-162
        # it underflows to 0, which would make the cell's bound infinite
        # though its cubic has a root. Here the second of two cells moves
        # 1e-170 as fast as the first.
        P = random_tets(2, seed=2)
        unit = np.random.default_rng(0).normal(size=P.shape)
        caps = [cap.max_step_before_inversion(one_cell(p), u)[0] for p, u in zip(P, unit)]
        assert np.isfinite(caps).all()
        mesh, d = one_cell(P[0]), 1e-170 * unit[0]
        lam, _ = cap.max_step_before_inversion(mesh, d)
        assert lam == pytest.approx(1e170 * caps[0], rel=1e-12)
        assert cap.step_lower_bounds(mesh, d, mesh.geometry())[0] <= lam
        both, d = stacked_cells(P), np.concatenate([unit[0], 1e-170 * unit[1]])
        assert cap.step_lower_bounds(both, d, both.geometry())[1] <= 1e170 * caps[1]
        monkeypatch.setattr(cap, "_DIRECTION_SQ_FLOOR", 0.0)
        with np.errstate(divide="ignore"):
            assert cap.step_lower_bounds(both, d, both.geometry())[1] == np.inf

    @pytest.mark.parametrize("kind, largest", [(SQUARE, 6), (CUBE, 3)], ids=["square", "cube"])
    @settings(max_examples=25, deadline=None, database=None)
    @given(
        size=st.integers(2, 6),
        amplitude=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from([m.FIX_ALL, m.SLIDE_PLANAR]),
        still=st.sampled_from([0.0, 0.9]),
        scale=st.floats(-300.0, 300.0),
    )
    def test_pruned_cap_has_the_full_caps_bits(
        self, kind, largest, size, amplitude, seed, policy, still, scale
    ):
        # Pruned by rows, the cap along the direction scaled by 10**scale
        # keeps the bits of solving every cell, and names a cell that sets it.
        mesh, d = cap_case(kind, min(size, largest), amplitude, seed, policy)
        d[np.random.default_rng(seed).random(mesh.n_vertices) < still] = 0.0
        d *= 10.0**scale
        g = mesh.geometry()
        lam, cell = cap.max_step_before_inversion(mesh, d, edges=g.edges)
        assert bits(lam) == bits(full_batch_step(mesh, d, g))
        roots = cap._row_roots(cap._measure_polynomials(mesh, cap._scaled(mesh, d)[0], g.edges))
        if lam == np.inf:
            assert cell == -1
        else:
            assert roots[cell] == roots.max()


def bound_cells(dim, family, rng, h, n=64):
    """``n`` cells ``(n, dim + 1, dim)`` of a family and a direction on them.

    random: random cells and directions; flat: see :func:`flat_cells`;
    sliver: vertices within ``h`` of a random plane; sliding: each cell's
    vertices move within one random plane; tangential: scalings about a
    point by ``I - t D``, D with a double eigenvalue, so the measure touches
    zero and comes back, or a triple one in 3D.
    """
    if family == "flat":
        return flat_cells(dim, rng, h, n)
    k = dim + 1
    pts = rng.uniform(-1.0, 1.0, (n, k, dim))
    d = rng.normal(size=(n, k, dim))
    if family == "sliver":
        normal = unit_vectors(rng, n, dim)
        pts -= np.einsum("nkd,nd->nk", pts, normal)[:, :, None] * normal[:, None]
        pts += h * rng.uniform(-1.0, 1.0, (n, k, 1)) * normal[:, None]
    elif family == "sliding":
        normal = unit_vectors(rng, n, dim)
        d -= np.einsum("nkd,nd->nk", d, normal)[:, :, None] * normal[:, None]
    elif family == "tangential":
        Q = np.linalg.qr(rng.normal(size=(n, dim, dim)))[0]
        a = rng.uniform(0.1, 10.0, n)
        eig = np.stack([a] * (dim - 1) + [rng.choice([a, rng.uniform(-10.0, a)])], axis=1)
        D = Q @ (eig[:, :, None] * np.swapaxes(Q, 1, 2))
        d = -np.einsum("nij,nkj->nki", D, pts - rng.uniform(-1.0, 1.0, (n, 1, dim)))
    return orient(pts, d)


def flat_cells(dim, rng, h, n):
    """Right-angled cells with legs 1 and the last one h, each turned and
    scaled at random, with the last vertex pushed along that leg through the
    opposite facet: the cells on which the bound is tightest."""
    base = np.vstack([np.zeros(dim), np.eye(dim)])
    base[-1, -1] = h
    Q = np.linalg.qr(rng.normal(size=(n, dim, dim)))[0]
    size = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1, 1))
    pts = size * np.einsum("kd,nEd->nkE", base, Q)
    d = np.zeros_like(pts)
    d[:, -1] = -Q[:, :, -1] * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    return orient(pts, d)


def orient(pts, d):
    """Cells swapped to positive orientation, with their directions."""
    neg = m.kernel(pts.shape[2]).signed_measure(pts) < 0
    pts[neg, -2:], d[neg, -2:] = pts[neg, -1:-3:-1], d[neg, -1:-3:-1]
    return pts, d


def unit_vectors(rng, n, dim):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def exact_linear_step(vertices, d):
    """The root of one cell's measure at vertices + t d, in rationals, when
    the measure is linear in t."""

    def det_at(t):
        x = [[Fraction(v) + t * Fraction(dv) for v, dv in zip(*rows)]
             for rows in zip(vertices.tolist(), d.tolist())]
        return determinant([[a - b for a, b in zip(row, x[0])] for row in x[1:]])

    c0 = det_at(0)
    return -c0 / (det_at(1) - c0)


def determinant(M):
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return sum((-1) ** j * M[0][j] * determinant([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(3))


def bits(x):
    return np.float64(x).tobytes()


def cap_case(kind, n, amplitude, seed, policy):
    """A jittered, classified mesh and a random direction its constraints allow."""
    base = gen_mesh(GeneratorSpec(kind, n))
    mesh = m.classify_boundary(perturb_mesh(base, RandomJitter(amplitude, seed)), policy)
    rng = np.random.default_rng(seed)
    return mesh, mesh.project(rng.normal(size=mesh.vertices.shape))


def exact_areas(mesh, d, t):
    """Twice each triangle's signed area at vertices + t * d, in rationals."""
    pts = [
        [Fraction(v) + t * Fraction(dv) for v, dv in zip(vert, dvert)]
        for vert, dvert in zip(mesh.vertices.tolist(), d.tolist())
    ]
    areas = []
    for a, b, c in mesh.cells.tolist():
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        areas.append((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
    return areas


def quadratic_roots(a):
    """The closed-form reference for triangles' rows ``(a1, a2, 0)``: the
    largest positive real root of s**2 + a1 s + a2 (0 when none) by the
    cancellation-safe quadratic formula, a complex pair counted real when its
    imaginary part is at most REAL_ROOT_RTOL of its modulus; and the largest
    root modulus."""
    b, c = a[:, 0], a[:, 1]
    disc = b * b - 4.0 * c
    # A complex pair has |imag|**2 = -disc / 4 and |root|**2 = c.
    real = disc >= -4.0 * cap.REAL_ROOT_RTOL**2 * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):  # q = 0: masked below
        roots = np.array([q, c / q])
    largest = np.where(real & (roots > 0), roots, 0.0).max(axis=0)
    return largest, np.where(disc >= 0.0, np.abs(q), np.sqrt(np.abs(c)))


def cubic_roots(a):
    companion = np.zeros((len(a), 3, 3))
    companion[:, 0] = -a
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    return np.linalg.eigvals(companion)


def full_batch_root(a):
    """Largest positive real root over every row, all solved in one batch."""
    roots = cubic_roots(a)
    real = np.abs(roots.imag) <= cap.REAL_ROOT_RTOL * np.abs(roots)
    return np.where(real & (roots.real > 0), roots.real, 0.0).max(initial=0.0)


def batch_step(mesh, d, g):
    """The cap along ``d`` as given, with every cell solved in one batch,
    from the geometry ``g``."""
    s = full_batch_root(cap._measure_polynomials(mesh, d, g.edges))
    return 1.0 / s if s > 0 else np.inf


def full_batch_step(mesh, d, g):
    """:func:`batch_step` along ``d`` as the cap rescales it, scaled back."""
    d, k = cap._scaled(mesh, d)
    with np.errstate(over="ignore"):
        return np.ldexp(batch_step(mesh, d, g), k)


def largest_real_root(a):
    return cap._binding_roots(a)[0].max(initial=0.0)


def count_solved_rows(monkeypatch):
    solved = []
    solve = cap._row_roots

    def counted(a):
        solved.append(len(a))
        return solve(a)

    monkeypatch.setattr(cap, "_row_roots", counted)
    return solved


@functools.cache
def double_and_triple_rows():
    """Cap cubics of the cells of test_double_roots_in_3d and of the centroid
    test: a tangential double root, and a triple root."""
    rng = np.random.default_rng(5)
    P = random_tets(300, seed=3)
    a = rng.uniform(0.1, 10.0, 300)
    b = rng.uniform(-10.0, a)
    Q = np.linalg.qr(rng.normal(size=(300, 3, 3)))[0]
    D = Q @ (np.stack([a, a, b], axis=1)[:, :, None] * np.swapaxes(Q, 1, 2))
    d = -np.einsum("nij,nkj->nki", D, P - rng.uniform(-1, 1, (300, 1, 3)))
    cells = stacked_cells(P)
    double = cap._measure_polynomials(cells, d.reshape(-1, 3), cells.geometry().edges)
    P = random_tets(300, seed=0)
    cells = stacked_cells(P)
    triple = cap._measure_polynomials(
        cells, (P.mean(axis=1, keepdims=True) - P).reshape(-1, 3), cells.geometry().edges
    )
    return np.ascontiguousarray(double), np.ascontiguousarray(triple)


@pytest.fixture(scope="module")
def recorded_caps():
    """Every cubic batch the exact caps of a cube n=6 lbfgs solve on a sliver
    input solve."""
    mesh = m.classify_boundary(
        perturb_mesh(perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 6)), RandomJitter(0.1, 6)),
                     PlantSliver(5, 0.01)),
        m.FIX_ALL,
    )
    recorded, search = [], cap._binding_roots

    def record(a, *args):
        recorded.append(np.array(a))
        return search(a, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cap, "_binding_roots", record)
        optimize(mesh, OptimizeConfig(method="lbfgs", max_iters=15))
    assert recorded
    return recorded


def cap_cubics(kind, k, rng):
    """``k`` cubic rows of one family."""
    if kind == "extremal":
        # s**3 - r s**2 - r**2 s - 2 r**3 has the root 2r, on Fujiwara's bound.
        r = 10.0 ** rng.uniform(-90, 90, k)
        return np.stack([-r, -r * r, -2.0 * r**3], axis=1)
    if kind in ("double", "triple"):
        rows = double_and_triple_rows()[kind == "triple"]
        return rows[rng.integers(len(rows), size=k)]
    if kind == "linear":
        # One moving vertex: a double root at 0 that rounding may make positive.
        return np.stack([rng.normal(size=k) * 10.0 ** rng.uniform(-5, 5, k),
                         np.zeros(k), np.zeros(k)], axis=1)
    if kind == "positive":
        return np.abs(rng.normal(size=(k, 3))) * 10.0 ** rng.uniform(-5, 5, (k, 3))
    if kind == "spurious":
        # No sign change, yet LAPACK returns a positive root near 1e-20 on a few.
        return spurious_rows(k, rng)
    a = rng.choice([-1.0, 1.0], (k, 3)) * 10.0 ** rng.uniform(-100, 100, (k, 3))
    a[rng.random(a.shape) < 0.1] = 0.0
    return a


def spurious_rows(k, rng):
    return np.array([1e9, 1e-20, 1e-31]) * rng.uniform(0.5, 2.0, (k, 3))


def fujiwara_bound(a):
    """Fujiwara's bound on the root moduli of s**3 + a1 s**2 + a2 s + a3.

    ``a`` is (n, 3); every root of row i has modulus at most
    ``2 max(|a1|, |a2|**(1/2), |a3/2|**(1/3))``. CAP_ROOT_SCALE relies on
    its weaker form ``2 max(|a1|, |a2|**(1/2), |a3|**(1/3))``.
    """
    a = np.abs(a)
    return 2.0 * np.maximum(np.maximum(a[:, 0], np.sqrt(a[:, 1])), np.cbrt(0.5 * a[:, 2]))


class TestRootBound:
    # Relative slack on Fujiwara's bound: LAPACK's root may round above it.
    RTOL = 1e-9

    def assert_bounds_roots(self, a, shifts):
        # Every root is within Fujiwara's bound, and a row that _shift_clears
        # clears at S has every root within 2 CAP_ROOT_SCALE S and none
        # counted real at or above s = S / (1 - CAP_MARGIN): skipping it
        # cannot change the cap.
        roots = np.abs(cubic_roots(a))
        assert np.all(roots <= fujiwara_bound(a)[:, None] * (1.0 + self.RTOL))
        top = cap._row_roots(a)
        cleared = 0
        for S in shifts:
            clear = cap._shift_clears(a.T, S)
            cleared += clear.sum()
            assert np.all(roots[clear] <= 2.0 * cap.CAP_ROOT_SCALE * S * (1.0 + self.RTOL))
            assert np.all(top[clear] < S / (1.0 - cap.CAP_MARGIN))
        assert cleared > 0

    def own_shifts(self, a, k, rng):
        # S = s (1 - CAP_MARGIN) for the largest roots s of k rows of a.
        top = cap._row_roots(a)
        top = top[(top > 1e-99) & (top < 1e99)]
        return rng.choice(top, k, replace=False) * (1.0 - cap.CAP_MARGIN)

    def test_random_cubics(self):
        rng = np.random.default_rng(11)
        a = rng.choice([-1.0, 1.0], (20000, 3)) * 10.0 ** rng.uniform(-100, 100, (20000, 3))
        a[rng.random(a.shape) < 0.1] = 0.0
        a[:1000] = rng.normal(size=(1000, 3))
        shifts = np.concatenate([10.0 ** np.arange(-96.0, 97.0, 8.0), self.own_shifts(a, 50, rng)])
        self.assert_bounds_roots(a, shifts)

    def test_double_and_triple_roots(self):
        # The cells of test_double_roots_in_3d and of the centroid test.
        a = np.concatenate(double_and_triple_rows())
        self.assert_bounds_roots(a, self.own_shifts(a, 100, np.random.default_rng(2)))

    def test_bound_is_attained_and_rounding_crosses_it(self):
        # s**3 - r s**2 - r**2 s - 2 r**3 = (s - 2r)(s**2 + r s + r**2) has the
        # root 2r, equal to its bound; LAPACK's root lands a few ulp above it
        # on about half of them, far inside CAP_MARGIN. The shift clears each
        # just right of 2r and none just left of it.
        r = np.geomspace(1e-90, 1e90, 4001)
        a = np.stack([-r, -r * r, -2.0 * r**3], axis=1)
        excess = np.abs(cubic_roots(a)).max(axis=1) / fujiwara_bound(a) - 1.0
        assert np.any(excess > 0.0)
        assert excess.max() <= 1e-3 * self.RTOL
        for i in range(0, len(r), 10):
            row = a[i : i + 1].T
            assert cap._shift_clears(row, 2.0 * r[i] * (1.0 + cap.CAP_MARGIN))[0]
            assert not cap._shift_clears(row, 2.0 * r[i] * (1.0 - cap.CAP_MARGIN))[0]


def outcome(search, a):
    try:
        return bits(search(a))
    except np.linalg.LinAlgError:
        return "LinAlgError"


class TestLargestRealRoot:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.fixed_dictionaries({
            kind: st.integers(0, 12)
            for kind in ("extremal", "double", "triple", "linear", "positive", "spurious", "random")
        }),
        recorded=st.one_of(st.none(), st.integers(0, 10**6)),
        nan=st.booleans(),
    )
    def test_equals_the_full_batch(self, recorded_caps, seed, counts, recorded, nan):
        # Every pruned search has the bits of solving every row, or raises as
        # it does on a NaN row.
        rng = np.random.default_rng(seed)
        parts = [cap_cubics(kind, k, rng) for kind, k in counts.items()]
        if recorded is not None:
            parts.append(recorded_caps[recorded % len(recorded_caps)])
        if nan:
            parts.append(np.full((1, 3), np.nan))
        a = np.concatenate(parts)
        a = a[rng.permutation(len(a))]
        assert outcome(largest_real_root, a) == outcome(full_batch_root, a)
        # The layout measure_polynomial returns: a view of (3, n) columns.
        assert outcome(largest_real_root, np.ascontiguousarray(a.T).T) == outcome(
            full_batch_root, a
        )

    def test_margin_keeps_a_near_real_pair_above_the_shift(self, monkeypatch):
        # Decoys with the real root 1 and the pair 5 +- 10i rank first, so the
        # cap shifts to S = 1 - CAP_MARGIN. The last cubic has the roots 1/2
        # and 1 + 5e-9 +- 9e-5 i, a pair counted real above 1. At a margin of
        # 0 every coefficient of its shift to S = 1 is positive, so it is
        # cleared and the cap is wrong.
        decoy = np.real(np.poly([1.0, 5.0 + 10.0j, 5.0 - 10.0j]))[1:]
        near = np.real(np.poly([0.5, 1.0 + 5e-9 + 9e-5j, 1.0 + 5e-9 - 9e-5j]))[1:]
        batch = np.concatenate([np.repeat(decoy[None], cap._CAP_FIRST_ROWS, axis=0), [near]])
        assert np.all(cap._root_estimate(batch[:-1]) > cap._root_estimate(batch[-1:]))
        s_decoy, s_near = cap._row_roots(batch[[0, -1]])
        assert s_decoy < s_near
        assert largest_real_root(batch) == s_near == full_batch_root(batch)
        monkeypatch.setattr(cap, "CAP_MARGIN", 0.0)
        assert largest_real_root(batch) == s_decoy

    def test_a_shift_within_rounding_of_zero_is_solved(self, monkeypatch):
        # The last cubic has a root 1e-14 left of the shift S: its shifted
        # constant term p(S) is 1e-14 of the sum of its terms' moduli, inside
        # CAP_SHIFT_RTOL, so it is solved rather than cleared on a sign that
        # rounding could have set.
        decoy = np.real(np.poly([1.0, 5.0 + 10.0j, 5.0 - 10.0j]))[1:]
        s = cap._row_roots(decoy[None])[0]
        near = np.real(np.poly([s * (1.0 - cap.CAP_MARGIN) * (1.0 - 1e-14), -1.0, -2.0]))[1:]
        batch = np.concatenate([np.repeat(decoy[None], cap._CAP_FIRST_ROWS, axis=0), [near]])
        solved = count_solved_rows(monkeypatch)
        assert largest_real_root(batch) == s
        assert solved == [cap._CAP_FIRST_ROWS, 1]

    def test_a_cubic_without_sign_change_can_set_the_cap(self, rng):
        # LAPACK returns a positive root s near 1e-20 for a few cubics with
        # only positive coefficients and a1 = 1e9. Behind decoys that rank
        # first with no positive root (S = 0) or with the root s / 2, s is the
        # cap: no cubic is dropped on its signs alone, and one whose roots
        # reach far past S is solved.
        rows = spurious_rows(2000, rng)
        spurious = rows[np.argmax(cap._row_roots(rows))]
        s = cap._row_roots(spurious[None])[0]
        assert s > 0
        for roots in ([-0.5 * s, s + 1e-19j, s - 1e-19j], [0.5 * s, 1e-19j, -1e-19j]):
            decoy = np.real(np.poly(roots))[1:]
            batch = np.concatenate([np.repeat(decoy[None], cap._CAP_FIRST_ROWS, axis=0), [spurious]])
            assert np.all(cap._root_estimate(batch[:-1]) > cap._root_estimate(batch[-1:]))
            assert largest_real_root(batch) == s == full_batch_root(batch)

    def test_a_sliver_solve_solves_few_rows(self, monkeypatch):
        # Every cubic of cube n=6 is 1296 rows; along the first lbfgs direction
        # of a sliver input the cap solves fewer than 64 of them, along the
        # median direction at most 8, and LAPACK never gets an empty batch.
        mesh = m.classify_boundary(
            perturb_mesh(perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 6)), RandomJitter(0.1, 1)),
                         PlantSliver(5, 0.01)),
            m.FIX_ALL,
        )
        directions, lam_cap = [], optim.MeshProblem.lam_cap

        def recorded(problem, x, d):
            directions.append((problem.mesh_at(x), d.reshape(-1, 3)))
            return lam_cap(problem, x, d)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optim.MeshProblem, "lam_cap", recorded)
            optimize(mesh, OptimizeConfig(method="lbfgs", max_iters=10))
        calls, search, solve = [], cap._binding_roots, cap._row_roots

        def per_call(a, *args):
            calls.append([])
            return search(a, *args)

        def counted(a):
            calls[-1].append(len(a))
            return solve(a)

        monkeypatch.setattr(cap, "_binding_roots", per_call)
        monkeypatch.setattr(cap, "_row_roots", counted)
        for at, d in directions:
            cap.max_step_before_inversion(at, d)
        rows = [sum(c) for c in calls]
        assert len(rows) >= 10
        assert rows[0] < 64
        assert np.median(rows) <= 8
        assert min(min(c) for c in calls) > 0


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
        project = tagged.project
        field = np.ones_like(tagged.vertices)
        out = project(field)
        assert np.all(out[tagged.fixed_mask()] == 0.0)
        slide = tagged.slide_mask()
        dots = np.einsum("ij,ij->i", out[slide], tagged.slide_normals[slide])
        np.testing.assert_allclose(dots, 0.0, atol=1e-14)
        free = tagged.constraint_kind == m.FREE
        np.testing.assert_array_equal(out[free], field[free])

    def test_keep_fixed_restores_the_fixed_rows_alone(self):
        tagged = m.classify_boundary(gen_mesh(GeneratorSpec(CUBE, 2)), m.SLIDE_PLANAR)
        fixed = tagged.fixed_mask()
        start = tagged.vertices.copy()
        corner = np.flatnonzero(fixed)[0]
        start[corner] = -0.0
        moved = start + 0.25
        want = moved.copy()
        want[fixed] = start[fixed]
        tagged.keep_fixed(moved, start)
        assert moved.tobytes() == want.tobytes()
        assert np.signbit(moved[corner]).all()

    def test_slide_drift_is_zero_without_a_moved_sliding_vertex(self):
        mesh = gen_mesh(GeneratorSpec(CUBE, 2))
        moved = mesh.vertices + 0.1
        assert m.classify_boundary(mesh, m.FIX_ALL).slide_drift(mesh.vertices, moved) == 0.0
        tagged = m.classify_boundary(mesh, m.SLIDE_PLANAR)
        slide = tagged.slide_mask()
        moved[slide] = mesh.vertices[slide]
        assert slide.any() and tagged.slide_drift(mesh.vertices, moved) == 0.0

    def test_slide_drift_of_a_projected_move_is_rounding(self):
        tagged = m.classify_boundary(gen_mesh(GeneratorSpec(CUBE, 2)), m.SLIDE_PLANAR)
        d = tagged.project(np.random.default_rng(0).normal(size=tagged.vertices.shape))
        assert tagged.slide_drift(tagged.vertices, tagged.vertices + d) < 1e-15

    def test_slide_drift_of_one_off_plane_move(self):
        tagged = m.classify_boundary(gen_mesh(GeneratorSpec(CUBE, 2)), m.SLIDE_PLANAR)
        v = np.flatnonzero(tagged.slide_mask())[0]
        d = np.array([0.3, -0.2, 0.5])
        moved = tagged.vertices.copy()
        moved[v] += d
        want = abs(d @ tagged.slide_normals[v]) / np.linalg.norm(d)
        assert want > 0.1
        assert tagged.slide_drift(tagged.vertices, moved) == pytest.approx(want, rel=1e-12)
