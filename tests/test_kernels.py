"""The one element-kernel interface: both kernels, one layout, one mu convention."""

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse

from rrsmooth import mesh as m, simplex, tetrahedra, triangles
from rrsmooth.assembly import assemble, energy_gradient
from rrsmooth.errors import DegenerateElement
from rrsmooth.generate import (
    CUBE, SQUARE, GeneratorSpec, PlantSliver, RandomJitter, gen_mesh, perturb_mesh,
)

from conftest import (
    block_gradient, central_diff, dense_blocks, dense_laplacians, random_tets, random_triangles,
    REGULAR, reference_geometry, reference_gradient, rejected, stacked_cells,
)

KERNELS = pytest.mark.parametrize(
    "kernel, random_cells",
    [(triangles, random_triangles), (tetrahedra, random_tets)],
    ids=["triangles", "tetrahedra"],
)

INTERFACE = (
    "geometry", "gradient", "block_weights", "precond_weights", "measure_polynomial",
    "signed_measure", "EDGES", "FACETS", "LAYOUT",
)


def slivered_cube():
    mesh = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 3)), RandomJitter(amplitude=0.2, seed=4))
    return perturb_mesh(mesh, PlantSliver(count=1, eps=0.01))


def jittered_square():
    return perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, 5)), RandomJitter(amplitude=0.3, seed=3))


@KERNELS
def test_same_interface_and_mu_convention(kernel, random_cells):
    for name in INTERFACE:
        assert hasattr(kernel, name), name
    # Exactly these public functions, so no wrapper creeps back: the interface
    # and the measure it aliases, plus in 3D abs_local_matrix, which
    # perfbench/tracing.py patches to time the preconditioner's local work.
    defined = {
        name for name, f in vars(kernel).items()
        if inspect.isfunction(f) and f.__module__ == kernel.__name__ and not name.startswith("_")
    }
    expected = {name for name in INTERFACE if inspect.isfunction(getattr(kernel, name))}
    expected.add(kernel.signed_measure.__name__)
    if kernel is tetrahedra:
        expected.add("abs_local_matrix")
    assert defined == expected
    assert str(inspect.signature(kernel.gradient)) == "(g, scale=1.0)"
    cells = random_cells(100, seed=16)
    dim = cells.shape[2]
    assert m.kernel(dim) is kernel
    assert len(kernel.LAYOUT.rows) == dim
    # Blocks carry no mu: the gradient is mu times the local block product.
    mu, *blocks = dense_blocks(kernel, cells)
    grads = kernel.gradient(kernel.geometry(cells))
    for c, P in enumerate(cells):
        G = kernel.LAYOUT.matrix([b[c] for b in blocks], np.block)
        gv = mu[c] * (G @ P.T.ravel())
        stacked = gv.reshape(P.shape[1], -1).T
        rel = np.linalg.norm(stacked - grads[c]) / np.linalg.norm(grads[c])
        assert rel <= 1e-12


@KERNELS
def test_geometry_is_shared_by_every_output(kernel, random_cells):
    pts = random_cells(50, seed=17)
    g = kernel.geometry(pts)
    mu, *blocks = dense_blocks(kernel, pts)
    assert mu.tobytes() == g.mu.tobytes()
    shape = (len(kernel.EDGES[0]), len(pts))
    weights = kernel.block_weights(g)
    assert weights.shape == (len(blocks), *shape)
    assert kernel.block_weights(kernel.geometry(pts)).tobytes() == weights.tobytes()
    assert kernel.precond_weights(g).shape == shape
    assert simplex.laplacian(kernel.precond_weights(g), kernel.EDGES).shape == blocks[0].shape


# Relative rounding of mu under a similarity is at most C * eps * (1 + |offset|
# / diameter): moved coordinates carry an absolute error of about eps * |offset|.
# Probe (300 random cells with mu < 50, each under 1300 random similarities,
# scale 1e-3 to 1e3, offset up to 1e6): the worst C was 44 for triangles and 55
# for tetrahedra. C = 200 leaves a margin of 3.6.
SIMILARITY_C = 200.0


def rotation(entries, dim):
    """A proper rotation: the Q factor of a square matrix, signs fixed to det +1."""
    Q, R = np.linalg.qr(np.reshape(entries[: dim * dim], (dim, dim)))
    Q = Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


@KERNELS
@settings(max_examples=50, deadline=None, database=None)
@given(
    log_scale=st.floats(-3.0, 3.0),
    entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    offset=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
)
def test_radius_ratio_is_similarity_invariant(kernel, random_cells, log_scale, entries, offset):
    pts = random_cells(40, seed=51)
    dim = pts.shape[2]
    scale, shift = 10.0**log_scale, np.array(offset[:dim])
    moved = scale * pts @ rotation(entries, dim).T + shift
    mu = kernel.geometry(pts).mu
    diameter = scale * np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1).max(axis=(1, 2))
    bound = SIMILARITY_C * np.finfo(float).eps * (1.0 + np.linalg.norm(shift) / diameter)
    assert np.all(np.abs(kernel.geometry(moved).mu - mu) <= bound * mu)


def hand_written_tet_gradient(pts, mu, A, B0, B1, B2):
    """The 3D block product as written out before the layout was shared."""
    local = pts - pts[:, :1]
    X, Y, Z = local[..., 0], local[..., 1], local[..., 2]

    def mv(M, v):
        return np.einsum("nij,nj->ni", M, v)

    grad = np.stack(
        [
            mv(A, X) + mv(B2, Y) + mv(B1, Z),
            -mv(B2, X) + mv(A, Y) + mv(B0, Z),
            -mv(B1, X) - mv(B0, Y) + mv(A, Z),
        ],
        axis=2,
    )
    return mu[:, None, None] * grad


@pytest.mark.parametrize(
    "pts", [random_tets(200, seed=23), slivered_cube().cell_points()],
    ids=["random-tets", "slivered-cube"],
)
def test_layout_gives_the_bits_of_the_hand_written_tet_product(pts):
    blocks = dense_blocks(tetrahedra, pts)
    got = block_gradient(tetrahedra, pts, *blocks)
    assert got.tobytes() == hand_written_tet_gradient(pts, *blocks).tobytes()


def hand_written_blocks(kernel, pts):
    """G_F's local blocks ``(A, *B)`` as the dense builders wrote them before
    the blocks became edge weights: B from a sign pattern in 2D, and in 3D
    from the |d0| term's matrix K and the volume gradient's D."""
    g = kernel.geometry(pts)
    if kernel is triangles:
        signs = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        return simplex.laplacian(kernel.precond_weights(g), kernel.EDGES), (
            (1.0 / g.area)[:, None, None] * signs
        )
    n10, n20, n30 = g.edge_sq
    k23, k31, k12 = n30 - n20, n10 - n30, n20 - n10
    K = np.zeros((len(g.mu), 4, 4))
    K[:, 0, 1], K[:, 1, 0] = -k23, k23
    K[:, 0, 2], K[:, 2, 0] = -k31, k31
    K[:, 0, 3], K[:, 3, 0] = -k12, k12
    K[:, 1, 2], K[:, 2, 1] = -n30, n30
    K[:, 1, 3], K[:, 3, 1] = n20, -n20
    K[:, 2, 3], K[:, 3, 2] = -n10, n10
    # D[i, j] = x_k - x_l over the even permutations (i, j, k, l).
    idx = np.array([[0, 2, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 1, 3]])
    D = [pts[:, idx, c] - pts[:, idx.T, c] for c in range(3)]
    inv_d0sq = (1.0 / g.d0_sq)[:, None, None]
    inv_6vol = (1.0 / (6.0 * g.volume))[:, None, None]
    return (
        simplex.laplacian(np.add(*kernel._weight_terms(g)), kernel.EDGES),
        -g.d0[0, :, None, None] * K * inv_d0sq + D[0] * inv_6vol,
        g.d0[1, :, None, None] * K * inv_d0sq - D[1] * inv_6vol,
        -g.d0[2, :, None, None] * K * inv_d0sq + D[2] * inv_6vol,
    )


@pytest.mark.parametrize(
    "kernel, pts",
    [(triangles, random_triangles(500, seed=29)), (triangles, jittered_square().cell_points()),
     (tetrahedra, random_tets(500, seed=29)), (tetrahedra, slivered_cube().cell_points())],
    ids=["random-triangles", "jittered-square", "random-tets", "slivered-cube"],
)
def test_block_weights_give_the_hand_written_blocks(kernel, pts):
    # Same arithmetic per entry; only the zero diagonal of B may change sign.
    _, *blocks = dense_blocks(kernel, pts)
    for got, expected in zip(blocks, hand_written_blocks(kernel, pts), strict=True):
        assert np.array_equal(got, expected)


def spelled_out(system):
    """G_F @ V and G_F written out per dimension, from the sparse blocks."""
    nv, A = system.n_vertices, system.A
    X, Y, Z = system.V[:nv], system.V[nv : 2 * nv], system.V[2 * nv :]
    if system.dim == 2:
        (B,) = system.B_blocks
        product = np.concatenate([A @ X + B @ Y, -(B @ X) + A @ Y])
        matrix = sparse.bmat([[A, B], [-B, A]], format="csr")
    else:
        B0, B1, B2 = system.B_blocks
        product = np.concatenate(
            [A @ X + B2 @ Y + B1 @ Z, -(B2 @ X) + A @ Y + B0 @ Z, -(B1 @ X) - (B0 @ Y) + A @ Z]
        )
        matrix = sparse.bmat([[A, B2, B1], [-B2, A, B0], [-B1, -B0, A]], format="csr")
    return product, matrix


@pytest.mark.parametrize("make", [jittered_square, slivered_cube], ids=["square", "slivered-cube"])
def test_sparse_layout_gives_the_bits_of_the_spelled_out_product(make):
    system = assemble(make())
    product, matrix = spelled_out(system)
    assert system.gradient_matvec().tobytes() == product.tobytes()
    got = system.gradient_matrix()
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(matrix, name).tobytes()


def test_layout_subtracts_negative_terms():
    # x - y and x + (-y) round the same way, so the sign may ride on the term.
    layout = simplex.Layout("P Q", ["P -Q", "-Q -P"])
    x, y = np.array([0.1, 1e16]), np.array([0.3, -1.0])
    rows = layout.product((x, y), (1.0, 1.0), lambda b, v: b * v)
    assert rows[0].tobytes() == (x + (-y)).tobytes()
    assert rows[1].tobytes() == ((-y) - x).tobytes()
    grid = layout.matrix((1.0, 2.0), lambda rows: rows)
    assert grid == [[1.0, -2.0], [-2.0, -1.0]]


# The closed-form gradient against the paper's block split and its other
# references. Tolerances were fixed before the closed form was written.
CELLS = {
    "random": lambda dim: (random_triangles if dim == 2 else random_tets)(200, seed=31),
    "mesh": lambda dim: (jittered_square() if dim == 2 else slivered_cube()).cell_points(),
}
CLOSED_FORM_CASES = pytest.mark.parametrize(
    "kernel, cells",
    [(k, c) for k in (triangles, tetrahedra) for c in CELLS],
    ids=[f"{k}-{c}" for k in ("triangles", "tetrahedra") for c in CELLS],
)


def dim_of(kernel):
    return len(kernel.LAYOUT.rows)


class TestClosedFormGradient:
    @CLOSED_FORM_CASES
    def test_equals_the_materialized_block_product(self, kernel, cells):
        pts = CELLS[cells](dim_of(kernel))
        mu, *blocks = dense_blocks(kernel, pts)
        grad = kernel.gradient(kernel.geometry(pts))
        for c, P in enumerate(pts):
            G = kernel.LAYOUT.matrix([b[c] for b in blocks], np.block)
            V = (P - P[0]).T.ravel()
            expected = (mu[c] * (G @ V)).reshape(P.shape[1], -1).T
            scale = np.abs(expected).max()
            assert np.abs(grad[c] - expected).max() <= 1e-13 * scale, c

    @CLOSED_FORM_CASES
    def test_matches_central_differences(self, kernel, cells):
        pts = CELLS[cells](dim_of(kernel))[:60]
        grads = kernel.gradient(kernel.geometry(pts))
        for P, g in zip(pts, grads):
            h = 1e-6 * np.ptp(P, axis=0).max()
            gfd = central_diff(lambda Q: kernel.geometry(Q[None]).mu[0], P, h)
            assert np.linalg.norm(g - gfd) <= 1e-6 * np.linalg.norm(gfd)

    @CLOSED_FORM_CASES
    def test_unchanged_under_a_large_translation(self, kernel, cells):
        pts = CELLS[cells](dim_of(kernel))
        q = pts + 1e6
        far = kernel.gradient(kernel.geometry(q))
        near = kernel.gradient(kernel.geometry(q - 1e6))
        rel = np.linalg.norm(far - near, axis=(1, 2)) / np.linalg.norm(near, axis=(1, 2))
        assert rel.max() <= 1e-12

    @CLOSED_FORM_CASES
    def test_measure_has_the_bits_of_signed_measure(self, kernel, cells):
        pts = CELLS[cells](dim_of(kernel))
        expected = kernel.signed_measure(pts).tobytes()
        assert kernel.geometry(pts)[0].tobytes() == expected
        # The per-coordinate gather that energy_gradient reads.
        soa = np.ascontiguousarray(np.asarray(pts).T).T
        assert kernel.geometry(soa)[0].tobytes() == expected

    @pytest.mark.parametrize("make", [jittered_square, slivered_cube], ids=["square", "slivered-cube"])
    def test_mesh_path_measure_and_inverted_cell(self, make):
        mesh = make()
        _, _, g = energy_gradient(mesh)
        assert g[0].tobytes() == mesh.signed_measures().tobytes()
        cells = mesh.cells.copy()
        c = mesh.n_cells // 2
        cells[c, -2:] = cells[c, -1:-3:-1]
        inverted = m.SimplexMesh(mesh.vertices, cells)
        first = np.flatnonzero(rejected(m.kernel(mesh.dim), inverted.cell_points()))
        assert first[0] == c
        with pytest.raises(DegenerateElement) as exc:
            energy_gradient(inverted)
        assert exc.value.cell == c


LAPLACIAN_CASES = pytest.mark.parametrize(
    "kernel, pts",
    [(triangles, random_triangles(1000, seed=41)), (triangles, jittered_square().cell_points()),
     (tetrahedra, random_tets(1000, seed=41)), (tetrahedra, slivered_cube().cell_points())],
    ids=["random-triangles", "jittered-square", "random-tets", "slivered-cube"],
)


def max_entry_error(got, expected, scale):
    """Largest entry error per cell, relative to that cell's largest entry of ``scale``."""
    return (np.abs(got - expected).max(axis=(1, 2)) / np.abs(scale).max(axis=(1, 2))).max()


class TestLaplacian:
    """A and P's local matrix are Laplacians of edge weights; the dense
    M/S construction (``dense_laplacians``) is the reference."""

    @LAPLACIAN_CASES
    def test_weights_give_the_dense_abs_clamped_matrix(self, kernel, pts):
        g = kernel.geometry(pts)
        weights = kernel.precond_weights(g)
        assert np.all(weights >= 0.0)
        got = simplex.laplacian(weights, kernel.EDGES)
        _, expected = dense_laplacians(kernel, g)
        if kernel is triangles:
            assert got.tobytes() == expected.tobytes()
        assert max_entry_error(got, expected, expected) <= 1e-15

    @LAPLACIAN_CASES
    def test_signed_weights_give_the_dense_block_a(self, kernel, pts):
        g = kernel.geometry(pts)
        _, A, *_ = dense_blocks(kernel, pts)
        expected, abs_clamped = dense_laplacians(kernel, g)
        if kernel is triangles:
            assert A.tobytes() == expected.tobytes()
        # The 3D weights sum terms of either sign: rounding is relative to
        # their magnitudes, which the abs-clamped matrix adds up.
        assert max_entry_error(A, expected, abs_clamped) <= 1e-15


def lean_cells(dim, family, rng, n=32):
    """``n`` positive cells of a family: random; sliver, vertices within 1e-8
    to 1e-2 of a random plane; anisotropic, each axis scaled by up to 10**1.5
    either way, then turned."""
    pts = rng.uniform(-1.0, 1.0, (n, dim + 1, dim))
    if family == "sliver":
        normal = rng.normal(size=(n, dim))
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        pts -= np.einsum("nkd,nd->nk", pts, normal)[:, :, None] * normal[:, None]
        height = 10.0 ** rng.uniform(-8.0, -2.0, (n, 1, 1))
        pts += height * rng.uniform(-1.0, 1.0, (n, dim + 1, 1)) * normal[:, None]
    elif family == "anisotropic":
        Q = np.linalg.qr(rng.normal(size=(n, dim, dim)))[0]
        pts = np.einsum("nkd,nEd->nkE", pts * 10.0 ** rng.uniform(-1.5, 1.5, (n, 1, dim)), Q)
    negative = m.kernel(dim).signed_measure(pts) < 0
    pts[negative, -2:] = pts[negative, -1:-3:-1]
    return pts


def degenerate_meshes(dim):
    """Jittered meshes with degenerate cells: flat (a vertex moved to the
    centroid of the opposite facet), inverted, small (the flat one scaled by
    1e-20, inside the kernels' range), tiny and huge (scaled by 1e-80 and
    1e80, every cell out of range), and offset (the flat vertices under the
    inverted cells, moved 1e8 from the origin)."""
    base = perturb_mesh(
        gen_mesh(GeneratorSpec(SQUARE if dim == 2 else CUBE, 4 if dim == 2 else 2)),
        RandomJitter(amplitude=0.2, seed=9),
    )
    flat = base.copy()
    for c in (3, 7):
        a, *rest = flat.cells[c]
        flat.vertices[a] = flat.vertices[rest].mean(axis=0)
    inverted = base.copy()
    inverted.cells[[2, 5], -2:] = inverted.cells[[2, 5], -1:-3:-1]
    offset = inverted.with_vertices(flat.vertices + 1e8)
    cases = {"flat": flat, "inverted": inverted, "offset": offset}
    for name, scale in (("small", 1e-20), ("tiny", 1e-80), ("huge", 1e80)):
        cases[name] = flat.with_vertices(scale * flat.vertices)
    return cases


DEGENERATE_CASES = ["flat", "inverted", "small", "tiny", "huge", "offset"]


class TestLeanPass:
    """The gather-free geometry pass and the per-cell scaled gradient against
    the gathering pass and gradient as first written (``conftest``)."""

    @settings(max_examples=24, deadline=None, database=None)
    @given(
        dim=st.sampled_from([2, 3]),
        family=st.sampled_from(["random", "sliver", "anisotropic"]),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 1e6]),
    )
    def test_geometry_bits_and_gradient(self, dim, family, seed, offset):
        kernel = m.kernel(dim)
        rng = np.random.default_rng(seed)
        pts = lean_cells(dim, family, rng) + offset * rng.uniform(-1.0, 1.0, dim)
        pts = pts[~rejected(kernel, pts)]
        assume(len(pts))
        g = kernel.geometry(pts)
        for name, field in reference_geometry(kernel, pts).items():
            assert np.asarray(getattr(g, name)).tobytes() == field.tobytes(), name
        expected = reference_gradient(kernel, pts)
        # The closed form sums terms of size mu over the cell's smallest height,
        # mu times its largest facet over its measure; on a near-regular cell
        # they cancel to a gradient far below them. Past an aspect of 1e3 the
        # terms cancel more, and the two orders of operations differ by more.
        if kernel is triangles:
            facet = g.lengths.max(axis=0)
        else:
            facet = 0.5 * np.sqrt((g.normals * g.normals).sum(axis=0)).max(axis=0)
        scale = np.maximum(np.abs(expected).max(axis=(1, 2)), g.mu * facet / g[0])
        for s in (1.0, 0.25):
            error = np.abs(kernel.gradient(g, s) - s * expected).max(axis=(1, 2))
            assert np.all(error <= 1e-13 * s * scale)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("case", DEGENERATE_CASES)
    def test_the_same_cell_raises_with_the_same_message(self, dim, case):
        pts = degenerate_meshes(dim)[case].cell_coords().T
        kernel = m.kernel(dim)
        with pytest.raises(DegenerateElement) as expected:
            reference_geometry(kernel, pts)
        with pytest.raises(DegenerateElement) as got:
            kernel.geometry(pts)
        assert (got.value.cell, str(got.value)) == (expected.value.cell, str(expected.value))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("case", DEGENERATE_CASES)
    def test_validate_keeps_its_violations(self, dim, case):
        # The rules written out, with S summed over every vertex pair: every
        # cell of tiny and huge is out of range, and small, inside the range,
        # flags the cells that flat does.
        meshes = degenerate_meshes(dim)
        pts = meshes[case].cell_points()
        meas = m.kernel(dim).signed_measure(pts)
        S = sum(((a - b) ** 2).sum(axis=1) for a, b in itertools.combinations(pts.swapaxes(0, 1), 2))
        lo, hi = simplex.EDGE_SQ_RANGE[dim]
        far = ~((S >= lo) & (S <= hi))
        with np.errstate(over="ignore"):
            flat = meas <= simplex.DEGENERACY_RTOL * S ** (dim / 2)
        expected = [
            m.Violation("scale-out-of-range", int(c), f"sum of squared edges {S[c]:.3e}")
            if far[c] else
            m.Violation("non-positive-orientation", int(c), f"signed measure {meas[c]:.3e}")
            for c in np.flatnonzero(far | flat)
        ]
        assert expected and m.validate(meshes[case]) == expected
        assert far.all() == (case in ("tiny", "huge"))
        if case == "small":
            assert [v.index for v in expected] == [v.index for v in m.validate(meshes["flat"])]


def threshold_cells(dim, rng, ratios, feet=None):
    """One cell per ratio, measure about ``ratio * DEGENERACY_RTOL * S**(dim/2)``:
    a facet in the plane ``x_dim = 0``, and the last vertex at the height over
    its foot that gives that measure. The facet and the foot are ``feet``
    ``(n, dim + 1, dim - 1)``, by default random within 1 of the origin."""
    n, k = len(ratios), dim + 1
    pts = np.zeros((n, k, dim))
    pts[:, :, :-1] = rng.uniform(-1.0, 1.0, (n, k, dim - 1)) if feet is None else feet
    S = simplex.edge_sq_sum(pts.T, m.kernel(dim).EDGES)
    pts[:, -1, -1] = 1.0
    per_height = m.kernel(dim).signed_measure(pts)
    pts[:, -1, -1] = np.asarray(ratios) * simplex.DEGENERACY_RTOL * S ** (dim / 2) / per_height
    return pts


def kernel_outputs(kernel, pts):
    """mu, the gradient and both edge weights, cells last, with their degree
    in length."""
    g = kernel.geometry(pts)
    return [(g.mu, 0), (kernel.gradient(g).T, -1), (kernel.precond_weights(g), -2),
            (kernel.block_weights(g), -2)]


class TestDegeneracyRule:
    """One rule on S, each cell's sum of squared edges: out of the kernel's
    range, or a measure at most DEGENERACY_RTOL * S**(dim/2)."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_validate_sums_the_passes_squared_edges(self, monkeypatch, dim):
        # validate's S has the bits of the S the pass hands the check, so the
        # two flag the same cells.
        kernel, held, check = m.kernel(dim), [], simplex.check_degenerate

        def holding(measure, edge_sq, d):
            held.append(edge_sq)
            return check(measure, edge_sq, d)

        monkeypatch.setattr(simplex, "check_degenerate", holding)
        rng = np.random.default_rng(3)
        for scale, offset in itertools.product((1e-3, 1.0, 1e3), (0.0, 1e6)):
            pts = scale * rng.normal(size=(2000, dim + 1, dim)) + offset * rng.uniform(-1, 1, dim)
            for batch in (pts, pts[:1]):
                held.clear()
                try:
                    kernel.geometry(batch)
                except DegenerateElement:
                    pass
                expected = simplex.edge_sq_sum(batch.T, kernel.EDGES)
                assert held[0].tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "dim, size",
        [(3, 1e-40), (3, 1e39), (3, 1e150), (2, 1e-80), (2, 1e-100), (2, 1e80), (2, 1e300)],
    )
    def test_a_cell_out_of_range_is_rejected(self, dim, size):
        # Before the range a tet of edge 1e-40 or 1e39 raised RuntimeWarning in
        # the pass, a triangle of edge 1e-80 got mu 0.9987 (mu >= 1), and
        # validate passed them all; signed_volume itself overflowed at 1e150,
        # in validate and in the loaders' orientation repair.
        mesh = m.SimplexMesh(size * REGULAR[dim], np.arange(dim + 1)[None])
        assert m.repair_orientation(mesh.vertices, mesh.cells)[1].size == 0
        assert [(v.rule, v.index) for v in m.validate(mesh)] == [("scale-out-of-range", 0)]
        with pytest.raises(DegenerateElement, match="sum of squared edges") as exc:
            mesh.geometry()
        assert exc.value.cell == 0
        # A regular cell just inside the range has mu = 1, as at unit size.
        lo, hi = simplex.EDGE_SQ_RANGE[dim]
        edge = np.sqrt(hi) / 10.0 if size > 1.0 else np.sqrt(lo) * 10.0
        assert mesh.with_vertices(edge * REGULAR[dim]).geometry().mu == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_the_range_keeps_the_kernels_exact(self, dim):
        # Cells just above the threshold, each scaled by a power of two to put
        # its S within 4x of either end of the range, keep every output's bits
        # scaled back, unwarned. Turned, a measure that small keeps few bits
        # after cancelling; as built, a facet in a coordinate plane keeps all
        # of them. In 3D the flat squares, four vertices on a circle, have
        # mu / d0_sq near its bound 2.2e39 S**-4. Where S**k only just stays
        # normal, below the range, some of them lose their bits.
        kernel, k = m.kernel(dim), 2 * (dim - 1)
        rng = np.random.default_rng(12)
        pts = threshold_cells(dim, rng, rng.uniform(1.05, 3.0, 400))
        if dim == 3:
            angle = rng.uniform(0.0, 2.0 * np.pi, (40, 1)) + np.arange(4) * np.pi / 2
            square = np.stack([np.cos(angle), np.sin(angle)], axis=2)
            pts = np.concatenate([pts, threshold_cells(3, rng, rng.uniform(1.05, 1.2, 40), square)])
        pts = np.concatenate([pts, pts @ rotation(rng.uniform(-1.0, 1.0, 9), dim).T])
        pts = pts[~rejected(kernel, pts)]
        S = simplex.edge_sq_sum(pts.T, kernel.EDGES)
        lo, hi = simplex.EDGE_SQ_RANGE[dim]
        unit = kernel_outputs(kernel, pts)

        def outputs_at(j):
            scaled = kernel_outputs(kernel, np.ldexp(pts, j[:, None, None]))
            return [np.ldexp(got, -degree * j) for got, degree in scaled]

        for j in (np.ceil(np.log2(lo / S) / 2), np.floor(np.log2(hi / S) / 2)):
            j = j.astype(int)
            assert m.validate(stacked_cells(np.ldexp(pts, j[:, None, None]))) == []
            for got, (ref, _) in zip(outputs_at(j), unit):
                assert got.tobytes() == ref.tobytes()
        j = np.floor(np.log2(np.finfo(float).tiny ** (1.0 / k) / S) / 2).astype(int)
        with pytest.raises(DegenerateElement, match="sum of squared edges"):
            kernel.geometry(np.ldexp(pts, j[:, None, None]))
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
            patch.setitem(simplex.EDGE_SQ_RANGE, dim, (0.0, np.inf))
            assert any((got != ref).any() for got, (ref, _) in zip(outputs_at(j), unit))

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
        mirror=st.booleans(),
        log_scale=st.floats(-6.0, 6.0),
        shift=st.floats(0.0, 1.0),
    )
    @example(dim=2, seed=0, entries=[1.0, 1.0, -1.0, 1.0] + [0.0] * 5, mirror=False,
             log_scale=0.0, shift=0.0)
    def test_the_verdict_is_the_same_in_any_frame(
        self, dim, seed, entries, mirror, log_scale, shift
    ):
        # Cells 2x or more from the threshold: flagged (ratio 0.05-0.5),
        # passing (2-20), healthy and inverted; in 2D also the triangle of
        # base 1 and height 1.5e-14, which the coordinate spread flagged with
        # its base along x and passed turned by 45 degrees. Turned (or
        # mirrored, with the last two vertices swapped back), scaled by
        # 10**log_scale and moved by up to twice that, validate flags the
        # same cells and the pass raises for the same one. A translation T
        # rounds each coordinate to ulp(T), which moves a measure 2x from
        # the threshold across it once T passes some 30 cell diameters.
        rng = np.random.default_rng(seed)
        ratios = np.concatenate([
            rng.uniform(0.05, 0.5, 4), rng.uniform(2.0, 20.0, 4),
            10.0 ** rng.uniform(10.0, 13.0, 2), -(10.0 ** rng.uniform(-3.0, 13.0, 2)),
        ])
        pts = threshold_cells(dim, rng, ratios)
        if dim == 2:
            pts = np.concatenate([[[[0.0, 0.0], [1.0, 0.0], [0.5, 1.5e-14]]], pts])
        Q = rotation(entries, dim)
        if mirror:
            Q[:, 0] = -Q[:, 0]
        scale = 10.0**log_scale
        moved = scale * pts @ Q.T + 2.0 * shift * scale * rng.uniform(-1.0, 1.0, dim)
        if mirror:
            moved[:, -2:] = moved[:, -1:-3:-1].copy()
        verdicts = []
        for cells in (pts, moved):
            mesh = stacked_cells(cells)
            try:
                mesh.geometry()
                raised = None
            except DegenerateElement as e:
                raised = e.cell
            verdicts.append(([(v.rule, v.index) for v in m.validate(mesh)], raised))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][1] == 0
