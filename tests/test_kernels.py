"""The one element-kernel interface: both kernels, one layout, one mu convention."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from rrsmooth import mesh as m, simplex, tetrahedra, triangles
from rrsmooth.assembly import assemble, energy_gradient
from rrsmooth.errors import DegenerateElement
from rrsmooth.generate import (
    CUBE, SQUARE, GeneratorSpec, PlantSliver, RandomJitter, gen_mesh, perturb_mesh,
)

from conftest import (
    block_gradient, central_diff, dense_laplacians, random_tets, random_triangles,
)

KERNELS = pytest.mark.parametrize(
    "kernel, random_cells",
    [(triangles, random_triangles), (tetrahedra, random_tets)],
    ids=["triangles", "tetrahedra"],
)

INTERFACE = (
    "geometry", "gradient", "local_blocks", "precond_weights", "EDGES", "FACETS",
    "LAYOUT", "DEGENERACY_RTOL", "diameters", "signed_measure", "radius_ratio",
    "radius_ratio_gradient",
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
    cells = random_cells(100, seed=16)
    dim = cells.shape[2]
    assert m.kernel(dim) is kernel
    assert len(kernel.LAYOUT.rows) == dim
    assert kernel.DEGENERACY_RTOL == simplex.DEGENERACY_RTOL
    # Blocks carry no mu: the gradient is mu times the local block product.
    mu, *blocks = kernel.local_blocks(cells)
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
    mu, *blocks = kernel.local_blocks(pts, g)
    fresh_mu, *fresh = kernel.local_blocks(pts)
    assert mu.tobytes() == fresh_mu.tobytes() == g.mu.tobytes()
    for b, f in zip(blocks, fresh):
        assert b.tobytes() == f.tobytes()
    weights = kernel.precond_weights(g)
    assert weights.shape == (len(kernel.EDGES[0]), len(pts))
    assert simplex.laplacian(weights, kernel.EDGES).shape == blocks[0].shape


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
    mu = kernel.radius_ratio(pts)
    diameter = scale * np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1).max(axis=(1, 2))
    bound = SIMILARITY_C * np.finfo(float).eps * (1.0 + np.linalg.norm(shift) / diameter)
    assert np.all(np.abs(kernel.radius_ratio(moved) - mu) <= bound * mu)


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
    blocks = tetrahedra.local_blocks(pts)
    got = block_gradient(tetrahedra, pts, *blocks)
    assert got.tobytes() == hand_written_tet_gradient(pts, *blocks).tobytes()


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
        mu, grad = kernel.radius_ratio_gradient(pts)
        _, *blocks = kernel.local_blocks(pts)
        for c, P in enumerate(pts):
            G = kernel.LAYOUT.matrix([b[c] for b in blocks], np.block)
            V = (P - P[0]).T.ravel()
            expected = (mu[c] * (G @ V)).reshape(P.shape[1], -1).T
            scale = np.abs(expected).max()
            assert np.abs(grad[c] - expected).max() <= 1e-13 * scale, c

    @CLOSED_FORM_CASES
    def test_matches_central_differences(self, kernel, cells):
        pts = CELLS[cells](dim_of(kernel))[:60]
        _, grads = kernel.radius_ratio_gradient(pts)
        for P, g in zip(pts, grads):
            h = 1e-6 * np.ptp(P, axis=0).max()
            gfd = central_diff(lambda Q: kernel.radius_ratio(Q[None])[0], P, h)
            assert np.linalg.norm(g - gfd) <= 1e-6 * np.linalg.norm(gfd)

    @CLOSED_FORM_CASES
    def test_unchanged_under_a_large_translation(self, kernel, cells):
        pts = CELLS[cells](dim_of(kernel))
        q = pts + 1e6
        _, far = kernel.radius_ratio_gradient(q)
        _, near = kernel.radius_ratio_gradient(q - 1e6)
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
        first = np.flatnonzero(simplex.degenerate(inverted.signed_measures(), inverted.cell_points()))
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
        _, A, *_ = kernel.local_blocks(pts, g)
        expected, abs_clamped = dense_laplacians(kernel, g)
        if kernel is triangles:
            assert A.tobytes() == expected.tobytes()
        # The 3D weights sum terms of either sign: rounding is relative to
        # their magnitudes, which the abs-clamped matrix adds up.
        assert max_entry_error(A, expected, abs_clamped) <= 1e-15
