"""The one element-kernel interface: both kernels, one layout, one mu convention."""

import numpy as np
import pytest
from scipy import sparse

from rrsmooth import mesh as m, simplex, tetrahedra, triangles
from rrsmooth.assembly import assemble, energy_gradient
from rrsmooth.errors import DegenerateElement
from rrsmooth.generate import (
    CUBE, SQUARE, GeneratorSpec, PlantSliver, RandomJitter, gen_mesh, perturb_mesh,
)

from conftest import block_gradient, central_diff, random_tets, random_triangles

KERNELS = pytest.mark.parametrize(
    "kernel, element, random_cells",
    [(triangles, triangles.Triangle, random_triangles),
     (tetrahedra, tetrahedra.Tetrahedron, random_tets)],
    ids=["triangles", "tetrahedra"],
)

INTERFACE = (
    "geometry", "gradient", "local_blocks", "precond_blocks", "LAYOUT",
    "DEGENERACY_RTOL", "diameters", "signed_measure", "radius_ratio",
    "radius_ratio_gradient", "local_gradient_matrix",
)


def slivered_cube():
    mesh = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 3)), RandomJitter(amplitude=0.2, seed=4))
    return perturb_mesh(mesh, PlantSliver(count=1, eps=0.01))


def jittered_square():
    return perturb_mesh(gen_mesh(GeneratorSpec(SQUARE, 5)), RandomJitter(amplitude=0.3, seed=3))


@KERNELS
def test_same_interface_and_mu_convention(kernel, element, random_cells):
    for name in INTERFACE:
        assert hasattr(kernel, name), name
    cells = random_cells(100, seed=16)
    dim = cells.shape[2]
    assert m.kernel(dim) is kernel
    assert len(kernel.LAYOUT.rows) == dim
    assert kernel.DEGENERACY_RTOL == simplex.DEGENERACY_RTOL
    # Blocks carry no mu: the gradient is mu times the local block product.
    for P in cells:
        lg = element(P).gradient()
        V = P.T.ravel()
        gv = lg.mu * (kernel.local_gradient_matrix(lg) @ V)
        stacked = gv.reshape(P.shape[1], -1).T
        rel = np.linalg.norm(stacked - lg.grad) / np.linalg.norm(lg.grad)
        assert rel <= 1e-12


@KERNELS
def test_geometry_is_shared_by_every_output(kernel, element, random_cells):
    pts = random_cells(50, seed=17)
    g = kernel.geometry(pts)
    mu, *blocks = kernel.local_blocks(pts, g)
    fresh_mu, *fresh = kernel.local_blocks(pts)
    assert mu.tobytes() == fresh_mu.tobytes() == g.mu.tobytes()
    for b, f in zip(blocks, fresh):
        assert b.tobytes() == f.tobytes()
    assert kernel.precond_blocks(g).shape == blocks[0].shape


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
