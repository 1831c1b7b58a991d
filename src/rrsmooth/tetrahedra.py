"""Tetrahedron geometry: measures, radius ratio and its gradient, the local
blocks of G_F and the abs-clamped local matrices of the SPD preconditioner.

Kernels are vectorized over a batch axis: ``pts`` has shape ``(n, 4, 3)``
with positive signed volume. Face ``i`` is the face opposite vertex ``i``.
The geometry pass reads contiguous ``(n,)`` arrays per coordinate and
vertex, ``pts.T`` (no copy for ``mesh.cell_coords().T``).

Conventions:

* edge vectors out of vertex 0: ``e_k = x_k - x_0``, and face normals
  ``N_1 = e2 x e3``, ``N_2 = e3 x e1``, ``N_3 = e1 x e2`` (twice the area
  vectors of faces 1-3);
* ``d0 = |e3|^2 N_3 + |e1|^2 N_1 + |e2|^2 N_2``, an auxiliary vector with
  circumradius ``R = |d0| / (12 vol)``;
* inradius ``r = 3 vol / s`` where ``s`` is the total face area;
* radius ratio ``mu = R / (3 r) = s |d0| / (108 vol^2)``.

The gradient is evaluated in closed form (``gradient``):
``grad mu = mu * (grad|d0| / |d0| + grad s / s - 2 grad vol / vol)`` with,
at vertex k = 1..3, ``grad vol = N_k / 6``, ``grad s`` the cotangent
Laplacian ``sum_j cot_kj (x_k - x_j)``, and ``grad|d0| = J_k^T d0 / |d0|``
for ``J_k^T u = 2 (u . N_k) e_k + (|e_{k+2}|^2 e_{k+1} - |e_{k+1}|^2 e_{k+2}) x u``
(indices mod 3); vertex 0 takes minus their sum, as mu is translation
invariant. The paper's split of the same gradient is the block product
(``LAYOUT``) ``mu * [[A, B2, B1], [-B2, A, B0], [-B1, -B0, A]] @ [X; Y; Z]``,
A symmetric and the B blocks antisymmetric: ``local_blocks`` materializes
it for G_F (``--dump-system``) and the tests, which check it against the
closed form, and A's abs-clamped form is the preconditioner. The module
exports the interface of :mod:`rrsmooth.simplex`.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import simplex
from .simplex import DEGENERACY_RTOL, diameters  # noqa: F401  (kernel interface)

LAYOUT = simplex.Layout("A B0 B1 B2", ["A B2 B1", "-B2 A B0", "-B1 -B0 A"])

# Each edge (i, j) with the two vertices (k, l) off it, as even permutations
# of (0, 1, 2, 3). Edges 0-2 are e1, e2, e3.
_EDGES = (
    (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 2, 0), (2, 3, 0, 1)
)
_TAIL, _HEAD = np.array(_EDGES)[:, 0], np.array(_EDGES)[:, 1]

# Face f's normal is edge _FACE_EDGES[0][f] x edge _FACE_EDGES[1][f]:
# (x2 - x1) x (x3 - x1) for face 0, then N_1, N_2, N_3.
_FACE_EDGES = ([3, 1, 2, 0], [4, 2, 0, 1])


def _corners():
    """Each edge (i, j, k, l) has a corner at l in face k and one at k in face
    l. Per corner v: the edge, the edges vi and vj, and the face."""
    index = {frozenset(edge[:2]): e for e, edge in enumerate(_EDGES)}
    rows = [(e, index[frozenset((v, i))], index[frozenset((v, j))], face)
            for e, (i, j, k, l) in enumerate(_EDGES) for v, face in ((l, k), (k, l))]
    return [list(column) for column in zip(*rows)]


_CORNER_EDGE, _CORNER_VI, _CORNER_VJ, _CORNER_FACE = _corners()

# The volume gradient's coordinate matrices are D[i, j] = x_k - x_l over the
# even permutations (i, j, k, l) above: pts[:, _VOL_IDX] - pts[:, _VOL_IDX.T].
_VOL_IDX = np.array([[0, 2, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 1, 3]])

TetMeasures = namedtuple("TetMeasures", "volume face_areas surface circumradius inradius d0")

Geometry = namedtuple("Geometry", "volume edges edge_sq normals face_areas surface cot d0 d0_sq mu")


@dataclass(frozen=True)
class LocalGradient3D:
    """Radius ratio, per-vertex gradient and local 4x4 matrix blocks.

    As in 2D, the blocks do not carry the mu factor:
    ``grad = mu * [[A, B2, B1], [-B2, A, B0], [-B1, -B0, A]] @ [X; Y; Z]``.
    """

    mu: float
    A_local: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    grad: np.ndarray


def signed_volume(pts):
    """Signed volume; positive when vertex 3 sees (0, 1, 2) counter-clockwise."""
    pts = np.asarray(pts, dtype=float)
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    e3 = pts[:, 3] - pts[:, 0]
    return np.einsum("ij,ij->i", e1, np.cross(e2, e3)) / 6.0


signed_measure = signed_volume


def _cross(a, b):
    """Cross product over the leading axis; the arithmetic of ``np.cross``."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for c, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[i] * b[j], a[j] * b[i], out=out[c])
    return out


def geometry(pts):
    """The one geometry pass every kernel reads.

    Every field is per coordinate (leading axis) over a trailing cell axis:
    ``edges`` ``(3, 6, n)`` holds ``x_j - x_i`` per edge of ``_EDGES``,
    ``edge_sq`` ``(3, n)`` is ``|e1|^2, |e2|^2, |e3|^2``, ``normals``
    ``(3, 4, n)`` the doubled area vectors of faces 0-3, ``face_areas``
    ``(4, n)``, and ``cot`` ``(6, n)`` the cotangent weight of each edge
    summed over the two faces through it. Raises DegenerateElement for an
    inverted or collapsed cell.
    """
    pts = np.asarray(pts, dtype=float)
    X = np.ascontiguousarray(pts.T)
    E = X[:, _HEAD] - X[:, _TAIL]
    normals = _cross(E[:, _FACE_EDGES[0]], E[:, _FACE_EDGES[1]])
    # signed_volume's arithmetic on the same (n, 3) layout, so the same bits.
    vol = np.einsum(
        "ij,ij->i", np.ascontiguousarray(E[:, 0].T), np.ascontiguousarray(normals[:, 1].T)
    ) / 6.0
    simplex.check_degenerate(vol, pts, "volume")
    sq = (E * E).sum(axis=0)
    edge_sq = sq[:3]
    d0 = edge_sq[2] * normals[:, 3] + edge_sq[0] * normals[:, 1] + edge_sq[1] * normals[:, 2]
    d0_sq = (d0 * d0).sum(axis=0)
    areas = 0.5 * np.sqrt((normals * normals).sum(axis=0))
    s = areas.sum(axis=0)
    # Per corner, 2 u.w = |vi|^2 + |vj|^2 - |ij|^2 for u, w = x_i - x_v, x_j - x_v,
    # and the half-cotangent is u.w / (4 area).
    corner = sq[_CORNER_VI] + sq[_CORNER_VJ] - sq[_CORNER_EDGE]
    cot = (corner / (8.0 * areas[_CORNER_FACE])).reshape(6, 2, -1).sum(axis=1)
    mu = s * np.sqrt(d0_sq) / (108.0 * vol**2)
    return Geometry(vol, E, edge_sq, normals, areas, s, cot, d0, d0_sq, mu)


def gradient(g):
    """Per-vertex gradient of mu ``(n, 4, 3)`` in closed form, from ``geometry(pts)``."""
    e, d0, sq = g.edges[:, :3], g.d0[:, None], g.edge_sq
    # grad|d0| * |d0| at vertices 1-3: J_k^T d0.
    c = (d0 * g.normals[:, 1:]).sum(axis=0)
    w = sq[[2, 0, 1]] * e[:, [1, 2, 0]] - sq[[1, 2, 0]] * e[:, [2, 0, 1]]
    jd0 = 2.0 * c * e + _cross(w, d0)
    # grad s at vertices 1-3: sum over edges kj of cot_kj (x_k - x_j).
    W = g.cot * g.edges
    ds = np.stack(
        [W[:, 0] - W[:, 3] - W[:, 4], W[:, 1] + W[:, 3] - W[:, 5], W[:, 2] + W[:, 4] + W[:, 5]],
        axis=1,
    )
    G = np.empty((3, 4, len(g.mu)))
    G[:, 1:] = jd0 / g.d0_sq + ds / g.surface - g.normals[:, 1:] / (3.0 * g.volume)
    G[:, 0] = -G[:, 1:].sum(axis=1)
    G *= g.mu
    return G.T


def measures(pts):
    """Volume, face areas, total surface, circumradius, inradius and d0."""
    g = geometry(pts)
    return TetMeasures(
        g.volume,
        g.face_areas.T,
        g.surface,
        np.sqrt(g.d0_sq) / (12.0 * g.volume),
        3.0 * g.volume / g.surface,
        g.d0.T,
    )


def radius_ratio(pts):
    """Radius ratio mu >= 1 of each tetrahedron."""
    return geometry(pts).mu


def radius_ratio_gradient(pts):
    """Radius ratio and per-vertex gradient, shapes ``(n,)`` and ``(n, 4, 3)``."""
    g = geometry(pts)
    return g.mu, gradient(g)


def _m_matrix(g):
    """Symmetric matrix of the |d0| term: a star of weights 2 d0.n at vertex 0."""
    c23, c31, c12 = (g.d0[:, None] * g.normals[:, 1:]).sum(axis=0)
    M = np.zeros((len(g.mu), 4, 4))
    M[:, 0, 0] = 2 * (c23 + c31 + c12)
    M[:, 0, 1] = M[:, 1, 0] = -2 * c23
    M[:, 0, 2] = M[:, 2, 0] = -2 * c31
    M[:, 0, 3] = M[:, 3, 0] = -2 * c12
    M[:, 1, 1] = 2 * c23
    M[:, 2, 2] = 2 * c31
    M[:, 3, 3] = 2 * c12
    return M


def _k_matrix(g):
    """Antisymmetric matrix of the |d0| term, from the squared vertex-0 edge lengths."""
    n10, n20, n30 = g.edge_sq
    k23, k31, k12 = n30 - n20, n10 - n30, n20 - n10
    K = np.zeros((len(g.mu), 4, 4))
    K[:, 0, 1], K[:, 1, 0] = -k23, k23
    K[:, 0, 2], K[:, 2, 0] = -k31, k31
    K[:, 0, 3], K[:, 3, 0] = -k12, k12
    K[:, 1, 2], K[:, 2, 1] = -n30, n30
    K[:, 1, 3], K[:, 3, 1] = n20, -n20
    K[:, 2, 3], K[:, 3, 2] = -n10, n10
    return K


def _s_matrix(g):
    """Symmetric surface-area gradient matrix (a cotangent-type Laplacian)."""
    S = np.zeros((len(g.mu), 4, 4))
    for e, (i, j, _, _) in enumerate(_EDGES):
        S[:, i, j] = S[:, j, i] = -g.cot[e]
    # Zero row sums: the diagonal balances the cotangent weights exactly.
    S[:, np.arange(4), np.arange(4)] = -S.sum(axis=2)
    return S


def _volume_block(pts, c):
    """Coordinate-``c`` matrix D of the volume gradient, antisymmetric.

    ``grad vol = (1/12) [[0, -D2, D1], [D2, 0, -D0], [-D1, D0, 0]] @ V``.
    """
    return pts[:, _VOL_IDX, c] - pts[:, _VOL_IDX.T, c]


def local_blocks(pts, g=None):
    """Local matrix form: ``(mu, A, B0, B1, B2)``, blocks of shape ``(n, 4, 4)``.

    The stacked per-vertex gradient of mu equals
    ``mu * [[A, B2, B1], [-B2, A, B0], [-B1, -B0, A]] @ [X; Y; Z]``.
    ``g`` is ``geometry(pts)`` when the caller already has it.
    """
    pts = np.asarray(pts, dtype=float)
    if g is None:
        g = geometry(pts)
    K = _k_matrix(g)
    inv_d0sq = (1.0 / g.d0_sq)[:, None, None]
    inv_6vol = (1.0 / (6.0 * g.volume))[:, None, None]
    A = _m_matrix(g) * inv_d0sq + _s_matrix(g) / g.surface[:, None, None]
    B0 = -g.d0[0, :, None, None] * K * inv_d0sq + _volume_block(pts, 0) * inv_6vol
    B1 = g.d0[1, :, None, None] * K * inv_d0sq - _volume_block(pts, 1) * inv_6vol
    B2 = -g.d0[2, :, None, None] * K * inv_d0sq + _volume_block(pts, 2) * inv_6vol
    return g.mu, A, B0, B1, B2


def local_gradient_matrix(lg):
    """Assemble the 12x12 block matrix of a LocalGradient3D (without mu)."""
    return LAYOUT.matrix((lg.A_local, lg.B0, lg.B1, lg.B2), np.block)


def _abs_clamped(W):
    """``-|W|`` off the diagonal, with the diagonal rebalanced to zero row sums."""
    idx = np.arange(4)
    out = -np.abs(W)
    out[:, idx, idx] = 0.0
    out[:, idx, idx] = -out.sum(axis=2)
    return out


def precond_blocks(g):
    """Abs-clamped symmetric local matrices ``(n, 4, 4)`` from ``geometry(pts)``.

    Off-diagonal weights of both the M and S parts are clamped to
    ``-|w|`` and diagonals rebalanced to keep zero row sums, which makes
    every A_abs a weakly diagonally dominant symmetric M-matrix and hence
    positive semi-definite for any non-degenerate element.
    """
    return (
        _abs_clamped(_m_matrix(g)) / g.d0_sq[:, None, None]
        + _abs_clamped(_s_matrix(g)) / g.surface[:, None, None]
    )


def abs_local_matrix(pts):
    """Radius ratio and abs-clamped local matrix: ``(mu, A_abs)``."""
    g = geometry(pts)
    return g.mu, precond_blocks(g)


class Tetrahedron:
    """A single positively oriented tetrahedron."""

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float).reshape(4, 3)

    @property
    def _batch(self):
        return self.vertices[None]

    def signed_volume(self):
        return float(signed_volume(self._batch)[0])

    def measures(self):
        m = measures(self._batch)
        return TetMeasures(
            float(m.volume[0]),
            m.face_areas[0],
            float(m.surface[0]),
            float(m.circumradius[0]),
            float(m.inradius[0]),
            m.d0[0],
        )

    def radius_ratio(self):
        return float(radius_ratio(self._batch)[0])

    def gradient(self):
        """Radius-ratio gradient (closed form) together with the local blocks."""
        g = geometry(self._batch)
        mu, A, B0, B1, B2 = local_blocks(self._batch, g)
        return LocalGradient3D(float(mu[0]), A[0], B0[0], B1[0], B2[0], gradient(g)[0])

    def abs_local_matrix(self):
        return abs_local_matrix(self._batch)[1][0]
