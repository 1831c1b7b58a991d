"""Tetrahedron geometry: measures, radius ratio, analytical gradient, and the
abs-clamped local matrix used to build the SPD preconditioner.

Kernels are vectorized over a batch axis: ``pts`` has shape ``(n, 4, 3)``
with positive signed volume. Face ``i`` is the face opposite vertex ``i``.

Conventions:

* edge vectors into vertex 0: ``v10 = x0 - x1``, ``v20 = x0 - x2``,
  ``v30 = x0 - x3``;
* ``d0 = |v30|^2 (v10 x v20) + |v10|^2 (v20 x v30) + |v20|^2 (v30 x v10)``,
  an auxiliary vector with circumradius ``R = |d0| / (12 vol)``;
* inradius ``r = 3 vol / s`` where ``s`` is the total face area;
* radius ratio ``mu = R / (3 r) = s |d0| / (108 vol^2)``.

The gradient of mu decomposes as
``grad mu = mu * (grad|d0| / |d0| + grad s / s - 2 grad vol / vol)``, and
stacked over vertices it is the block product (``LAYOUT``)
``mu * [[A, B2, B1], [-B2, A, B0], [-B1, -B0, A]] @ [X; Y; Z]`` with A
symmetric and the B blocks antisymmetric. Every block has zero row sums, so
the product is taken on cell-local coordinates and translating a cell leaves
its gradient bit-identical. Every kernel reads one geometry pass
(``geometry``); the module exports the interface of :mod:`rrsmooth.simplex`.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import simplex
from .simplex import DEGENERACY_RTOL, diameters  # noqa: F401  (kernel interface)

LAYOUT = simplex.Layout("A B0 B1 B2", ["A B2 B1", "-B2 A B0", "-B1 -B0 A"])

# Each edge (i, j) with the two vertices (k, l) off it, as even permutations
# of (0, 1, 2, 3).
_EDGES = (
    (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 2, 0), (2, 3, 0, 1)
)

# The volume gradient's coordinate matrices are D[i, j] = x_k - x_l over the
# even permutations (i, j, k, l) above: pts[:, _VOL_IDX] - pts[:, _VOL_IDX.T].
_VOL_IDX = np.array([[0, 2, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 1, 3]])

TetMeasures = namedtuple("TetMeasures", "volume face_areas surface circumradius inradius d0")

Geometry = namedtuple("Geometry", "volume edge_sq normals face_areas surface cot d0 d0_sq mu")


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


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def geometry(pts):
    """The one geometry pass every kernel reads.

    From the edge vectors ``E[:, i, j] = x_j - x_i`` it keeps ``edge_sq``
    (``|v10|^2, |v20|^2, |v30|^2``), ``normals`` (``v20 x v30``,
    ``v30 x v10`` and ``v10 x v20``, the doubled area vectors of faces 1-3)
    and ``cot``, the cotangent weight of each edge in ``_EDGES`` summed over
    the two faces through it. E itself is dropped, which keeps the peak
    memory of ``local_blocks`` down. Raises DegenerateElement for an inverted
    or collapsed cell.
    """
    pts = np.asarray(pts, dtype=float)
    vol = signed_volume(pts)
    simplex.check_degenerate(vol, pts, "volume")
    E = pts[:, None] - pts[:, :, None]
    v10, v20, v30 = E[:, 1, 0], E[:, 2, 0], E[:, 3, 0]
    normals = (np.cross(v20, v30), np.cross(v30, v10), np.cross(v10, v20))
    n10, n20, n30 = _dot(v10, v10), _dot(v20, v20), _dot(v30, v30)
    d0 = (
        n30[:, None] * normals[2] + n10[:, None] * normals[0] + n20[:, None] * normals[1]
    )
    d0_sq = _dot(d0, d0)
    face0 = np.cross(E[:, 1, 2], E[:, 1, 3])
    areas = 0.5 * np.stack(
        [np.linalg.norm(v, axis=1) for v in (face0, *normals)], axis=1
    )
    s = areas.sum(axis=1)
    cot = np.stack(
        [
            _dot(E[:, l, j], E[:, l, i]) / (4 * areas[:, k])
            + _dot(E[:, k, j], E[:, k, i]) / (4 * areas[:, l])
            for i, j, k, l in _EDGES
        ],
        axis=1,
    )
    mu = s * np.linalg.norm(d0, axis=1) / (108.0 * vol**2)
    return Geometry(vol, (n10, n20, n30), normals, areas, s, cot, d0, d0_sq, mu)


def measures(pts):
    """Volume, face areas, total surface, circumradius, inradius and d0."""
    g = geometry(pts)
    return TetMeasures(
        g.volume,
        g.face_areas,
        g.surface,
        np.linalg.norm(g.d0, axis=1) / (12.0 * g.volume),
        3.0 * g.volume / g.surface,
        g.d0,
    )


def radius_ratio(pts):
    """Radius ratio mu >= 1 of each tetrahedron."""
    return geometry(pts).mu


def _m_matrix(g):
    """Symmetric matrix of the |d0| term: a star of weights 2 d0.n at vertex 0."""
    c23, c31, c12 = (_dot(g.d0, nrm) for nrm in g.normals)
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
        S[:, i, j] = S[:, j, i] = -g.cot[:, e]
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
    B0 = -g.d0[:, 0, None, None] * K * inv_d0sq + _volume_block(pts, 0) * inv_6vol
    B1 = g.d0[:, 1, None, None] * K * inv_d0sq - _volume_block(pts, 1) * inv_6vol
    B2 = -g.d0[:, 2, None, None] * K * inv_d0sq + _volume_block(pts, 2) * inv_6vol
    return g.mu, A, B0, B1, B2


def block_gradient(pts, mu, *blocks):
    """Per-vertex gradient ``(n, 4, 3)`` from the output of ``local_blocks``."""
    return simplex.block_gradient(LAYOUT, pts, mu, blocks)


def radius_ratio_gradient(pts):
    """Radius ratio and per-vertex gradient, shapes ``(n,)`` and ``(n, 4, 3)``."""
    blocks = local_blocks(pts)
    return blocks[0], block_gradient(pts, *blocks)


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
        mu, A, B0, B1, B2 = local_blocks(self._batch)
        grad = block_gradient(self._batch, mu, A, B0, B1, B2)
        return LocalGradient3D(float(mu[0]), A[0], B0[0], B1[0], B2[0], grad[0])

    def abs_local_matrix(self):
        return abs_local_matrix(self._batch)[1][0]
