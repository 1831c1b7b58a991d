"""Triangle geometry: area, radius ratio and its analytical gradient.

All kernel functions are vectorized over a leading batch axis: ``pts`` has
shape ``(n, 3, 2)`` with vertices ordered counter-clockwise (positive signed
area). The ``Triangle`` class wraps a single element.

Edge ``i`` is the edge opposite vertex ``i``, so ``l0 = |x2 - x1|``,
``l1 = |x0 - x2|`` and ``l2 = |x1 - x0|``. The radius ratio is
``mu = R / (2 r) = p q / (16 area^2)`` with ``p = l0 + l1 + l2`` and
``q = l0 l1 l2``; it equals 1 exactly for equilateral triangles and grows
without bound as an element degenerates.

The gradient is evaluated in closed form (``gradient``):
``grad mu = mu * (grad p / p + grad q / q - 2 grad A / A)``; the first two
terms sum ``c_k (x_i - x_j)``, ``c_k = 1 / (p l_k) + 1 / l_k^2``, over the
edges ij at a vertex, and ``2 grad A`` is the opposite edge turned by 90
degrees. The paper's split of it, ``mu * [[A, B], [-B, A]] @ [X; Y]``
(``LAYOUT``, no block carrying mu), is materialized by ``local_blocks`` for
G_F (``--dump-system``) and the tests, which check it against the closed
form; A is the preconditioner. Every kernel reads one geometry pass
(``geometry``) on per-coordinate arrays ``pts.T``, which checks the area
once. The module exports the kernel interface of :mod:`rrsmooth.simplex`.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import simplex
from .simplex import DEGENERACY_RTOL, diameters  # noqa: F401  (kernel interface)

LAYOUT = simplex.Layout("A B", ["A B", "-B A"])

# Sign pattern of the antisymmetric block B = (1 / area) * _B_SIGNS.
_B_SIGNS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])

Geometry = namedtuple("Geometry", "area edges lengths p mu")


@dataclass(frozen=True)
class LocalGradient2D:
    """Radius ratio, per-vertex gradient and local 3x3 matrix blocks.

    ``grad = mu * [[A_local, B_local], [-B_local, A_local]] @ [X; Y]``, where
    ``A_local`` is a weighted Laplacian (zero row sums, negative
    off-diagonals), ``B_local`` is antisymmetric, and, as in 3D, neither
    block carries the mu factor.
    """

    mu: float
    A_local: np.ndarray
    B_local: np.ndarray
    grad: np.ndarray


def signed_area(pts):
    """Signed area of each triangle; positive for CCW orientation."""
    pts = np.asarray(pts, dtype=float)
    e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


signed_measure = signed_area


def edge_lengths(pts):
    """Edge lengths ``(l0, l1, l2)``, edge i opposite vertex i."""
    pts = np.asarray(pts, dtype=float)
    return np.linalg.norm(pts[:, [2, 0, 1]] - pts[:, [1, 2, 0]], axis=2)


def geometry(pts):
    """The one geometry pass every kernel reads.

    Fields are per coordinate over a trailing cell axis: ``edges``
    ``(2, 3, n)`` holds edge k's vector ``x_{k+2} - x_{k+1}`` (indices mod
    3) and ``lengths`` ``(3, n)`` its length. Raises DegenerateElement when
    any signed area is non-positive or falls under the scaled threshold.
    """
    pts = np.asarray(pts, dtype=float)
    area = signed_area(pts)
    simplex.check_degenerate(area, pts, "area")
    X = np.ascontiguousarray(pts.T)
    edges = X[:, [2, 0, 1]] - X[:, [1, 2, 0]]
    lengths = np.sqrt(edges[0] * edges[0] + edges[1] * edges[1])
    p = lengths.sum(axis=0)
    q = lengths.prod(axis=0)
    return Geometry(area, edges, lengths, p, p * q / (16.0 * area**2))


def _edge_weights(g):
    """``c_k = 1 / (p l_k) + 1 / l_k^2``, shape ``(3, n)``."""
    return 1.0 / (g.p * g.lengths) + 1.0 / g.lengths**2


def gradient(g):
    """Per-vertex gradient of mu ``(n, 3, 2)`` in closed form, from ``geometry(pts)``."""
    w = _edge_weights(g) * g.edges
    G = w[:, [1, 2, 0]] - w[:, [2, 0, 1]]
    G[0] += g.edges[1] / g.area
    G[1] -= g.edges[0] / g.area
    return (g.mu * G).T


def radius_ratio(pts):
    """Radius ratio mu >= 1 of each triangle."""
    return geometry(pts).mu


def precond_blocks(g):
    """The Laplacian block A ``(n, 3, 3)`` from ``geometry(pts)``.

    Its off-diagonals are negative and its rows sum to zero, so in 2D the
    preconditioner assembles A itself.
    """
    c0, c1, c2 = _edge_weights(g)
    A = np.zeros((len(g.mu), 3, 3))
    A[:, 0, 0] = c1 + c2
    A[:, 1, 1] = c2 + c0
    A[:, 2, 2] = c0 + c1
    A[:, 0, 1] = A[:, 1, 0] = -c2
    A[:, 0, 2] = A[:, 2, 0] = -c1
    A[:, 1, 2] = A[:, 2, 1] = -c0
    return A


def local_blocks(pts, g=None):
    """Local matrix form of the gradient: ``(mu, A, B)`` with shapes (n,), (n,3,3).

    The stacked gradient equals ``mu * [[A, B], [-B, A]] @ [X; Y]``. ``g``
    is ``geometry(pts)`` when the caller already has it.
    """
    if g is None:
        g = geometry(pts)
    return g.mu, precond_blocks(g), (1.0 / g.area)[:, None, None] * _B_SIGNS


def radius_ratio_gradient(pts):
    """Radius ratio and its per-vertex gradient, shape ``(n,)`` and ``(n, 3, 2)``."""
    g = geometry(pts)
    return g.mu, gradient(g)


def local_gradient_matrix(lg):
    """Assemble the 6x6 block matrix of a LocalGradient2D (without mu)."""
    return LAYOUT.matrix((lg.A_local, lg.B_local), np.block)


class Triangle:
    """A single positively oriented triangle in the plane."""

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float).reshape(3, 2)

    @property
    def _batch(self):
        return self.vertices[None]

    def signed_area(self):
        return float(signed_area(self._batch)[0])

    def edge_lengths(self):
        return edge_lengths(self._batch)[0]

    def radius_ratio(self):
        return float(radius_ratio(self._batch)[0])

    def gradient(self):
        """Radius-ratio gradient (closed form) together with the local blocks."""
        g = geometry(self._batch)
        mu, A, B = local_blocks(self._batch, g)
        return LocalGradient2D(float(mu[0]), A[0], B[0], gradient(g)[0])
