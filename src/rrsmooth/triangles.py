"""Triangle geometry: area, radius ratio and its analytical gradient.

All kernel functions are vectorized over a leading batch axis: ``pts`` has
shape ``(n, 3, 2)`` with vertices ordered counter-clockwise (positive signed
area); a single cell is the batch ``pts[None]``.

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
form. A is the Laplacian of the edge weights ``c_k``, which are positive,
so the preconditioner assembles A itself from them (``precond_weights``).
Every kernel reads one geometry pass (``geometry``) on per-coordinate
arrays ``pts.T``, which checks the area once. The module exports the
kernel interface of :mod:`rrsmooth.simplex`.
"""

from collections import namedtuple

import numpy as np

from . import simplex
from .simplex import DEGENERACY_RTOL, diameters  # noqa: F401  (kernel interface)

LAYOUT = simplex.Layout("A B", ["A B", "-B A"])

# Facet (edge) k is opposite vertex k, oriented outward for a positive cell;
# EDGES holds the same edges as (tail, head) arrays.
FACETS = ((1, 2), (2, 0), (0, 1))
EDGES = tuple(np.array(FACETS).T)

# Sign pattern of the antisymmetric block B = (1 / area) * _B_SIGNS.
_B_SIGNS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])

Geometry = namedtuple("Geometry", "area edges lengths p mu")


def signed_area(pts):
    """Signed area of each triangle; positive for CCW orientation."""
    pts = np.asarray(pts, dtype=float)
    e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


signed_measure = signed_area


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


def precond_weights(g):
    """``c_k = 1 / (p l_k) + 1 / l_k^2`` per edge of ``EDGES``, shape ``(3, n)``.

    They are A's weights and positive, so they are also the preconditioner's.
    """
    return 1.0 / (g.p * g.lengths) + 1.0 / g.lengths**2


def gradient(g):
    """Per-vertex gradient of mu ``(n, 3, 2)`` in closed form, from ``geometry(pts)``."""
    w = precond_weights(g) * g.edges
    G = w[:, [1, 2, 0]] - w[:, [2, 0, 1]]
    G[0] += g.edges[1] / g.area
    G[1] -= g.edges[0] / g.area
    return (g.mu * G).T


def radius_ratio(pts):
    """Radius ratio mu >= 1 of each triangle."""
    return geometry(pts).mu


def local_blocks(pts, g=None):
    """Local matrix form of the gradient: ``(mu, A, B)`` with shapes (n,), (n,3,3).

    The stacked gradient equals ``mu * [[A, B], [-B, A]] @ [X; Y]``. ``g``
    is ``geometry(pts)`` when the caller already has it.
    """
    if g is None:
        g = geometry(pts)
    A = simplex.laplacian(precond_weights(g), EDGES)
    return g.mu, A, (1.0 / g.area)[:, None, None] * _B_SIGNS


def radius_ratio_gradient(pts):
    """Radius ratio and its per-vertex gradient, shape ``(n,)`` and ``(n, 3, 2)``."""
    g = geometry(pts)
    return g.mu, gradient(g)
