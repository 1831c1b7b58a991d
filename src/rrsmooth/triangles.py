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
(``LAYOUT``, no block carrying mu), is given per edge (``block_weights``):
A is the Laplacian of the weights ``c_k``, and B is antisymmetric with
``-1 / area`` on every edge; ``assembly.assemble`` scatters them into G_F
(``--dump-system``). The ``c_k`` are positive, so the preconditioner
assembles A itself from them (``precond_weights``).
Every kernel reads one geometry pass (``geometry``) on per-coordinate
arrays ``pts.T``, which takes the edges from slices of them and checks the
area once, against the sum of the squared edges. ``gradient(g, scale)``
folds ``scale * mu`` into per-cell factors and writes one ``(2, 3, n)``
array. The module exports the kernel interface of :mod:`rrsmooth.simplex`.
"""

from collections import namedtuple

import numpy as np

from . import simplex

LAYOUT = simplex.Layout("A B", ["A B", "-B A"])

# Facet (edge) k is opposite vertex k, oriented outward for a positive cell;
# EDGES holds the same edges as (tail, head) arrays.
FACETS = ((1, 2), (2, 0), (0, 1))
EDGES = tuple(np.array(FACETS).T)

Geometry = namedtuple("Geometry", "area edges lengths p mu")


def signed_area(pts):
    """Signed area of each triangle; positive for CCW orientation. It reads
    ``pts.T`` elementwise, so any layout of ``pts`` gives the same bits."""
    X = np.asarray(pts, dtype=float).T
    e1, e2 = X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]
    return 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])


signed_measure = signed_area


def geometry(pts):
    """The one geometry pass every kernel reads.

    Fields are per coordinate over a trailing cell axis: ``edges``
    ``(2, 3, n)`` holds edge k's vector ``x_{k+2} - x_{k+1}`` (indices mod
    3) and ``lengths`` ``(3, n)`` its length. Raises DegenerateElement for a
    cell that ``simplex.check_degenerate`` rejects, on its squared edges.
    """
    X = np.ascontiguousarray(np.asarray(pts, dtype=float).T)
    edges = np.empty((2, 3, X.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        area = signed_area(X.T)
        # Edges 2 and 0 are x1 - x0 and x2 - x1, edge 1 is x0 - x2.
        np.subtract(X[:, 1:], X[:, :2], out=edges[:, 2::-2])
        np.subtract(X[:, 0], X[:, 2], out=edges[:, 1])
        sq = edges[0] * edges[0] + edges[1] * edges[1]
        simplex.check_degenerate(area, sq.sum(axis=0), 2)
    lengths = np.sqrt(sq)
    p = lengths.sum(axis=0)
    q = lengths.prod(axis=0)
    return Geometry(area, edges, lengths, p, p * q / (16.0 * area**2))


def precond_weights(g):
    """``c_k = 1 / (p l_k) + 1 / l_k^2`` per edge of ``EDGES``, shape ``(3, n)``.

    They are A's weights and positive, so they are also the preconditioner's.
    """
    return 1.0 / (g.p * g.lengths) + 1.0 / g.lengths**2


def measure_polynomial(edges, du):
    """The cap's monic area coefficients ``(n, 3)`` from :func:`geometry`'s
    ``edges``, times s: the constant term is 0 (see :mod:`rrsmooth.simplex`)."""
    # 2 area(t) = (e1 + t f1) x (e2 + t f2) with e1 = x1 - x0, e2 = x2 - x0; at
    # t = 0 it has the bits of 2 * signed_area for every cell validate accepts.
    e1, e2 = edges[:, 2], -edges[:, 1]
    f1, f2 = du.T[:, 1] - du.T[:, 0], du.T[:, 2] - du.T[:, 0]
    c0 = e1[0] * e2[1] - e1[1] * e2[0]
    c1 = f1[0] * e2[1] - f1[1] * e2[0] + (e1[0] * f2[1] - e1[1] * f2[0])
    c2 = f1[0] * f2[1] - f1[1] * f2[0]
    return np.stack([c1, c2, np.zeros_like(c1)], axis=1) / c0[:, None]


def gradient(g, scale=1.0):
    """Per-vertex gradient of ``scale * mu`` ``(n, 3, 2)`` in closed form, from
    ``geometry(pts)``: the transpose of a ``(2, 3, n)`` array, per coordinate."""
    m = scale * g.mu
    n = len(m)
    # Vertex k takes w_{k+1} - w_{k+2} of the weighted edges w_k = c_k e_k, rolled,
    # and -2 grad A / A, the opposite edge turned by 90 degrees over A.
    w = np.empty((2, 5, n))
    np.multiply(g.edges, precond_weights(g) * m, out=w[:, :3])
    w[:, 3:] = w[:, :2]
    t = g.edges[::-1] * (m / g.area)
    G = np.empty((2, 3, n))
    np.add(w[0, 1:4], t[0], out=G[0])
    np.subtract(w[1, 1:4], t[1], out=G[1])
    G -= w[:, 2:5]
    return G.T


def block_weights(g):
    """G_F's blocks ``(A, B)`` as weights ``(2, 3, n)`` on ``EDGES``: A's are
    ``c_k``, and B's, at (tail, head), ``-1 / area`` on every edge."""
    c = precond_weights(g)
    return np.stack([c, np.broadcast_to(-1.0 / g.area, c.shape)])
