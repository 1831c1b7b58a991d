"""Tetrahedron geometry: radius ratio and its gradient, and the edge weights
of G_F's blocks and of the SPD preconditioner.

Kernels are vectorized over a batch axis: ``pts`` has shape ``(n, 4, 3)``
with positive signed volume; a single cell is the batch ``pts[None]``.
Face ``i`` is the face opposite vertex ``i``. The geometry pass reads
contiguous ``(n,)`` arrays per coordinate and vertex, ``pts.T`` (no copy for
``mesh.cell_coords().T``).

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
A symmetric and the B blocks antisymmetric, each given per edge
(``block_weights``): A is the Laplacian of signed edge weights, each B the
antisymmetric matrix of its own, and ``assembly.assemble`` scatters them
into G_F (``--dump-system``). The preconditioner is the Laplacian of A's
weights in non-negative form (``precond_weights``), which is positive
semi-definite. The module exports the interface of :mod:`rrsmooth.simplex`.
"""

from collections import namedtuple

import numpy as np

from . import simplex

LAYOUT = simplex.Layout("A B0 B1 B2", ["A B2 B1", "-B2 A B0", "-B1 -B0 A"])

# Each edge (i, j) with the two vertices (k, l) off it, as even permutations
# of (0, 1, 2, 3). Edges 0-2 are e1, e2, e3.
_EDGE_PERMS = (
    (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 2, 0), (2, 3, 0, 1)
)
EDGES = _TAIL, _HEAD = tuple(np.array(_EDGE_PERMS)[:, :2].T)

# Face i is opposite vertex i, oriented outward for a positive cell.
FACETS = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))

# Face f's normal is edge _FACE_EDGES[0][f] x edge _FACE_EDGES[1][f]:
# (x2 - x1) x (x3 - x1) for face 0, then N_1, N_2, N_3.
_FACE_EDGES = ([3, 1, 2, 0], [4, 2, 0, 1])


def _corners():
    """Each edge (i, j, k, l) has a corner at l in face k and one at k in face
    l. Per corner v: the edge, the edges vi and vj, and the face."""
    index = {frozenset(edge[:2]): e for e, edge in enumerate(_EDGE_PERMS)}
    rows = [(e, index[frozenset((v, i))], index[frozenset((v, j))], face)
            for e, (i, j, k, l) in enumerate(_EDGE_PERMS) for v, face in ((l, k), (k, l))]
    return [list(column) for column in zip(*rows)]


_CORNER_EDGE, _CORNER_VI, _CORNER_VJ, _CORNER_FACE = _corners()

Geometry = namedtuple("Geometry", "volume edges edge_sq normals surface cot d0 d0_sq mu")


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


def _dot(a, b):
    """Dot product over the leading axis of length 3, with the bits of numpy's
    ``einsum("ij,ij->i")`` on the ``(n, 3)`` rows, without copying to them.

    einsum sums a 3-term row as ``(a0 b0 + a2 b2) + a1 b1`` onto a zero, which
    turns a -0.0 sum into +0.0; so :func:`geometry`'s volume keeps the bits of
    :func:`signed_volume`, and the cap's coefficients those of einsum on
    ``(n, 3)`` rows.
    """
    out = a[0] * b[0]
    out += a[2] * b[2]
    out += a[1] * b[1]
    out += 0.0
    return out


def geometry(pts):
    """The one geometry pass every kernel reads.

    Every field is per coordinate (leading axis) over a trailing cell axis:
    ``edges`` ``(3, 6, n)`` holds ``x_j - x_i`` per edge ij of ``EDGES``,
    ``edge_sq`` ``(3, n)`` is ``|e1|^2, |e2|^2, |e3|^2``, ``normals``
    ``(3, 4, n)`` the doubled area vectors of faces 0-3, ``surface`` the
    total face area, and ``cot`` ``(6, n)`` the cotangent weight of each
    edge summed over the two faces through it. Raises DegenerateElement for
    an inverted or collapsed cell.
    """
    pts = np.asarray(pts, dtype=float)
    X = np.ascontiguousarray(pts.T)
    E = X[:, _HEAD] - X[:, _TAIL]
    normals = _cross(E[:, _FACE_EDGES[0]], E[:, _FACE_EDGES[1]])
    vol = _dot(E[:, 0], normals[:, 1]) / 6.0
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
    return Geometry(vol, E, edge_sq, normals, s, cot, d0, d0_sq, mu)


def measure_polynomial(g, du):
    """The cap's monic volume coefficients ``(n, 3)`` (see :mod:`rrsmooth.simplex`),
    a view of a ``(3, n)`` array."""
    # 6 vol(t) = det(e1 + t f1, e2 + t f2, e3 + t f3), f_k = du_k - du_0, expands
    # into the eight D[i, j, k] = p1_i . (p2_j x p3_k) with p_k = (e_k, f_k): t**m's
    # coefficient sums those with m f's, and D[0, 0, 0] = 6 vol.
    n = g.edges.shape[-1]
    P = np.empty((5, 2, 3, n))
    P[:3, 0] = g.edges[:, :3]
    np.subtract(du.T[:, 1:], du.T[:, :1], out=P[:3, 1])
    # x and y again after z, so the cross product, in _cross's arithmetic,
    # reads rolled views.
    P[3:] = P[:2]
    L, R = P[:, :, None, 1], P[:, None, :, 2]
    C = L[1:4] * R[2:5]
    C -= L[2:5] * R[1:4]
    D = _dot(P[:3, :, None, None, 0], C[:, None])
    a = np.empty((3, n))
    np.add(D[1, 0, 0], D[0, 1, 0], out=a[0])
    a[0] += D[0, 0, 1]
    np.add(D[1, 1, 0], D[1, 0, 1], out=a[1])
    a[1] += D[0, 1, 1]
    a[2] = D[1, 1, 1]
    a /= D[0, 0, 0]
    return a.T


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


def _weight_terms(g):
    """A's edge weights as two ``(6, n)`` terms: ``2 d0.N_k / |d0|^2`` on the
    vertex-0 edges 0-2, zero elsewhere (the |d0| term), and ``cot_e / s``."""
    star = np.zeros_like(g.cot)
    star[:3] = 2.0 * (g.d0[:, None] * g.normals[:, 1:]).sum(axis=0) / g.d0_sq
    return star, g.cot / g.surface


def precond_weights(g):
    """The preconditioner's edge weights ``(6, n)``: the abs of A's two terms."""
    star, cot = _weight_terms(g)
    return np.abs(star) + np.abs(cot)


def block_weights(g):
    """G_F's blocks ``(A, B0, B1, B2)`` as weights ``(4, 6, n)`` on ``EDGES``:
    A's are the sum of ``_weight_terms``, and B_c's, at (tail, head), are
    ``s_c (d0_c K / |d0|^2 - D_c / (6 vol))`` with ``s = (-1, 1, -1)``, K the
    |d0| term's antisymmetric matrix and ``D_c[i, j] = x_k - x_l`` the volume
    gradient's, over the even permutations (i, j, k, l) of ``_EDGE_PERMS``."""
    n10, n20, n30 = g.edge_sq
    K = np.stack([n20 - n30, n30 - n10, n10 - n20, -n30, n20, -n10])
    # x_k - x_l per edge is -E5, E4, -E3, -E2, E1, -E0 of the edges x_j - x_i.
    D = g.edges[:, ::-1] * np.array([-1.0, 1.0, -1.0, -1.0, 1.0, -1.0])[:, None]
    s = np.array([-1.0, 1.0, -1.0])[:, None]
    B = (s * g.d0)[:, None] * K * (1.0 / g.d0_sq) - s[:, None] * D * (1.0 / (6.0 * g.volume))
    return np.concatenate([np.add(*_weight_terms(g))[None], B])


# Unused here; the tests read it and perfbench/tracing.py patches it.
def abs_local_matrix(pts):
    """Radius ratio and the preconditioner's local Laplacian: ``(mu, A_abs)``."""
    g = geometry(pts)
    return g.mu, simplex.laplacian(precond_weights(g), EDGES)
