"""Tetrahedron geometry: radius ratio and its gradient, and the edge weights
of G_F's blocks and of the SPD preconditioner.

Kernels are vectorized over a batch axis: ``pts`` has shape ``(n, 4, 3)``
with positive signed volume; a single cell is the batch ``pts[None]``.
Face ``i`` is the face opposite vertex ``i``. The geometry pass reads
contiguous ``(n,)`` arrays per coordinate and vertex, ``pts.T`` (no copy for
``mesh.cell_coords().T``), takes its edges from slices of them and its
cotangents per edge, and checks degeneracy through ``simplex``'s rule on
the squared edges it already has.

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
invariant. ``gradient(g, scale)`` folds ``scale * mu`` into the per-cell
factors of the three terms and writes one ``(3, 4, n)`` array. The paper's
split of the same gradient is the block product (``LAYOUT``)
``mu * [[A, B2, B1], [-B2, A, B0], [-B1, -B0, A]] @ [X; Y; Z]``, A symmetric
and the B blocks antisymmetric, each given per edge (``block_weights``): A
is the Laplacian of signed edge weights, each B the antisymmetric matrix of
its own, and ``assembly.assemble`` scatters them into G_F
(``--dump-system``). The preconditioner is the Laplacian of A's
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

Geometry = namedtuple(
    "Geometry", "volume edges edge_sq normals surface cot d0 d0_sq d0_normals mu"
)


def signed_volume(pts):
    """Signed volume; positive when vertex 3 sees (0, 1, 2) counter-clockwise.

    Computed per coordinate, on ``pts.T``, in the arithmetic of an einsum of
    ``(n, 3)`` rows and ``np.cross``, so any layout of ``pts`` gives the bits
    of :func:`geometry`'s volume.
    """
    X = np.asarray(pts, dtype=float).T
    e = X[:, 1:] - X[:, :1]
    return _dot(e[:, 0], _cross(e[:, 1], e[:, 2])) / 6.0


signed_measure = signed_volume


def _cross(a, b, out=None):
    """Cross product over the leading axis; the arithmetic of ``np.cross``."""
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for c, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[c])
        out[c] -= a[j] * b[i]
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


def _rolled(a):
    """``a`` with its first two rows again after its last: ``(k + 2, ...)``."""
    out = np.empty((len(a) + 2, *a.shape[1:]))
    out[: len(a)] = a
    out[len(a) :] = a[:2]
    return out


def geometry(pts):
    """The one geometry pass every kernel reads.

    Every field is per coordinate (leading axis) over a trailing cell axis:
    ``edges`` ``(3, 6, n)`` holds ``x_j - x_i`` per edge ij of ``EDGES``,
    ``edge_sq`` ``(3, n)`` is ``|e1|^2, |e2|^2, |e3|^2``, ``normals``
    ``(3, 4, n)`` the doubled area vectors of faces 0-3, ``surface`` the
    total face area, ``cot`` ``(6, n)`` the cotangent weight of each edge
    summed over the two faces through it, and ``d0_normals`` ``(3, n)`` is
    ``d0 . N_k``. Raises DegenerateElement for an inverted or collapsed cell,
    or one too large or small to compute (``simplex.check_degenerate``).
    """
    X = np.ascontiguousarray(np.asarray(pts, dtype=float).T)
    n = X.shape[-1]
    edges = np.empty((3, 6, n))
    normals = np.empty((3, 4, n))
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(X[:, 1:], X[:, :1], out=edges[:, :3])
        np.subtract(X[:, 2:], X[:, 1:2], out=edges[:, 3:5])
        np.subtract(X[:, 3], X[:, 2], out=edges[:, 5])
        # N_3 = e1 x e2 and face 0's (x2 - x1) x (x3 - x1), then N_1 = e2 x e3
        # and N_2 = e3 x e1.
        _cross(edges[:, 0::3], edges[:, 1::3], out=normals[:, 3::-3])
        _cross(edges[:, 1:3], edges[:, 2::-2], out=normals[:, 1:3])
        vol = _dot(edges[:, 0], normals[:, 1]) / 6.0
        sq = (edges * edges).reshape(3, -1).sum(axis=0).reshape(6, n)
        simplex.check_degenerate(vol, sq.sum(axis=0), 3)
    edge_sq = sq[:3]
    d0 = edge_sq[2] * normals[:, 3] + edge_sq[0] * normals[:, 1] + edge_sq[1] * normals[:, 2]
    d0_sq = (d0 * d0).sum(axis=0)
    areas = 0.5 * np.sqrt((normals * normals).sum(axis=0))
    s = areas.sum(axis=0)
    # Per corner v of edge ij, 2 u.w = |vi|^2 + |vj|^2 - |ij|^2 for u, w = x_i - x_v,
    # x_j - x_v, and the half-cotangent is u.w / (4 area). Read per edge from
    # rolled rows: U the squared vertex-0 edges |e1|^2, |e2|^2, |e3|^2, W those
    # of their opposite edges (EDGES 5, 4, 3), H 8 times the areas of faces
    # 0-3, then 1 and 2. e_k's corners lie in faces k + 2 and k + 1 (mod 3,
    # from 1); its opposite edge's in face k and face 0.
    U, W = _rolled(edge_sq), _rolled(sq[:2:-1])
    H = np.empty((6, n))
    np.multiply(8.0, areas, out=H[:4])
    H[4:] = H[1:3]
    cot = np.empty((6, n))
    np.add((U[1:4] + W[2:5] - U[:3]) / H[3:6], (U[2:5] + W[1:4] - U[:3]) / H[2:5], out=cot[:3])
    np.add((U[1:4] + U[2:5] - W[:3]) / H[1:4], (W[1:4] + W[2:5] - W[:3]) / H[0], out=cot[:2:-1])
    d0_normals = (d0[:, None] * normals[:, 1:]).sum(axis=0)
    mu = s * np.sqrt(d0_sq) / (108.0 * vol**2)
    return Geometry(vol, edges, edge_sq, normals, s, cot, d0, d0_sq, d0_normals, mu)


def measure_polynomial(edges, du):
    """The cap's monic volume coefficients ``(n, 3)`` (see :mod:`rrsmooth.simplex`)
    from :func:`geometry`'s ``edges``, a view of a ``(3, n)`` array."""
    # 6 vol(t) = det(e1 + t f1, e2 + t f2, e3 + t f3), f_k = du_k - du_0, sums the
    # triple products p1 . (p2 x p3), p_k in (e_k, f_k): t**m's coefficient those
    # with m f's, and e1 . (e2 x e3) = 6 vol.
    e1, e2, e3 = edges[:, 0], edges[:, 1], edges[:, 2]
    f = du.T[:, 1:] - du.T[:, :1]
    f1, f2, f3 = f[:, 0], f[:, 1], f[:, 2]
    ee, fe, ef, ff = _cross(e2, e3), _cross(f2, e3), _cross(e2, f3), _cross(f2, f3)
    a = np.empty((3, ee.shape[-1]))
    np.add(_dot(f1, ee), _dot(e1, fe), out=a[0])
    a[0] += _dot(e1, ef)
    np.add(_dot(f1, fe), _dot(f1, ef), out=a[1])
    a[1] += _dot(e1, ff)
    a[2] = _dot(f1, ff)
    a /= _dot(e1, ee)
    return a.T


def gradient(g, scale=1.0):
    """Per-vertex gradient of ``scale * mu`` ``(n, 4, 3)`` in closed form, from
    ``geometry(pts)``: the transpose of a ``(3, 4, n)`` array, per coordinate."""
    m = scale * g.mu
    n = len(m)
    G = np.empty((3, 4, n))
    Gk = G[:, 1:]
    e = g.edges[:, :3]
    # grad|d0| / |d0| at vertices 1-3: J_k^T d0 / |d0|^2, whose cross term is
    # |e_{k+2}|^2 F_{k+1} - |e_{k+1}|^2 F_{k+2} for F_k = e_k x d0, rolled.
    a = m / g.d0_sq
    F = np.empty((3, 5, n))
    _cross(e, (g.d0 * a)[:, None], out=F[:, :3])
    F[:, 3:] = F[:, :2]
    u = _rolled(g.edge_sq)
    np.multiply(e, (2.0 * a) * g.d0_normals, out=Gk)
    Gk += u[2:5] * F[:, 1:4]
    Gk -= u[1:4] * F[:, 2:5]
    # grad s / s at vertices 1-3: cot_kj (x_k - x_j) summed over the edges kj,
    # each edge's weighted vector added at its head and taken at its tail.
    W = g.edges * ((m / g.surface) * g.cot)
    Gk += W[:, :3]
    Gk[:, 1:] += W[:, 3:5]
    Gk[:, 2] += W[:, 5]
    Gk[:, :2] -= W[:, 3::2]
    Gk[:, 0] -= W[:, 4]
    # -2 grad vol / vol: N_k / (3 vol).
    Gk -= g.normals[:, 1:] * (m / (3.0 * g.volume))
    np.negative(Gk.sum(axis=1), out=G[:, 0])
    return G.T


def precond_weights(g):
    """The preconditioner's edge weights ``(6, n)``: the abs of A's two terms,
    ``cot_e / s`` on every edge and the |d0| term ``2 d0.N_k / |d0|^2`` on 0-2."""
    w = np.abs(g.cot / g.surface)
    w[:3] += np.abs(2.0 * g.d0_normals / g.d0_sq)
    return w


def block_weights(g):
    """G_F's blocks ``(A, B0, B1, B2)`` as weights ``(4, 6, n)`` on ``EDGES``:
    A's are the signed sum of :func:`precond_weights`' two terms, and B_c's, at
    (tail, head), ``s_c (d0_c K / |d0|^2 - D_c / (6 vol))`` with ``s = (-1, 1,
    -1)``, K the |d0| term's antisymmetric matrix and ``D_c[i, j] = x_k - x_l``
    the volume gradient's, over the even permutations (i, j, k, l) of ``_EDGE_PERMS``."""
    n10, n20, n30 = g.edge_sq
    K = np.stack([n20 - n30, n30 - n10, n10 - n20, -n30, n20, -n10])
    # x_k - x_l per edge is -E5, E4, -E3, -E2, E1, -E0 of the edges x_j - x_i.
    D = g.edges[:, ::-1] * np.array([-1.0, 1.0, -1.0, -1.0, 1.0, -1.0])[:, None]
    s = np.array([-1.0, 1.0, -1.0])[:, None]
    B = (s * g.d0)[:, None] * K * (1.0 / g.d0_sq) - s[:, None] * D * (1.0 / (6.0 * g.volume))
    A = g.cot / g.surface
    A[:3] += 2.0 * g.d0_normals / g.d0_sq
    return np.concatenate([A[None], B])


# Unused here; the tests read it and perfbench/tracing.py patches it.
def abs_local_matrix(pts):
    """Radius ratio and the preconditioner's local Laplacian: ``(mu, A_abs)``."""
    g = geometry(pts)
    return g.mu, simplex.laplacian(precond_weights(g), EDGES)
