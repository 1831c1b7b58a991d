"""Shared helpers: seeded random element and mesh factories."""

import numpy as np
import pytest

from rrsmooth import simplex, triangles, tetrahedra
from rrsmooth.errors import DegenerateElement


def random_triangles(n, seed=0, mu_cap=50.0, min_area=1e-3):
    """n random CCW triangles with radius ratio below mu_cap."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        P = rng.uniform(-1.0, 1.0, (3, 2))
        area = triangles.signed_area(P[None])[0]
        if area < 0:
            P = P[[0, 2, 1]]
            area = -area
        if area < min_area:
            continue
        if triangles.geometry(P[None]).mu[0] > mu_cap:
            continue
        out.append(P)
    return np.array(out)


def random_tets(n, seed=0, mu_cap=50.0, min_vol=1e-3):
    """n random positively oriented tets with radius ratio below mu_cap."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        P = rng.uniform(-1.0, 1.0, (4, 3))
        vol = tetrahedra.signed_volume(P[None])[0]
        if vol < 0:
            P = P[[0, 1, 3, 2]]
            vol = -vol
        if vol < min_vol:
            continue
        if tetrahedra.geometry(P[None]).mu[0] > mu_cap:
            continue
        out.append(P)
    return np.array(out)


def dense_blocks(kernel, pts):
    """``(mu, A, *B)``, each block ``(n, k, k)``, rebuilt from ``block_weights``:
    A is the Laplacian of its weights, and each B is antisymmetric with its
    weight at (tail, head) of every edge."""
    g = kernel.geometry(pts)
    a, *b = kernel.block_weights(g)
    tail, head = kernel.EDGES
    blocks = [simplex.laplacian(a, kernel.EDGES)]
    for w in b:
        B = np.zeros_like(blocks[0])
        B[:, tail, head], B[:, head, tail] = w.T, -w.T
        blocks.append(B)
    return (g.mu, *blocks)


def block_gradient(kernel, pts, mu, *blocks):
    """Reference per-vertex gradient ``mu * (G_local V)`` from ``dense_blocks``.

    The paper's block product (``kernel.LAYOUT``) on cell-local coordinates;
    the blocks have zero row sums, so it equals the product on ``pts``.
    """
    pts = np.asarray(pts, dtype=float)
    local = pts - pts[:, :1]
    parts = [local[..., c] for c in range(local.shape[2])]
    rows = kernel.LAYOUT.product(blocks, parts, lambda M, v: np.einsum("nij,nj->ni", M, v))
    return mu[:, None, None] * np.stack(rows, axis=2)


def dense_laplacians(kernel, g):
    """Reference ``(A, A_abs)``, each ``(n, k, k)``, built as dense blocks.

    In 2D both are the hand-written 3x3 Laplacian A of the weights ``c_k``.
    In 3D ``A = M / |d0|^2 + S / s`` from the star matrix M of the |d0| term
    and the cotangent matrix S, and ``A_abs`` is the same sum after each of
    M and S has its off-diagonals clamped to ``-|w|`` and its diagonal
    rebalanced to zero row sums.
    """
    n = len(g.mu)
    if kernel is triangles:
        c0, c1, c2 = 1.0 / (g.p * g.lengths) + 1.0 / g.lengths**2
        A = np.zeros((n, 3, 3))
        A[:, 0, 0] = c1 + c2
        A[:, 1, 1] = c2 + c0
        A[:, 2, 2] = c0 + c1
        A[:, 0, 1] = A[:, 1, 0] = -c2
        A[:, 0, 2] = A[:, 2, 0] = -c1
        A[:, 1, 2] = A[:, 2, 1] = -c0
        return A, A
    c23, c31, c12 = (g.d0[:, None] * g.normals[:, 1:]).sum(axis=0)
    M = np.zeros((n, 4, 4))
    M[:, 0, 0] = 2 * (c23 + c31 + c12)
    M[:, 0, 1] = M[:, 1, 0] = -2 * c23
    M[:, 0, 2] = M[:, 2, 0] = -2 * c31
    M[:, 0, 3] = M[:, 3, 0] = -2 * c12
    M[:, 1, 1] = 2 * c23
    M[:, 2, 2] = 2 * c31
    M[:, 3, 3] = 2 * c12
    S = np.zeros((n, 4, 4))
    for e, (i, j) in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]):
        S[:, i, j] = S[:, j, i] = -g.cot[e]
    idx = np.arange(4)
    S[:, idx, idx] = -S.sum(axis=2)

    def clamped(W):
        out = -np.abs(W)
        out[:, idx, idx] = 0.0
        out[:, idx, idx] = -out.sum(axis=2)
        return out

    d0_sq, s = g.d0_sq[:, None, None], g.surface[:, None, None]
    return M * (1.0 / d0_sq) + S / s, clamped(M) / d0_sq + clamped(S) / s


# The kernels' geometry pass and closed-form gradient as first written, with
# fancy-index gathers and the exact degeneracy rule on every cell: the
# reference that the per-coordinate pass keeps every geometry field of, bit for
# bit, and the gradient of, to rounding.
_REF_EDGE_PERMS = (
    (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 2, 0), (2, 3, 0, 1)
)
_REF_TAIL, _REF_HEAD = np.array(_REF_EDGE_PERMS)[:, :2].T
_REF_FACE_EDGES = ([3, 1, 2, 0], [4, 2, 0, 1])


def _ref_corners():
    index = {frozenset(edge[:2]): e for e, edge in enumerate(_REF_EDGE_PERMS)}
    rows = [(e, index[frozenset((v, i))], index[frozenset((v, j))], face)
            for e, (i, j, k, l) in enumerate(_REF_EDGE_PERMS) for v, face in ((l, k), (k, l))]
    return [list(column) for column in zip(*rows)]


_REF_CORNER_EDGE, _REF_CORNER_VI, _REF_CORNER_VJ, _REF_CORNER_FACE = _ref_corners()


def _ref_cross(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for c, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[i] * b[j], a[j] * b[i], out=out[c])
    return out


def _ref_check(measure, pts, name):
    scale = simplex.diameters(pts) ** pts.shape[2]
    bad = np.flatnonzero(measure <= simplex.DEGENERACY_RTOL * scale)
    if bad.size:
        message = f"signed {name} {measure[bad[0]]:.3e} is non-positive or below threshold"
        raise DegenerateElement(message, cell=int(bad[0]))


def reference_geometry(kernel, pts):
    """The kernel's geometry fields as a dict, from the gathering pass."""
    pts = np.asarray(pts, dtype=float)
    X = np.ascontiguousarray(pts.T)
    if kernel is triangles:
        e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
        area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        _ref_check(area, pts, "area")
        edges = X[:, [2, 0, 1]] - X[:, [1, 2, 0]]
        lengths = np.sqrt(edges[0] * edges[0] + edges[1] * edges[1])
        p, q = lengths.sum(axis=0), lengths.prod(axis=0)
        return dict(area=area, edges=edges, lengths=lengths, p=p, mu=p * q / (16.0 * area**2))
    E = X[:, _REF_HEAD] - X[:, _REF_TAIL]
    normals = _ref_cross(E[:, _REF_FACE_EDGES[0]], E[:, _REF_FACE_EDGES[1]])
    # einsum's order of summation depends on the layout: this is signed_volume's
    # on C-ordered rows.
    rows = np.ascontiguousarray(pts)
    e1, e2, e3 = (rows[:, k] - rows[:, 0] for k in (1, 2, 3))
    vol = np.einsum("ij,ij->i", e1, np.cross(e2, e3)) / 6.0
    _ref_check(vol, pts, "volume")
    sq = (E * E).sum(axis=0)
    edge_sq = sq[:3]
    d0 = edge_sq[2] * normals[:, 3] + edge_sq[0] * normals[:, 1] + edge_sq[1] * normals[:, 2]
    d0_sq = (d0 * d0).sum(axis=0)
    areas = 0.5 * np.sqrt((normals * normals).sum(axis=0))
    s = areas.sum(axis=0)
    corner = sq[_REF_CORNER_VI] + sq[_REF_CORNER_VJ] - sq[_REF_CORNER_EDGE]
    cot = (corner / (8.0 * areas[_REF_CORNER_FACE])).reshape(6, 2, -1).sum(axis=1)
    mu = s * np.sqrt(d0_sq) / (108.0 * vol**2)
    return dict(
        volume=vol, edges=E, edge_sq=edge_sq, normals=normals, surface=s, cot=cot, d0=d0,
        d0_sq=d0_sq, d0_normals=(d0[:, None] * normals[:, 1:]).sum(axis=0), mu=mu,
    )


def reference_gradient(kernel, pts):
    """Per-vertex gradient of mu ``(n, k, dim)``: the closed form as first
    written, on :func:`reference_geometry`."""
    g = reference_geometry(kernel, pts)
    if kernel is triangles:
        c = 1.0 / (g["p"] * g["lengths"]) + 1.0 / g["lengths"] ** 2
        w = c * g["edges"]
        G = w[:, [1, 2, 0]] - w[:, [2, 0, 1]]
        G[0] += g["edges"][1] / g["area"]
        G[1] -= g["edges"][0] / g["area"]
        return (g["mu"] * G).T
    e, d0, sq = g["edges"][:, :3], g["d0"][:, None], g["edge_sq"]
    c = (d0 * g["normals"][:, 1:]).sum(axis=0)
    w = sq[[2, 0, 1]] * e[:, [1, 2, 0]] - sq[[1, 2, 0]] * e[:, [2, 0, 1]]
    jd0 = 2.0 * c * e + _ref_cross(w, d0)
    W = g["cot"] * g["edges"]
    ds = np.stack(
        [W[:, 0] - W[:, 3] - W[:, 4], W[:, 1] + W[:, 3] - W[:, 5], W[:, 2] + W[:, 4] + W[:, 5]],
        axis=1,
    )
    G = np.empty((3, 4, len(g["mu"])))
    G[:, 1:] = jd0 / g["d0_sq"] + ds / g["surface"] - g["normals"][:, 1:] / (3.0 * g["volume"])
    G[:, 0] = -G[:, 1:].sum(axis=1)
    G *= g["mu"]
    return G.T


def central_diff(f, P, h):
    """Central-difference gradient of a scalar elementwise function."""
    P = np.asarray(P, dtype=float)
    g = np.zeros_like(P)
    for i in range(P.shape[0]):
        for d in range(P.shape[1]):
            Q = P.copy()
            Q[i, d] += h
            R = P.copy()
            R[i, d] -= h
            g[i, d] = (f(Q) - f(R)) / (2.0 * h)
    return g


# Vertices of the regular tetrahedron inscribed in the cube, ordered so the
# signed volume is positive.
REGULAR_TET = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]]
)

CORNER_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

EQUILATERAL_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])

RIGHT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def spy_wolfe(mp):
    """Wrap ``optim.strong_wolfe_search`` through the MonkeyPatch ``mp``; the
    returned list collects ``(df0, result)`` of every search that returns."""
    from rrsmooth import optim

    search, searches = optim.strong_wolfe_search, []

    def spy(phi, f0, df0, **kwargs):
        result = search(phi, f0, df0, **kwargs)
        searches.append((df0, result))
        return result

    mp.setattr(optim, "strong_wolfe_search", spy)
    return searches


@pytest.fixture
def exact_line_search(monkeypatch):
    """Wolfe constants so small that each accepted step is the exact minimizer
    along its ray to rounding, as the quadratic-termination identities need."""
    from rrsmooth import optim

    monkeypatch.setattr(optim, "WOLFE_C1", 1e-13)
    monkeypatch.setattr(optim, "WOLFE_C2", 1e-10)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
