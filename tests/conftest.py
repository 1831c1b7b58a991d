"""Shared helpers: seeded random element and mesh factories."""

import numpy as np
import pytest

from rrsmooth import triangles, tetrahedra


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
        if triangles.radius_ratio(P[None])[0] > mu_cap:
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
        if tetrahedra.radius_ratio(P[None])[0] > mu_cap:
            continue
        out.append(P)
    return np.array(out)


def block_gradient(kernel, pts, mu, *blocks):
    """Reference per-vertex gradient ``mu * (G_local V)`` from ``local_blocks``.

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
