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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
