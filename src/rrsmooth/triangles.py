"""Triangle geometry: area, radius ratio and its analytical gradient.

All kernel functions are vectorized over a leading batch axis: ``pts`` has
shape ``(n, 3, 2)`` with vertices ordered counter-clockwise (positive signed
area). The ``Triangle`` class wraps a single element.

Edge ``i`` is the edge opposite vertex ``i``, so ``l0 = |x2 - x1|``,
``l1 = |x0 - x2|`` and ``l2 = |x1 - x0|``. The radius ratio is
``mu = R / (2 r) = p q / (16 area^2)`` with ``p = l0 + l1 + l2`` and
``q = l0 l1 l2``; it equals 1 exactly for equilateral triangles and grows
without bound as an element degenerates.

The gradient is the block product ``[[A, B], [-B, A]] @ [X; Y]`` of the
local blocks, taken on cell-local coordinates ``pts - pts[:, :1]``. Every
kernel reads one geometry pass (``_geometry``) that checks the area once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement

# Relative measure threshold below which an element counts as degenerate.
DEGENERACY_RTOL = 1e-14

# Sign pattern of the antisymmetric block B = (1 / area) * _B_SIGNS.
_B_SIGNS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


@dataclass(frozen=True)
class LocalGradient2D:
    """Per-element radius ratio value, gradient and local matrix blocks.

    ``grad[k]`` is the gradient of mu with respect to vertex ``k``. The
    3x3 blocks reproduce it through the block product::

        [grad_x; grad_y] = [[A_local, B_local], [-B_local, A_local]] @ [X; Y]

    ``A_local`` is a weighted Laplacian (zero row sums, negative
    off-diagonals) and ``B_local`` is antisymmetric; both already carry the
    mu factor.
    """

    mu: float
    A_local: np.ndarray
    B_local: np.ndarray
    grad: np.ndarray


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def diameters(pts):
    """Coordinate spread per element, used to scale degeneracy thresholds.

    Works on cells of either dimension. A running min/max over the vertices
    gives the same bits as ``np.ptp(pts, axis=1).max(axis=1)``, about three
    times faster.
    """
    lo = hi = pts[:, 0]
    for k in range(1, pts.shape[1]):
        lo = np.minimum(lo, pts[:, k])
        hi = np.maximum(hi, pts[:, k])
    return (hi - lo).max(axis=1)


def signed_area(pts):
    """Signed area of each triangle; positive for CCW orientation."""
    pts = np.asarray(pts, dtype=float)
    return 0.5 * _cross2(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])


def edge_lengths(pts):
    """Edge lengths ``(l0, l1, l2)``, edge i opposite vertex i."""
    pts = np.asarray(pts, dtype=float)
    l0 = np.linalg.norm(pts[:, 2] - pts[:, 1], axis=1)
    l1 = np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1)
    l2 = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    return np.stack([l0, l1, l2], axis=1)


def _check_degenerate(area, pts):
    bad = area <= DEGENERACY_RTOL * diameters(pts) ** 2
    if np.any(bad):
        cell = int(np.flatnonzero(bad)[0])
        raise DegenerateElement(
            f"signed area {area[bad][0]:.3e} is non-positive or below threshold",
            cell=cell,
        )


def _geometry(pts):
    """The one geometry pass every kernel reads: ``(area, lengths, p, mu)``.

    Raises DegenerateElement when any signed area is non-positive or falls
    under the scaled threshold.
    """
    pts = np.asarray(pts, dtype=float)
    area = signed_area(pts)
    _check_degenerate(area, pts)
    lengths = edge_lengths(pts)
    p = lengths.sum(axis=1)
    q = lengths.prod(axis=1)
    return area, lengths, p, p * q / (16.0 * area**2)


def radius_ratio(pts):
    """Radius ratio mu >= 1 of each triangle."""
    return _geometry(pts)[3]


def local_blocks(pts):
    """Local matrix form of the gradient: ``(mu, A, B)`` with shapes (n,), (n,3,3).

    A and B include the mu factor, so the stacked gradient equals
    ``[[A, B], [-B, A]] @ [X; Y]`` directly.
    """
    area, lengths, p, mu = _geometry(pts)
    cw = 1.0 / (p[:, None] * lengths) + 1.0 / lengths**2  # c0, c1, c2
    c0, c1, c2 = cw[:, 0], cw[:, 1], cw[:, 2]
    A = np.zeros((len(mu), 3, 3))
    A[:, 0, 0] = c1 + c2
    A[:, 1, 1] = c2 + c0
    A[:, 2, 2] = c0 + c1
    A[:, 0, 1] = A[:, 1, 0] = -c2
    A[:, 0, 2] = A[:, 2, 0] = -c1
    A[:, 1, 2] = A[:, 2, 1] = -c0
    B = (1.0 / area)[:, None, None] * _B_SIGNS
    return mu, mu[:, None, None] * A, mu[:, None, None] * B


def block_gradient(pts, A, B):
    """Per-vertex gradient ``(n, 3, 2)`` from the blocks of ``local_blocks``.

    The product runs on cell-local coordinates; the zero row sums of the
    blocks make it equal the product on ``pts`` itself.
    """
    pts = np.asarray(pts, dtype=float)
    local = pts - pts[:, :1]
    # [[A, B], [-B, A]] @ [X; Y], with (X, Y) -> (Y, -X) feeding B.
    return A @ local + B @ (local[..., ::-1] * [1.0, -1.0])


def radius_ratio_gradient(pts):
    """Radius ratio and its per-vertex gradient, shape ``(n,)`` and ``(n, 3, 2)``."""
    mu, A, B = local_blocks(pts)
    return mu, block_gradient(pts, A, B)


def local_gradient_matrix(lg):
    """Assemble the 6x6 block matrix of a LocalGradient2D."""
    return np.block([[lg.A_local, lg.B_local], [-lg.B_local, lg.A_local]])


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
        """Radius-ratio gradient together with the local matrix blocks."""
        mu, A, B = local_blocks(self._batch)
        grad = block_gradient(self._batch, A, B)
        return LocalGradient2D(float(mu[0]), A[0], B[0], grad[0])
