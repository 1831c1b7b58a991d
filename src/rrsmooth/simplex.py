"""What the two element kernels share: the degeneracy threshold, G_F's
layout and the local Laplacian.

``triangles`` and ``tetrahedra`` export one interface, looked up by
dimension through :func:`rrsmooth.mesh.kernel`: ``geometry(pts)`` (the one
checked geometry pass, a namedtuple with ``mu``), ``gradient(g)`` (the
per-vertex gradient of mu in closed form), ``radius_ratio_gradient(pts)``,
``local_blocks(pts, g=None) -> (mu, A, *B)``, ``precond_weights(g)``,
``EDGES``, ``FACETS``, ``LAYOUT``, ``DEGENERACY_RTOL``, ``diameters``,
``signed_measure`` and ``radius_ratio``. The gradient is evaluated in
closed form; the blocks are the paper's split of it,
``grad = mu * (G_local V)`` with no block carrying mu, materialized only for
the assembled G_F and the tests that check the split against the closed
form. A is the :func:`laplacian` of per-edge weights, and the preconditioner
the graph Laplacian of ``precond_weights``, their non-negative form.
"""

import numpy as np

from .errors import DegenerateElement

# Relative measure threshold below which an element counts as degenerate.
DEGENERACY_RTOL = 1e-14


def diameters(pts):
    """Coordinate spread per element, used to scale degeneracy thresholds.

    A running min/max over the vertices gives the same bits as
    ``np.ptp(pts, axis=1).max(axis=1)``, about three times faster.
    """
    lo = hi = pts[:, 0]
    for k in range(1, pts.shape[1]):
        lo = np.minimum(lo, pts[:, k])
        hi = np.maximum(hi, pts[:, k])
    return (hi - lo).max(axis=1)


def degenerate(measure, pts):
    """Cells whose signed measure is at most DEGENERACY_RTOL * diameter**dim."""
    return measure <= DEGENERACY_RTOL * diameters(pts) ** pts.shape[2]


def check_degenerate(measure, pts, name):
    """Raise DegenerateElement naming the first degenerate cell, if any."""
    bad = np.flatnonzero(degenerate(measure, pts))
    if bad.size:
        message = f"signed {name} {measure[bad[0]]:.3e} is non-positive or below threshold"
        raise DegenerateElement(message, cell=int(bad[0]))


class Layout:
    """A signed block layout: ``Layout("A B", ["A B", "-B A"])`` is
    ``[[A, B], [-B, A]]`` over blocks given in the order ``(A, B)``."""

    def __init__(self, names, rows):
        names = names.split()
        self.rows = tuple(
            tuple((e.startswith("-"), names.index(e.lstrip("-"))) for e in row.split())
            for row in rows
        )

    def product(self, blocks, parts, matvec):
        """``G @ [parts]`` as one array per block row, summed left to right.

        Negative terms are subtracted; ``x - y`` rounds as ``x + (-y)``.
        """
        out = []
        for row in self.rows:
            acc = None
            for (negative, k), part in zip(row, parts):
                term = matvec(blocks[k], part)
                if acc is None:
                    acc = -term if negative else term
                else:
                    acc = acc - term if negative else acc + term
            out.append(acc)
        return out

    def matrix(self, blocks, stack):
        """``stack`` (``np.block``, ``sparse.bmat``) of the signed block grid."""
        return stack([[-blocks[k] if neg else blocks[k] for neg, k in row] for row in self.rows])


def laplacian(w, edges):
    """Dense ``(n, k, k)`` Laplacians of weights ``(n_edges, n)`` on a kernel's
    ``EDGES``: ``-w`` at (i, j) and (j, i), and zero row sums."""
    tail, head = edges
    k = max(tail.max(), head.max()) + 1
    L = np.zeros((w.shape[1], k, k))
    L[:, tail, head] = L[:, head, tail] = -w.T
    diagonal = np.arange(k)
    L[:, diagonal, diagonal] = -L.sum(axis=2)
    return L
