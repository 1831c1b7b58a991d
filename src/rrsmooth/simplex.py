"""What the two element kernels share: the degeneracy rule, G_F's layout
and the dense local Laplacian.

``triangles`` and ``tetrahedra`` export one interface, looked up by
dimension through :func:`rrsmooth.mesh.kernel`: ``geometry(pts)`` (the one
checked geometry pass, a namedtuple with ``mu``), ``gradient(g, scale)``
(the per-vertex gradient of ``scale * mu`` in closed form, the transpose of
a per-coordinate ``(dim, dim+1, n)`` array), ``block_weights(g)``,
``precond_weights(g)``, ``measure_polynomial(g, du)``, ``signed_measure``,
``EDGES``, ``FACETS`` and ``LAYOUT``. The gradient is evaluated in closed
form; G_F's blocks are the paper's split of it, ``grad = mu * (G_local V)``
with no block carrying mu, given as weights ``(n_blocks, n_edges, n)`` on
``EDGES`` (``block_weights``): A is the Laplacian of its weights and each
B antisymmetric with its weight at (tail, head). The preconditioner is the
Laplacian of ``precond_weights``, A's in non-negative form. Only
``tetrahedra.abs_local_matrix`` and the tests build a dense :func:`laplacian`.
For the inversion cap, row i of ``measure_polynomial`` holds the dim lower
coefficients, in ``s = 1/t`` (monic), of cell i's measure at ``x + t du``
over that at ``x``; ``du`` is the direction gathered like ``pts``.
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


def _edge_sq_sum(pts):
    """Each cell's sum of squared edge lengths, over every vertex pair."""
    X = np.asarray(pts).T
    S = 0.0
    for i in range(X.shape[1] - 1):
        d = X[:, i + 1 :] - X[:, i : i + 1]
        S = S + (d * d).reshape(-1, X.shape[-1]).sum(axis=0)
    return S


def degenerate(measure, pts, edge_sq=None):
    """Cells whose signed measure is at most DEGENERACY_RTOL * diameter**dim.

    A cell's diameter is at most its longest edge, so at most ``sqrt(S)``,
    ``S`` the sum of its squared edge lengths (``edge_sq``, computed from
    ``pts`` when not given). A cell whose measure exceeds
    ``2 DEGENERACY_RTOL S**(dim/2)`` clears the rule with a factor 2 to
    spare for rounding, so only the others are gathered from ``pts`` for
    :func:`diameters`. It flags the same cells as the rule on every cell.
    """
    dim = pts.shape[2]
    # An overflow to inf clears no cell.
    with np.errstate(over="ignore"):
        if edge_sq is None:
            edge_sq = _edge_sq_sum(pts)
        bound = (2.0 * DEGENERACY_RTOL) * edge_sq
        if dim == 3:
            bound *= np.sqrt(edge_sq)
    bad = ~(measure > bound)
    suspects = np.flatnonzero(bad)
    if suspects.size:
        bad[suspects] = measure[suspects] <= DEGENERACY_RTOL * diameters(pts[suspects]) ** dim
    return bad


def check_degenerate(measure, pts, name, edge_sq):
    """Raise DegenerateElement naming the first degenerate cell, if any
    (:func:`degenerate`, given each cell's sum of squared edges)."""
    bad = np.flatnonzero(degenerate(measure, pts, edge_sq))
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
