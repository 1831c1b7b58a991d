"""What the two element kernels share: the degeneracy rule, G_F's layout
and the dense local Laplacian.

A cell is rejected when its sum of squared edges S is :func:`out_of_range`
or its measure :func:`degenerate`. The geometry passes hand
:func:`check_degenerate` the S they hold; ``mesh.validate`` computes its
bits with :func:`edge_sq_sum`. Both compute S and the measure unwarned: past
the range they may overflow, and the cell is rejected as out of range.

``triangles`` and ``tetrahedra`` export one interface, looked up by
dimension through :func:`rrsmooth.mesh.kernel`: ``geometry(pts)`` (the one
checked geometry pass, a namedtuple with ``mu``), ``gradient(g, scale)``
(the per-vertex gradient of ``scale * mu`` in closed form, the transpose of
a per-coordinate ``(dim, dim+1, n)`` array), ``block_weights(g)``,
``precond_weights(g)``, ``measure_polynomial(edges, du)``, ``signed_measure``,
``EDGES``, ``FACETS`` and ``LAYOUT``. The gradient is evaluated in closed
form; G_F's blocks are the paper's split of it, ``grad = mu * (G_local V)``
with no block carrying mu, given as weights ``(n_blocks, n_edges, n)`` on
``EDGES`` (``block_weights``): A is the Laplacian of its weights and each
B antisymmetric with its weight at (tail, head). The preconditioner is the
Laplacian of ``precond_weights``, A's in non-negative form. Only
``tetrahedra.abs_local_matrix`` and the tests build a dense :func:`laplacian`.
For the inversion cap, row i of ``measure_polynomial`` holds the three lower
coefficients, in ``s = 1/t`` (monic), of cell i's measure at ``x + t du``
over that at ``x`` (times s for a triangle, so both solve a cubic), read
off the geometry's ``edges`` alone; ``du`` is the direction gathered like
``pts``.
"""

import numpy as np

from .errors import DegenerateElement

# Relative measure threshold below which an element counts as degenerate.
DEGENERACY_RTOL = 1e-14

# The sums of squared edges S over which each kernel computes exactly: every
# quantity it forms stays a normal float, between tiny = 2.2e-308 and huge =
# 1.8e308. The extreme ones have degree +-k in S times a factor of the
# cell's shape, which the relative rule bounds:
#   2D, k = 2: RTOL**2 S**2 < area**2, and p * q <= S**2 / 3, so
#       S in [sqrt(tiny) / RTOL, sqrt(3 huge)] = [1.5e-140, 2.3e154];
#   3D, k = 4: 6 RTOL**2 S**4 <= d0_sq <= S**4 / 4, and, as mu >= 1 and
#       mu / d0_sq = s / (1296 vol**3 R), 4 S**-4 <= mu / d0_sq <= 2.2e39 S**-4, so
#       S in [(2.2e39 / huge)**(1/4), (4 / tiny)**(1/4)] = [5.9e-68, 1.2e77].
# Quantities of lower degree have room to spare. Rounded inward.
EDGE_SQ_RANGE = {2: (1e-139, 1e154), 3: (1e-67, 1e76)}


def edge_sq_sum(X, edges):
    """Each cell's sum of squared edges S from per-coordinate vertices ``X``
    ``(dim, dim + 1, n)`` in the geometry passes' arithmetic: each edge
    ``x_head - x_tail`` of ``EDGES`` squared and summed over the coordinates,
    then the edges summed in order, one at a time to keep temporaries small."""
    S = 0.0
    for tail, head in zip(*edges):
        e = X[:, head] - X[:, tail]
        S = S + (e * e).sum(axis=0)
    return S


def out_of_range(edge_sq, dim):
    """Cells whose sum of squared edges lies outside EDGE_SQ_RANGE (or is NaN)."""
    lo, hi = EDGE_SQ_RANGE[dim]
    return ~((edge_sq >= lo) & (edge_sq <= hi))


def degenerate(measure, edge_sq, dim):
    """Cells whose signed measure is at most DEGENERACY_RTOL * S**(dim/2),
    S the sum of squared edges (``S * sqrt(S)`` in 3D).

    S depends only on the cell's shape and size, so the verdict does not
    change when the mesh is turned or moved. A bound that overflows to inf
    clears no cell.
    """
    bound = DEGENERACY_RTOL * edge_sq
    if dim == 3:
        bound *= np.sqrt(edge_sq)
    return ~(measure > bound)


def check_degenerate(measure, edge_sq, dim):
    """Raise DegenerateElement naming the first cell that is
    :func:`out_of_range` or :func:`degenerate`, if any, and its cause."""
    far = out_of_range(edge_sq, dim)
    bad = np.flatnonzero(far | degenerate(measure, edge_sq, dim))
    if bad.size:
        c = int(bad[0])
        if far[c]:
            lo, hi = EDGE_SQ_RANGE[dim]
            message = f"sum of squared edges {edge_sq[c]:.3e} is outside [{lo:g}, {hi:g}]"
        else:
            name = "area" if dim == 2 else "volume"
            message = f"signed {name} {measure[c]:.3e} is non-positive or below threshold"
        raise DegenerateElement(message, cell=c)


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
