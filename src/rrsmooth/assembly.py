"""Global energy, sparse block gradient and the reduced SPD preconditioner.

The energy of a mesh is the mean element radius ratio. Its gradient with
respect to the stacked coordinate vector V = [X; Y(; Z)] is G_F @ V where
G_F has one symmetric diagonal block A repeated per coordinate and
antisymmetric off-diagonal blocks, laid out as the element kernel's
``LAYOUT``::

    2D: [[A, B], [-B, A]]          3D: [[A, B2, B1], [-B2, A, B0], [-B1, -B0, A]]

The gradient itself is evaluated in closed form by the element kernel
(``gradient``) and scatter-added per vertex. G_F's blocks are the paper's
split of it, and both they and the preconditioner P are sums of per-edge
weights: A is the graph Laplacian of the kernel's signed ``block_weights``,
each B the antisymmetric matrix of its own, and P the graph Laplacian of
A's weights in non-negative form (``precond_weights``: in 3D the sum of
the abs of A's two weight terms), so the paper's "minor processing" from A
to P is an ``abs`` of edge weights. G_F is materialized only by
:func:`assemble` (for ``--dump-system`` and the tests that check the split
against the gradient). Every function here reaches the element kernel
through ``mesh.kernel(dim)`` and reads it the same way in both dimensions:
nothing local carries mu, so cell c adds ``mu_c / n_cells`` times its edge
weights to G_F's and to P's.

Assembly scatter-adds per-element contributions deterministically, so
identical meshes produce bit-identical results. The preconditioner's
sparsity pattern, the slot of every edge entry in it, and the checks that
it can be positive definite depend on connectivity only: they are built once
per run (:func:`preconditioner_topology`), and each build is then one
``np.bincount`` of the edge weights into P's entries. The gradient field is
summed by ``np.bincount`` too; both sum in cell order.

The optimize path runs on numpy alone: P is held in a column-major ELL layout
and applied by :class:`Preconditioner`'s ``@``. scipy is imported only by the
calls that build a scipy matrix (``Preconditioner.P``, :func:`assemble` and
``gradient_matrix``) and by :func:`spd_audit` and :func:`write_matrix_market`.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from operator import matmul

import numpy as np

from .errors import DisconnectedMesh, NoFixedVertices
from .mesh import components, is_connected, kernel


def field_to_vec(field):
    """(n_vertices, dim) array -> stacked [X; Y(; Z)] vector."""
    return np.asarray(field).T.ravel()


def vec_to_field(vec, n_vertices, dim):
    """Stacked [X; Y(; Z)] vector -> (n_vertices, dim) array."""
    return np.asarray(vec).reshape(dim, n_vertices).T


@dataclass
class GlobalGradientSystem:
    """Energy, stacked coordinates, sparse blocks and the assembled gradient.

    ``gradient`` comes from scatter-adding per-element gradient vectors;
    :meth:`gradient_matvec` recomputes it from the sparse blocks as G_F @ V.
    The two must agree to roundoff.
    """

    F: float
    V: np.ndarray
    A: "scipy.sparse.csr_matrix"
    B_blocks: tuple
    gradient: np.ndarray
    n_vertices: int
    dim: int

    def gradient_matvec(self):
        blocks, parts = (self.A, *self.B_blocks), np.split(self.V, self.dim)
        return np.concatenate(kernel(self.dim).LAYOUT.product(blocks, parts, matmul))

    def gradient_field(self):
        return vec_to_field(self.gradient, self.n_vertices, self.dim)

    def gradient_matrix(self):
        """The full (dim n_v)^2 sparse G_F, mainly for debugging dumps."""
        from scipy import sparse

        bmat = partial(sparse.bmat, format="csr")
        return kernel(self.dim).LAYOUT.matrix((self.A, *self.B_blocks), bmat)


def _edge_matrix(mesh, w, laplacian):
    """Sum edge weights ``(n_edges, n_cells)`` into an n x n CSR matrix: a
    Laplacian, ``-w`` at (i, j) and (j, i) and ``w`` at (i, i) and (j, j) of
    every edge ij, or antisymmetric, ``w`` at (i, j) and ``-w`` at (j, i).
    Both mirror U, the sums above the diagonal, so neither rounds asymmetrically."""
    from scipy import sparse

    tail, head = kernel(mesh.dim).EDGES
    i, j, w = mesh.cells[:, tail].ravel(), mesh.cells[:, head].ravel(), w.T.ravel()
    n = mesh.n_vertices
    upper = w if laplacian else np.where(i < j, w, -w)
    U = sparse.csr_matrix((upper, (np.minimum(i, j), np.maximum(i, j))), shape=(n, n))
    if not laplacian:
        return U - U.T
    return sparse.diags(np.bincount(np.r_[i, j], np.r_[w, w], n)) - U - U.T


def _sum_per_vertex(mesh, values):
    """Sum per-cell vertex vectors ``(n_cells, dim+1, dim)`` into a field.

    One ``np.bincount`` per coordinate adds each vertex's entries in cell
    order, starting from zero: the bits of ``np.add.at``, several times faster.
    """
    index = mesh.cells.ravel()
    return np.stack(
        [
            np.bincount(index, weights=values[..., c].ravel(), minlength=mesh.n_vertices)
            for c in range(mesh.dim)
        ],
        axis=1,
    )


def _cell_weights(mesh, mu):
    """``mu_c / n_cells`` per cell: the scale of every local contribution."""
    return (1.0 / mesh.n_cells) * mu


def assemble(mesh):
    """Assemble energy, gradient and sparse blocks for the current geometry.

    Raises DegenerateElement (with the offending cell index) if any element
    is inverted or collapsed.
    """
    F, grad_field, geometry = energy_gradient(mesh)
    a, *b = _cell_weights(mesh, geometry.mu) * kernel(mesh.dim).block_weights(geometry)
    return GlobalGradientSystem(
        F=F,
        V=field_to_vec(mesh.vertices),
        A=_edge_matrix(mesh, a, laplacian=True),
        B_blocks=tuple(_edge_matrix(mesh, w, laplacian=False) for w in b),
        gradient=field_to_vec(grad_field),
        n_vertices=mesh.n_vertices,
        dim=mesh.dim,
    )


def energy_gradient(mesh):
    """Energy, scatter-added gradient field and the kernel's geometry.

    One geometry pass, ``mesh.geometry()`` on the per-coordinate gather,
    and the closed-form gradient; no local block is built. The optimizer
    keeps the geometry for the preconditioner, the cap and the step record.
    """
    geometry = mesh.geometry()
    grad_field = _sum_per_vertex(mesh, kernel(mesh.dim).gradient(geometry) / mesh.n_cells)
    return float(geometry.mu.mean()), grad_field, geometry


@dataclass
class Preconditioner:
    """Reduced SPD matrix over non-fixed vertices, applied per coordinate.

    ``active`` lists the vertex indices kept, in the order of P's rows. P is
    held in a column-major ELL layout: row r's entries are ``data[:, r]`` in
    the columns ``cols[:, r]``, in increasing column order, and a row shorter
    than ``len(cols)`` is padded with zeros in its last column. ``pre @ x``
    adds each row's products one after another in that order, starting from
    the first, as scipy's CSR product does, so it has the bits of
    ``pre.P @ x``. It reuses one gather buffer, so an instance serves one
    thread.
    """

    data: np.ndarray
    cols: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        self._gathered = np.empty(self.data.shape)

    @property
    def n(self):
        return self.cols.shape[1]

    def __matmul__(self, x):
        # cols are in range, so "clip" changes no index; it only avoids the
        # buffered copy that the default "raise" makes when given ``out``.
        products = np.take(x, self.cols, out=self._gathered, mode="clip")
        products *= self.data
        return products.sum(axis=0)

    @cached_property
    def P(self):
        """P as scipy's canonical CSR matrix, built (and scipy imported) on
        first access; the optimize path never reads it."""
        from scipy import sparse

        stored = np.ones(self.cols.shape, dtype=bool)
        stored[1:] = self.cols[1:] != self.cols[:-1]
        stored = stored.T
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(stored.sum(axis=1), out=indptr[1:])
        indices = self.cols.T[stored].astype(np.int32)
        return sparse.csr_matrix((self.data.T[stored], indices, indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class Topology:
    """The part of P that depends on connectivity only, built once per run.

    ``active`` lists the non-fixed vertices in the order of P's rows, and
    ``cols`` is P's ``(W, n)`` ELL pattern (see :class:`Preconditioner`).
    ``slot`` sends the entries (i, j), (j, i), (i, i), (j, j) of every
    (edge ij, cell) to their positions in the flattened ``(W, n)`` data, or
    one past its end for a fixed row or column.
    """

    active: np.ndarray
    cols: np.ndarray
    slot: np.ndarray


def preconditioner_topology(mesh):
    """Check that P can be positive definite, then fix its sparsity pattern.

    Positive definiteness needs at least one fixed vertex (NoFixedVertices)
    and a connected mesh (DisconnectedMesh).
    """
    fixed = mesh.fixed_mask()
    if not fixed.any():
        raise NoFixedVertices(
            "the reduced matrix is only positive semi-definite without "
            "at least one fixed vertex"
        )
    if not is_connected(mesh):
        raise DisconnectedMesh("mesh vertex graph has multiple components")

    active = np.flatnonzero(~fixed)
    n = len(active)
    row_of = np.full(mesh.n_vertices, -1, dtype=np.int32)
    row_of[active] = np.arange(n)
    tail, head = kernel(mesh.dim).EDGES
    i, j = row_of[mesh.cells[:, tail].T], row_of[mesh.cells[:, head].T]
    rows = np.concatenate([i, j, i, j]).ravel()
    cols = np.concatenate([j, i, i, j]).ravel()
    kept = (rows >= 0) & (cols >= 0)
    key = rows[kept].astype(np.int64) * n + cols[kept]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first_of_run = np.r_[True, key[1:] != key[:-1]]
    keys = key[first_of_run]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first_of_run) - 1
    row, col = keys // n, keys % n
    length = np.bincount(row, minlength=n)
    first = np.cumsum(length) - length
    width = length.max(initial=0)
    ell = (np.arange(len(keys)) - first[row]) * n + row
    ell_cols = np.empty((width, n), dtype=np.intp)
    ell_cols[:] = col[first + length - 1]
    ell_cols.reshape(-1)[ell] = col
    slot = np.full(rows.size, width * n, dtype=np.intp)
    slot[kept] = ell[inverse]
    return Topology(active, ell_cols, slot)


def assemble_preconditioner(mesh, topology=None, geometry=None):
    """Build the reduced SPD preconditioner for the current geometry.

    P is the Laplacian of the edge weights ``w = (mu_c / n_cells) *
    precond_weights(geometry)``, all non-negative (in 2D A's own weights, in
    3D the abs of A's two weight terms), so every row is weakly diagonally
    dominant. Rows/columns of fixed vertices are removed; positive
    definiteness then needs a connected mesh and at least one fixed vertex.

    ``topology`` (from :func:`preconditioner_topology`) and ``geometry``
    (the third output of :func:`energy_gradient` at this mesh) are computed
    when not given. The entries ``[-w, -w, w, w]`` are summed into P's ELL
    data by one ``np.bincount`` over the fixed pattern, in cell order.
    """
    if topology is None:
        topology = preconditioner_topology(mesh)
    if geometry is None:
        geometry = mesh.geometry()
    w = _cell_weights(mesh, geometry.mu) * kernel(mesh.dim).precond_weights(geometry)
    width, n = topology.cols.shape
    entries = np.concatenate([-w, -w, w, w]).ravel()
    data = np.bincount(topology.slot, weights=entries, minlength=width * n + 1)
    return Preconditioner(data[:-1].reshape(width, n), topology.cols, topology.active)


@dataclass
class SpdAuditReport:
    """Structural evidence that P is SPD: symmetry, dominance, connectivity."""

    n_rows: int
    matrix_norm: float
    symmetry_residual: float
    min_row_margin: float
    weakly_dominant: bool
    strictly_dominant_rows: int
    n_components: int


def spd_audit(precond):
    """Audit symmetry, row diagonal dominance and graph connectivity of P."""
    P = precond.P
    norm = float(np.abs(P.data).max()) if P.nnz else 0.0
    diff = (P - P.T).tocoo()
    sym = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    diag = P.diagonal()
    off = np.asarray(np.abs(P).sum(axis=1)).ravel() - np.abs(diag)
    margin = np.abs(diag) - off
    tol = 1e-12 * norm
    pattern = P.tocoo()
    n_comp, _ = components(P.shape[0], pattern.row, pattern.col)
    return SpdAuditReport(
        n_rows=P.shape[0],
        matrix_norm=norm,
        symmetry_residual=sym,
        min_row_margin=float(margin.min()) if margin.size else 0.0,
        weakly_dominant=bool(np.all(margin >= -tol)),
        strictly_dominant_rows=int(np.sum(margin > tol)),
        n_components=int(n_comp),
    )


def write_matrix_market(mat, path):
    """Dump a sparse matrix in Matrix Market coordinate text format."""
    from scipy import sparse

    coo = sparse.coo_matrix(mat)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        entries = np.column_stack([coo.row + 1, coo.col + 1, coo.data]).ravel().tolist()
        fh.write("%d %d %.17g\n" * coo.nnz % tuple(entries))
