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
to P is an ``abs`` of edge weights. G_F's blocks are built only by
:func:`assemble`, and G_F itself by :func:`gradient_matrix`, for
``--dump-system`` and the tests that check the split against the gradient;
the optimize path never builds them. Every function here reaches the
element kernel through ``mesh.kernel(dim)`` and reads it the same way in
both dimensions: nothing local carries mu, so cell c adds ``mu_c / n_cells``
times its edge weights to G_F's and to P's.

Assembly sums deterministically, so identical meshes give bit-identical
results. G_F's blocks and P sum their edge weights in one ``np.bincount``
(:func:`_edge_sums`) by one pair index (:func:`_vertex_pairs`), each vertex
pair once, so A and P are exactly symmetric. P's pattern, its gather from the
sums and the positive-definiteness checks (a fixed vertex in every part of the
mesh) depend on connectivity only and are built once per run
(:func:`preconditioner_topology`). The gradient field is
summed by one ``np.bincount`` too (:func:`energy_gradient`), by an index
(:func:`scatter_index`) that the optimizer builds once per run.

The optimize path runs on numpy alone: P is held in a column-major ELL layout
and applied by :class:`Preconditioner`'s ``@``. scipy is imported only by the
calls that build a scipy matrix (``Preconditioner.P``, :func:`assemble` and
:func:`gradient_matrix`) and by :func:`spd_audit` and :func:`write_matrix_market`.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import DisconnectedMesh, NoFixedVertices
from .mesh import components, is_connected, kernel


def _vertex_pairs(mesh):
    """The vertex pairs ``lo < hi`` joined by a cell edge, ascending, and the
    slots each (edge, cell) weight is summed into: its pair's (1 + pair), then
    its tail's and its head's (1 + n_pairs + vertex). Slot 0 gets nothing."""
    tail, head = kernel(mesh.dim).EDGES
    i, j = mesh.cells[:, tail].T.ravel(), mesh.cells[:, head].T.ravel()
    n = mesh.n_vertices
    keys, pair = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_inverse=True)
    vertex = 1 + len(keys)
    return keys // n, keys % n, np.concatenate([1 + pair, vertex + i, vertex + j])


def _edge_sums(index, w, minlength=0):
    """Laplacian sums of edge weights ``(n_edges, n_cells)``, each from zero in
    (edge, cell) order, tails before heads: ``-w`` per pair, ``w`` per vertex."""
    return np.bincount(index, np.concatenate([-w, w, w]).ravel(), minlength)


def _edge_matrix(mesh, pairs, w, laplacian):
    """Sum edge weights ``(n_edges, n_cells)`` into an n x n CSR matrix: a
    Laplacian, ``-w`` at (i, j) and (j, i) and ``w`` at (i, i) and (j, j) of
    every edge ij, or antisymmetric, ``w`` at (i, j) and ``-w`` at (j, i).
    Both mirror U, the pair sums above the diagonal, which scipy only packs."""
    from scipy import sparse

    lo, hi, index = pairs
    n, stop = mesh.n_vertices, len(lo) + 1
    if not laplacian:  # pairs sum -w: flipped, U(lo, hi) sums w where tail < head
        tail, head = kernel(mesh.dim).EDGES
        w = np.where(mesh.cells[:, tail].T < mesh.cells[:, head].T, -w, w)
    sums = _edge_sums(index, w, stop + n)
    U = sparse.csr_matrix((sums[1:stop], (lo, hi)), shape=(n, n))
    return sparse.diags(sums[stop:]) + U + U.T if laplacian else U - U.T


def scatter_index(mesh):
    """Where each entry of the kernel's ``(dim, dim+1, n_cells)`` gradient goes
    in the flattened ``(n_vertices, dim)`` field: ``vertex * dim + coordinate``,
    in (coordinate, slot, cell) order. It depends on connectivity only."""
    return (mesh.cells.T[None] * mesh.dim + np.arange(mesh.dim)[:, None, None]).ravel()


def _cell_weights(mesh, mu):
    """``mu_c / n_cells`` per cell: the scale of every local contribution."""
    return (1.0 / mesh.n_cells) * mu


def assemble(mesh):
    """G_F's sparse CSR blocks ``(A, *B)``, in the kernel's ``LAYOUT`` order,
    for the current geometry.

    Raises DegenerateElement (with the offending cell index) if any element
    is inverted or collapsed.
    """
    geometry = mesh.geometry()
    a, *b = _cell_weights(mesh, geometry.mu) * kernel(mesh.dim).block_weights(geometry)
    pairs = _vertex_pairs(mesh)
    return (_edge_matrix(mesh, pairs, a, laplacian=True),
            *(_edge_matrix(mesh, pairs, w, laplacian=False) for w in b))


def gradient_matrix(mesh):
    """The full ``(dim n_vertices)^2`` sparse G_F, laid out from :func:`assemble`'s
    blocks; the gradient field is ``(G_F @ V).reshape(dim, -1).T`` for the
    stacked coordinates ``V = mesh.vertices.T.ravel()``."""
    from scipy import sparse

    return kernel(mesh.dim).LAYOUT.matrix(assemble(mesh), partial(sparse.bmat, format="csr"))


def energy_gradient(mesh, index=None):
    """Energy, scatter-added gradient field and the kernel's geometry.

    One geometry pass, ``mesh.geometry()`` on the per-coordinate gather,
    and the closed-form gradient of ``mu / n_cells``; no local block is
    built. One ``np.bincount`` by ``index`` (:func:`scatter_index`, built
    here when not given) sums each field entry from zero in (coordinate,
    slot, cell) order. The optimizer keeps the geometry for the
    preconditioner, the cap and the step record.
    """
    geometry = mesh.geometry()
    if index is None:
        index = scatter_index(mesh)
    grad = kernel(mesh.dim).gradient(geometry, 1.0 / mesh.n_cells)
    grad_field = np.bincount(index, grad.T.ravel(), mesh.vertices.size)
    return float(geometry.mu.mean()), grad_field.reshape(mesh.vertices.shape), geometry


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
    ``index`` is the pair index (:func:`_vertex_pairs`); ``gather`` picks each
    ELL entry's sum: its pair's, its vertex's on the diagonal, 0 for padding.
    """

    active: np.ndarray
    cols: np.ndarray
    index: np.ndarray
    gather: np.ndarray


def preconditioner_topology(mesh):
    """Check that P can be positive definite, then fix its sparsity pattern.

    Positive definiteness needs at least one fixed vertex (NoFixedVertices)
    in every component of the vertex graph (DisconnectedMesh, naming a vertex
    of the first component without one). The components are labelled only
    when ``is_connected`` finds more than one.
    """
    fixed = mesh.fixed_mask()
    if not fixed.any():
        raise NoFixedVertices(
            "the reduced matrix is only positive semi-definite without "
            "at least one fixed vertex"
        )
    if not is_connected(mesh):
        tail, head = kernel(mesh.dim).EDGES
        _, label = components(mesh.n_vertices, mesh.cells[:, tail], mesh.cells[:, head])
        loose = np.flatnonzero(~np.isin(label, label[fixed]))
        if loose.size:
            raise DisconnectedMesh(
                f"vertex {loose[0]}'s component of the vertex graph has no fixed vertex"
            )

    active = np.flatnonzero(~fixed)
    n = len(active)
    lo, hi, index = _vertex_pairs(mesh)
    row_of = np.full(mesh.n_vertices, -1)
    row_of[active] = np.arange(n)
    both = np.flatnonzero((row_of[lo] >= 0) & (row_of[hi] >= 0))
    i, j = row_of[lo[both]], row_of[hi[both]]
    rows, cols = np.r_[i, j, :n], np.r_[j, i, :n]
    order = np.argsort(rows * n + cols)
    row, col = rows[order], cols[order]
    length = np.bincount(row, minlength=n)
    first = np.cumsum(length) - length
    width = length.max(initial=0)
    ell = (np.arange(len(row)) - first[row]) * n + row
    ell_cols = np.tile(col[first + length - 1], (width, 1))
    ell_cols.reshape(-1)[ell] = col
    gather = np.zeros((width, n), dtype=np.intp)
    gather.reshape(-1)[ell] = 1 + np.r_[both, both, len(lo) + active][order]
    return Topology(active, ell_cols, index, gather)


def assemble_preconditioner(mesh, topology=None, geometry=None):
    """Build the reduced SPD preconditioner for the current geometry.

    P is the Laplacian of the edge weights ``w = (mu_c / n_cells) *
    precond_weights(geometry)``, all non-negative (in 2D A's own weights, in
    3D the abs of A's two weight terms), so every row is weakly diagonally
    dominant. Rows/columns of fixed vertices are removed; positive
    definiteness then needs a fixed vertex in every component of the mesh.

    ``topology`` (from :func:`preconditioner_topology`) and ``geometry``
    (the third output of :func:`energy_gradient` at this mesh) are computed
    when not given. P's ELL data is gathered from :func:`_edge_sums`, as A's
    entries are, so P is exactly symmetric, and in 2D it is A on the free
    rows and columns, bit for bit.
    """
    if topology is None:
        topology = preconditioner_topology(mesh)
    if geometry is None:
        geometry = mesh.geometry()
    w = _cell_weights(mesh, geometry.mu) * kernel(mesh.dim).precond_weights(geometry)
    data = _edge_sums(topology.index, w)[topology.gather]
    return Preconditioner(data, topology.cols, topology.active)


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
