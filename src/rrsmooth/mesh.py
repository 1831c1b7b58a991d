"""Mesh data model and mesh-level queries.

A SimplexMesh is a flat container: vertex coordinates, cell connectivity and
one constraint tag per vertex (free, fixed, or sliding in a plane). All cells
must be positively oriented; loaders repair orientation, `validate` only
reports it. The inversion cap lives in :mod:`rrsmooth.cap`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import simplex, tetrahedra, triangles
from .errors import NonPlanarPatch

# Per-vertex constraint kinds.
FREE, FIXED, SLIDE = 0, 1, 2

# Boundary classification policies.
FIX_ALL = "fix-all"
SLIDE_PLANAR = "slide-planar"

# A sliding vertex's normal must have unit length to within this. The
# projector removes (v . n) n, so a normal of length 1 + d leaves about
# 2 d of each step's normal part in the step; normals from
# classify_boundary, or written with 17 digits, are unit to a few ulps.
SLIDE_NORMAL_TOL = 1e-12

# classify_boundary's slide-planar angles in degrees: the coplanarity
# tolerance, and the largest deviation read as a curved boundary, not a crease.
ANGLE_TOL_DEG = 1.0
CREASE_ANGLE_DEG = 60.0

# Quality threshold used for the "poor element" count in reports.
POOR_QUALITY_THRESHOLD = 0.3
HISTOGRAM_BINS = 20


def kernel(dim):
    """The element kernel module of ``dim``-cells; see :mod:`rrsmooth.simplex`."""
    return {2: triangles, 3: tetrahedra}[dim]


class SimplexMesh:
    """Triangle (dim=2) or tetrahedral (dim=3) mesh with vertex constraints, whose
    rules `project`, `keep_fixed` and `slide_drift` apply to (n_vertices, dim) fields."""

    def __init__(self, vertices, cells, constraint_kind=None, slide_normals=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] not in (2, 3):
            raise ValueError("vertices must be (n, 2) or (n, 3)")
        if self.cells.ndim != 2 or self.cells.shape[1] != self.vertices.shape[1] + 1:
            raise ValueError("cells must be (m, dim + 1)")
        n = self.vertices.shape[0]
        if constraint_kind is None:
            constraint_kind = np.zeros(n, dtype=np.int8)
        if slide_normals is None:
            slide_normals = np.zeros_like(self.vertices)
        self.constraint_kind = np.ascontiguousarray(constraint_kind, dtype=np.int8)
        self.slide_normals = np.ascontiguousarray(slide_normals, dtype=float)
        if self.constraint_kind.shape != (n,) or self.slide_normals.shape != self.vertices.shape:
            raise ValueError("constraint arrays do not match the vertex count")

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def cell_coords(self, field=None):
        """``field.T[:, cells.T]`` (field defaults to the vertices), (dim, dim+1, n_cells)."""
        field = self.vertices if field is None else field
        return np.take(np.ascontiguousarray(field.T), self.cells.T, axis=1)

    def fixed_mask(self):
        return self.constraint_kind == FIXED

    def slide_mask(self):
        return self.constraint_kind == SLIDE

    def project(self, field):
        """A copy of ``field`` with fixed rows zeroed, sliding rows' normal part removed."""
        out = np.array(field, dtype=float, copy=True)
        out[self.fixed_mask()] = 0.0
        slide = self.slide_mask()
        if np.any(slide):
            normals = self.slide_normals[slide]
            out[slide] -= np.einsum("ij,ij->i", out[slide], normals)[:, None] * normals
        return out

    def keep_fixed(self, moved, start):
        """Copy ``start``'s fixed rows into ``moved``, bit for bit: a fixed -0.0 stays."""
        np.copyto(moved, start, where=self.fixed_mask()[:, None])

    def slide_drift(self, start, moved):
        """max |d . n| / |d| over the sliding vertices moved by d = moved - start, else 0."""
        slide = self.slide_mask()
        if not slide.any():
            return 0.0
        disp = (moved - start)[slide]
        norms = np.linalg.norm(disp, axis=1)
        dots = np.abs(np.einsum("ij,ij->i", disp, self.slide_normals[slide]))
        moving = norms > 0
        return float((dots[moving] / norms[moving]).max()) if moving.any() else 0.0

    def copy(self):
        return SimplexMesh(
            self.vertices.copy(),
            self.cells.copy(),
            self.constraint_kind.copy(),
            self.slide_normals.copy(),
        )

    def with_vertices(self, vertices):
        """Same connectivity and constraints on new coordinates."""
        return SimplexMesh(
            np.asarray(vertices, dtype=float),
            self.cells,
            self.constraint_kind,
            self.slide_normals,
        )

    def geometry(self):
        """The kernel's checked geometry pass, on the per-coordinate gather."""
        return kernel(self.dim).geometry(self.cell_coords().T)

    def signed_measures(self):
        return kernel(self.dim).signed_measure(self.cell_coords().T)

    def mean_edge_length(self):
        i, j = kernel(self.dim).EDGES
        e = self.vertices[self.cells[:, j]] - self.vertices[self.cells[:, i]]
        return float(np.linalg.norm(e, axis=2).mean())


@dataclass(frozen=True)
class Violation:
    """One failed mesh invariant, tied to a cell or vertex index."""

    rule: str
    index: int
    detail: str

    def __str__(self):
        return f"{self.rule}[{self.index}]: {self.detail}"


def validate(mesh):
    """Check mesh invariants; returns a list of Violations (empty when valid)."""
    out = []
    nv = mesh.n_vertices
    if mesh.n_cells == 0:
        out.append(Violation("no-cells", 0, "the mesh has no cells"))
    if not np.all(np.isfinite(mesh.vertices)):
        for v in np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1)):
            out.append(Violation("non-finite-coordinate", int(v), "vertex has nan/inf"))
    for v in np.flatnonzero(~np.isin(mesh.constraint_kind, (FREE, FIXED, SLIDE))):
        kind = mesh.constraint_kind[v]
        out.append(Violation("unknown-constraint-kind", int(v), f"constraint kind {kind}"))
    slide = np.flatnonzero(mesh.slide_mask())
    length = np.linalg.norm(mesh.slide_normals[slide], axis=1)
    for v, n in zip(slide, length):
        if not abs(n - 1.0) <= SLIDE_NORMAL_TOL:
            out.append(Violation("bad-slide-normal", int(v), f"normal length {n:.17g}, not 1"))
    bad_index = (mesh.cells < 0) | (mesh.cells >= nv)
    for c in np.flatnonzero(bad_index.any(axis=1)):
        out.append(
            Violation("index-out-of-range", int(c), f"cell references vertex >= {nv}")
        )
    ok = ~bad_index.any(axis=1)
    srt = np.sort(mesh.cells[ok], axis=1)
    repeated = (np.diff(srt, axis=1) == 0).any(axis=1)
    for c in np.flatnonzero(ok)[repeated]:
        out.append(Violation("repeated-vertex", int(c), "cell lists a vertex twice"))
    if out:
        return out
    # One per-coordinate gather; the measures have the bits of signed_measures,
    # and S those of the geometry passes (see rrsmooth.simplex).
    X = mesh.cell_coords()
    k = kernel(mesh.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        meas = k.signed_measure(X.T)
        S = simplex.edge_sq_sum(X, k.EDGES)
        far = simplex.out_of_range(S, mesh.dim)
        bad = np.flatnonzero(far | simplex.degenerate(meas, S, mesh.dim))
    for c in bad:
        if far[c]:
            out.append(Violation("scale-out-of-range", int(c), f"sum of squared edges {S[c]:.3e}"))
        else:
            out.append(Violation("non-positive-orientation", int(c), f"signed measure {meas[c]:.3e}"))
    return out


def repair_orientation(vertices, cells):
    """Swap the last two vertices of negatively oriented cells.

    Returns (cells, repaired_indices); zero-measure cells and cells with a
    vertex index out of range or a non-finite vertex are left alone for
    validate to report. Measures past the float range are computed
    unwarned; validate reports such cells out of range.
    """
    cells = np.array(cells, dtype=np.int64, copy=True)
    vertices = np.asarray(vertices, dtype=float)
    ok = np.flatnonzero(((cells >= 0) & (cells < len(vertices))).all(axis=1))
    ok = ok[np.isfinite(vertices).all(axis=1)[cells[ok]].all(axis=1)]
    with np.errstate(over="ignore", invalid="ignore"):
        flipped = ok[kernel(cells.shape[1] - 1).signed_measure(vertices[cells[ok]]) < 0]
    cells[flipped, -2:] = cells[flipped, -1:-3:-1]
    return cells, flipped


def boundary_facets(mesh):
    """Outward-oriented boundary facets (those owned by exactly one cell).

    Returns (facets, owner_cells): facets is (m, dim) vertex indices in the
    outward orientation inherited from the positive cell.
    """
    local = kernel(mesh.dim).FACETS
    all_facets = np.concatenate([mesh.cells[:, list(f)] for f in local], axis=0)
    owners = np.tile(np.arange(mesh.n_cells), len(local))
    key = np.sort(all_facets, axis=1)
    order = np.lexsort(key.T[::-1])
    # In sorted order, a facet is shared iff it equals a neighbor.
    shared = np.all(key[order[1:]] == key[order[:-1]], axis=1)
    on_boundary = np.empty(len(key), dtype=bool)
    on_boundary[order] = ~(np.r_[False, shared] | np.r_[shared, False])
    return all_facets[on_boundary], owners[on_boundary]


def facet_normals(mesh, facets):
    """Unit outward normals of oriented boundary facets."""
    p = mesh.vertices[facets]
    if mesh.dim == 2:
        d = p[:, 1] - p[:, 0]
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
    else:
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _facet_adjacency(facets):
    """Pairs of boundary facets sharing a sub-facet (edge in 3D, vertex in 2D)."""
    m, k = facets.shape
    if k == 2:
        subs = facets.reshape(-1, 1)
        owner = np.repeat(np.arange(m), 2)
    else:
        subs = np.concatenate([facets[:, [0, 1]], facets[:, [1, 2]], facets[:, [2, 0]]])
        subs = np.sort(subs, axis=1)
        owner = np.tile(np.arange(m), 3)
    order = np.lexsort(subs.T[::-1])
    subs, owner = subs[order], owner[order]
    same = np.all(subs[1:] == subs[:-1], axis=1)
    return np.stack([owner[:-1][same], owner[1:][same]], axis=1)


def classify_boundary(mesh, policy):
    """Assign vertex constraints from the boundary structure.

    fix-all pins every boundary vertex. slide-planar groups boundary facets
    into planar patches (normals within ANGLE_TOL_DEG across shared
    sub-facets); vertices interior to one patch may slide in its plane,
    vertices on patch seams are fixed. A facet whose every neighbor deviates
    by more than the tolerance but less than CREASE_ANGLE_DEG signals a
    discretized curved boundary, which this policy does not support.
    """
    if policy not in (FIX_ALL, SLIDE_PLANAR):
        raise ValueError(f"unknown boundary policy {policy!r}")
    facets, _ = boundary_facets(mesh)
    kind = np.zeros(mesh.n_vertices, dtype=np.int8)
    normals_out = np.zeros_like(mesh.vertices)
    kind[facets] = FIXED
    if policy == FIX_ALL:
        return SimplexMesh(mesh.vertices, mesh.cells, kind, normals_out)

    normals = facet_normals(mesh, facets)
    pairs = _facet_adjacency(facets)
    cosine = np.einsum("ij,ij->i", normals[pairs[:, 0]], normals[pairs[:, 1]])
    angle = np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0)))

    # 180 without a neighbour, at most ANGLE_TOL_DEG with a coplanar one.
    m = facets.shape[0]
    min_angle = np.full(m, 180.0)
    for col in (0, 1):
        np.minimum.at(min_angle, pairs[:, col], angle)
    curved = (min_angle > ANGLE_TOL_DEG) & (min_angle < CREASE_ANGLE_DEG)
    if np.any(curved):
        f = int(np.flatnonzero(curved)[0])
        raise NonPlanarPatch(
            f"boundary facet {f} deviates {min_angle[f]:.2f} deg from every "
            f"neighbor (tolerance {ANGLE_TOL_DEG} deg): boundary appears curved"
        )

    # Planar patches: components of the facet graph restricted to coplanar pairs.
    coplanar = pairs[angle <= ANGLE_TOL_DEG]
    n_patches, patch = components(m, coplanar[:, 0], coplanar[:, 1])

    patch_normal = np.zeros((n_patches, mesh.dim))
    np.add.at(patch_normal, patch, normals)
    patch_normal /= np.linalg.norm(patch_normal, axis=1, keepdims=True)

    # A boundary vertex slides when all its facets lie in one patch.
    vert = facets.ravel()
    vert_patch = np.repeat(patch, facets.shape[1])
    order = np.lexsort((vert_patch, vert))
    vert, vert_patch = vert[order], vert_patch[order]
    distinct = np.r_[True, (vert[1:] != vert[:-1]) | (vert_patch[1:] != vert_patch[:-1])]
    slide = np.bincount(vert[distinct], minlength=mesh.n_vertices) == 1
    kind[slide] = SLIDE
    one = slide[vert]
    normals_out[vert[one]] = patch_normal[vert_patch[one]]
    return SimplexMesh(mesh.vertices, mesh.cells, kind, normals_out)


@dataclass
class QualityStats:
    """Distribution of per-element quality q = 1/mu over a mesh."""

    n_cells: int
    min_q: float
    max_q: float
    mean_q: float
    histogram: np.ndarray = field(repr=False)
    below_threshold_count: int

    def format_table(self):
        lines = [
            f"cells                {self.n_cells}",
            f"min quality          {self.min_q:.6f}",
            f"mean quality         {self.mean_q:.6f}",
            f"max quality          {self.max_q:.6f}",
            f"count q < {POOR_QUALITY_THRESHOLD}".ljust(21) + str(self.below_threshold_count),
            f"histogram ({HISTOGRAM_BINS} uniform bins on [0, 1]):",
        ]
        width = max(int(c) for c in self.histogram) or 1
        for b, count in enumerate(self.histogram):
            lo, hi = b / HISTOGRAM_BINS, (b + 1) / HISTOGRAM_BINS
            bar = "#" * int(np.ceil(40 * count / width)) if count else ""
            lines.append(f"  [{lo:.2f},{hi:.2f}) {int(count):7d} {bar}")
        return "\n".join(lines)


def quality_stats(mesh, mu=None):
    """Per-element quality statistics of q = 1/mu, from the cells' radius
    ratios ``mu`` (by default ``mesh.geometry().mu``; degenerate cells raise
    with their index)."""
    q = 1.0 / (mesh.geometry().mu if mu is None else mu)
    # Roundoff can push q a few ulp past 1; clamp so no cell falls out of
    # the histogram range.
    hist, _ = np.histogram(np.clip(q, 0.0, 1.0), bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return QualityStats(
        n_cells=mesh.n_cells,
        min_q=float(q.min()),
        max_q=float(q.max()),
        mean_q=float(q.mean()),
        histogram=hist,
        below_threshold_count=int((q < POOR_QUALITY_THRESHOLD).sum()),
    )


def components(n, i, j):
    """Connected components of the undirected graph on ``n`` vertices with
    edges ``(i[k], j[k])``; returns ``(count, labels)``.

    Label propagation with pointer jumping: each round hooks the larger of
    the two roots of every edge whose ends still differ onto the smaller,
    then shortcuts every vertex to its root. A root is always the smallest
    vertex of its tree, so no cycle forms. Labels number the components
    0..count-1 in order of their smallest vertex. Self-loops and repeated
    edges are allowed.
    """
    root = np.arange(n)
    i, j = np.ravel(i), np.ravel(j)
    while True:
        ri, rj = root[i], root[j]
        differ = ri != rj
        if not differ.any():
            break
        i, j, ri, rj = i[differ], j[differ], ri[differ], rj[differ]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(n)
    return int(is_root.sum()), np.cumsum(is_root)[root] - 1


def is_connected(mesh):
    """Whether the cells' edges connect every vertex, unused ones included."""
    i, j = kernel(mesh.dim).EDGES
    count, _ = components(mesh.n_vertices, mesh.cells[:, i], mesh.cells[:, j])
    return count == 1

