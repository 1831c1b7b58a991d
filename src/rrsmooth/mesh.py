"""Mesh data model and mesh-level queries.

A SimplexMesh is a flat container: vertex coordinates, cell connectivity and
one constraint tag per vertex (free, fixed, or sliding in a plane). All cells
must be positively oriented; loaders repair orientation, `validate` only
reports it.
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

# A root of a cell's measure polynomial counts as real when its imaginary
# part is at most this fraction of its modulus. Rounding turns a third or
# more of the tangential double roots (a cell touching zero measure and
# coming back) into complex pairs, of relative size ~sqrt(eps) and up to
# 4e-6 from LAPACK's eigenvalues, which 1e-8 misses. A triple root (a tet
# contracting to a point) splits by ~cbrt(eps): up to 1.4e-5 on random tets,
# which 1e-5 misses. Counting a near-real pair as real only lowers the bound.
REAL_ROOT_RTOL = 1e-4

# The tet cap first solves the _CAP_FIRST_ROWS cubics p with the largest
# _root_estimate, which only orders them, and takes the largest root s found.
# It then clears a cubic when q(u) = p(S + u), S = s (1 - CAP_MARGIN), has
# only positive coefficients, and solves every other one. Such a q has no
# root with |arg u| < pi/3, so every root of p right of S has
# |Im| >= sqrt(3) (Re - S). A root there is at least
# (sqrt(3) CAP_MARGIN - REAL_ROOT_RTOL) s / 2 = 8.2e-4 s away from every
# point that counts as real at or above s: 58 times the widest rounding
# split of a triple root (1.4e-5 s, see REAL_ROOT_RTOL), the largest error
# seen in a cell's roots. So no cleared cubic has a root counted real above s.
CAP_MARGIN = 1e-3
# A shifted coefficient clears only when it exceeds this fraction of the sum
# of its terms' moduli, far above the few ulps of rounding in its sum.
CAP_SHIFT_RTOL = 1e-13
# A cubic clears only when |c_k| <= (CAP_ROOT_SCALE S)**k, which puts its
# roots within 2 CAP_ROOT_SCALE S of 0 (Fujiwara's bound). LAPACK's error on
# a root grows with the largest root B of its cubic: about eps B for a simple
# root, and up to sqrt(eps B S), 2.1e-4 S here, for a double root near S. A
# cubic with only positive coefficients, such as a1 = 1e9, a2 = 1e-20,
# a3 = 1e-31, can return a positive real root near 1e-20.
CAP_ROOT_SCALE = 1e8
# Rows solved first. Any count gives the same result; on cube n=6 and 10
# directions the cell that sets the cap is among the first 4 on 95% of calls.
_CAP_FIRST_ROWS = 4
# step_lower_bounds lowers each cell's bound by this fraction (see
# TestLowerBound): its inputs, the kept measure, the squared edges and the
# direction's differences, are rounded, and on a flat cell pushed through its
# own plane the exact bound is within h**2 of the cap (h the cell's relative
# height), far below rounding.
LOWER_BOUND_RTOL = 1e-9
# A cell's ||D||_F**2 is raised to at least this: below 1e-154 in every
# entry a direction would underflow it to 0 and give the cell an infinite
# bound, though its cubic has a root.
_DIRECTION_SQ_FLOOR = 1e-300
# The pruned cap first solves the _CAP_FIRST_CELLS cells with the smallest
# step_lower_bounds; their largest step bounds the cap from above. On the
# exact caps of cube n=6 and 10 sliver solves the cell that sets the cap
# ranked 25th to 213th by its bound; the first 16 cells bounded the cap to
# within 1.1 to 70 times, the first 64 to within 1.0 to 1.9 times.
_CAP_FIRST_CELLS = 64
# Meshes of at most this many cells are not pruned: the second coefficient
# build and root solve cost more than the cells they skip. On the exact caps
# of cube n=6 sliver solves (1296 cells) pruning cost 4.9-7.1 ms per solve
# against 3.3-5.0 ms; it saved a third at cube n=10 (6000 cells) and
# square n=40 (3200 cells).
_CAP_PRUNE_MIN_CELLS = 2048


def kernel(dim):
    """The element kernel module of ``dim``-cells; see :mod:`rrsmooth.simplex`."""
    return {2: triangles, 3: tetrahedra}[dim]


class SimplexMesh:
    """Triangle (dim=2) or tetrahedral (dim=3) mesh with vertex constraints."""

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

    def cell_points(self):
        """Vertex coordinates gathered per cell, shape (n_cells, dim+1, dim)."""
        return self.vertices[self.cells]

    def cell_coords(self, field=None):
        """``field.T[:, cells.T]`` (field defaults to the vertices), (dim, dim+1, n_cells)."""
        field = self.vertices if field is None else field
        return np.take(np.ascontiguousarray(field.T), self.cells.T, axis=1)

    def fixed_mask(self):
        return self.constraint_kind == FIXED

    def free_mask(self):
        """Vertices with at least one movable direction (free or sliding)."""
        return self.constraint_kind != FIXED

    def slide_mask(self):
        return self.constraint_kind == SLIDE

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
        return kernel(self.dim).signed_measure(self.cell_points())

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
    # One per-coordinate gather; the measures have the bits of signed_measures.
    pts = mesh.cell_coords().T
    meas = kernel(mesh.dim).signed_measure(pts)
    for c in np.flatnonzero(simplex.degenerate(meas, pts)):
        out.append(
            Violation(
                "non-positive-orientation",
                int(c),
                f"signed measure {meas[c]:.3e}",
            )
        )
    return out


def repair_orientation(vertices, cells):
    """Swap the last two vertices of negatively oriented cells.

    Returns (cells, repaired_indices); zero-measure cells and cells with a
    vertex index out of range or a non-finite vertex are left alone for
    validate to report.
    """
    cells = np.array(cells, dtype=np.int64, copy=True)
    vertices = np.asarray(vertices, dtype=float)
    ok = np.flatnonzero(((cells >= 0) & (cells < len(vertices))).all(axis=1))
    ok = ok[np.isfinite(vertices).all(axis=1)[cells[ok]].all(axis=1)]
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

    m = facets.shape[0]
    has_neighbor = np.zeros(m, dtype=bool)
    has_coplanar = np.zeros(m, dtype=bool)
    min_angle = np.full(m, 180.0)
    for col in (0, 1):
        np.minimum.at(min_angle, pairs[:, col], angle)
        has_neighbor[pairs[:, col]] = True
        np.logical_or.at(has_coplanar, pairs[:, col], angle <= ANGLE_TOL_DEG)
    curved = has_neighbor & ~has_coplanar & (min_angle < CREASE_ANGLE_DEG)
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
            f"count q < {POOR_QUALITY_THRESHOLD}        {self.below_threshold_count}",
            "histogram (20 uniform bins on [0, 1]):",
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


def step_lower_bounds(mesh, direction, geometry):
    """Per cell, a step length before which the cell cannot reach zero
    measure along ``direction``, from ``geometry`` (the kernel's pass at the
    start point); a lower bound on the cell's cap.

    E holds the cell's edges from vertex 0 and D the same differences of the
    direction. Then det(E + t D) = det E det(I + t E^-1 D), and every root t
    of it, real or complex, has |t| >= 1 / ||E^-1 D||_2 (I + F is nonsingular
    while ||F||_2 < 1; Golub and Van Loan, *Matrix Computations*, 2.3), with
    ||E^-1 D||_2 <= ||D||_F / sigma_min(E). The other singular values of E
    have a product of at most ||E||_F**2 / 2 in 3D and ||E||_F in 2D, so
    sigma_min(E) >= 2 |det E| / ||E||_F**2 (tets) or |det E| / ||E||_F
    (triangles). The cap takes 1 / Re(s) of roots s = 1/t, which is at least
    |t|, so no cell's cap is below its bound. ``|det E|`` is dim! times the
    kept measure and ``||E||_F**2`` the sum of the squared edges from vertex
    0; each bound is lowered by LOWER_BOUND_RTOL for rounding.
    """
    du = mesh.cell_coords(direction)
    f = du[:, 1:] - du[:, :1]
    # A norm past the float range gives the bound 0, which holds.
    with np.errstate(over="ignore"):
        f *= f
        dsq = f.reshape(-1, f.shape[-1]).sum(axis=0)
        np.maximum(dsq, _DIRECTION_SQ_FLOOR, out=dsq)
        if mesh.dim == 3:
            esq = geometry.edge_sq.sum(axis=0)
            return (12.0 * (1.0 - LOWER_BOUND_RTOL)) * geometry.volume / (esq * np.sqrt(dsq))
        e = geometry.edges[:, 1:]
        esq = (e * e).reshape(-1, e.shape[-1]).sum(axis=0)
        return (2.0 * (1.0 - LOWER_BOUND_RTOL)) * geometry.area / np.sqrt(esq * dsq)


def max_step_before_inversion(mesh, direction, geometry=None, lower=None):
    """Largest lam such that vertices + t*direction keeps every cell positive
    for all t in [0, lam).

    The bound is 1 / (largest positive real root s of the cells' monic
    measure polynomials in s = 1/t, :func:`_measure_polynomials`), or inf
    when there is none. Roots count as real up to REAL_ROOT_RTOL. Triangles
    solve in closed form; tets solve only the cells whose roots can reach
    the largest root (:func:`_largest_real_root`), with the bits of solving
    them all. ``geometry`` is ``mesh.geometry()``, if the caller has it.

    With ``lower``, the cells' :func:`step_lower_bounds` on the same
    geometry, the result is ``(lam, cell)``, ``cell`` the index of the cell
    that sets lam (-1 when lam is inf), and a mesh of more than
    _CAP_PRUNE_MIN_CELLS cells is pruned: the _CAP_FIRST_CELLS cells with the
    smallest bounds are solved first, and their largest step U bounds lam
    from above. No cell's cap is below its bound, so the cell that sets lam
    is among those with a bound of at most U, and only those get their
    coefficients built and solved. LAPACK solves each row on its own, so lam
    keeps the bits of solving every cell.
    """
    if lower is not None:
        return _pruned_step(mesh, direction, geometry, lower)
    return _step(_largest_real_root(_measure_polynomials(mesh, direction, geometry)))


def _step(s):
    # A Python float: 1 / s past the float range is inf, no bound, unwarned.
    return 1.0 / float(s) if s > 0 else np.inf


def _pruned_step(mesh, direction, geometry, lower):
    """``max_step_before_inversion`` with ``lower``: ``(lam, cell)``."""
    first = None
    if len(lower) > max(_CAP_PRUNE_MIN_CELLS, _CAP_FIRST_CELLS):
        first = lower.argpartition(_CAP_FIRST_CELLS)[:_CAP_FIRST_CELLS]
    s, row = _binding_root(_measure_polynomials(mesh, direction, geometry, first))
    if first is None:
        return _step(s), int(row)
    cell = first[row] if row >= 0 else -1
    # The first cells' largest step bounds lam from above. A NaN bound
    # bounds nothing, so its cell stays.
    rest = ~(lower > _step(s))
    rest[first] = False
    cells = np.flatnonzero(rest)
    if cells.size:
        s, row = _binding_root(_measure_polynomials(mesh, direction, geometry, cells), s)
        if row >= 0:
            cell = cells[row]
    return _step(s), int(cell)


def _measure_polynomials(mesh, direction, geometry=None, cells=None):
    """The kernel's ``measure_polynomial`` of every cell (or of ``cells``),
    from ``geometry`` (by default ``mesh.geometry()``, which raises
    DegenerateElement under validate's rule). A misshapen or non-finite
    direction raises ValueError. Each row has the bits of the full batch's."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != mesh.vertices.shape:
        raise ValueError("direction must match the vertex array shape")
    if not np.isfinite(direction).all():
        bad = np.flatnonzero(~np.isfinite(direction).all(axis=1))
        raise ValueError(f"direction is not finite at vertex {bad[0]}")
    if geometry is None:
        geometry = mesh.geometry()
    if cells is None:
        du = mesh.cell_coords(direction)
    else:
        geometry = cap_geometry(geometry, cells)
        du = np.take(np.ascontiguousarray(direction.T), mesh.cells[cells].T, axis=1)
    return kernel(mesh.dim).measure_polynomial(geometry, du.T)


def cap_geometry(geometry, cells=None):
    """The fields of a kernel geometry that the inversion cap reads, the
    measure (field 0) and the edges, of every cell or of ``cells``; the
    other fields are None. A caller that holds a geometry for a later cap
    holds only these."""
    read = (geometry._fields[0], "edges")
    return geometry._make(
        (field if cells is None else field[..., cells]) if name in read else None
        for name, field in zip(geometry._fields, geometry)
    )


def _largest_roots(a):
    """Largest positive real root of each row's monic polynomial (0 when
    none): triangles' quadratics in closed form, tets' cubics by LAPACK."""
    if a.shape[1] == 3:
        return _row_roots(a)
    b, c = a[:, 0], a[:, 1]
    disc = b * b - 4.0 * c
    # A complex pair has |imag|**2 = -disc / 4 and |root|**2 = c.
    real = disc >= -4.0 * REAL_ROOT_RTOL**2 * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):  # q = 0: masked below
        roots = np.stack([q, c / q])
    return np.where(real & (roots > 0), roots, 0.0).max(axis=0, initial=0.0)


def _root_estimate(a):
    """Each row's largest root with its constant term dropped: the larger root
    of s**2 + a1 s + a2, ``(-a1 + sqrt(a1**2 - 4 a2)) / 2`` (``-a1 / 2`` for a
    complex pair). ``a`` is (n, 3).

    In t = 1/s it is where the cell's measure, to second order in t, first
    reaches zero; the tet cap orders its cubics by it.
    """
    c = a.T
    with np.errstate(over="ignore", invalid="ignore"):
        d = c[0] * c[0] - 4.0 * c[1]
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
        d -= c[0]
    d *= 0.5
    return d


def _row_roots(a):
    """Largest positive real root of each row's monic cubic (0 when none)."""
    companion = np.zeros((len(a), 3, 3))
    companion[:, 0] = -a
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    real = np.abs(roots.imag) <= REAL_ROOT_RTOL * np.abs(roots)
    return np.where(real & (roots.real > 0), roots.real, 0.0).max(axis=1, initial=0.0)


def _largest_real_root(a):
    """Largest positive real root (0 when none) over the monic polynomials
    in the rows of ``a``, with the bits of solving every row
    (:func:`_binding_root`)."""
    return _binding_root(a)[0]


def _binding_root(a, s=0.0):
    """The largest of ``s`` (a root found elsewhere, or 0) and the positive
    real roots of the rows of ``a``, and the row that has it (-1 for ``s``).

    Quadratics (triangles) are all solved in closed form. Cubics are solved
    few at a time: the _CAP_FIRST_ROWS rows with the largest
    :func:`_root_estimate`, then every row that the Taylor shift at
    ``S = s (1 - CAP_MARGIN)``, s the largest root so far, does not clear
    (see CAP_MARGIN). Every row is solved when S is 0 or so far from 1 that
    S**-3 is not a normal number, and a row with an inf or NaN is never
    cleared. LAPACK solves each companion matrix on its own, so a row's
    roots have the same bits in any batch, and the result those of solving
    every row.
    """
    if a.shape[1] == 2 or len(a) <= _CAP_FIRST_ROWS:
        return _larger(_largest_roots(a), np.arange(len(a)), s)
    first = _root_estimate(a).argpartition(-_CAP_FIRST_ROWS)[-_CAP_FIRST_ROWS:]
    s, row = _larger(_row_roots(a[first]), first, s)
    S = s * (1.0 - CAP_MARGIN)
    if 1e-100 < S < 1e100:
        rest = ~_shift_clears(a.T, S)
    else:
        rest = np.ones(len(a), dtype=bool)
    rest[first] = False
    rows = np.flatnonzero(rest)
    if rows.size:
        s_rest, row_rest = _larger(_row_roots(a[rows]), rows, s)
        if row_rest >= 0:
            return s_rest, row_rest
    return s, row


def _larger(roots, rows, s):
    """``(root, row)`` for the largest of ``roots``, at ``rows``, if it
    exceeds ``s``; else ``(s, -1)``."""
    if not roots.size:
        return s, -1
    i = roots.argmax()
    return (roots[i], rows[i]) if roots[i] > s else (s, -1)


def _shift_clears(c, S):
    """Whether each monic cubic, coefficients ``c`` (3, n), shifted to s = S + u
    has only positive coefficients, each above CAP_SHIFT_RTOL times the sum of
    its terms' moduli.

    With b_k = c_k / S**k, the shifted coefficients of u**2, u and 1 are, up
    to the factors S, S**2 and S**3, 3 + b1, 3 + 2 b1 + b2 and
    1 + b1 + b2 + b3: W c + k with W >= 0. The sums of their terms' moduli
    are W |c| + k, so the test is
    ``W (c - CAP_SHIFT_RTOL |c|) + (1 - CAP_SHIFT_RTOL) k > 0``. A cubic with
    a coefficient past CAP_ROOT_SCALE's limit does not clear.
    """
    r, t = 1.0 / S, CAP_ROOT_SCALE * S
    W = np.array([[r, 0.0, 0.0], [2.0 * r, r * r, 0.0], [r, r * r, r * r * r]])
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: not cleared
        mod = np.abs(c)
        q = W @ (c - CAP_SHIFT_RTOL * mod)
        q += (1.0 - CAP_SHIFT_RTOL) * np.array([[3.0], [3.0], [1.0]])
        clear = q > 0.0
        clear &= mod <= np.array([[t], [t * t], [t * t * t]])
        return np.logical_and.reduce(clear, axis=0)


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


def constraint_projector(mesh):
    """Function projecting a (n_vertices, dim) field onto the constraints.

    Fixed rows are zeroed exactly; sliding rows lose their normal component.
    """
    fixed = mesh.fixed_mask()
    slide = mesh.slide_mask()
    normals = mesh.slide_normals

    def project(field):
        out = np.array(field, dtype=float, copy=True)
        out[fixed] = 0.0
        if np.any(slide):
            comp = np.einsum("ij,ij->i", out[slide], normals[slide])
            out[slide] -= comp[:, None] * normals[slide]
        return out

    return project
