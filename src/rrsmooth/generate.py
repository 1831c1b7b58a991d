"""Structured test-mesh generators and deterministic perturbations."""

import itertools
from dataclasses import dataclass

import numpy as np

from . import tetrahedra
from .errors import InvalidSpec, WouldInvert
from .mesh import SimplexMesh, boundary_facets, max_step_before_inversion

EQUILATERAL = "equilateral"
SQUARE = "square"
CUBE = "cube"


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int


class XorShift64Star:
    """Tiny explicit PRNG (xorshift64*), reproducible across platforms."""

    MASK = (1 << 64) - 1
    MULT = 2685821657736338717

    def __init__(self, seed):
        self.state = int(seed) & self.MASK
        if self.state == 0:
            self.state = 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & self.MASK
        x ^= x >> 27
        self.state = x
        return (x * self.MULT) & self.MASK

    def next_float(self):
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_symmetric(self):
        """Uniform in [-1, 1)."""
        return 2.0 * self.next_float() - 1.0


def _vertex_grid(n, dim, basis):
    ranges = [np.arange(n + 1)] * dim
    ij = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, dim)
    return ij.astype(float) @ basis


def gen_mesh(spec):
    """Build one of the structured test meshes.

    equilateral: rhombic patch of 2 n^2 unit equilateral triangles.
    square:      unit square split into 2 n^2 right isoceles triangles.
    cube:        unit cube split into 6 n^3 tets (Kuhn subdivision).
    """
    if spec.n < 1:
        raise InvalidSpec(f"mesh subdivision must be >= 1, got {spec.n}")
    if spec.kind == EQUILATERAL:
        return _gen_triangle_grid(spec.n, np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]))
    if spec.kind == SQUARE:
        return _gen_triangle_grid(spec.n, np.eye(2) / spec.n, diagonal_split=True)
    if spec.kind == CUBE:
        return _gen_cube(spec.n)
    raise InvalidSpec(f"unknown generator kind {spec.kind!r}")


def _gen_triangle_grid(n, basis, diagonal_split=False):
    verts = _vertex_grid(n, 2, basis)

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if diagonal_split:
                cells.append((a, b, c))
                cells.append((a, c, d))
            else:
                cells.append((a, b, d))
                cells.append((b, c, d))
    return SimplexMesh(verts, np.array(cells, dtype=np.int64))


# Kuhn subdivision: one tet per permutation of the axes, each a monotone
# vertex path from the voxel origin to the opposite corner.
_KUHN_PERMS = list(itertools.permutations(range(3)))
_EVEN_PERMS = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def _gen_cube(n):
    verts = _vertex_grid(n, 3, np.eye(3) / n)

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    path = [base.copy()]
                    for axis in perm:
                        nxt = path[-1].copy()
                        nxt[axis] += 1
                        path.append(nxt)
                    ids = [vid(*p) for p in path]
                    if perm not in _EVEN_PERMS:
                        ids[2], ids[3] = ids[3], ids[2]
                    cells.append(ids)
    return SimplexMesh(verts, np.array(cells, dtype=np.int64))


@dataclass(frozen=True)
class VertexDisplace:
    """Move listed vertices by given offsets: ((index, offset), ...)."""

    moves: tuple


@dataclass(frozen=True)
class RandomJitter:
    """Seeded jitter of all topologically interior vertices.

    Each coordinate moves by amplitude * mean edge length * uniform(-1, 1);
    the whole field is scaled down if it would invert a cell.
    """

    amplitude: float
    seed: int


@dataclass(frozen=True)
class PlantSliver:
    """Flatten `count` interior tets to residual height eps * local edge length."""

    count: int
    eps: float


def perturb_mesh(mesh, mode):
    """Apply a deterministic perturbation; always returns a new mesh."""
    if isinstance(mode, VertexDisplace):
        return _displace(mesh, mode)
    if isinstance(mode, RandomJitter):
        return _jitter(mesh, mode)
    if isinstance(mode, PlantSliver):
        return _plant_slivers(mesh, mode)
    raise InvalidSpec(f"unknown perturbation mode {mode!r}")


def _displace(mesh, mode):
    field = np.zeros_like(mesh.vertices)
    for index, offset in mode.moves:
        field[index] = np.asarray(offset, dtype=float)
    lam = max_step_before_inversion(mesh, field)
    if lam <= 1.0:
        raise WouldInvert(
            f"requested displacement inverts a cell at {lam:.3g} of the move"
        )
    return mesh.with_vertices(mesh.vertices + field)


def _interior_vertex_mask(mesh):
    facets, _ = boundary_facets(mesh)
    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[facets] = False
    return interior


def _jitter(mesh, mode):
    if not np.isfinite(mode.amplitude):
        raise InvalidSpec(f"jitter amplitude must be finite, got {mode.amplitude}")
    if mode.amplitude == 0.0:
        return mesh.copy()
    rng = XorShift64Star(mode.seed)
    interior = _interior_vertex_mask(mesh)
    scale = mode.amplitude * mesh.mean_edge_length()
    field = np.zeros_like(mesh.vertices)
    for v in np.flatnonzero(interior):
        for d in range(mesh.dim):
            field[v, d] = scale * rng.next_symmetric()
    lam = max_step_before_inversion(mesh, field)
    if lam <= 1.0:
        field *= 0.9 * lam
    return mesh.with_vertices(mesh.vertices + field)


def _plant_slivers(mesh, mode):
    if mesh.dim != 3:
        raise InvalidSpec("slivers can only be planted in tetrahedral meshes")
    if mode.count < 1 or not 0.0 < mode.eps < 1.0:
        raise InvalidSpec("sliver count must be >= 1 and 0 < eps < 1")
    interior = _interior_vertex_mask(mesh)
    candidates = np.flatnonzero(interior[mesh.cells].all(axis=1))
    if candidates.size == 0:
        raise InvalidSpec("mesh has no fully interior tets to flatten")

    incident = [[] for _ in range(mesh.n_vertices)]
    for c, cell in enumerate(mesh.cells):
        for v in cell:
            incident[v].append(c)

    verts = mesh.vertices.copy()
    used = np.zeros(mesh.n_vertices, dtype=bool)
    stride = max(1, candidates.size // mode.count)
    planted = 0
    # Strided first so the slivers spread over the mesh, then the rest.
    strided = list(candidates[::stride])
    strided_set = set(strided)
    order = strided + [c for c in candidates if c not in strided_set]
    for c in order:
        if planted == mode.count:
            break
        cell = mesh.cells[c]
        if used[cell].any():
            continue
        if _flatten_tet(verts, mesh.cells, incident, cell, mode.eps):
            used[cell] = True
            planted += 1
    if planted < mode.count:
        raise InvalidSpec(
            f"could only plant {planted} of {mode.count} requested slivers"
        )
    return mesh.with_vertices(verts)


def _flatten_tet(verts, cells, incident, cell, eps):
    edges = verts[cell] - verts[np.roll(cell, 1)]
    target = eps * np.linalg.norm(edges, axis=1).mean()
    for local in (3, 2, 1, 0):
        v = cell[local]
        face = np.delete(cell, local)
        a, b, c = verts[face]
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n)
        height = float(np.dot(verts[v] - a, n))
        if height < 0:
            n, height = -n, -height
        if height <= target:
            continue
        old = verts[v].copy()
        verts[v] = verts[v] - (height - target) * n
        vols = tetrahedra.signed_volume(verts[cells[incident[v]]])
        if np.all(vols > 0.0):
            return True
        verts[v] = old
    return False
