"""Structured test-mesh generators and deterministic perturbations."""

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from . import tetrahedra
from .errors import InvalidSpec, WouldInvert
from .cap import max_step_before_inversion
from .mesh import SimplexMesh, boundary_facets

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


def _kuhn_tets():
    """Kuhn subdivision of the unit voxel: per permutation of the axes, the
    monotone path of 0/1 corners from the origin to the opposite corner, with
    the last two vertices swapped where the permutation is odd, so every tet
    is positively oriented."""
    tets = []
    for perm in itertools.permutations(range(3)):
        steps = np.eye(3, dtype=np.int64)[list(perm)]
        path = np.cumsum([np.zeros(3, dtype=np.int64), *steps], axis=0)
        if np.linalg.det(steps) < 0:
            path[[2, 3]] = path[[3, 2]]
        tets.append(path)
    return np.array(tets)


# Per kind, the 0/1 corners of each simplex of one square or voxel. A square
# (i, j) has corners a = (0, 0), b = (1, 0), c = (1, 1), d = (0, 1).
_CORNERS = {
    EQUILATERAL: np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]]),  # abd, bcd
    SQUARE: np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]]),  # abc, acd
    CUBE: _kuhn_tets(),
}


def gen_mesh(spec):
    """Build one of the structured test meshes.

    equilateral: rhombic patch of 2 n^2 unit equilateral triangles.
    square:      unit square split into 2 n^2 right isoceles triangles.
    cube:        unit cube split into 6 n^3 tets (Kuhn subdivision).

    Vertices are the lattice points in C order of (i, j[, k]); cells come
    per square or voxel in C order of its origin, and within one in the
    order of ``_CORNERS``.
    """
    n = _integer(spec.n, "GeneratorSpec n", 1)
    if spec.kind == EQUILATERAL:
        basis = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    elif spec.kind in (SQUARE, CUBE):
        basis = np.eye(_CORNERS[spec.kind].shape[2]) / n
    else:
        raise InvalidSpec(f"unknown generator kind {spec.kind!r}")
    return _grid(n, basis, _CORNERS[spec.kind])


def _grid(n, basis, corners):
    """The (n + 1)^dim lattice mapped by ``basis``, with ``corners`` placed
    at every square's or voxel's origin."""
    dim = basis.shape[0]
    ij = np.stack(np.meshgrid(*[np.arange(n + 1)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    strides = (n + 1) ** np.arange(dim - 1, -1, -1)
    origins = ij[(ij < n).all(axis=1)] @ strides
    cells = origins[:, None, None] + corners @ strides
    return SimplexMesh(ij.astype(float) @ basis, cells.reshape(-1, dim + 1))


def _integer(value, field, low=-np.inf, stop=np.inf):
    """``value`` as an int in [low, stop), else InvalidSpec naming ``field``;
    a bool or a float is refused, a numpy integer accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidSpec(f"{field} must be an integer, got {value!r}")
    if not low <= value < stop:
        raise InvalidSpec(f"{field} must be in [{low}, {stop}), got {value}")
    return int(value)


def _real(value, field):
    """``value`` as a float, else InvalidSpec naming ``field``; a bool or a
    non-number is refused, a numpy float accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSpec(f"{field} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class VertexDisplace:
    """Move listed vertices by offsets of ``dim`` numbers: ((index, offset), ...)."""

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
        index = _integer(index, "VertexDisplace index", 0, mesh.n_vertices)
        offset = offset.tolist() if isinstance(offset, np.ndarray) else offset
        if not isinstance(offset, (tuple, list)) or len(offset) != mesh.dim:
            raise InvalidSpec(f"VertexDisplace offset must be {mesh.dim} numbers, got {offset!r}")
        field[index] = [_real(x, "VertexDisplace offset") for x in offset]
        if not np.isfinite(field[index]).all():
            raise InvalidSpec(f"VertexDisplace offset must be finite, got {offset!r}")
    lam, _ = max_step_before_inversion(mesh, field)
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
    amplitude = _real(mode.amplitude, "RandomJitter amplitude")
    if not np.isfinite(amplitude):
        raise InvalidSpec(f"RandomJitter amplitude must be finite, got {amplitude}")
    rng = XorShift64Star(_integer(mode.seed, "RandomJitter seed"))
    if amplitude == 0.0:
        return mesh.copy()
    interior = _interior_vertex_mask(mesh)
    scale = amplitude * mesh.mean_edge_length()
    field = np.zeros_like(mesh.vertices)
    draws = [rng.next_symmetric() for _ in range(np.count_nonzero(interior) * mesh.dim)]
    field[interior] = scale * np.reshape(draws, (-1, mesh.dim))
    lam, _ = max_step_before_inversion(mesh, field)
    if lam <= 1.0:
        field *= 0.9 * lam
    return mesh.with_vertices(mesh.vertices + field)


def _plant_slivers(mesh, mode):
    if mesh.dim != 3:
        raise InvalidSpec("slivers can only be planted in tetrahedral meshes")
    count = _integer(mode.count, "PlantSliver count", 1)
    eps = _real(mode.eps, "PlantSliver eps")
    if not 0.0 < eps < 1.0:
        raise InvalidSpec(f"PlantSliver eps must be in (0, 1), got {eps}")
    interior = _interior_vertex_mask(mesh)
    candidates = np.flatnonzero(interior[mesh.cells].all(axis=1))
    if candidates.size == 0:
        raise InvalidSpec("mesh has no fully interior tets to flatten")
    verts = mesh.vertices.copy()
    used = np.zeros(mesh.n_vertices, dtype=bool)
    stride = max(1, candidates.size // count)
    planted = 0
    # Strided first so the slivers spread over the mesh, then the rest.
    order = np.concatenate([candidates[::stride], np.delete(candidates, np.s_[::stride])])
    for c in order:
        if planted == count:
            break
        cell = mesh.cells[c]
        if used[cell].any():
            continue
        if _flatten_tet(verts, mesh.cells, cell, eps):
            used[cell] = True
            planted += 1
    if planted < count:
        raise InvalidSpec(f"could only plant {planted} of {count} requested slivers")
    return mesh.with_vertices(verts)


def _flatten_tet(verts, cells, cell, eps):
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
        vols = tetrahedra.signed_volume(verts[cells[(cells == v).any(axis=1)]])
        if np.all(vols > 0.0):
            return True
        verts[v] = old
    return False
