"""Shared helpers: seeded random element and mesh factories, and the
driver's adapter to plain objectives."""

import itertools
import math

import numpy as np
import pytest

from rrsmooth import generate, optim, simplex, triangles, tetrahedra
from rrsmooth.cap import StepCap, max_step_before_inversion
from rrsmooth.errors import DegenerateElement
from rrsmooth.mesh import (
    FIX_ALL, SimplexMesh, boundary_facets, classify_boundary, components, validate,
)


def random_triangles(n, seed=0, mu_cap=50.0, min_area=1e-3):
    """n random CCW triangles with radius ratio below mu_cap."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        P = rng.uniform(-1.0, 1.0, (3, 2))
        area = triangles.signed_area(P[None])[0]
        if area < 0:
            P = P[[0, 2, 1]]
            area = -area
        if area < min_area:
            continue
        if triangles.geometry(P[None]).mu[0] > mu_cap:
            continue
        out.append(P)
    return np.array(out)


def random_tets(n, seed=0, mu_cap=50.0, min_vol=1e-3):
    """n random positively oriented tets with radius ratio below mu_cap."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        P = rng.uniform(-1.0, 1.0, (4, 3))
        vol = tetrahedra.signed_volume(P[None])[0]
        if vol < 0:
            P = P[[0, 1, 3, 2]]
            vol = -vol
        if vol < min_vol:
            continue
        if tetrahedra.geometry(P[None]).mu[0] > mu_cap:
            continue
        out.append(P)
    return np.array(out)


def dense_blocks(kernel, pts):
    """``(mu, A, *B)``, each block ``(n, k, k)``, rebuilt from ``block_weights``:
    A is the Laplacian of its weights, and each B is antisymmetric with its
    weight at (tail, head) of every edge."""
    g = kernel.geometry(pts)
    a, *b = kernel.block_weights(g)
    tail, head = kernel.EDGES
    blocks = [simplex.laplacian(a, kernel.EDGES)]
    for w in b:
        B = np.zeros_like(blocks[0])
        B[:, tail, head], B[:, head, tail] = w.T, -w.T
        blocks.append(B)
    return (g.mu, *blocks)


def block_gradient(kernel, pts, mu, *blocks):
    """Reference per-vertex gradient ``mu * (G_local V)`` from ``dense_blocks``.

    The paper's block product (``kernel.LAYOUT``) on cell-local coordinates;
    the blocks have zero row sums, so it equals the product on ``pts``.
    """
    pts = np.asarray(pts, dtype=float)
    local = pts - pts[:, :1]
    parts = [local[..., c] for c in range(local.shape[2])]
    rows = kernel.LAYOUT.product(blocks, parts, lambda M, v: np.einsum("nij,nj->ni", M, v))
    return mu[:, None, None] * np.stack(rows, axis=2)


def dense_laplacians(kernel, g):
    """Reference ``(A, A_abs)``, each ``(n, k, k)``, built as dense blocks.

    In 2D both are the hand-written 3x3 Laplacian A of the weights ``c_k``.
    In 3D ``A = M / |d0|^2 + S / s`` from the star matrix M of the |d0| term
    and the cotangent matrix S, and ``A_abs`` is the same sum after each of
    M and S has its off-diagonals clamped to ``-|w|`` and its diagonal
    rebalanced to zero row sums.
    """
    n = len(g.mu)
    if kernel is triangles:
        c0, c1, c2 = 1.0 / (g.p * g.lengths) + 1.0 / g.lengths**2
        A = np.zeros((n, 3, 3))
        A[:, 0, 0] = c1 + c2
        A[:, 1, 1] = c2 + c0
        A[:, 2, 2] = c0 + c1
        A[:, 0, 1] = A[:, 1, 0] = -c2
        A[:, 0, 2] = A[:, 2, 0] = -c1
        A[:, 1, 2] = A[:, 2, 1] = -c0
        return A, A
    c23, c31, c12 = (g.d0[:, None] * g.normals[:, 1:]).sum(axis=0)
    M = np.zeros((n, 4, 4))
    M[:, 0, 0] = 2 * (c23 + c31 + c12)
    M[:, 0, 1] = M[:, 1, 0] = -2 * c23
    M[:, 0, 2] = M[:, 2, 0] = -2 * c31
    M[:, 0, 3] = M[:, 3, 0] = -2 * c12
    M[:, 1, 1] = 2 * c23
    M[:, 2, 2] = 2 * c31
    M[:, 3, 3] = 2 * c12
    S = np.zeros((n, 4, 4))
    for e, (i, j) in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]):
        S[:, i, j] = S[:, j, i] = -g.cot[e]
    idx = np.arange(4)
    S[:, idx, idx] = -S.sum(axis=2)

    def clamped(W):
        out = -np.abs(W)
        out[:, idx, idx] = 0.0
        out[:, idx, idx] = -out.sum(axis=2)
        return out

    d0_sq, s = g.d0_sq[:, None, None], g.surface[:, None, None]
    return M * (1.0 / d0_sq) + S / s, clamped(M) / d0_sq + clamped(S) / s


# The kernels' geometry pass and closed-form gradient as first written, with
# fancy-index gathers and simplex's two degeneracy rules written out: the
# reference that the per-coordinate pass keeps every geometry field of, bit for
# bit, and the gradient of, to rounding.
_REF_EDGE_PERMS = (
    (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 2, 0), (2, 3, 0, 1)
)
_REF_TAIL, _REF_HEAD = np.array(_REF_EDGE_PERMS)[:, :2].T
_REF_FACE_EDGES = ([3, 1, 2, 0], [4, 2, 0, 1])


def _ref_corners():
    index = {frozenset(edge[:2]): e for e, edge in enumerate(_REF_EDGE_PERMS)}
    rows = [(e, index[frozenset((v, i))], index[frozenset((v, j))], face)
            for e, (i, j, k, l) in enumerate(_REF_EDGE_PERMS) for v, face in ((l, k), (k, l))]
    return [list(column) for column in zip(*rows)]


_REF_CORNER_EDGE, _REF_CORNER_VI, _REF_CORNER_VJ, _REF_CORNER_FACE = _ref_corners()


def _ref_cross(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for c, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[i] * b[j], a[j] * b[i], out=out[c])
    return out


def _ref_check(measure, edge_sq, name, dim):
    lo, hi = simplex.EDGE_SQ_RANGE[dim]
    far = ~((edge_sq >= lo) & (edge_sq <= hi))
    with np.errstate(over="ignore"):
        flat = measure <= simplex.DEGENERACY_RTOL * edge_sq ** (dim / 2)
    bad = np.flatnonzero(far | flat)
    if bad.size:
        c = bad[0]
        if far[c]:
            message = f"sum of squared edges {edge_sq[c]:.3e} is outside [{lo:g}, {hi:g}]"
        else:
            message = f"signed {name} {measure[c]:.3e} is non-positive or below threshold"
        raise DegenerateElement(message, cell=int(c))


def stacked_cells(points):
    """One mesh holding each (dim + 1, dim) point set as its own cell."""
    n, k, dim = points.shape
    return SimplexMesh(points.reshape(-1, dim), np.arange(n * k).reshape(n, k))


def rejected(kernel, pts):
    """The cells ``kernel.geometry(pts)`` rejects, by simplex's rules."""
    pts = np.asarray(pts, dtype=float)
    S = simplex.edge_sq_sum(pts.T, kernel.EDGES)
    dim = pts.shape[2]
    return simplex.out_of_range(S, dim) | simplex.degenerate(kernel.signed_measure(pts), S, dim)


def reference_geometry(kernel, pts):
    """The kernel's geometry fields as a dict, from the gathering pass."""
    pts = np.asarray(pts, dtype=float)
    X = np.ascontiguousarray(pts.T)
    if kernel is triangles:
        e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
        area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        edges = X[:, [2, 0, 1]] - X[:, [1, 2, 0]]
        sq = edges[0] * edges[0] + edges[1] * edges[1]
        _ref_check(area, sq.sum(axis=0), "area", 2)
        lengths = np.sqrt(sq)
        p, q = lengths.sum(axis=0), lengths.prod(axis=0)
        return dict(area=area, edges=edges, lengths=lengths, p=p, mu=p * q / (16.0 * area**2))
    E = X[:, _REF_HEAD] - X[:, _REF_TAIL]
    normals = _ref_cross(E[:, _REF_FACE_EDGES[0]], E[:, _REF_FACE_EDGES[1]])
    # einsum's order of summation depends on the layout: this is signed_volume's
    # on C-ordered rows.
    rows = np.ascontiguousarray(pts)
    e1, e2, e3 = (rows[:, k] - rows[:, 0] for k in (1, 2, 3))
    vol = np.einsum("ij,ij->i", e1, np.cross(e2, e3)) / 6.0
    sq = (E * E).sum(axis=0)
    _ref_check(vol, sq.sum(axis=0), "volume", 3)
    edge_sq = sq[:3]
    d0 = edge_sq[2] * normals[:, 3] + edge_sq[0] * normals[:, 1] + edge_sq[1] * normals[:, 2]
    d0_sq = (d0 * d0).sum(axis=0)
    areas = 0.5 * np.sqrt((normals * normals).sum(axis=0))
    s = areas.sum(axis=0)
    corner = sq[_REF_CORNER_VI] + sq[_REF_CORNER_VJ] - sq[_REF_CORNER_EDGE]
    cot = (corner / (8.0 * areas[_REF_CORNER_FACE])).reshape(6, 2, -1).sum(axis=1)
    mu = s * np.sqrt(d0_sq) / (108.0 * vol**2)
    return dict(
        volume=vol, edges=E, edge_sq=edge_sq, normals=normals, surface=s, cot=cot, d0=d0,
        d0_sq=d0_sq, d0_normals=(d0[:, None] * normals[:, 1:]).sum(axis=0), mu=mu,
    )


def reference_gradient(kernel, pts):
    """Per-vertex gradient of mu ``(n, k, dim)``: the closed form as first
    written, on :func:`reference_geometry`."""
    g = reference_geometry(kernel, pts)
    if kernel is triangles:
        c = 1.0 / (g["p"] * g["lengths"]) + 1.0 / g["lengths"] ** 2
        w = c * g["edges"]
        G = w[:, [1, 2, 0]] - w[:, [2, 0, 1]]
        G[0] += g["edges"][1] / g["area"]
        G[1] -= g["edges"][0] / g["area"]
        return (g["mu"] * G).T
    e, d0, sq = g["edges"][:, :3], g["d0"][:, None], g["edge_sq"]
    c = (d0 * g["normals"][:, 1:]).sum(axis=0)
    w = sq[[2, 0, 1]] * e[:, [1, 2, 0]] - sq[[1, 2, 0]] * e[:, [2, 0, 1]]
    jd0 = 2.0 * c * e + _ref_cross(w, d0)
    W = g["cot"] * g["edges"]
    ds = np.stack(
        [W[:, 0] - W[:, 3] - W[:, 4], W[:, 1] + W[:, 3] - W[:, 5], W[:, 2] + W[:, 4] + W[:, 5]],
        axis=1,
    )
    G = np.empty((3, 4, len(g["mu"])))
    G[:, 1:] = jd0 / g["d0_sq"] + ds / g["surface"] - g["normals"][:, 1:] / (3.0 * g["volume"])
    G[:, 0] = -G[:, 1:].sum(axis=1)
    G *= g["mu"]
    return G.T


def central_diff(f, P, h):
    """Central-difference gradient of a scalar elementwise function."""
    P = np.asarray(P, dtype=float)
    g = np.zeros_like(P)
    for i in range(P.shape[0]):
        for d in range(P.shape[1]):
            Q = P.copy()
            Q[i, d] += h
            R = P.copy()
            R[i, d] -= h
            g[i, d] = (f(Q) - f(R)) / (2.0 * h)
    return g


# Vertices of the regular tetrahedron inscribed in the cube, ordered so the
# signed volume is positive.
REGULAR_TET = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]]
)

CORNER_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

EQUILATERAL_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])

RIGHT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# A regular cell per dimension: edge 1 in 2D, 2 sqrt(2) in 3D.
REGULAR = {2: np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.75**0.5]]), 3: REGULAR_TET}


# The structured meshes and perturbations as first written, with Python loops
# over every square, voxel, Kuhn permutation, incident cell and coordinate:
# the reference that rrsmooth.generate's array forms keep, bit for bit.
def _reference_vertex_grid(n, dim, basis):
    ranges = [np.arange(n + 1)] * dim
    ij = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, dim)
    return ij.astype(float) @ basis


def _reference_triangle_grid(n, basis, diagonal_split=False):
    verts = _reference_vertex_grid(n, 2, basis)

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
_REF_KUHN_PERMS = list(itertools.permutations(range(3)))
_REF_EVEN_PERMS = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def _reference_cube(n):
    verts = _reference_vertex_grid(n, 3, np.eye(3) / n)

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in _REF_KUHN_PERMS:
                    path = [base.copy()]
                    for axis in perm:
                        nxt = path[-1].copy()
                        nxt[axis] += 1
                        path.append(nxt)
                    ids = [vid(*p) for p in path]
                    if perm not in _REF_EVEN_PERMS:
                        ids[2], ids[3] = ids[3], ids[2]
                    cells.append(ids)
    return SimplexMesh(verts, np.array(cells, dtype=np.int64))


def reference_gen_mesh(kind, n):
    """``gen_mesh(GeneratorSpec(kind, n))`` by the loop builders."""
    if kind == generate.EQUILATERAL:
        return _reference_triangle_grid(n, np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]))
    if kind == generate.SQUARE:
        return _reference_triangle_grid(n, np.eye(2) / n, diagonal_split=True)
    return _reference_cube(n)


def reference_jitter(mesh, amplitude, seed):
    """``perturb_mesh(mesh, RandomJitter(amplitude, seed))``, one draw at a time."""
    rng = generate.XorShift64Star(seed)
    interior = generate._interior_vertex_mask(mesh)
    scale = amplitude * mesh.mean_edge_length()
    field = np.zeros_like(mesh.vertices)
    for v in np.flatnonzero(interior):
        for d in range(mesh.dim):
            field[v, d] = scale * rng.next_symmetric()
    lam, _ = max_step_before_inversion(mesh, field)
    if lam <= 1.0:
        field *= 0.9 * lam
    return mesh.with_vertices(mesh.vertices + field)


def reference_plant_slivers(mesh, count, eps):
    """``perturb_mesh(mesh, PlantSliver(count, eps))`` with per-vertex lists
    of incident cells and a set-based candidate order."""
    interior = generate._interior_vertex_mask(mesh)
    candidates = np.flatnonzero(interior[mesh.cells].all(axis=1))
    incident = [[] for _ in range(mesh.n_vertices)]
    for c, cell in enumerate(mesh.cells):
        for v in cell:
            incident[v].append(c)
    verts = mesh.vertices.copy()
    used = np.zeros(mesh.n_vertices, dtype=bool)
    stride = max(1, candidates.size // count)
    planted = 0
    strided = list(candidates[::stride])
    strided_set = set(strided)
    order = strided + [c for c in candidates if c not in strided_set]
    for c in order:
        if planted == count:
            break
        cell = mesh.cells[c]
        if used[cell].any():
            continue
        if _reference_flatten_tet(verts, mesh.cells, incident, cell, eps):
            used[cell] = True
            planted += 1
    assert planted == count
    return mesh.with_vertices(verts)


def _reference_flatten_tet(verts, cells, incident, cell, eps):
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


def perturbed_lattice(n=8):
    """An equilateral patch n, fixed at its boundary, with two interior
    vertices moved 0.3 edge lengths in opposite senses, halfway between two
    lattice neighbour directions."""
    mesh = generate.gen_mesh(generate.GeneratorSpec(generate.EQUILATERAL, n))
    interior = np.flatnonzero(
        ~np.isin(np.arange(mesh.n_vertices), np.unique(boundary_facets(mesh)[0]))
    )
    a, b = interior[len(interior) // 3], interior[2 * len(interior) // 3]
    d = (0.3 * np.cos(np.pi / 6), 0.3 * np.sin(np.pi / 6))
    verts = mesh.vertices.copy()
    verts[a] += d
    verts[b] -= d
    moved = mesh.with_vertices(verts)
    assert validate(moved) == []
    return classify_boundary(moved, FIX_ALL)


class FunctionProblem:
    """A plain objective ``fun_grad(x) -> (f, g)`` as a problem for the descent
    driver (``optim._descend`` states the protocol): nothing is constrained or
    capped, and the P seeds solve with ``precond_solve``."""

    def __init__(self, fun_grad, x0, precond_solve=None):
        self.fun_grad, self.precond_solve = fun_grad, precond_solve
        self.x0 = np.asarray(x0, dtype=float).copy()
        self.fun_evals = 0

    def eval(self, x):
        self.fun_evals += 1
        f, g = self.fun_grad(x)
        return float(f), np.asarray(g, dtype=float)

    def project(self, v):
        return v

    def step(self, x, d, lam):
        return x + lam * d

    def lam_cap(self, x, d):
        return StepCap(math.inf)

    def precond_factory(self, x):
        return self.precond_solve

    def take_work(self, *unused):
        return {}

    step_metrics = take_work


def minimize_lbfgs(fun_grad, x0, config=None, precond_solve=None):
    """lbfgs on a plain objective, or plbfgs with the seed ``precond_solve``."""
    problem = FunctionProblem(fun_grad, x0, precond_solve)
    method = optim.LBFGS if precond_solve is None else optim.PLBFGS
    return optim._run(problem, config or optim.OptimizeConfig(), method)


def minimize_nlcg(fun_grad, x0, config=None, precond_solve=None):
    """nlcg on a plain objective, or pnlcg with the seed ``precond_solve``."""
    problem = FunctionProblem(fun_grad, x0, precond_solve)
    method = optim.NLCG if precond_solve is None else optim.PNLCG
    return optim._run(problem, config or optim.OptimizeConfig(), method)


def record_betas(mp):
    """Wrap ``optim._Nlcg.accept`` through the MonkeyPatch ``mp``; the returned
    list collects the Polak-Ribiere beta of every accepted (p)nlcg step."""
    accept, betas = optim._Nlcg.accept, []

    def spy(self, *args):
        accept(self, *args)
        betas.append(self.beta)

    mp.setattr(optim._Nlcg, "accept", spy)
    return betas


def assert_spd_structure(P, parts=1):
    """P (scipy) is exactly symmetric, every row weakly diagonally dominant and
    some strictly (to 1e-12 of its largest entry); its graph has ``parts`` parts."""
    A = abs(P)
    margin = 2.0 * A.diagonal() - np.asarray(A.sum(axis=1)).ravel()
    tol = 1e-12 * A.max()
    assert (P != P.T).nnz == 0 and (margin >= -tol).all() and (margin > tol).any()
    assert components(P.shape[0], *P.tocoo().coords)[0] == parts


def spy_wolfe(mp):
    """Wrap ``optim.strong_wolfe_search`` through the MonkeyPatch ``mp``; the
    returned list collects ``(df0, result)`` of every search that returns."""
    search, searches = optim.strong_wolfe_search, []

    def spy(phi, f0, df0, **kwargs):
        result = search(phi, f0, df0, **kwargs)
        searches.append((df0, result))
        return result

    mp.setattr(optim, "strong_wolfe_search", spy)
    return searches


@pytest.fixture
def exact_line_search(monkeypatch):
    """Wolfe constants so small that each accepted step is the exact minimizer
    along its ray to rounding, as the quadratic-termination identities need."""
    monkeypatch.setattr(optim, "WOLFE_C1", 1e-13)
    monkeypatch.setattr(optim, "WOLFE_C2", 1e-10)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
