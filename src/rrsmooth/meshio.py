"""Mesh file readers and writers.

Three dialects:

* Gmsh MSH 2.2 ASCII (``.msh``): element types 2 (triangle) and 4 (tet) are
  imported, everything else is skipped with a warning.
* VTK legacy ASCII unstructured grid (``.vtk``): cell types 5 and 10; the
  quality overlay writes per-cell scalar ``quality`` = 1/mu in CELL_DATA.
* Native text (``.txt``): one-line header ``dim nv nc``, then coordinates,
  0-based cells and per-vertex constraint tags. Floats are printed with 17
  significant digits so round trips are byte-exact.

Negatively oriented cells are repaired on load and the repair count logged.
"""

import logging

import numpy as np

from .errors import EmptyMesh, ParseError, UnsupportedFormat
from .mesh import FIXED, FREE, SLIDE, SimplexMesh, repair_orientation

logger = logging.getLogger(__name__)

GMSH = "gmsh-msh2"
VTK = "vtk-legacy"
NATIVE = "native"

_EXTENSIONS = {".msh": GMSH, ".vtk": VTK, ".txt": NATIVE}

_MSH_TRIANGLE = 2
_MSH_TET = 4
_VTK_TRIANGLE = 5
_VTK_TET = 10


def detect_format(path):
    path = str(path)
    for ext, fmt in _EXTENSIONS.items():
        if path.endswith(ext):
            return fmt
    raise UnsupportedFormat(
        f"cannot infer mesh format from {path!r} (known: {sorted(_EXTENSIONS)})"
    )


def load_mesh(path, fmt=None):
    """Read a mesh file; orientation is repaired and repairs are logged."""
    fmt = fmt or detect_format(path)
    if fmt == GMSH:
        verts, cells = _read_msh(path)
        kind = normals = None
    elif fmt == VTK:
        verts, cells = _read_vtk(path)
        kind = normals = None
    elif fmt == NATIVE:
        verts, cells, kind, normals = _read_native(path)
    else:
        raise UnsupportedFormat(f"unknown format {fmt!r}")
    if cells.shape[0] == 0:
        raise EmptyMesh(f"{path}: no triangle/tetrahedron cells found")
    cells, repaired = repair_orientation(verts, cells)
    if repaired.size:
        logger.info("%s: repaired orientation of %d cells", path, repaired.size)
    return SimplexMesh(verts, cells, kind, normals)


def save_mesh(mesh, path, fmt=None):
    """Write a mesh file in the requested or extension-implied format."""
    fmt = fmt or detect_format(path)
    if fmt == GMSH:
        _write_msh(mesh, path)
    elif fmt == VTK:
        _write_vtk(mesh, path, quality=None)
    elif fmt == NATIVE:
        _write_native(mesh, path)
    else:
        raise UnsupportedFormat(f"unknown format {fmt!r}")


def save_quality_overlay(mesh, path):
    """Write a VTK file carrying per-cell scalar quality = 1/mu."""
    _write_vtk(mesh, path, quality=1.0 / mesh.geometry().mu)


class _LineReader:
    """Line iterator that remembers its position for error messages."""

    def __init__(self, path):
        self.path = str(path)
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, context):
        if self.pos >= len(self.lines):
            raise ParseError(f"unexpected end of file while reading {context}",
                             self.path, self.pos + 1)
        line = self.lines[self.pos]
        self.pos += 1
        return line.strip()

    def fail(self, message):
        raise ParseError(message, self.path, self.pos)

    def values(self, tokens, cast, context):
        """``tokens`` of the current line as numbers, or ParseError there."""
        try:
            return list(map(cast, tokens))
        except ValueError:
            self.fail(f"{context}: malformed number in {' '.join(tokens)!r}")

    def fields(self, context, count, cast, what):
        """The next line as ``count`` numbers, or ParseError there."""
        parts = self.next(context).split()
        if len(parts) != count:
            self.fail(f"{context} line needs {count} {what}")
        return self.values(parts, cast, context)

    def at_end(self):
        return self.pos >= len(self.lines)


def _read_msh(path):
    rd = _LineReader(path)
    nodes = []
    node_ids = []
    tris = []
    tets = []
    skipped = {}
    saw_nodes = saw_elements = False
    while not rd.at_end():
        line = rd.next("section header")
        if not line:
            continue
        if line == "$MeshFormat":
            header = rd.next("$MeshFormat")
            parts = header.split()
            if not parts or not parts[0].startswith("2.2"):
                raise UnsupportedFormat(
                    f"{path}: only MSH 2.2 ASCII is supported, got {header!r}"
                )
            if len(parts) >= 2 and parts[1] != "0":
                raise UnsupportedFormat(f"{path}: binary MSH is not supported")
            if rd.next("$EndMeshFormat") != "$EndMeshFormat":
                rd.fail("expected $EndMeshFormat")
        elif line == "$Nodes":
            saw_nodes = True
            (count,) = rd.values([rd.next("node count")], int, "node count")
            for _ in range(count):
                parts = rd.next("$Nodes").split()
                if len(parts) != 4:
                    rd.fail(f"expected 'id x y z', got {len(parts)} fields")
                node_ids.extend(rd.values(parts[:1], int, "node id"))
                nodes.append(rd.values(parts[1:], float, "node"))
            if rd.next("$EndNodes") != "$EndNodes":
                rd.fail("expected $EndNodes")
        elif line == "$Elements":
            saw_elements = True
            (count,) = rd.values([rd.next("element count")], int, "element count")
            for _ in range(count):
                parts = rd.next("$Elements").split()
                if len(parts) < 3:
                    rd.fail("malformed element line")
                _, etype, ntags, *rest = rd.values(parts, int, "element")
                ids = rest[ntags:]
                if etype == _MSH_TRIANGLE and len(ids) == 3:
                    tris.append(ids)
                elif etype == _MSH_TET and len(ids) == 4:
                    tets.append(ids)
                else:
                    skipped[etype] = skipped.get(etype, 0) + 1
            if rd.next("$EndElements") != "$EndElements":
                rd.fail("expected $EndElements")
        elif line.startswith("$") and not line.startswith("$End"):
            # Unknown section: skip to its terminator.
            terminator = "$End" + line[1:]
            while rd.next(f"section {line}") != terminator:
                pass
    if not saw_nodes or not saw_elements:
        raise ParseError("missing $Nodes or $Elements section", str(path))
    if skipped:
        logger.warning(
            "%s: ignored unsupported element types %s",
            path,
            {k: v for k, v in sorted(skipped.items())},
        )
    coords = np.asarray(nodes, dtype=float).reshape(-1, 3)
    index_of = {nid: i for i, nid in enumerate(node_ids)}
    if len(index_of) != len(node_ids):
        raise ParseError("duplicate node ids", str(path))

    def remap(rows, width):
        try:
            return np.array(
                [[index_of[v] for v in row] for row in rows], dtype=np.int64
            ).reshape(-1, width)
        except KeyError as e:
            raise ParseError(f"element references unknown node id {e.args[0]}",
                             str(path)) from None

    if tets:
        if tris:
            logger.warning(
                "%s: %d surface triangles ignored in favor of %d tets",
                path, len(tris), len(tets),
            )
        return coords, remap(tets, 4)
    cells = remap(tris, 3)
    if cells.shape[0] and np.abs(coords[:, 2]).max() > 1e-12 * max(
        np.abs(coords).max(), 1.0
    ):
        raise UnsupportedFormat(
            f"{path}: triangle mesh with nonzero z (surface meshes unsupported)"
        )
    return coords[:, :2], cells


def _write_msh(mesh, path):
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{mesh.n_vertices}\n")
        for i, v in enumerate(mesh.vertices):
            x, y = v[0], v[1]
            z = v[2] if mesh.dim == 3 else 0.0
            fh.write(f"{i + 1} {x:.17g} {y:.17g} {z:.17g}\n")
        fh.write("$EndNodes\n")
        etype = _MSH_TET if mesh.dim == 3 else _MSH_TRIANGLE
        fh.write(f"$Elements\n{mesh.n_cells}\n")
        for i, cell in enumerate(mesh.cells):
            ids = " ".join(str(v + 1) for v in cell)
            fh.write(f"{i + 1} {etype} 2 0 0 {ids}\n")
        fh.write("$EndElements\n")


def _read_vtk(path):
    rd = _LineReader(path)
    if not rd.next("header").startswith("# vtk DataFile"):
        raise UnsupportedFormat(f"{path}: missing VTK header")
    rd.next("title")
    if rd.next("encoding").upper() != "ASCII":
        raise UnsupportedFormat(f"{path}: only ASCII VTK is supported")
    dataset = rd.next("dataset")
    if "UNSTRUCTURED_GRID" not in dataset:
        raise UnsupportedFormat(f"{path}: expected DATASET UNSTRUCTURED_GRID")

    def read_numbers(count, context, cast):
        out = []
        while len(out) < count:
            out.extend(rd.values(rd.next(context).split(), cast, context))
        if len(out) != count:
            rd.fail(f"{context}: expected {count} values, got {len(out)}")
        return out

    def counts(parts, n, extra=0):
        """The ``n`` counts after a section keyword, then up to ``extra`` words."""
        if not n < len(parts) <= n + 1 + extra:
            rd.fail(f"{parts[0]} header needs {n} count(s), got {len(parts) - 1} fields")
        return rd.values(parts[1 : n + 1], int, parts[0])

    points = None
    raw_cells = None
    types = None
    while not rd.at_end():
        line = rd.next("section")
        if not line:
            continue
        parts = line.split()
        key = parts[0].upper()
        if key == "POINTS":
            (n,) = counts(parts, 1, extra=1)
            vals = read_numbers(3 * n, "POINTS", float)
            points = np.asarray(vals, dtype=float).reshape(n, 3)
        elif key == "CELLS":
            cells_line = rd.pos
            m, total = counts(parts, 2)
            raw_cells = (m, read_numbers(total, "CELLS", int))
        elif key == "CELL_TYPES":
            types_line = rd.pos
            (m,) = counts(parts, 1)
            types = read_numbers(m, "CELL_TYPES", int)
        else:
            break  # CELL_DATA and friends: nothing else we need
    if points is None or raw_cells is None or types is None:
        raise ParseError("missing POINTS, CELLS or CELL_TYPES", str(path))
    m, vals = raw_cells
    if len(types) != m:
        raise ParseError(f"CELL_TYPES lists {len(types)} cells, CELLS {m}", str(path), types_line)
    cells = []
    pos = 0
    for t in types:
        k = vals[pos] if pos < len(vals) else -1
        if not 0 <= k < len(vals) - pos:
            raise ParseError("CELLS: cell sizes do not match the values listed",
                             str(path), cells_line)
        ids = vals[pos + 1 : pos + 1 + k]
        pos += 1 + k
        if (t, k) in ((_VTK_TRIANGLE, 3), (_VTK_TET, 4)):
            cells.append(ids)
        else:
            logger.warning("%s: ignored VTK cell type %d", path, t)
    if not cells:
        return points, np.zeros((0, 4), dtype=np.int64)
    width = len(cells[0])
    if any(len(c) != width for c in cells):
        raise UnsupportedFormat(f"{path}: mixed cell dimensions")
    cells = np.asarray(cells, dtype=np.int64)
    if width == 3:
        if np.abs(points[:, 2]).max() > 1e-12 * max(np.abs(points).max(), 1.0):
            raise UnsupportedFormat(f"{path}: triangle mesh with nonzero z")
        return points[:, :2], cells
    return points, cells


def _write_vtk(mesh, path, quality=None):
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("rrsmooth mesh\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for v in mesh.vertices:
            z = v[2] if mesh.dim == 3 else 0.0
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {z:.17g}\n")
        k = mesh.dim + 1
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (k + 1)}\n")
        for cell in mesh.cells:
            fh.write(f"{k} " + " ".join(str(v) for v in cell) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        ctype = _VTK_TET if mesh.dim == 3 else _VTK_TRIANGLE
        for _ in range(mesh.n_cells):
            fh.write(f"{ctype}\n")
        if quality is not None:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            fh.write("SCALARS quality double 1\nLOOKUP_TABLE default\n")
            for q in quality:
                fh.write(f"{q:.17g}\n")


def _read_native(path):
    rd = _LineReader(path)
    dim, nv, nc = rd.fields("header", 3, int, "integers 'dim nv nc'")
    if dim not in (2, 3):
        rd.fail(f"dim must be 2 or 3, got {dim}")
    if nv < 0 or nc < 0:
        rd.fail("vertex and cell counts must be non-negative")
    verts = np.empty((nv, dim))
    for i in range(nv):
        verts[i] = rd.fields("vertex", dim, float, "coordinates")
    cells = np.empty((nc, dim + 1), dtype=np.int64)
    for i in range(nc):
        cells[i] = rd.fields("cell", dim + 1, int, "vertex indices")
    kind = np.zeros(nv, dtype=np.int8)
    normals = np.zeros((nv, dim))
    for i in range(nv):
        parts = rd.next("constraint").split()
        if not parts:
            rd.fail("empty constraint line")
        tag = parts[0]
        if tag == "free":
            kind[i] = FREE
        elif tag == "fixed":
            kind[i] = FIXED
        elif tag == "slide":
            if len(parts) != 1 + dim:
                rd.fail(f"slide tag needs {dim} normal components")
            kind[i] = SLIDE
            normals[i] = rd.values(parts[1:], float, "slide normal")
        else:
            rd.fail(f"unknown constraint tag {tag!r}")
    return verts, cells, kind, normals


def _write_native(mesh, path):
    with open(path, "w") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n")
        for v in mesh.vertices:
            fh.write(" ".join(f"{c:.17g}" for c in v) + "\n")
        for cell in mesh.cells:
            fh.write(" ".join(str(v) for v in cell) + "\n")
        for i in range(mesh.n_vertices):
            k = mesh.constraint_kind[i]
            if k == FIXED:
                fh.write("fixed\n")
            elif k == SLIDE:
                n = " ".join(f"{c:.17g}" for c in mesh.slide_normals[i])
                fh.write(f"slide {n}\n")
            else:
                fh.write("free\n")
