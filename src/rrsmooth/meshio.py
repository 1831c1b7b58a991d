"""Mesh file readers and writers.

Three dialects, each read and written by the file extension alone
(:func:`detect_format`; an unknown extension raises UnsupportedFormat):

* Gmsh MSH 2.2 ASCII (``.msh``): element types 2 (triangle) and 4 (tet) are
  imported, everything else is skipped with a warning.
* VTK legacy ASCII unstructured grid (``.vtk``): cell types 5 and 10; the
  quality overlay writes per-cell scalar ``quality`` = 1/mu in CELL_DATA.
* Native text (``.txt``): one-line header ``dim nv nc``, then coordinates,
  0-based cells and per-vertex constraint tags. Floats are printed with 17
  significant digits so round trips are byte-exact.

Each numeric section is parsed by one ``np.loadtxt`` call, so its numbers
follow loadtxt's syntax: no ``_`` digit separators, and integers are plain
decimals that fit in 64 bits. Each written block is one ``%``-format string.

Negatively oriented cells are repaired on load and the repair count logged.
"""

import logging
from collections import Counter

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
_MSH_NODE = np.dtype([("id", np.int64), ("xyz", float, (3,))])
_TAGS = {"free": FREE, "fixed": FIXED, "slide": SLIDE}


def detect_format(path):
    path = str(path)
    for ext, fmt in _EXTENSIONS.items():
        if path.endswith(ext):
            return fmt
    raise UnsupportedFormat(
        f"cannot infer mesh format from {path!r} (known: {sorted(_EXTENSIONS)})"
    )


def load_mesh(path):
    """Read a mesh file in the format its extension names (`detect_format`);
    orientation is repaired and repairs are logged."""
    readers = {GMSH: _read_msh, VTK: _read_vtk, NATIVE: _read_native}
    verts, cells, *constraints = readers[detect_format(path)](path)
    if cells.shape[0] == 0:
        raise EmptyMesh(f"{path}: no triangle/tetrahedron cells found")
    cells, repaired = repair_orientation(verts, cells)
    if repaired.size:
        logger.info("%s: repaired orientation of %d cells", path, repaired.size)
    return SimplexMesh(verts, cells, *constraints)


def save_mesh(mesh, path):
    """Write a mesh file in the format its extension names (`detect_format`)."""
    writers = {GMSH: _write_msh, VTK: _write_vtk, NATIVE: _write_native}
    writers[detect_format(path)](mesh, path)


def save_quality_overlay(mesh, path):
    """Write a VTK file carrying per-cell scalar quality = 1/mu."""
    _write_vtk(mesh, path, quality=1.0 / mesh.geometry().mu)


def _loadtxt(lines, dtype, ndmin=1):
    return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=ndmin)


class _LineReader:
    """Line iterator that remembers its position for error messages. Only
    when a section's one ``np.loadtxt`` call fails does :meth:`locate` walk
    its lines, to name the first line a line-by-line read would reject."""

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

    def at_end(self):
        return self.pos >= len(self.lines)

    def take(self, count):
        """The next line's index, and the next ``count`` lines (fewer at EOF)."""
        start = self.pos
        self.pos = min(start + count, len(self.lines))
        return start, self.lines[start : self.pos]

    def section(self, count, dtype, context, fields=range(1 << 62)):
        """The next ``count`` lines, parsed by one ``np.loadtxt`` call (a
        record per line for a structured ``dtype``, else one flat array), and
        the number of fields on each line, which must lie in ``fields``.
        Lines as wide as the first are read as a table; only when that misses
        are each line's fields counted."""
        count = max(count, 0)
        start, lines = self.take(count)
        width = len(lines[0].split()) if lines else 0
        if len(lines) == count and width and width in fields:
            try:
                # loadtxt skips blank lines: the row count catches them.
                table = _loadtxt(lines, dtype, 1 if np.dtype(dtype).names else 2)
                if len(table) == count:
                    return table.reshape(-1), np.full(count, width)
            except ValueError:
                pass
        widths = np.array([len(line.split()) for line in lines], dtype=np.int64)
        if len(lines) == count and np.all((widths >= fields.start) & (widths < fields.stop)):
            try:
                text = lines if np.dtype(dtype).names else [" ".join(lines)]
                return (_loadtxt(text, dtype) if widths.any() else np.zeros(0, dtype)), widths
            except ValueError:
                pass
        self.locate(start, lines, dtype, context, lambda parts: (
            len(parts) not in fields and f"{context}: a line of {len(parts)} fields", parts))

    def locate(self, start, lines, dtype, context, check):
        """ParseError at the first of ``lines`` (index ``start`` onwards) that
        ``check(fields) -> (message, numbers)`` rejects or whose ``numbers``
        do not parse as ``dtype``, else at the end of the file."""
        for self.pos, line in enumerate(lines, start + 1):
            message, numbers = check(line.split())
            if message:
                self.fail(message)
            try:
                if numbers:
                    _loadtxt([" ".join(numbers)], dtype)
            except ValueError:
                self.fail(f"{context}: malformed number in {line.strip()!r}")
        self.next(context)
        self.fail(f"{context}: unreadable section")


def _read_msh(path):
    rd = _LineReader(path)
    nodes, elements = [], []
    while not rd.at_end():
        line = rd.next("section header")
        if not line:
            continue
        if line == "$MeshFormat":
            header = rd.next("$MeshFormat")
            parts = header.split()
            if not parts or not parts[0].startswith("2.2"):
                raise UnsupportedFormat(f"{path}: only MSH 2.2 ASCII is supported, got {header!r}")
            if len(parts) >= 2 and parts[1] != "0":
                raise UnsupportedFormat(f"{path}: binary MSH is not supported")
            if rd.next("$EndMeshFormat") != "$EndMeshFormat":
                rd.fail("expected $EndMeshFormat")
        elif line == "$Nodes":
            (count,) = rd.values([rd.next("node count")], int, "node count")
            nodes.append(rd.section(count, _MSH_NODE, "$Nodes", range(4, 5))[0])
            if rd.next("$EndNodes") != "$EndNodes":
                rd.fail("expected $EndNodes")
        elif line == "$Elements":
            (count,) = rd.values([rd.next("element count")], int, "element count")
            elements.append(rd.section(count, np.int64, "$Elements", range(3, 1 << 62)))
            if rd.next("$EndElements") != "$EndElements":
                rd.fail("expected $EndElements")
        elif line.startswith("$") and not line.startswith("$End"):
            # Unknown section: skip to its terminator.
            terminator = "$End" + line[1:]
            while rd.next(f"section {line}") != terminator:
                pass
    if not nodes or not elements:
        raise ParseError("missing $Nodes or $Elements section", str(path))
    nodes = np.concatenate(nodes)
    flat, widths = (np.concatenate(arrays) for arrays in zip(*elements))
    # A row is "id type ntags <tags> <node ids>": its ids are row[3:][ntags:].
    first = np.cumsum(widths) - widths
    etype, ntags, rest = flat[first + 1], flat[first + 2], widths - 3
    skip = np.clip(np.where(ntags < 0, rest + ntags, ntags), 0, rest)
    n_ids, begin = rest - skip, first + 3 + skip
    tri = (etype == _MSH_TRIANGLE) & (n_ids == 3)
    tet = (etype == _MSH_TET) & (n_ids == 4)
    skipped = Counter(etype[~(tri | tet)].tolist())
    if skipped:
        logger.warning(
            "%s: ignored unsupported element types %s", path, dict(sorted(skipped.items()))
        )
    coords = np.ascontiguousarray(nodes["xyz"])
    order = np.argsort(nodes["id"], kind="stable")
    ids = nodes["id"][order]
    if np.any(ids[1:] == ids[:-1]):
        raise ParseError("duplicate node ids", str(path))

    def remap(rows, width):
        cells = flat[begin[rows, None] + np.arange(width)]
        at = np.searchsorted(ids, cells)
        known = at < len(ids)
        known[known] = ids[at[known]] == cells[known]
        if not known.all():
            raise ParseError(f"element references unknown node id {cells[~known][0]}", str(path))
        return order[at]

    if tet.any():
        if tri.any():
            logger.warning("%s: %d surface triangles ignored in favor of %d tets",
                           path, tri.sum(), tet.sum())
        return coords, remap(tet, 4)
    cells = remap(tri, 3)
    if cells.shape[0] and np.abs(coords[:, 2]).max() > 1e-12 * max(np.abs(coords).max(), 1.0):
        raise UnsupportedFormat(f"{path}: triangle mesh with nonzero z (surface meshes unsupported)")
    return coords[:, :2], cells


def _xyz(mesh):
    """Vertex coordinates as three columns (z = 0 in 2D)."""
    return np.column_stack([mesh.vertices, np.zeros((mesh.n_vertices, 3 - mesh.dim))])


def _block(row, values):
    """``row`` formatted once per row of ``values``, as one string."""
    return row * len(values) % tuple(np.ravel(values).tolist())


def _write_msh(mesh, path):
    n, m = mesh.n_vertices, mesh.n_cells
    etype = _MSH_TET if mesh.dim == 3 else _MSH_TRIANGLE
    nodes = np.column_stack([np.arange(1, n + 1), _xyz(mesh)])
    elements = np.column_stack([np.arange(1, m + 1), mesh.cells + 1])
    with open(path, "w") as fh:
        fh.write(f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{n}\n")
        fh.write(_block("%d %.17g %.17g %.17g\n", nodes))
        fh.write(f"$EndNodes\n$Elements\n{m}\n")
        fh.write(_block(f"%d {etype} 2 0 0" + " %d" * (mesh.dim + 1) + "\n", elements))
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

    def read_numbers(count, context, dtype):
        """The next ``count`` numbers, however the lines spread them. They are
        first read as lines as wide as the first; only when that misses are
        the lines walked, to find where the section ends or fails."""
        start, total = rd.pos, 0
        width = len(rd.lines[start].split()) if count > 0 and not rd.at_end() else 0
        _, lines = rd.take(-(-count // width) if width else 0)
        try:
            if lines and lines[-1].strip():
                values = _loadtxt([" ".join(lines)], dtype)
                if len(values) == count:
                    return values
        except ValueError:
            pass
        rd.pos = start
        while total < count and not rd.at_end():
            total += len(rd.next(context).split())
        lines, rd.pos = rd.pos - start + (total < count), start
        values, _ = rd.section(lines, dtype, context)
        if total != count:
            rd.fail(f"{context}: expected {count} values, got {total}")
        return values

    def counts(parts, n, extra=0):
        """The ``n`` counts after a section keyword, then up to ``extra`` words."""
        if not n < len(parts) <= n + 1 + extra:
            rd.fail(f"{parts[0]} header needs {n} count(s), got {len(parts) - 1} fields")
        return rd.values(parts[1 : n + 1], int, parts[0])

    points = raw_cells = types = None
    while not rd.at_end():
        line = rd.next("section")
        if not line:
            continue
        parts = line.split()
        key = parts[0].upper()
        if key == "POINTS":
            (n,) = counts(parts, 1, extra=1)
            points = read_numbers(3 * n, "POINTS", float).reshape(n, 3)
        elif key == "CELLS":
            cells_line = rd.pos
            m, total = counts(parts, 2)
            raw_cells = (m, read_numbers(total, "CELLS", np.int64))
        elif key == "CELL_TYPES":
            types_line = rd.pos
            (m,) = counts(parts, 1)
            types = read_numbers(m, "CELL_TYPES", np.int64)
        else:
            break  # CELL_DATA and friends: nothing else we need
    if points is None or raw_cells is None or types is None:
        raise ParseError("missing POINTS, CELLS or CELL_TYPES", str(path))
    m, vals = raw_cells
    if len(types) != m:
        raise ParseError(f"CELL_TYPES lists {len(types)} cells, CELLS {m}", str(path), types_line)
    # Each cell is listed as "k id_1 ... id_k", so the next cell starts 1 + k
    # values on; doubling that jump finds the first m starts. A start whose
    # k is negative or runs past the values jumps to the end, len(vals).
    n, at = len(vals), np.arange(len(vals))
    fits = np.append((vals >= 0) & (vals < n - at), False)
    jump = np.where(fits, np.append(at + 1 + np.clip(vals, 0, n), n), n)
    starts = np.zeros(min(m, 1), dtype=np.int64)
    while len(starts) < m:
        starts, jump = np.append(starts, jump[starts]), jump[jump]
    starts = starts[:m]
    if not fits[starts].all():
        raise ParseError("CELLS: cell sizes do not match the values listed", str(path), cells_line)
    size = vals[starts]
    kept = ((types == _VTK_TRIANGLE) & (size == 3)) | ((types == _VTK_TET) & (size == 4))
    for t in types[~kept].tolist():
        logger.warning("%s: ignored VTK cell type %d", path, t)
    if not kept.any():
        return points, np.zeros((0, 4), dtype=np.int64)
    width = size[kept][0]
    if np.any(size[kept] != width):
        raise UnsupportedFormat(f"{path}: mixed cell dimensions")
    if not len(points):
        raise ParseError("CELLS lists cells, but POINTS lists no points", str(path), cells_line)
    cells = vals[starts[kept, None] + 1 + np.arange(width)]
    if width == 3:
        if np.abs(points[:, 2]).max() > 1e-12 * max(np.abs(points).max(), 1.0):
            raise UnsupportedFormat(f"{path}: triangle mesh with nonzero z")
        return points[:, :2], cells
    return points, cells


def _write_vtk(mesh, path, quality=None):
    m, k = mesh.n_cells, mesh.dim + 1
    ctype = _VTK_TET if mesh.dim == 3 else _VTK_TRIANGLE
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\nrrsmooth mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        fh.write(_block("%.17g %.17g %.17g\n", _xyz(mesh)))
        fh.write(f"CELLS {m} {m * (k + 1)}\n" + _block(f"{k}" + " %d" * k + "\n", mesh.cells))
        fh.write(f"CELL_TYPES {m}\n" + f"{ctype}\n" * m)
        if quality is not None:
            fh.write(f"CELL_DATA {m}\nSCALARS quality double 1\nLOOKUP_TABLE default\n")
            fh.write(_block("%.17g\n", quality))


def _read_native(path):
    rd = _LineReader(path)
    dim, nv, nc = rd.section(1, np.int64, "header 'dim nv nc'", range(3, 4))[0].tolist()
    if dim not in (2, 3):
        rd.fail(f"dim must be 2 or 3, got {dim}")
    if nv < 0 or nc < 0:
        rd.fail("vertex and cell counts must be non-negative")
    verts = rd.section(nv, float, "vertex", range(dim, dim + 1))[0].reshape(nv, dim)
    cells = rd.section(nc, np.int64, "cell", range(dim + 1, dim + 2))[0].reshape(nc, dim + 1)
    start, lines = rd.take(nv)
    kind = np.array([_TAGS.get((s.split(None, 1) or [""])[0], -1) for s in lines], np.int8)
    slide = np.flatnonzero(kind == SLIDE)
    normals = np.zeros((nv, dim))
    try:
        if len(lines) == nv and np.all(kind >= 0):
            rows = [lines[i] for i in slide.tolist()]
            if rows:
                normals[slide] = _loadtxt(rows, [("tag", "U5"), ("n", float, (dim,))])["n"]
            return verts, cells, kind, normals
    except ValueError:
        pass

    def check(parts):
        if not parts:
            return "empty constraint line", ()
        if parts[0] == "slide":
            return len(parts) != 1 + dim and f"slide tag needs {dim} normal components", parts[1:]
        return parts[0] not in _TAGS and f"unknown constraint tag {parts[0]!r}", ()

    rd.locate(start, lines, float, "constraint", check)


def _write_native(mesh, path):
    dim, kind = mesh.dim, mesh.constraint_kind
    slide = "slide" + " %.17g" * dim + "\n"
    tags = np.where(kind == FIXED, "fixed\n", np.where(kind == SLIDE, slide, "free\n"))
    with open(path, "w") as fh:
        fh.write(f"{dim} {mesh.n_vertices} {mesh.n_cells}\n")
        fh.write(_block(" ".join(["%.17g"] * dim) + "\n", mesh.vertices))
        fh.write(_block(" ".join(["%d"] * (dim + 1)) + "\n", mesh.cells))
        fh.write("".join(tags.tolist()) % tuple(mesh.slide_normals[kind == SLIDE].ravel().tolist()))
