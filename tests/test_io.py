import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrsmooth import mesh as m
from rrsmooth.errors import EmptyMesh, MeshError, ParseError, UnsupportedFormat
from rrsmooth.generate import CUBE, SQUARE, GeneratorSpec, RandomJitter, gen_mesh, perturb_mesh
from rrsmooth.meshio import load_mesh, save_mesh, save_quality_overlay

MINIMAL_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 1 0 0
3 0 1 0
$EndNodes
$Elements
1
1 2 2 0 0 1 2 3
$EndElements
"""


# One tet and one of its faces as a boundary triangle, in each mesher format.
HULL_MSH = (
    "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
    "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n$EndNodes\n"
    "$Elements\n2\n1 2 2 0 0 1 3 2\n2 4 2 0 0 1 2 3 4\n$EndElements\n"
)
HULL_VTK = (
    "# vtk DataFile Version 2.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
    "POINTS 4 double\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
    "CELLS 2 9\n3 0 2 1\n4 0 1 2 3\nCELL_TYPES 2\n5\n10\n"
)


def jittered_cube(n=2, seed=5):
    return perturb_mesh(gen_mesh(GeneratorSpec(CUBE, n)), RandomJitter(0.2, seed))


class TestMsh:
    def test_minimal_triangle_file(self, tmp_path):
        path = tmp_path / "tri.msh"
        path.write_text(MINIMAL_MSH)
        mesh = load_mesh(path)
        assert mesh.dim == 2
        assert mesh.n_cells == 1
        assert mesh.n_vertices == 3

    def test_negative_tet_repaired_and_logged(self, tmp_path, caplog):
        path = tmp_path / "tet.msh"
        path.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n$EndNodes\n"
            "$Elements\n1\n1 4 2 0 0 1 2 4 3\n$EndElements\n"  # inverted order
        )
        with caplog.at_level(logging.INFO):
            mesh = load_mesh(path)
        assert mesh.signed_measures()[0] > 0
        assert any("repaired orientation of 1" in r.message for r in caplog.records)

    def test_truncated_nodes_reports_line(self, tmp_path):
        path = tmp_path / "trunc.msh"
        path.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n5\n1 0 0 0\n2 1 0 0\n"
        )
        with pytest.raises(ParseError) as exc:
            load_mesh(path)
        assert exc.value.line is not None

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v4.msh"
        path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        with pytest.raises(UnsupportedFormat):
            load_mesh(path)

    def test_ignored_element_types_warn(self, tmp_path, caplog):
        path = tmp_path / "mixed.msh"
        path.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
            "$Elements\n3\n1 15 2 0 0 1\n2 1 2 0 0 1 2\n3 2 2 0 0 1 2 3\n$EndElements\n"
        )
        with caplog.at_level(logging.WARNING):
            mesh = load_mesh(path)
        assert mesh.n_cells == 1
        assert any("ignored unsupported element types" in r.message for r in caplog.records)

    def test_empty_mesh_raises(self, tmp_path):
        path = tmp_path / "empty.msh"
        path.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            "$Nodes\n1\n1 0 0 0\n$EndNodes\n$Elements\n0\n$EndElements\n"
        )
        with pytest.raises(EmptyMesh):
            load_mesh(path)

    @pytest.mark.parametrize("ext", ["msh", "vtk"])
    def test_surface_triangles_beside_tets_are_ignored(self, tmp_path, caplog, ext):
        path = tmp_path / f"hull.{ext}"
        path.write_text(HULL_MSH if ext == "msh" else HULL_VTK)
        with caplog.at_level(logging.WARNING):
            mesh = load_mesh(path)
        assert mesh.dim == 3 and mesh.cells.tolist() == [[0, 1, 2, 3]]
        assert [r.message for r in caplog.records] == [
            f"{path}: 1 surface triangles ignored in favor of 1 tets"
        ]

    def test_roundtrip_coordinates_exact(self, tmp_path):
        mesh = jittered_cube()
        p1 = tmp_path / "a.msh"
        p2 = tmp_path / "b.msh"
        save_mesh(mesh, p1)
        loaded = load_mesh(p1)
        save_mesh(loaded, p2)
        again = load_mesh(p2)
        np.testing.assert_array_equal(loaded.vertices, again.vertices)
        np.testing.assert_array_equal(loaded.cells, again.cells)
        # 17 significant digits reproduce the doubles exactly.
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)


class TestNative:
    def test_roundtrip_byte_exact(self, tmp_path):
        mesh = jittered_cube()
        tagged = m.classify_boundary(mesh, m.SLIDE_PLANAR)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_mesh(tagged, p1)
        loaded = load_mesh(p1)
        save_mesh(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.vertices, tagged.vertices)
        np.testing.assert_array_equal(loaded.cells, tagged.cells)
        np.testing.assert_array_equal(loaded.constraint_kind, tagged.constraint_kind)
        np.testing.assert_array_equal(loaded.slide_normals, tagged.slide_normals)

    def test_2d_roundtrip(self, tmp_path):
        mesh = m.classify_boundary(gen_mesh(GeneratorSpec(SQUARE, 3)), m.FIX_ALL)
        path = tmp_path / "sq.txt"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        assert loaded.dim == 2
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.constraint_kind, mesh.constraint_kind)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kind", [SQUARE, CUBE])
    def test_non_finite_vertex_loads_for_validate_to_report(self, tmp_path, kind, value):
        # The suite turns numpy's warnings into errors, so a signed measure
        # taken on the non-finite row would fail the load.
        mesh = gen_mesh(GeneratorSpec(kind, 2))
        path = tmp_path / "bad.txt"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        lines[1] = " ".join([value] + ["0"] * (mesh.dim - 1))
        last = 1 + mesh.n_vertices + mesh.n_cells - 1
        assert 0 not in mesh.cells[-1]
        *head, a, b = lines[last].split()
        lines[last] = " ".join([*head, b, a])  # still repaired on load
        path.write_text("\n".join(lines) + "\n")
        loaded = load_mesh(path)
        np.testing.assert_array_equal(loaded.cells, mesh.cells)
        assert [(v.rule, v.index) for v in m.validate(loaded)] == [("non-finite-coordinate", 0)]

    def test_bad_tag_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3 1\n0 0\n1 0\n0 1\n0 1 2\nfree\nfree\npinned\n")
        with pytest.raises(ParseError) as exc:
            load_mesh(path)
        assert exc.value.line == 8


TRIANGLE_VTK = """# vtk DataFile Version 2.0
t
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 3 double
0 0 0
1 0 0
0 1 0
CELLS 1 4
3 0 1 2
CELL_TYPES 1
5
"""

TRIANGLE_TXT = "2 3 1\n0 0\n1 0\n0 1\n0 1 2\nfree\nfree\nfree\n"


class TestMalformedNumbers:
    """Every malformed number or count is a ParseError naming file and line."""

    @pytest.mark.parametrize(
        "text, old, new, line",
        [
            pytest.param(TRIANGLE_VTK, "1 0 0\n", "1 0 zz\n", 7, id="points"),
            pytest.param(
                TRIANGLE_VTK, "CELL_TYPES 1\n5\n", "CELL_TYPES 2\n5\n5\n", 11,
                id="cell-types-count",
            ),
            pytest.param(TRIANGLE_VTK, "CELLS 1 4\n", "CELLS 1\n", 9, id="cells-header"),
            pytest.param(TRIANGLE_VTK, "3 0 1 2\n", "7 0 1 2\n", 9, id="cell-size"),
            pytest.param(TRIANGLE_TXT, "1 0\n", "1 x\n", 3, id="vertex"),
            pytest.param(TRIANGLE_TXT, "0 1 2\n", "0 1 two\n", 5, id="cell"),
            pytest.param(
                TRIANGLE_TXT, "free\nfree\nfree\n", "free\n\nfree\n", 7, id="empty-constraint"
            ),
            pytest.param(
                TRIANGLE_TXT, "free\nfree\nfree\n", "free\nslide 0 y\nfree\n", 7, id="slide-normal"
            ),
            pytest.param(TRIANGLE_TXT, "1 0\n", "1 0 0\n", 3, id="vertex-fields"),
            pytest.param(TRIANGLE_TXT, "free\nfree\nfree\n", "free\nfree\n", 8, id="txt-eof"),
            pytest.param(TRIANGLE_TXT, "2 3 1\n", "2 3\n", 1, id="txt-header"),
            pytest.param(MINIMAL_MSH, "2 1 0 0\n", "2 1 zz 0\n", 7, id="msh-node"),
            pytest.param(MINIMAL_MSH, "2 1 0 0\n", "2.0 1 0 0\n", 7, id="msh-node-id"),
            pytest.param(MINIMAL_MSH, "3 0 1 0\n", "3 0 1\n", 8, id="msh-node-fields"),
            pytest.param(MINIMAL_MSH, "0 1 2 3\n", "0 1 2 x3\n", 12, id="msh-element"),
            pytest.param(MINIMAL_MSH, "1 2 2 0 0 1 2 3\n", "1 2\n", 12, id="msh-element-fields"),
            pytest.param(
                MINIMAL_MSH, "1\n1 2 2 0 0 1 2 3\n", "2\n1 2\n2 2 2 0 0 1 2 x\n", 12,
                id="msh-first-error-wins",
            ),
            pytest.param(MINIMAL_MSH, "1\n1 2 2 0 0", "2\n1 2 2 0 0", 13, id="msh-element-count"),
            pytest.param(
                MINIMAL_MSH, "1 2 2 0 0 1 2 3\n", "1 2 -3 1 2 3\n", 12, id="msh-negative-tags",
            ),
            pytest.param(
                MINIMAL_MSH, "1 2 2 0 0 1 2 3\n", "1 2 9 0 0 1 2 3\n", 12, id="msh-tags-past-the-end",
            ),
            pytest.param(MINIMAL_MSH, "2 1 0 0\n", "2 1_0 0 0\n", 7, id="digit-separator"),
            pytest.param(TRIANGLE_TXT, "0 1 2\n", "0 1 99999999999999999999\n", 5, id="int64-overflow"),
            pytest.param(TRIANGLE_TXT, "2 3 1\n", "4 3 1\n", 1, id="txt-dim"),
            pytest.param(TRIANGLE_TXT, "2 3 1\n", "2 -3 1\n", 1, id="txt-count"),
            pytest.param(MINIMAL_MSH, "$Nodes\n3\n", "$Nodes\nthree\n", 5, id="msh-node-count"),
            pytest.param(MINIMAL_MSH, "$EndMeshFormat\n", "$EndFormat\n", 3, id="msh-end-format"),
            pytest.param(MINIMAL_MSH, "$EndNodes\n", "$EndNode\n", 9, id="msh-end-nodes"),
            pytest.param(MINIMAL_MSH, "$EndElements\n", "$End\n", 13, id="msh-end-elements"),
            pytest.param(
                MINIMAL_MSH, "$EndElements\n", "$EndElements\n$Comments\nnote\n", 16,
                id="msh-unterminated-section",
            ),
            pytest.param(
                MINIMAL_MSH, "$Elements\n1\n1 2 2 0 0 1 2 3\n$EndElements\n", "", None,
                id="msh-no-elements",
            ),
            pytest.param(MINIMAL_MSH, "3 0 1 0\n", "2 0 1 0\n", None, id="msh-duplicate-node-id"),
            pytest.param(MINIMAL_MSH, "0 1 2 3\n", "0 1 2 4\n", None, id="msh-unknown-node-id"),
            pytest.param(TRIANGLE_VTK, "0 1 0\n", "0 1 0 5\n", 8, id="vtk-value-count"),
            pytest.param(TRIANGLE_VTK, "CELL_TYPES 1\n5\n", "", None, id="vtk-no-cell-types"),
        ],
    )
    def test_parse_error_at_the_line(self, tmp_path, text, old, new, line):
        ext = {TRIANGLE_VTK: "vtk", TRIANGLE_TXT: "txt", MINIMAL_MSH: "msh"}[text]
        path = tmp_path / f"bad.{ext}"
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError) as exc:
            load_mesh(path)
        assert exc.value.path == str(path)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, old, new",
        [
            pytest.param(MINIMAL_MSH, "2.2 0 8", "2.2 1 8", id="msh-binary"),
            pytest.param(MINIMAL_MSH, "3 0 1 0\n", "3 0 1 1\n", id="msh-triangles-in-3d"),
            pytest.param(TRIANGLE_VTK, "# vtk DataFile", "# DataFile", id="vtk-header"),
            pytest.param(TRIANGLE_VTK, "ASCII", "BINARY", id="vtk-encoding"),
            pytest.param(TRIANGLE_VTK, "UNSTRUCTURED_GRID", "POLYDATA", id="vtk-dataset"),
            pytest.param(TRIANGLE_VTK, "0 1 0\n", "0 1 1\n", id="vtk-triangles-in-3d"),
        ],
    )
    def test_unsupported_dialect(self, tmp_path, text, old, new):
        path = tmp_path / f"odd.{'vtk' if text is TRIANGLE_VTK else 'msh'}"
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(UnsupportedFormat, match=str(path)):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text, old, new",
        [
            pytest.param(
                MINIMAL_MSH, "$Nodes\n",
                '\n$PhysicalNames\n1\n2 1 "x"\n$EndPhysicalNames\n\n$Nodes\n',
                id="msh-blank-lines-and-unknown-section",
            ),
            pytest.param(TRIANGLE_VTK, "CELLS", "\nCELLS", id="vtk-blank-line"),
        ],
    )
    def test_blank_lines_and_unknown_sections_are_skipped(self, tmp_path, text, old, new):
        plain, padded = tmp_path / "plain.msh", tmp_path / "padded.msh"
        if text is TRIANGLE_VTK:
            plain, padded = plain.with_suffix(".vtk"), padded.with_suffix(".vtk")
        plain.write_text(text)
        padded.write_text(text.replace(old, new, 1))
        a, b = load_mesh(plain), load_mesh(padded)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.cells.tobytes() == b.cells.tobytes()

    def test_vtk_without_triangles_or_tets_is_empty(self, tmp_path):
        path = tmp_path / "lines.vtk"
        line = "CELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n"
        path.write_text(TRIANGLE_VTK.replace(line, "CELLS 1 3\n2 0 1\nCELL_TYPES 1\n3\n"))
        with pytest.raises(EmptyMesh):
            load_mesh(path)

    @pytest.mark.parametrize("text", [TRIANGLE_VTK, TRIANGLE_TXT], ids=["vtk", "txt"])
    def test_the_unchanged_files_load(self, tmp_path, text):
        path = tmp_path / ("ok.vtk" if text is TRIANGLE_VTK else "ok.txt")
        path.write_text(text)
        assert load_mesh(path).n_cells == 1


class TestVtk:
    def test_quality_overlay_two_triangle_square(self, tmp_path):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = m.SimplexMesh(verts, cells)
        path = tmp_path / "sq.vtk"
        save_quality_overlay(mesh, path)
        text = path.read_text()
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert "CELL_DATA 2" in text
        assert "SCALARS quality double 1" in text
        tail = text.splitlines()[-2:]
        for q in tail:
            assert float(q) == pytest.approx(0.82842712474619, rel=1e-12)

    def test_cells_without_points_raise_a_typed_error(self, tmp_path):
        path = tmp_path / "nopoints.vtk"
        path.write_text(TRIANGLE_VTK.replace("POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\n", "POINTS 0 double\n"))
        with pytest.raises(MeshError) as exc:
            load_mesh(path)
        assert isinstance(exc.value, ParseError)
        assert exc.value.line == 6

    def test_vtk_roundtrip(self, tmp_path):
        mesh = jittered_cube()
        path = tmp_path / "c.vtk"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.cells, mesh.cells)

    def test_any_line_layout_and_cell_sizes_load_alike(self, tmp_path, caplog):
        # Points 9 numbers to a line (VTK's own writer), cells of mixed sizes
        # two to a line, types on one line: the reader walks these lines.
        mesh = jittered_cube()
        canonical = tmp_path / "c.vtk"
        save_mesh(mesh, canonical)
        xyz = canonical.read_text().split("POINTS")[1].split("\n", 1)[1].split("CELLS")[0].split()
        cells = [f"4 {a} {b} {c} {d}" for a, b, c, d in mesh.cells.tolist()] + ["2 0 1", "1 5"]
        types = ["10"] * mesh.n_cells + ["3", "1"]
        path = tmp_path / "wrapped.vtk"
        path.write_text(
            "# vtk DataFile Version 2.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {mesh.n_vertices} double\n"
            + "".join(" ".join(xyz[i : i + 9]) + "\n" for i in range(0, len(xyz), 9))
            + f"CELLS {len(cells)} {sum(len(c.split()) for c in cells)}\n"
            + "".join(" ".join(cells[i : i + 2]) + "\n" for i in range(0, len(cells), 2))
            + f"CELL_TYPES {len(types)}\n{' '.join(types)}\n"
        )
        with caplog.at_level(logging.WARNING):
            loaded = load_mesh(path)
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.cells, mesh.cells)
        assert [r.message for r in caplog.records if "ignored" in r.message] == [
            f"{path}: ignored unsupported element types {{1: 1, 3: 1}}"
        ]
        text = path.read_text().replace("2 0 1 1 5", "2 0 1 9 5")
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_mesh(path)
        assert "cell sizes do not match" in str(exc.value)
        assert exc.value.line == 5 + -(-len(xyz) // 9) + 1

    def test_every_cell_kind_in_one_file_loads_the_tets(self, tmp_path, caplog):
        # A vertex, a line, a boundary triangle and the tet: one warning each
        # for the skipped types and for the surface triangle.
        path = tmp_path / "all.vtk"
        path.write_text(HULL_VTK.replace(
            "CELLS 2 9\n3 0 2 1\n4 0 1 2 3\nCELL_TYPES 2\n5\n10\n",
            "CELLS 4 14\n1 3\n2 0 1\n3 0 2 1\n4 0 1 2 3\nCELL_TYPES 4\n1\n3\n5\n10\n",
        ))
        with caplog.at_level(logging.WARNING):
            mesh = load_mesh(path)
        assert mesh.dim == 3 and mesh.cells.tolist() == [[0, 1, 2, 3]]
        assert [r.message for r in caplog.records] == [
            f"{path}: ignored unsupported element types {{1: 1, 3: 1}}",
            f"{path}: 1 surface triangles ignored in favor of 1 tets",
        ]

    def test_a_quality_overlay_reads_back_as_its_mesh(self, tmp_path):
        # The reader stops at CELL_DATA: the quality scalars are no mesh data.
        mesh = jittered_cube()
        path = tmp_path / "q.vtk"
        save_quality_overlay(mesh, path)
        assert "CELL_DATA" in path.read_text()
        loaded = load_mesh(path)
        assert loaded.vertices.tobytes() == mesh.vertices.tobytes()
        assert loaded.cells.tobytes() == mesh.cells.tobytes()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 2))
        with pytest.raises(OSError):
            save_mesh(mesh, tmp_path / "nope" / "deeper" / "x.vtk")


class TestFormatDetection:
    def test_unknown_extension(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            load_mesh(tmp_path / "mesh.obj")


# Reference writers: one formatted line at a time, as the writers were before
# they built each block as one string. The writers must match them byte for byte.


def reference_msh(mesh, path):
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{mesh.n_vertices}\n")
        for i, v in enumerate(mesh.vertices):
            x, y = v[0], v[1]
            z = v[2] if mesh.dim == 3 else 0.0
            fh.write(f"{i + 1} {x:.17g} {y:.17g} {z:.17g}\n")
        fh.write("$EndNodes\n")
        etype = 4 if mesh.dim == 3 else 2
        fh.write(f"$Elements\n{mesh.n_cells}\n")
        for i, cell in enumerate(mesh.cells):
            ids = " ".join(str(v + 1) for v in cell)
            fh.write(f"{i + 1} {etype} 2 0 0 {ids}\n")
        fh.write("$EndElements\n")


def reference_vtk(mesh, path, quality=None):
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
        ctype = 10 if mesh.dim == 3 else 5
        for _ in range(mesh.n_cells):
            fh.write(f"{ctype}\n")
        if quality is not None:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            fh.write("SCALARS quality double 1\nLOOKUP_TABLE default\n")
            for q in quality:
                fh.write(f"{q:.17g}\n")


def reference_native(mesh, path):
    with open(path, "w") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n")
        for v in mesh.vertices:
            fh.write(" ".join(f"{c:.17g}" for c in v) + "\n")
        for cell in mesh.cells:
            fh.write(" ".join(str(v) for v in cell) + "\n")
        for i in range(mesh.n_vertices):
            k = mesh.constraint_kind[i]
            if k == m.FIXED:
                fh.write("fixed\n")
            elif k == m.SLIDE:
                n = " ".join(f"{c:.17g}" for c in mesh.slide_normals[i])
                fh.write(f"slide {n}\n")
            else:
                fh.write("free\n")


def awkward_numbers(mesh):
    """``mesh`` with a few vertices moved to -0.0, a subnormal and 1e300."""
    verts = mesh.vertices.copy()
    verts[0, 0], verts[1, -1], verts[2, 0] = -0.0, 5e-324, 1e300
    return m.SimplexMesh(verts, mesh.cells, mesh.constraint_kind, mesh.slide_normals)


WRITTEN = ["square", "cube", "awkward-square", "awkward-cube"]


def written(name, policy=None):
    """A jittered square or cube, classified under ``policy`` if given."""
    mesh = jittered_cube() if name.endswith("cube") else perturb_mesh(
        gen_mesh(GeneratorSpec(SQUARE, 4)), RandomJitter(0.2, 5)
    )
    if policy is not None:
        mesh = m.classify_boundary(mesh, policy)
    return awkward_numbers(mesh) if name.startswith("awkward") else mesh


class TestWritersMatchTheReference:
    @pytest.mark.parametrize("name", WRITTEN)
    @pytest.mark.parametrize("ext, reference", [("msh", reference_msh), ("vtk", reference_vtk)])
    def test_same_bytes(self, tmp_path, name, ext, reference):
        mesh = written(name)
        save_mesh(mesh, tmp_path / f"a.{ext}")
        reference(mesh, tmp_path / f"b.{ext}")
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()

    @pytest.mark.parametrize("name", WRITTEN)
    @pytest.mark.parametrize("policy", [m.FIX_ALL, m.SLIDE_PLANAR])
    def test_same_native_bytes_under_each_policy(self, tmp_path, name, policy):
        mesh = written(name, policy)
        assert (mesh.constraint_kind == m.SLIDE).any() == (policy == m.SLIDE_PLANAR)
        save_mesh(mesh, tmp_path / "a.txt")
        reference_native(mesh, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize("name", ["square", "cube"])
    def test_same_quality_overlay_bytes(self, tmp_path, name):
        mesh = written(name)
        save_quality_overlay(mesh, tmp_path / "a.vtk")
        reference_vtk(mesh, tmp_path / "b.vtk", quality=1.0 / mesh.geometry().mu)
        assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()

    def test_empty_mesh_writes_empty_blocks(self, tmp_path):
        mesh = m.SimplexMesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64))
        for ext, reference in [("msh", reference_msh), ("vtk", reference_vtk), ("txt", reference_native)]:
            save_mesh(mesh, tmp_path / f"a.{ext}")
            reference(mesh, tmp_path / f"b.{ext}")
            assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()


AWKWARD = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])
COORDINATE = st.one_of(AWKWARD, st.floats(allow_nan=False, allow_infinity=False))


class TestRoundTripBits:
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        dim=st.sampled_from([2, 3]),
        coords=st.lists(COORDINATE, min_size=12, max_size=12),
        ext=st.sampled_from(["msh", "vtk", "txt"]),
    )
    def test_every_format_reads_back_its_vertices_bit_for_bit(self, tmp_path_factory, dim, coords, ext):
        verts = np.array(coords[: 4 * dim]).reshape(4, dim)
        cells = np.array([[0, 1, 2], [0, 2, 3]]) if dim == 2 else np.array([[0, 1, 2, 3]])
        path = tmp_path_factory.mktemp("rt") / f"m.{ext}"
        save_mesh(m.SimplexMesh(verts, cells), path)
        # Huge or tiny coordinates overflow or underflow the orientation check
        # on load; only the parsed bits are under test here.
        with np.errstate(all="ignore"):
            loaded = load_mesh(path)
        assert loaded.vertices.tobytes() == verts.tobytes()
