import logging

import numpy as np
import pytest

from rrsmooth import mesh as m
from rrsmooth.errors import EmptyMesh, ParseError, UnsupportedFormat
from rrsmooth.generate import CUBE, SQUARE, GeneratorSpec, RandomJitter, gen_mesh, perturb_mesh
from rrsmooth.meshio import NATIVE, load_mesh, save_mesh, save_quality_overlay

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
        ],
    )
    def test_parse_error_at_the_line(self, tmp_path, text, old, new, line):
        path = tmp_path / ("bad.vtk" if text is TRIANGLE_VTK else "bad.txt")
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError) as exc:
            load_mesh(path)
        assert exc.value.path == str(path)
        assert exc.value.line == line

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

    def test_vtk_roundtrip(self, tmp_path):
        mesh = jittered_cube()
        path = tmp_path / "c.vtk"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.cells, mesh.cells)

    def test_unwritable_path_raises_oserror(self, tmp_path):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 2))
        with pytest.raises(OSError):
            save_mesh(mesh, tmp_path / "nope" / "deeper" / "x.vtk")


class TestFormatDetection:
    def test_unknown_extension(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            load_mesh(tmp_path / "mesh.obj")

    def test_explicit_format_overrides(self, tmp_path):
        mesh = gen_mesh(GeneratorSpec(SQUARE, 2))
        path = tmp_path / "weird.dat"
        save_mesh(mesh, path, fmt=NATIVE)
        loaded = load_mesh(path, fmt=NATIVE)
        np.testing.assert_array_equal(loaded.cells, mesh.cells)
