import numpy as np
import pytest

from scipy.io import mmread

from rrsmooth.assembly import assemble_preconditioner, energy_gradient
from rrsmooth.cli import build_parser, main
from rrsmooth.generate import (
    CUBE,
    SQUARE,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    gen_mesh,
    perturb_mesh,
)
from rrsmooth.mesh import FIX_ALL, FREE, SimplexMesh, classify_boundary
from rrsmooth.meshio import load_mesh, save_mesh
from rrsmooth.optim import OptimizeConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenAndQuality:
    def test_gen_cube_then_quality(self, tmp_path, capsys):
        out = tmp_path / "cube.msh"
        code, stdout, _ = run(capsys, "gen", "--kind", "cube", "--n", "3", str(out))
        assert code == 0
        assert out.exists()
        code, stdout, _ = run(capsys, "quality", str(out))
        assert code == 0
        assert "min quality" in stdout
        min_q = float(
            next(l for l in stdout.splitlines() if l.startswith("min quality")).split()[-1]
        )
        assert min_q > 0

    def test_gen_invalid_n(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "cube", "--n", "0", str(tmp_path / "x.msh"))
        assert code == 1
        assert "error" in err

    def test_unknown_flag_exits_one_with_usage(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "cube", "--n", "2", "--frobnicate", "x.msh")
        assert code == 1
        assert "usage" in err


class TestPerturbAndOptimize:
    def test_full_pipeline_with_report(self, tmp_path, capsys):
        mesh_path = tmp_path / "cube.msh"
        pert_path = tmp_path / "pert.msh"
        out_path = tmp_path / "opt.msh"
        report = tmp_path / "r.csv"
        assert run(capsys, "gen", "--kind", "cube", "--n", "4", str(mesh_path))[0] == 0
        code, _, _ = run(
            capsys, "perturb", str(mesh_path), str(pert_path), "--sliver", "2", "0.02"
        )
        assert code == 0
        code, stdout, err = run(
            capsys,
            "optimize",
            str(pert_path),
            str(out_path),
            "--method", "plbfgs",
            "--max-iters", "30",
            "--report", str(report),
        )
        assert code == 0, err
        assert out_path.exists()
        lines = report.read_text().splitlines()
        assert lines[0] == (
            "iter,F,grad_norm,lambda,ls_evals,ls_kind,min_measure,"
            "slide_residual,cap,cap_cell,cg_iters,cg_residual,fallback,"
            "eval_s,p_build_s,cg_s,cap_s"
        )
        F = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(F) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(F, F[1:]))
        out_mesh = load_mesh(out_path)
        assert np.all(out_mesh.signed_measures() > 0)

    def test_jitter_deterministic_outputs(self, tmp_path, capsys):
        src = tmp_path / "sq.msh"
        a = tmp_path / "a.msh"
        b = tmp_path / "b.msh"
        run(capsys, "gen", "--kind", "square", "--n", "4", str(src))
        run(capsys, "perturb", str(src), str(a), "--jitter", "0.2", "--seed", "9")
        run(capsys, "perturb", str(src), str(b), "--jitter", "0.2", "--seed", "9")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_jitter_exits_one(self, tmp_path, capsys, amplitude):
        src = tmp_path / "c3.txt"
        out = tmp_path / "out.txt"
        run(capsys, "gen", "--kind", "cube", "--n", "3", str(src))
        code, _, err = run(capsys, "perturb", str(src), str(out), "--jitter", amplitude)
        assert code == 1
        assert err.startswith("error: ") and "amplitude" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count, eps", [("two", "0.01"), ("2", "tiny")])
    def test_sliver_with_a_non_number_exits_one(self, tmp_path, capsys, count, eps):
        src, out = tmp_path / "c3.txt", tmp_path / "out.txt"
        run(capsys, "gen", "--kind", "cube", "--n", "3", str(src))
        code, _, err = run(capsys, "perturb", str(src), str(out), "--sliver", count, eps)
        assert code == 1
        assert err == "error: --sliver expects COUNT (int) and EPS (float)\n"
        assert not out.exists()

    @pytest.mark.parametrize("dump", [False, True], ids=["without-dump", "with-dump"])
    def test_optimize_without_fixed_vertices_fails_with_two(self, tmp_path, capsys, dump):
        src = tmp_path / "sq.msh"
        out = tmp_path / "o.msh"
        prefix = tmp_path / "dump"
        run(capsys, "gen", "--kind", "square", "--n", "3", str(src))
        # 'keep' leaves every vertex free: the preconditioned method cannot run.
        # --dump-system writes G_F, skips P and leaves the run's end alone.
        code, _, err = run(
            capsys, "optimize", str(src), str(out), "--boundary", "keep",
            "--method", "plbfgs", "--max-iters", "5",
            *(["--dump-system", str(prefix)] if dump else []),
        )
        assert code == 2
        assert out.exists()  # partial outputs still written
        assert "preconditioner_error" in err
        assert ("not writing P: " in err) == dump
        assert (tmp_path / "dump_gf.mtx").exists() == dump
        assert not (tmp_path / "dump_p.mtx").exists()

    def test_zero_area_cell_exits_one(self, tmp_path, capsys):
        src = tmp_path / "flat.txt"
        out = tmp_path / "o.txt"
        # Cell 1 has its three vertices on the line y = x.
        src.write_text("2 4 2\n0 0\n1 0\n1 1\n2 2\n0 1 2\n0 2 3\n" + "free\n" * 4)
        code, _, err = run(capsys, "optimize", str(src), str(out))
        assert code == 1
        assert err.startswith("invalid mesh: non-positive-orientation[1]")
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def two_squares():
        """Two disjoint jittered squares, fixed at their boundaries."""
        square = perturb_mesh(
            gen_mesh(GeneratorSpec(SQUARE, 3)), RandomJitter(amplitude=0.2, seed=1)
        )
        return classify_boundary(SimplexMesh(
            np.vstack([square.vertices, square.vertices + [2.0, 0.0]]),
            np.vstack([square.cells, square.cells + square.n_vertices]),
        ), FIX_ALL), square.n_vertices

    @pytest.mark.parametrize("dump", [False, True], ids=["without-dump", "with-dump"])
    @pytest.mark.parametrize("method, expected", [("plbfgs", 2), ("lbfgs", 0)])
    def test_disconnected_mesh(self, tmp_path, capsys, method, expected, dump):
        # The second square's vertices are all free: P cannot be positive
        # definite, so the preconditioned method stops abnormally; lbfgs needs no P.
        two, half = self.two_squares()
        kind = two.constraint_kind.copy()
        kind[half:] = FREE
        src, out, report = tmp_path / "two.txt", tmp_path / "o.msh", tmp_path / "r.csv"
        save_mesh(SimplexMesh(two.vertices, two.cells, kind), src)
        code, _, err = run(
            capsys, "optimize", str(src), str(out), "--method", method, "--max-iters", "5",
            "--boundary", "keep", "--report", str(report),
            *(["--dump-system", str(tmp_path / "dump")] if dump else []),
        )
        assert code == expected, err
        assert out.exists() and report.exists()
        reason = f"vertex {half}'s component of the vertex graph has no fixed vertex"
        skipped = f"not writing P: {reason}\n"
        assert (skipped in err) == dump
        assert (reason in err.replace(skipped, "")) == (method == "plbfgs")
        assert (tmp_path / "dump_gf.mtx").exists() == dump
        assert not (tmp_path / "dump_p.mtx").exists()

    def test_parts_each_with_a_fixed_vertex_run(self, tmp_path, capsys):
        two, _ = self.two_squares()
        src, prefix = tmp_path / "two.msh", str(tmp_path / "dump")
        save_mesh(two, src)
        code, _, err = run(
            capsys, "optimize", str(src), str(tmp_path / "o.msh"), "--max-iters", "5",
            "--dump-system", prefix,
        )
        assert code == 0, err
        P = assemble_preconditioner(two).P
        assert (mmread(prefix + "_p.mtx").tocsr() != P).nnz == 0

    def test_a_node_only_a_point_element_uses(self, tmp_path, capsys):
        # Gmsh writes a point element (type 15) per geometry point. Its node
        # is a vertex no cell uses: P leaves it out, and it stays put.
        mesh = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 3)), PlantSliver(count=1, eps=0.01))
        n, m = mesh.n_vertices, mesh.n_cells
        nodes = [f"{i + 1} {x!r} {y!r} {z!r}" for i, (x, y, z) in enumerate(mesh.vertices.tolist())]
        tets = [f"{k + 2} 4 2 0 0 {a} {b} {c} {d}" for k, (a, b, c, d) in enumerate(mesh.cells + 1)]
        src, out = tmp_path / "points.msh", tmp_path / "o.msh"
        src.write_text("\n".join([
            "$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(n + 1), *nodes,
            f"{n + 1} 5 5 5", "$EndNodes", "$Elements", str(m + 1), f"1 15 2 0 0 {n + 1}",
            *tets, "$EndElements", "",
        ]))
        code, stdout, err = run(capsys, "optimize", str(src), str(out), "--max-iters", "30")
        assert code == 0, err
        assert "termination  grad_tol" in stdout
        assert load_mesh(out).vertices[n].tolist() == [5.0, 5.0, 5.0]

    @pytest.mark.parametrize(
        "flag, value",
        [("--grad-tol", "0"), ("--grad-tol", "nan"), ("--grad-tol", "inf"), ("--max-iters", "-1")],
    )
    def test_out_of_range_optimizer_flag_exits_one(self, tmp_path, capsys, flag, value):
        src = tmp_path / "sq.msh"
        out = tmp_path / "o.msh"
        run(capsys, "gen", "--kind", "square", "--n", "3", str(src))
        code, _, err = run(capsys, "optimize", str(src), str(out), flag, value)
        assert code == 1
        assert err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["quality", "optimize"])
    def test_malformed_number_exits_one(self, tmp_path, capsys, command):
        src = tmp_path / "bad.txt"
        src.write_text("2 3 1\n0 0\n1 x\n0 1\n0 1 2\nfree\nfree\nfree\n")
        argv = [str(src)] if command == "quality" else [str(src), str(tmp_path / "o.txt")]
        code, _, err = run(capsys, command, *argv)
        assert code == 1
        assert err.startswith(f"error: {src}:3: ")

    def test_vtk_cells_without_points_exit_one(self, tmp_path, capsys):
        src = tmp_path / "nopoints.vtk"
        src.write_text(
            "# vtk DataFile Version 2.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            "POINTS 0 double\nCELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n"
        )
        code, _, err = run(capsys, "quality", str(src))
        assert code == 1
        assert err.startswith(f"error: {src}:6: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["square", "cube"])
    def test_non_finite_vertex_is_reported_without_warnings(self, tmp_path, capsys, kind):
        src = tmp_path / "inf.txt"
        run(capsys, "gen", "--kind", kind, "--n", "2", str(src))
        lines = src.read_text().splitlines()
        lines[1] = " ".join(["inf"] + ["0"] * (len(lines[1].split()) - 1))
        src.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "quality", str(src))
        assert code == 1
        assert err.startswith("invalid mesh: non-finite-coordinate[0]")
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("index", ["7", "-1"])
    def test_cell_index_out_of_range_is_reported(self, tmp_path, capsys, index):
        src = tmp_path / "bad.txt"
        src.write_text(f"2 3 1\n0 0\n1 0\n0 1\n0 1 {index}\nfree\nfree\nfree\n")
        code, _, err = run(capsys, "quality", str(src))
        assert code == 1
        assert err.startswith("invalid mesh: index-out-of-range[0]")

    @pytest.mark.parametrize("normal", ["0 0", "0 2", "nan 1"], ids=["zero", "length-2", "nan"])
    def test_bad_slide_normal_exits_one(self, tmp_path, capsys, normal):
        src = tmp_path / "sq.txt"
        out = tmp_path / "o.txt"
        run(capsys, "gen", "--kind", "square", "--n", "4", str(src))
        lines = src.read_text().splitlines()
        first_tag = 1 + len(load_mesh(src).vertices) + len(load_mesh(src).cells)
        lines[first_tag] = f"slide {normal}"
        src.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "optimize", str(src), str(out), "--boundary", "keep", "--method", "lbfgs"
        )
        assert code == 1
        assert "invalid mesh: bad-slide-normal[0]" in err
        assert "error: " in err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "quality", str(tmp_path / "missing.msh"))
        assert code == 1

    def test_optimize_outputs_byte_identical_across_runs(self, tmp_path, capsys):
        src = tmp_path / "cube.msh"
        bad = tmp_path / "bad.msh"
        run(capsys, "gen", "--kind", "cube", "--n", "3", str(src))
        run(capsys, "perturb", str(src), str(bad), "--jitter", "0.2", "--seed", "1")
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.msh"
            rep = tmp_path / f"{tag}.csv"
            code, _, _ = run(
                capsys, "optimize", str(bad), str(out), "--method", "pnlcg",
                "--max-iters", "10", "--report", str(rep),
            )
            assert code == 0
            # The last four report columns, eval_s, p_build_s, cg_s and cap_s,
            # are wall-clock seconds; every other column must repeat to the byte.
            report = [line.rsplit(",", 4)[0] for line in rep.read_text().splitlines()]
            assert rep.read_text().splitlines()[0].endswith(",eval_s,p_build_s,cg_s,cap_s")
            outputs.append((out.read_bytes(), report))
        assert outputs[0] == outputs[1]

    def test_overlay_and_dump(self, tmp_path, capsys):
        src = tmp_path / "sq.msh"
        out = tmp_path / "o.msh"
        run(capsys, "gen", "--kind", "square", "--n", "3", str(src))
        code, _, _ = run(
            capsys, "optimize", str(src), str(out),
            "--method", "fixedpoint", "--max-iters", "3",
            "--overlay", str(tmp_path / "q.vtk"),
            "--dump-system", str(tmp_path / "dump"),
        )
        assert code == 0
        assert (tmp_path / "q.vtk").exists()
        gf = (tmp_path / "dump_gf.mtx").read_text().splitlines()
        assert gf[0] == "%%MatrixMarket matrix coordinate real general"
        assert (tmp_path / "dump_p.mtx").exists()

    @pytest.mark.parametrize("kind", ["square", "cube"])
    def test_dump_system_reads_back(self, tmp_path, capsys, kind):
        src = tmp_path / "in.msh"
        bad = tmp_path / "bad.msh"
        run(capsys, "gen", "--kind", kind, "--n", "3", str(src))
        run(capsys, "perturb", str(src), str(bad), "--jitter", "0.2", "--seed", "2")
        prefix = str(tmp_path / "dump")
        code, _, err = run(
            capsys, "optimize", str(bad), str(tmp_path / "o.msh"),
            "--max-iters", "1", "--dump-system", prefix,
        )
        assert code == 0, err
        mesh = classify_boundary(load_mesh(bad), FIX_ALL)
        gradient = energy_gradient(mesh)[1].T.ravel()
        gf = mmread(prefix + "_gf.mtx").tocsr()
        assert gf.shape == (mesh.dim * mesh.n_vertices,) * 2
        gv = gf @ mesh.vertices.T.ravel()
        assert np.linalg.norm(gv - gradient) <= 1e-12 * np.linalg.norm(gradient)
        # 17 significant digits round-trip every entry exactly.
        P = assemble_preconditioner(mesh).P
        assert (mmread(prefix + "_p.mtx").tocsr() != P).nnz == 0

    def test_dump_system_with_every_vertex_fixed(self, tmp_path, capsys):
        # P has no rows; building its pattern used to raise IndexError.
        src = str(tmp_path / "in.msh")
        run(capsys, "gen", "--kind", "cube", "--n", "1", src)
        prefix = str(tmp_path / "dump")
        code, _, err = run(
            capsys, "optimize", src, str(tmp_path / "o.msh"), "--dump-system", prefix
        )
        assert code == 0, err
        assert (tmp_path / "dump_p.mtx").read_text().splitlines()[1] == "0 0 0"

    @pytest.mark.parametrize("boundary", [FIX_ALL, "slide-planar"])
    def test_dumped_p_mirrors_every_entry(self, tmp_path, capsys, boundary):
        src, jittered, bad = (str(tmp_path / name) for name in ("in.msh", "j.msh", "bad.msh"))
        run(capsys, "gen", "--kind", "cube", "--n", "4", src)
        run(capsys, "perturb", src, jittered, "--jitter", "0.2", "--seed", "10")
        run(capsys, "perturb", jittered, bad, "--sliver", "2", "0.05", "--seed", "1")
        prefix = str(tmp_path / "dump")
        code, _, err = run(
            capsys, "optimize", bad, str(tmp_path / "o.msh"), "--boundary", boundary,
            "--max-iters", "1", "--dump-system", prefix,
        )
        assert code == 0, err
        lines = (tmp_path / "dump_p.mtx").read_text().splitlines()[2:]
        entries = {tuple(line.split()) for line in lines}
        assert len(entries) == len(lines) > 0
        assert {(j, i, v) for i, j, v in entries} == entries


def test_optimize_defaults_are_optimize_configs():
    args = build_parser().parse_args(["optimize", "a.msh", "b.msh"])
    defaults = OptimizeConfig()
    assert (args.method, args.max_iters, args.grad_tol) == (
        defaults.method, defaults.max_iters, defaults.grad_tol
    )
