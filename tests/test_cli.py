import numpy as np
import pytest

from scipy.io import mmread

from rrsmooth.assembly import assemble, assemble_preconditioner, field_to_vec
from rrsmooth.cli import main
from rrsmooth.mesh import FIX_ALL, classify_boundary
from rrsmooth.meshio import load_mesh


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
            "slide_residual,cap,cg_iters,cg_residual,fallback,"
            "eval_s,p_build_s,cg_s"
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

    def test_optimize_without_fixed_vertices_fails_with_two(self, tmp_path, capsys):
        src = tmp_path / "sq.msh"
        out = tmp_path / "o.msh"
        run(capsys, "gen", "--kind", "square", "--n", "3", str(src))
        # 'keep' leaves every vertex free: the preconditioned method cannot run.
        code, _, err = run(
            capsys, "optimize", str(src), str(out), "--boundary", "keep",
            "--method", "plbfgs", "--max-iters", "5",
        )
        assert code == 2
        assert out.exists()  # partial outputs still written

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
            # The last three report columns, eval_s, p_build_s and cg_s, are
            # wall-clock seconds; every other column must repeat to the byte.
            report = [line.rsplit(",", 3)[0] for line in rep.read_text().splitlines()]
            assert rep.read_text().splitlines()[0].endswith(",eval_s,p_build_s,cg_s")
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
        system = assemble(mesh)
        gf = mmread(prefix + "_gf.mtx").tocsr()
        assert gf.shape == (mesh.dim * mesh.n_vertices,) * 2
        gv = gf @ field_to_vec(mesh.vertices)
        assert np.linalg.norm(gv - system.gradient) <= 1e-12 * np.linalg.norm(system.gradient)
        # 17 significant digits round-trip every entry exactly.
        P = assemble_preconditioner(mesh).P
        assert (mmread(prefix + "_p.mtx").tocsr() != P).nnz == 0
