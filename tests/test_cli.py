import numpy as np
import pytest

from rrsmooth.cli import main
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
            "iter,F,grad_norm,lambda,ls_evals,ls_kind,armijo_ok,curvature_ok,"
            "min_measure,slide_residual"
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
            outputs.append((out.read_bytes(), rep.read_bytes()))
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
