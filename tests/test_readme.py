"""The README's command-line block and library example run as written, the
names it exports exist, and the package exports exactly the names pinned here."""

import importlib
import inspect
import os
import pathlib
import re
import shlex
import subprocess
import sys

import rrsmooth

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"

# The names ``import rrsmooth`` exports, besides its submodules: widening or
# narrowing the library's surface means changing this set.
EXPORTS = {
    # assembly and the inversion cap
    "Preconditioner", "assemble", "assemble_preconditioner", "energy_gradient",
    "gradient_matrix", "write_matrix_market", "max_step_before_inversion",
    # errors
    "DegenerateElement", "DisconnectedMesh", "EmptyMesh", "IndefiniteMatrix", "InvalidSpec",
    "LineSearchFailed", "MeshError", "NoFixedVertices", "NonPlanarPatch", "ParseError",
    "UnsupportedFormat",
    # generators and perturbations
    "GeneratorSpec", "PlantSliver", "RandomJitter", "XorShift64Star", "gen_mesh", "perturb_mesh",
    # meshes
    "FIX_ALL", "SLIDE_PLANAR", "QualityStats", "SimplexMesh", "classify_boundary",
    "quality_stats", "repair_orientation", "validate",
    # optimizers
    "OptimizeConfig", "OptimizeReport", "backtracking_search", "cg_solve", "optimize",
    "strong_wolfe_search",
}


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_command_line_block_runs(tmp_path):
    (block,) = re.findall(r"```sh\n(.*?)```", section("Command line"), re.S)
    lines = [line for line in block.splitlines() if line and not line.startswith("#")]
    assert [line.split()[1] for line in lines] == ["gen", "perturb", "quality", "optimize", "optimize"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "rrsmooth"
        proc = subprocess.run(
            [sys.executable, "-m", "rrsmooth.cli", *argv[1:]],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, (line, proc.stderr)
        named = [arg for arg in argv if re.search(r"\.(msh|vtk|csv)$", arg)]
        assert named and all((tmp_path / name).is_file() for name in named), line


def test_library_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
    out = capsys.readouterr().out
    assert re.search(r"^termination  (grad_tol|energy_tol|max_iters)$", out, re.M)


def resolves(name):
    """Whether ``name`` is an attribute of rrsmooth or a ``rrsmooth.<module>`` path."""
    if not name.startswith("rrsmooth."):
        return hasattr(rrsmooth, name)
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        module, _, attr = name.rpartition(".")
        return hasattr(importlib.import_module(module), attr)
    return True


def test_exported_names_resolve():
    text = README.read_text()
    start = text.index("Lower-level pieces are exported too")
    paragraph = text[start : text.index("\n\n", start)]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert "rrsmooth.triangles" in names and "rrsmooth.tetrahedra" in names
    assert [n for n in names if not resolves(n)] == []


def test_the_package_exports_exactly_these_names():
    public = {
        name for name, value in vars(rrsmooth).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == EXPORTS
