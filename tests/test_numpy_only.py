"""The library and the CLI's optimize path run on numpy alone.

scipy costs a cold start more than a small solve, so only the calls that
build a scipy matrix import it. ``numpy.ma`` costs about 16 ms, and numpy
imports it on the first ``np.unique`` call, so the path makes none. Each
check runs in a fresh interpreter, where nothing else has imported either.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import os, sys

def check(stage):
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, f"after {stage}: {loaded[:5]}"
    assert "numpy.ma" not in sys.modules, f"after {stage}: numpy.ma"

import rrsmooth
import rrsmooth.cli
check("import rrsmooth, rrsmooth.cli")

from rrsmooth import (
    FIX_ALL, SLIDE_PLANAR, GeneratorSpec, OptimizeConfig, PlantSliver, RandomJitter,
    classify_boundary, gen_mesh, optimize, perturb_mesh, validate,
)
from rrsmooth.meshio import load_mesh, save_mesh

work = sys.argv[1]
path = lambda name: os.path.join(work, name)
cube = perturb_mesh(gen_mesh(GeneratorSpec("cube", 3)), PlantSliver(1, 0.01))
save_mesh(cube, path("in.msh"))
cube = load_mesh(path("in.msh"))
assert not validate(cube)
for policy in (FIX_ALL, SLIDE_PLANAR):
    classify_boundary(cube, policy)
check("load, validate and classify under both policies")
_, report = optimize(classify_boundary(cube, FIX_ALL), OptimizeConfig("plbfgs", max_iters=10))
assert report.iterations > 0 and any(r.cg_iters for r in report.records)
check("a plbfgs optimize")

square = perturb_mesh(gen_mesh(GeneratorSpec("square", 6)), RandomJitter(0.3, 1))
_, report = optimize(classify_boundary(square, SLIDE_PLANAR), OptimizeConfig("fixedpoint", max_iters=10))
assert report.iterations > 0
check("a slide-planar fixedpoint optimize")

argv = ["optimize", path("in.msh"), path("out.msh"), "--overlay", path("o.vtk"),
        "--report", path("r.csv"), "--max-iters", "10"]
assert rrsmooth.cli.main(argv) == 0
assert all(os.path.exists(path(name)) for name in ("out.msh", "o.vtk", "r.csv"))
check("rrsmooth optimize")
print("numpy only")
"""


def test_import_and_optimize_leave_scipy_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "numpy only"
