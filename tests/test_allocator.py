"""The first ``optimize`` keeps freed heap mapped between evaluations.

glibc's default trims the freed top of the heap back to the OS once it
exceeds a threshold that follows the largest block freed so far. An
evaluation frees a few MB of kernel temporaries, so on a cube6 sliver mesh
every lbfgs run faulted about 8000 pages back in. The fault counts run in a
fresh interpreter, where nothing else has moved glibc's thresholds.
"""

import ctypes
import os
import platform
import subprocess
import sys

import pytest

from rrsmooth import FIX_ALL, GeneratorSpec, OptimizeConfig, PlantSliver, RandomJitter
from rrsmooth import classify_boundary, gen_mesh, optim, perturb_mesh

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import resource
import numpy as np

def faults(run):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

def churn():
    # 16 MiB in 64 KiB arrays, freed together: more than glibc's default
    # trim threshold keeps, less than optimize's. Blocks this small come from
    # the heap either way, and freeing them leaves glibc's thresholds alone.
    arrays = [np.ones(1 << 13) for _ in range(256)]
    del arrays

def churn_faults():
    churn()
    churn()
    return faults(churn)

from rrsmooth import (
    FIX_ALL, GeneratorSpec, OptimizeConfig, PlantSliver, RandomJitter,
    classify_boundary, gen_mesh, optimize, perturb_mesh,
)

after_import = churn_faults()
mesh = perturb_mesh(gen_mesh(GeneratorSpec("cube", 6)), RandomJitter(0.1, 6))
mesh = classify_boundary(perturb_mesh(mesh, PlantSliver(5, 0.01)), FIX_ALL)
config = OptimizeConfig("lbfgs", max_iters=50, grad_tol_abs=1e-5)
optimize(mesh, config)
second = faults(lambda: optimize(mesh, config))
print(after_import, second, churn_faults())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_second_optimize_faults_no_pages_back_in(tmp_path):
    # glibc reads its thresholds from the environment too; keep its defaults.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120,
        env=dict(env, PYTHONPATH=SRC), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, second, after_optimize = map(int, proc.stdout.split())
    # Importing leaves glibc's default, which hands the 4096 pages back.
    assert after_import > 2000
    assert second < 200
    assert after_optimize < 200


def _solve():
    mesh = perturb_mesh(gen_mesh(GeneratorSpec("cube", 4)), RandomJitter(0.1, 6))
    mesh = classify_boundary(perturb_mesh(mesh, PlantSliver(3, 0.01)), FIX_ALL)
    out, report = optim.optimize(mesh, OptimizeConfig("lbfgs", grad_tol_abs=1e-5))
    return out.vertices.tobytes(), report.final_energy, report.fun_evals, report.termination


@pytest.mark.parametrize("missing", ["symbol", "library"])
def test_optimize_runs_where_mallopt_is_missing(monkeypatch, missing):
    expected = _solve()
    opened = []

    def cdll(name):
        opened.append(name)
        if missing == "library":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    optim._keep_freed_heap.cache_clear()
    try:
        assert _solve() == expected
    finally:
        optim._keep_freed_heap.cache_clear()
    assert opened == [None]
