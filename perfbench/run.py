"""rrsmooth benchmark: time to a smoothed mesh, split over layers by a trace.

Run from the repository root; the program is imported from ./src.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Each workload smooths meshes generated from the seed, one after another in
one process (a closed loop with one client), the way
``rrsmooth optimize in.msh out.msh --overlay out.vtk`` does: load, validate,
classify the boundary (fix-all), optimize (max_iters=50, stopping when
the largest gradient entry is below 1e-5), save. Every
output is checked. ``--trace 0`` prints the end-to-end metrics of untraced
runs; ``--trace 1`` installs the wrappers of ``tracing.py`` and prints the
per-layer metrics. The last line of standard output is one JSON object.
See README.md in this directory for the workloads and the metrics.
"""

import os

# Fixed before numpy loads, and inherited by the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from tracing import COUNTERS, Tracer, installed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
HERE = os.path.dirname(os.path.abspath(__file__))

MAX_ITERS = 50
# Every run stops at one stated accuracy: the largest gradient entry below
# GRAD_TOL_ABS. The relative test is switched off because the initial
# gradient, set by the worst sliver, ranges from 1e3 to 6e6 across seeds on
# cube n=10. Relative to it, the target moved with the seed, and so did the
# iteration count (5 to 30).
GRAD_TOL_ABS = 1e-5
GRAD_TOL_REL = 1e-300
SETUP_PROBES = 5
OK_TERMINATIONS = ("grad_tol", "energy_tol", "max_iters")


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int
    jitter: float
    slivers: int
    method: str
    # Meshes per run; the metrics are medians over them.
    meshes: int


WORKLOADS = {
    "cube10-sliver-plbfgs": Workload("cube", 10, 0.1, 5, "plbfgs", 2),
    "square40-jitter-fixedpoint": Workload("square", 40, 0.3, 0, "fixedpoint", 2),
    "cube6-sliver-lbfgs": Workload("cube", 6, 0.1, 5, "lbfgs", 6),
}

# Tiny versions of the same paths for --smoke (cube n=3 holds one sliver).
SMOKE_WORKLOADS = {
    "smoke-cube3-plbfgs": Workload("cube", 3, 0.1, 1, "plbfgs", 2),
    "smoke-square6-fixedpoint": Workload("square", 6, 0.3, 0, "fixedpoint", 1),
    "smoke-cube3-lbfgs": Workload("cube", 3, 0.1, 1, "lbfgs", 1),
}

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "final_min_q": "q",
    "final_energy": "mu",
}

PER_LAYER = {
    "mesh.cap.calls": "count",
    "mesh.cap.s": "s",
    "mesh.cap.moving_cells": "count",
    "mesh.cap.us_per_cell": "us",
    "mesh.cap.share_of_solve": "ratio",
    "assembly.energy_gradient.calls": "count",
    "assembly.energy_gradient.s": "s",
    "assembly.energy_gradient.cells": "count",
    "assembly.energy_gradient.us_per_cell": "us",
    "assembly.energy_gradient.degenerate": "count",
    "assembly.assemble.calls": "count",
    "assembly.assemble.s": "s",
    "assembly.assemble_preconditioner.calls": "count",
    "assembly.assemble_preconditioner.s": "s",
    "assembly.assemble_preconditioner.self_s": "s",
    "assembly.assemble_preconditioner.rows": "count",
    "assembly.assemble_preconditioner.nnz": "count",
    "mesh.is_connected.s": "s",
    "tetrahedra.abs_local_matrix.s": "s",
    "optim.cg_solve.calls": "count",
    "optim.cg_solve.s": "s",
    "optim.cg_solve.iters": "count",
    "optim.cg_solve.max_residual": "ratio",
    "optim.cg_solve.unconverged": "count",
    "optim.iterations": "count",
    "optim.fun_evals": "count",
    "optim.ls_evals": "count",
    "optim.accept_ratio": "ratio",
    "optim.self_s": "s",
    "mesh.validate.s": "s",
    "mesh.quality_stats.s": "s",
    "mesh.classify_boundary.s": "s",
    "meshio.load_mesh.s": "s",
    "meshio.save_mesh.s": "s",
    "meshio.save_quality_overlay.s": "s",
    "meshio.bytes_read": "B",
    "meshio.bytes_written": "B",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
}

# Spans whose call count and inclusive time are per-layer metrics, and
# spans whose inclusive time alone is.
COUNTED_SPANS = (
    "mesh.cap",
    "assembly.energy_gradient",
    "assembly.assemble",
    "assembly.assemble_preconditioner",
    "optim.cg_solve",
)
TIMED_SPANS = (
    "mesh.is_connected",
    "tetrahedra.abs_local_matrix",
    "mesh.validate",
    "mesh.quality_stats",
    "mesh.classify_boundary",
    "meshio.load_mesh",
    "meshio.save_mesh",
    "meshio.save_quality_overlay",
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed on stdout."""


def expect(condition, message):
    if not condition:
        raise BenchError(f"smoke check failed: {message}")


def import_program():
    """Import rrsmooth from ./src of the checkout, never from elsewhere."""
    init = os.path.join(SRC, "rrsmooth", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no rrsmooth sources at {init}; run from the repository root")
    sys.path.insert(0, SRC)
    import rrsmooth
    import rrsmooth.meshio

    if os.path.realpath(rrsmooth.__file__) != os.path.realpath(init):
        raise BenchError(f"imported rrsmooth from {rrsmooth.__file__}, not {init}")
    return rrsmooth


def source_hash():
    """Digest of the program's and the benchmark's sources.

    It keys the determinism records, so a changed program or benchmark
    starts fresh.
    """
    h = hashlib.sha256()
    for pkg in (os.path.join(SRC, "rrsmooth"), HERE):
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import scipy

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "source_hash": source_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def make_inputs(rr, wl, seed, workdir):
    """Mesh i of the run is jittered with seed ``meshes * seed + i``."""
    base = rr.gen_mesh(rr.GeneratorSpec(wl.kind, wl.n))
    inputs = []
    for i in range(wl.meshes):
        jitter_seed = wl.meshes * seed + i
        mesh = rr.perturb_mesh(base, rr.RandomJitter(wl.jitter, jitter_seed))
        if wl.slivers:
            mesh = rr.perturb_mesh(mesh, rr.PlantSliver(wl.slivers, 0.01))
        path = os.path.join(workdir, f"in{i}.msh")
        rr.meshio.save_mesh(mesh, path)
        inputs.append((jitter_seed, path))
    return inputs


def measure_setup(path):
    """Median of SETUP_PROBES cold starts, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, path],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Api:
    """The calls ``rrsmooth optimize`` makes, optionally traced."""

    def __init__(self, rr, tracer=None):
        names = {
            "load_mesh": ("meshio.load_mesh", rr.meshio.load_mesh),
            "validate": ("mesh.validate", rr.mesh.validate),
            "classify_boundary": ("mesh.classify_boundary", rr.mesh.classify_boundary),
            "optimize": ("optim.optimize", rr.optim.optimize),
            "save_mesh": ("meshio.save_mesh", rr.meshio.save_mesh),
            "save_quality_overlay": ("meshio.save_quality_overlay",
                                     rr.meshio.save_quality_overlay),
        }
        for attr, (span, fn) in names.items():
            setattr(self, attr, tracer.wrap(span, fn) if tracer else fn)


@dataclass
class Smoothed:
    mesh_in: object
    mesh_out: object
    report: object
    solve_s: float
    write_s: float
    out_msh: str
    bytes_written: int


def smooth(rr, api, method, path, workdir):
    mesh = api.load_mesh(path)
    if api.validate(mesh):
        raise BenchError(f"{path}: generated mesh is invalid")
    mesh = api.classify_boundary(mesh, rr.FIX_ALL)
    config = rr.OptimizeConfig(
        method=method, max_iters=MAX_ITERS, grad_tol=GRAD_TOL_REL, grad_tol_abs=GRAD_TOL_ABS
    )
    out_msh = os.path.join(workdir, "out.msh")
    out_vtk = os.path.join(workdir, "out.vtk")
    t0 = time.perf_counter()
    out, report = api.optimize(mesh, config)
    t1 = time.perf_counter()
    api.save_mesh(out, out_msh)
    api.save_quality_overlay(out, out_vtk)
    t2 = time.perf_counter()
    written = os.path.getsize(out_msh) + os.path.getsize(out_vtk)
    return Smoothed(mesh, out, report, t1 - t0, t2 - t1, out_msh, written)


def output_problems(rr, s):
    """Every way the smoothed mesh breaks the program's contract."""
    problems = []
    if not (s.mesh_out.signed_measures() > 0).all():
        problems.append("an output cell has a non-positive measure")
    fixed = s.mesh_in.fixed_mask()
    if not np.array_equal(
        s.mesh_out.vertices[fixed].view(np.uint64), s.mesh_in.vertices[fixed].view(np.uint64)
    ):
        problems.append("a fixed vertex moved")
    if s.report.termination not in OK_TERMINATIONS:
        problems.append(f"termination {s.report.termination!r}")
    if not s.report.final_energy <= s.report.records[0].F:
        problems.append("the final energy exceeds the initial energy")
    back = rr.meshio.load_mesh(s.out_msh)
    if not (np.array_equal(back.cells, s.mesh_out.cells)
            and np.array_equal(back.vertices.view(np.uint64),
                               s.mesh_out.vertices.view(np.uint64))):
        problems.append("the written .msh does not reload to the same mesh")
    return problems


def fingerprint(s):
    return {
        "iterations": s.report.iterations,
        "fun_evals": s.report.fun_evals,
        "termination": s.report.termination,
        "final_energy": float(s.report.final_energy).hex(),
        "output_sha256": hashlib.sha256(
            np.ascontiguousarray(s.mesh_out.vertices).tobytes()
        ).hexdigest(),
    }


class FingerprintStore:
    """Determinism records shared by every run of one program version.

    Each smoothed mesh is keyed by source digest, workload and jitter seed.
    A field seen before must repeat exactly; a mismatch fails the run.
    """

    def __init__(self, path, prefix):
        self.path = path
        self.prefix = prefix
        try:
            with open(path) as fh:
                self.records = json.load(fh)
        except (OSError, ValueError):
            self.records = {}

    def check(self, key, fp):
        stored = self.records.setdefault(f"{self.prefix}:{key}", {})
        mismatches = [
            f"{field}: {stored[field]} before, {value} now"
            for field, value in fp.items()
            if field in stored and stored[field] != value
        ]
        for field, value in fp.items():
            stored.setdefault(field, value)
        return mismatches

    def save(self):
        tmp = f"{self.path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(self.records, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


class Run:
    """One invocation: inputs, smoothed meshes, failures."""

    def __init__(self, rr, name, wl, seed):
        self.rr = rr
        self.name = name
        self.wl = wl
        self.seed = seed
        os.makedirs(RUNS, exist_ok=True)
        self.workdir = os.path.join(RUNS, f"work-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.store = FingerprintStore(
            os.path.join(RUNS, "fingerprints.json"), f"{source_hash()}:{name}"
        )
        self.attempted = 0
        self.failed = 0
        self.log = []
        try:
            self.inputs = make_inputs(rr, wl, seed, self.workdir)
        except BaseException:
            self.close()
            raise

    def smooth(self, api, index, extra=None):
        """Smooth input ``index``; returns it, or None when any check failed."""
        jitter_seed, path = self.inputs[index]
        self.attempted += 1
        try:
            s = smooth(self.rr, api, self.wl.method, path, self.workdir)
            fp = fingerprint(s)
            fp.update(extra(s) if extra else {})
            problems = output_problems(self.rr, s) + self.store.check(jitter_seed, fp)
        except Exception:
            problems = [traceback.format_exc()]
        else:
            self.log.append({"mesh": index, "jitter_seed": jitter_seed, "solve_s": s.solve_s,
                             "write_s": s.write_s, **fp})
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {self.name} seed={self.seed} mesh={index}: {p}",
                      file=sys.stderr)
            return None
        return s

    def close(self):
        self.store.save()
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


def end_to_end(run, seconds):
    plain = Api(run.rr)
    setup_s = measure_setup(run.inputs[0][1])
    done = []
    start = time.perf_counter()
    batches = 0
    # Whole batches only, so a faster program never sees other meshes; a
    # further batch runs only if it fits in the time left.
    while True:
        for i in range(len(run.inputs)):
            s = run.smooth(plain, i)
            if s is not None:
                done.append(s)
        batches += 1
        elapsed = time.perf_counter() - start
        if elapsed * (batches + 1) / batches > seconds:
            break
    if not done:
        return {}
    first = done[: len(run.inputs)]
    solve_s = statistics.median(s.solve_s for s in done)
    return {
        "solve_s": solve_s,
        "setup_s": setup_s,
        "total_s": setup_s + statistics.median(s.solve_s + s.write_s for s in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_min_q": statistics.median(s.report.quality_after.min_q for s in first),
        "final_energy": statistics.median(s.report.final_energy for s in first),
    }


def per_layer(run, tracer):
    """Traced pass over the run's meshes, after one untraced reference."""
    untraced = run.smooth(Api(run.rr), 0)
    traced = []
    with installed(tracer):
        api = Api(run.rr, tracer)
        for i in range(len(run.inputs)):
            tracer.instance = i
            first_span = len(tracer.spans)
            cg_before = tracer.counts.get("optim.cg_solve.iters", 0)

            def wrapper_counts(s, first_span=first_span, cg_before=cg_before):
                caps = sum(1 for sp in tracer.spans[first_span:] if sp[0] == "mesh.cap")
                cg = tracer.counts.get("optim.cg_solve.iters", 0) - cg_before
                return {"cap_calls": caps, "cg_iters": cg}

            with tracer.span("bench.smooth"):
                s = run.smooth(api, i, wrapper_counts)
            if s is not None:
                traced.append(s)
    if untraced is None or len(traced) != len(run.inputs):
        return {}

    totals = tracer.totals()

    def total(span, col):
        return totals.get(span, [0, 0.0, 0.0])[col]

    def per(num, den):
        return num / den if den else 0.0

    m = {key: tracer.counts.get(key, 0) for key in COUNTERS}
    for span in COUNTED_SPANS:
        m[f"{span}.calls"] = total(span, 0)
    for span in COUNTED_SPANS + TIMED_SPANS:
        m[f"{span}.s"] = total(span, 1)
    solve = total("optim.optimize", 1)
    ls_evals = sum(r.ls_evals for s in traced for r in s.report.records)
    iterations = sum(s.report.iterations for s in traced)
    m.update({
        "mesh.cap.us_per_cell": 1e6 * per(m["mesh.cap.s"], m["mesh.cap.moving_cells"]),
        "mesh.cap.share_of_solve": per(m["mesh.cap.s"], solve),
        "assembly.energy_gradient.us_per_cell": 1e6 * per(
            m["assembly.energy_gradient.s"], m["assembly.energy_gradient.cells"]
        ),
        "assembly.assemble_preconditioner.self_s": total("assembly.assemble_preconditioner", 2),
        "optim.iterations": iterations,
        "optim.fun_evals": sum(s.report.fun_evals for s in traced),
        "optim.ls_evals": ls_evals,
        "optim.accept_ratio": per(iterations, ls_evals),
        "optim.self_s": total("optim.optimize", 2),
        "meshio.bytes_read": sum(os.path.getsize(p) for _, p in run.inputs),
        "meshio.bytes_written": sum(s.bytes_written for s in traced),
        "trace.solve_s": traced[0].solve_s,
        "trace.untraced_solve_s": untraced.solve_s,
        "trace.overhead_s": traced[0].solve_s - untraced.solve_s,
    })
    return m


def run_workload(name, wl, seed, seconds, trace):
    """Returns (result object for the last stdout line, env, tracer or None)."""
    rr = import_program()
    env = environment(seed)
    run = Run(rr, name, wl, seed)
    tracer = Tracer() if trace else None
    try:
        metrics = per_layer(run, tracer) if trace else end_to_end(run, seconds)
    finally:
        run.close()
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    out_dir = os.path.join(RUNS, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": name, "env": env, "result": result, "solves": run.log}
    if tracer is not None:
        record["spans"] = tracer.to_json()
    with open(os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh)
    return result, env, tracer


def run_all(seed, seconds):
    """Each workload in its own process, one after another; prints a table."""
    rows = []
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not rows:
            print(next(line for line in lines if line.startswith("# env ")))
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "failed_frac", result["failed"] / result["attempted"], "ratio"))
    width = max(len(r[0]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:<{width}}  {metric:<14} {value:>14.6g} {unit}")
    return ok


def smoke():
    """Tiny meshes through both modes; checks metrics, units and spans."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    expect(declared[1] == PER_LAYER, "BENCHMARK.json per_layer differs from run.py")
    expect(set(WORKLOADS) == {w["name"] for w in spec["workloads"]},
           "BENCHMARK.json workloads differ from run.py")
    for name, wl in SMOKE_WORKLOADS.items():
        for trace in (0, 1):
            result, _, tracer = run_workload(name, wl, 1, 0, trace)
            expect(result["correct"], f"{name} trace={trace}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace], f"{name} trace={trace}: metrics {sorted(got)}")
            if tracer is not None:
                expect(not tracer.nesting_errors(), tracer.nesting_errors()[:5])
                worst = min(own for _, own in tracer.durations())
                expect(worst >= -1e-9, f"{name}: negative self time {worst}")
        print(f"smoke ok: {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, self-checks only")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            smoke()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds) else 1
        result, env, _ = run_workload(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds, args.trace
        )
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
