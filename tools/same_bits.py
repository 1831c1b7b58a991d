"""Check that two checkouts give every benchmark solve the same bits.

    python3 tools/same_bits.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository. For every workload that
CHANGE's BENCHMARK.json declares and every seed S in SEEDS, it first builds
the run's input meshes in each checkout, by that checkout's
``perfbench/run.py`` ``make_inputs`` in a fresh interpreter, and compares
the sha256 of each ``.msh`` file it writes; differing inputs are printed as
"inputs differ". In each checkout it then runs BENCHMARK.json's
"command", here

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace T

for T = 0 and T = 1, one run at a time, and reads the record the run leaves
in ``.perfbench_runs/out/``. Per smoothed mesh it compares ``iterations``,
``fun_evals``, ``termination``, ``final_energy`` (hex) and
``output_sha256``, plus the traced per-mesh counts; per traced run it
compares every per-layer metric counted in a unit of ``count`` or ``B``.
A differing ``final_energy`` is also printed in decimal with its relative
difference. Times are not compared.

Every workload is fix-all, so no sliding vertex moves in them. The
slide-planar check covers that path: in each checkout, through its own CLI
(``python3 -m rrsmooth.cli`` with ``PYTHONPATH=src``), it builds the inputs
of SLIDE_INPUTS, a jittered square and a slivered cube, compares their
bytes, and runs ``optimize --boundary slide-planar --max-iters 30 --report
CSV`` on both with every method of SLIDE_METHODS. It compares the exit
codes, the output meshes, and every CSV column but TIMING_COLUMNS.

Prints each difference and exits 1 on any, or if an input build or a run
fails; exits 0 when every input and every run has the same bits.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile

# Seed 1 alone enters the strong Wolfe zoom 3 times; seeds 1-3 enter it 18.
SEEDS = (1, 2, 3)
SECONDS = 1
# Run in a checkout's root by ``input_hashes``: that checkout's make_inputs
# for workload argv[1] and seed argv[2]; prints the inputs' sha256 as JSON.
INPUTS = """
import hashlib, json, pathlib, sys, tempfile
sys.path.insert(0, "perfbench")
import run
rr = run.import_program()
with tempfile.TemporaryDirectory() as workdir:
    inputs = run.make_inputs(rr, run.WORKLOADS[sys.argv[1]], int(sys.argv[2]), workdir)
    data = [pathlib.Path(path).read_bytes() for _, path in inputs]
print(json.dumps([hashlib.sha256(d).hexdigest() for d in data]))
"""
# Per-mesh fields the benchmark records that are no fingerprint: times.
TIMES = ("solve_s", "write_s")
COUNT_UNITS = ("count", "B")
# The slide-planar check's inputs: name, then the arguments of ``gen`` and of
# ``perturb``.
SLIDE_INPUTS = (
    ("square8", ("--kind", "square", "--n", "8"), ("--jitter", "0.3", "--seed", "1")),
    ("cube4", ("--kind", "cube", "--n", "4"), ("--sliver", "3", "0.01")),
)
SLIDE_METHODS = ("fixedpoint", "lbfgs", "plbfgs", "nlcg", "pnlcg")
# The report's columns that are no fingerprint: times.
TIMING_COLUMNS = ("eval_s", "p_build_s", "cg_s", "cap_s")


def input_hashes(checkout, workload, seed):
    """The sha256 of each input mesh ``checkout`` builds for one run."""
    proc = subprocess.run(
        [sys.executable, "-c", INPUTS, workload, str(seed)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: inputs of {workload} seed={seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare_inputs(parent, change, workload, seed):
    """Lines naming each input mesh whose bytes differ between the checkouts."""
    before, after = (input_hashes(c, workload, seed) for c in (parent, change))
    return [f"{workload} seed={seed}: inputs differ, mesh {i}: {a} -> {b}"
            for i, (a, b) in enumerate(itertools.zip_longest(before, after)) if a != b]


def bench(checkout, command, workload, *options):
    """Run the benchmark's ``command`` (BENCHMARK.json's "command") on one
    workload in ``checkout``, with ``options``; returns its standard output."""
    proc = subprocess.run(
        [*command, "--workload", workload, *options],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} {' '.join(options)} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run(checkout, command, workload, seed, trace):
    """Run one workload in ``checkout``; returns (fingerprints, counts)."""
    bench(checkout, command, workload, "--seed", str(seed), "--seconds", str(SECONDS),
          "--trace", str(trace))
    path = os.path.join(checkout, ".perfbench_runs", "out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    result = record["result"]
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed={seed} trace={trace} "
                           f"is not correct: {result}")
    # A mesh can be solved more than once in a run (batches, the traced
    # run's untraced reference); every value it took is kept.
    fingerprints = {}
    for solve in record["solves"]:
        mesh = fingerprints.setdefault(f"mesh {solve['mesh']}", {})
        for name, value in solve.items():
            if name not in TIMES:
                mesh.setdefault(name, set()).add(json.dumps(value))
    fingerprints = {mesh: {name: sorted(values) for name, values in fields.items()}
                    for mesh, fields in fingerprints.items()}
    counts = {name: metric["value"] for name, metric in result["metrics"].items()
              if metric["unit"] in COUNT_UNITS}
    return fingerprints, counts


def cli(checkout, *args):
    """Run ``checkout``'s own CLI with ``args`` in ``checkout``; returns its
    exit code, which is 0, or 2 for an abnormal optimizer stop."""
    proc = subprocess.run(
        [sys.executable, "-m", "rrsmooth.cli", *args],
        cwd=checkout, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode not in (0, 2):
        raise RuntimeError(f"{checkout}: rrsmooth {' '.join(args)} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.returncode


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fingerprint(output, report):
    """What a slide-planar run must keep: the sha256 of its output mesh and,
    per report column but TIMING_COLUMNS, the column's cells."""
    with open(report) as fh:
        header, *rows = (line.split(",") for line in fh.read().splitlines())
    prints = {"output": sha256(output)}
    for i, name in enumerate(header):
        if name not in TIMING_COLUMNS:
            prints[f"column {name}"] = [row[i] for row in rows]
    return prints


def slide_planar_runs(checkout):
    """The slide-planar check's fingerprints in one checkout: per input its
    sha256, and per input and method the exit code and :func:`fingerprint`."""
    runs = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, gen, perturb in SLIDE_INPUTS:
            base, src, out, report = (os.path.join(workdir, f"{name}-{part}") for part in
                                      ("base.msh", "input.msh", "output.msh", "report.csv"))
            cli(checkout, "gen", *gen, base)
            cli(checkout, "perturb", base, src, *perturb)
            runs[name] = {"input": sha256(src)}
            for method in SLIDE_METHODS:
                code = cli(checkout, "optimize", src, out, "--method", method,
                           "--boundary", "slide-planar", "--max-iters", "30", "--report", report)
                runs[f"{name} {method}"] = {"exit": code, **fingerprint(out, report)}
    return runs


def compare_slide_planar(parent, change):
    """Print the slide-planar check's result per input and per run; returns
    the lines naming a difference or a failure."""
    try:
        before, after = (slide_planar_runs(c) for c in (parent, change))
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"slide-planar: {e}")
        return [f"slide-planar: {e}"]
    found = []
    for where in before:
        lines = differences(before[where], after[where], f"slide-planar {where}")
        found += lines
        print("\n".join(lines) if lines else f"slide-planar {where}: same bits")
    return found


def differences(before, after, where):
    """Lines naming every key whose value differs between two flat dicts; a
    differing ``final_energy`` gets one more line with its magnitude."""
    lines = []
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        if a != b:
            lines.append(f"{where} {key}: {a} -> {b}")
            if key == "final_energy" and a and b:
                lines.append(f"{where} {key}: {magnitude(a, b)}")
    return lines


def magnitude(before, after):
    """Final energies, lists of JSON hex strings, as decimals, and the largest
    relative difference between one of ``before`` and one of ``after``."""
    a, b = ([float.fromhex(json.loads(v)) for v in values] for values in (before, after))
    rel = max((abs(y - x) / max(abs(x), abs(y)) for x in a for y in b if x != y), default=0.0)
    return f"{' '.join(map(repr, a))} -> {' '.join(map(repr, b))}, relative {rel:.1e}"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(path) for path in argv)
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    found = []
    for workload, seed in itertools.product(workloads, SEEDS):
        try:
            lines = compare_inputs(parent, change, workload, seed)
        except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            lines = [f"{workload} seed={seed}: {e}"]
        found += lines
        print("\n".join(lines) if lines else f"{workload} seed={seed}: same inputs")
        for trace in (0, 1):
            where = f"{workload} seed={seed} trace={trace}"
            try:
                (fp_a, counts_a), (fp_b, counts_b) = (
                    run(c, spec["command"], workload, seed, trace) for c in (parent, change)
                )
            except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                found.append(f"{where}: {e}")
                print(found[-1])
                continue
            lines = differences(counts_a, counts_b, where)
            for mesh in sorted(set(fp_a) | set(fp_b)):
                lines += differences(fp_a.get(mesh, {}), fp_b.get(mesh, {}), f"{where} {mesh}")
            found += lines
            print("\n".join(lines) if lines else f"{where}: same bits")
    found += compare_slide_planar(parent, change)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
