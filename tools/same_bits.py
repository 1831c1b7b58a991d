"""Check that two checkouts give every benchmark solve the same bits.

    python3 tools/same_bits.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository. In each, for every
workload that CHANGE's BENCHMARK.json declares and every seed S in SEEDS,
this runs

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace T

for T = 0 and T = 1, one run at a time, and reads the record the run leaves
in ``.perfbench_runs/out/``. Per smoothed mesh it compares ``iterations``,
``fun_evals``, ``termination``, ``final_energy`` (hex) and
``output_sha256``, plus the traced per-mesh counts; per traced run it
compares every per-layer metric counted in a unit of ``count`` or ``B``.
A differing ``final_energy`` is also printed in decimal with its relative
difference. Times are not compared. Prints each difference and exits 1 on
any, or if a run fails; exits 0 when every run has the same bits.
"""

import itertools
import json
import os
import subprocess
import sys

# Seed 1 alone enters the strong Wolfe zoom 3 times; seeds 1-3 enter it 18.
SEEDS = (1, 2, 3)
SECONDS = 1
# Per-mesh fields the benchmark records that are no fingerprint: times.
TIMES = ("solve_s", "write_s")
COUNT_UNITS = ("count", "B")


def run(checkout, workload, seed, trace):
    """Run one workload in ``checkout``; returns (fingerprints, counts)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed={seed} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
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
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    found = []
    for workload, seed, trace in itertools.product(workloads, SEEDS, (0, 1)):
        where = f"{workload} seed={seed} trace={trace}"
        try:
            (fp_a, counts_a), (fp_b, counts_b) = (
                run(parent, workload, seed, trace), run(change, workload, seed, trace)
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
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
