"""Compare two checkouts' end-to-end benchmark metrics over alternating runs.

    python3 tools/ab.py PARENT CHANGE [--pairs N]

PARENT and CHANGE are checkouts of the repository. For every workload that
CHANGE's BENCHMARK.json declares, it runs BENCHMARK.json's "command", here

    python3 perfbench/run.py --workload W --seconds T --trace 0

at that command's default seed, in each checkout, one run at a time, in N
pairs (default 10): the parent runs first in even pairs, the change first
in odd ones, so a drift of the host falls on both sides alike. T is
BENCHMARK.json's ``run_seconds``. Per workload it prints each side's
failed/attempted operations, and per end-to-end metric both medians, the
parent's quartile spread, the pairs the change won (ties count for neither)
and one verdict (:func:`verdict`). A metric's ``bound`` is read as a
fraction of the parent's median. Exits 1 when a run fails, a metric
regresses or a larger share of the change's operations fails, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from same_bits import bench

GAIN_SHARE = 0.9  # pairs the change must win for a gain
GAIN_PAIRS = 10  # pairs run, at least, for a gain


def run(checkout, command, workload, seconds):
    """One untraced run in ``checkout``: the result object of its last line."""
    out = bench(checkout, command, workload, "--seconds", str(seconds), "--trace", "0")
    result = json.loads(out.strip().splitlines()[-1])
    if not result["metrics"]:
        raise RuntimeError(f"{checkout}: {workload} measured nothing: {result}")
    return result


def more_failed(failed):
    """Whether the change failed a larger share of its operations than the
    parent; ``failed`` is each side's (failed, attempted)."""
    (failed_p, attempted_p), (failed_c, attempted_c) = failed
    return failed_c * attempted_p > failed_p * attempted_c


def quartile_spread(values):
    """The distance between the upper and lower quartiles (numpy's default
    interpolation); 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent, change, better, bound, failed=((0, 1), (0, 1))):
    """Summary and verdict of one metric over paired runs.

    ``parent[i]`` and ``change[i]`` are pair i's values, ``better`` is
    "lower" or "higher", ``bound`` the worsening allowed as a fraction of
    the parent's median, and ``failed`` each side's (failed, attempted). The
    verdict is "gain" when at least GAIN_PAIRS pairs ran, the change won at
    least GAIN_SHARE of them,
    its median is better by more than the parent's quartile spread and no
    larger share of its operations failed; "regression" when its median is
    worse than the parent's by more than the bound. Otherwise, when the
    parent's spread is wider than the bound, it is "better" if every run of
    the change is better than every run of the parent and no larger share of
    its operations failed, else "unresolved"; with a narrower spread it is
    "within bound".
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change, strict=True))
    before, after = statistics.median(parent), statistics.median(change)
    spread, allowed = quartile_spread(parent), bound * abs(before)
    gain = sign * (before - after)
    if (len(parent) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(parent) and gain > spread
            and not more_failed(failed)):
        label = "gain"
    elif -gain > allowed:
        label = "regression"
    elif spread > allowed:
        separated = max(sign * c for c in change) < min(sign * p for p in parent)
        label = "better" if separated and not more_failed(failed) else "unresolved"
    else:
        label = "within bound"
    return {"parent": before, "change": after, "spread": spread, "wins": wins,
            "pairs": len(parent), "verdict": label}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(path) for path in (args.parent, args.change)]
    with open(os.path.join(checkouts[1], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        results = ([], [])
        try:
            for pair in range(args.pairs):
                for side in (0, 1) if pair % 2 == 0 else (1, 0):
                    results[side].append(
                        run(checkouts[side], spec["command"], workload, spec["run_seconds"]))
        except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"{workload}: {e}")
            bad = True
            continue
        failed = [(sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
                  for side in results]
        print(f"{workload}: failed/attempted parent {failed[0][0]}/{failed[0][1]}, "
              f"change {failed[1][0]}/{failed[1][1]}"
              + ("  more failed" if more_failed(failed) else ""))
        bad = bad or more_failed(failed)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in side] for side in results)
            v = verdict(parent, change, metric["better"], metric["bound"], failed)
            print(f"  {name:<13} parent {v['parent']:.6g}  change {v['change']:.6g} "
                  f"{metric['unit']}  spread {v['spread']:.3g}  "
                  f"won {v['wins']}/{v['pairs']}  {v['verdict']}")
            bad = bad or v["verdict"] == "regression"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
