"""``tools/same_bits.py``: its comparison, and its reading of a run's record
and of a slide-planar run's files, on hand-written ones; no benchmark runs."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from rrsmooth.optim import METHODS

SAME_BITS = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"


def load_same_bits():
    spec = importlib.util.spec_from_file_location("same_bits", SAME_BITS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bits = load_same_bits()
COMMAND = ["python3", "perfbench/run.py"]


def test_differences_names_missing_and_changed_keys_only():
    before = {"equal": 1, "changed": 2, "gone": 3}
    after = {"equal": 1, "changed": 4, "new": 5}
    assert same_bits.differences(before, after, "w") == [
        "w changed: 2 -> 4",
        "w gone: 3 -> None",
        "w new: None -> 5",
    ]
    assert same_bits.differences(before, dict(before), "w") == []


def test_a_differing_final_energy_prints_its_relative_difference():
    before = {"final_energy": ['"0x1.8000000000000p+0"']}
    after = {"final_energy": ['"0x1.8000000001800p+0"']}
    assert same_bits.differences(before, after, "w") == [
        f"w final_energy: {before['final_energy']} -> {after['final_energy']}",
        "w final_energy: 1.5 -> 1.5000000000013642, relative 9.1e-13",
    ]


def write_record(checkout, correct=True):
    solve = {"mesh": 0, "solve_s": 0.1, "write_s": 0.01, "iterations": 21,
             "termination": "grad_tol", "final_energy": "0x1.64d325b91d75cp+0"}
    record = {
        "result": {"correct": correct, "metrics": {
            "mesh.cap.calls": {"value": 14, "unit": "count"},
            "meshio.bytes_read": {"value": 900, "unit": "B"},
            "mesh.cap.s": {"value": 0.01, "unit": "s"},
        }},
        # Mesh 0 solved twice, with different times and one different count.
        "solves": [solve, {**solve, "solve_s": 0.2, "iterations": 22},
                   {**solve, "mesh": 1}],
    }
    out = checkout / ".perfbench_runs" / "out"
    out.mkdir(parents=True)
    (out / "w-seed3-trace1.json").write_text(json.dumps(record))


@pytest.fixture
def runs(monkeypatch):
    """The argument lists of the runs ``run`` starts, each exiting 0."""
    started = []

    def fake(args, **kwargs):
        started.append(args)
        return subprocess.CompletedProcess(args, 0, "", "")

    monkeypatch.setattr(same_bits.subprocess, "run", fake)
    return started


def test_run_reads_fingerprints_and_counts_from_the_record(tmp_path, runs):
    write_record(tmp_path)
    fingerprints, counts = same_bits.run(str(tmp_path), COMMAND, "w", 3, 1)
    assert runs[0][1:] == ["perfbench/run.py", "--workload", "w", "--seed", "3",
                           "--seconds", str(same_bits.SECONDS), "--trace", "1"]
    assert fingerprints["mesh 0"] == {
        "mesh": ["0"],
        "iterations": ["21", "22"],
        "termination": ['"grad_tol"'],
        "final_energy": ['"0x1.64d325b91d75cp+0"'],
    }
    assert fingerprints["mesh 1"]["iterations"] == ["21"]
    assert counts == {"mesh.cap.calls": 14, "meshio.bytes_read": 900}


def test_run_refuses_a_record_that_is_not_correct(tmp_path, runs):
    write_record(tmp_path, correct=False)
    with pytest.raises(RuntimeError, match="is not correct"):
        same_bits.run(str(tmp_path), COMMAND, "w", 3, 1)


# A checkout's perfbench/run.py as far as input_hashes reads it: the workload
# "w" has two meshes, whose bytes name the program, the seed and the mesh.
FAKE_RUN = '''
import os
WORKLOADS = {"w": 2}


def import_program():
    return "program"


def make_inputs(rr, wl, seed, workdir):
    inputs = []
    for i in range(wl):
        path = os.path.join(workdir, f"in{i}.msh")
        with open(path, "w") as fh:
            fh.write(f"{rr} {seed} {i}")
        inputs.append((seed + i, path))
    return inputs
'''


def test_input_hashes_hash_the_meshes_the_checkouts_make_inputs_writes(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    assert same_bits.input_hashes(str(tmp_path), "w", 3) == [
        hashlib.sha256(f"program 3 {i}".encode()).hexdigest() for i in range(2)
    ]


@pytest.mark.parametrize("moved", [False, True])
def test_differing_inputs_are_named_before_the_runs(tmp_path, monkeypatch, capsys, moved):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(
        json.dumps({"command": COMMAND, "workloads": [{"name": "w"}]}))
    monkeypatch.setattr(same_bits, "SEEDS", (1,))

    def hashes(checkout, workload, seed):
        return ["a", "c" if moved and checkout == str(change) else "b"]

    monkeypatch.setattr(same_bits, "input_hashes", hashes)
    monkeypatch.setattr(same_bits, "run", lambda *args: ({}, {}))
    monkeypatch.setattr(same_bits, "compare_slide_planar", lambda *args: [])
    assert same_bits.main([str(parent), str(change)]) == int(moved)
    first, *rest = capsys.readouterr().out.splitlines()
    assert first == ("w seed=1: inputs differ, mesh 1: b -> c" if moved
                     else "w seed=1: same inputs")
    assert rest == ["w seed=1 trace=0: same bits", "w seed=1 trace=1: same bits"]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def slide_run(directory, output=b"mesh", lam="0.5", cg_s="0.01"):
    """A slide-planar run's output mesh and report, written by hand; returns
    their fingerprint."""
    directory.mkdir()
    out, report = directory / "o.msh", directory / "r.csv"
    out.write_bytes(output)
    report.write_text(f"iter,lambda,cg_s,cap_s\n0,0,0,0\n1,{lam},{cg_s},0.02\n")
    return same_bits.fingerprint(str(out), str(report))


def test_slide_planar_runs_ignore_the_timing_columns(tmp_path):
    before = slide_run(tmp_path / "a")
    assert before == {"output": sha256(b"mesh"), "column iter": ["0", "1"],
                      "column lambda": ["0", "0.5"]}
    assert same_bits.differences(before, slide_run(tmp_path / "b", cg_s="0.03"), "w") == []


def test_slide_planar_runs_name_a_changed_column_or_output(tmp_path):
    before = slide_run(tmp_path / "a")
    after = slide_run(tmp_path / "b", output=b"moved", lam="0.25")
    assert same_bits.differences(before, after, "w") == [
        "w column lambda: ['0', '0.5'] -> ['0', '0.25']",
        f"w output: {sha256(b'mesh')} -> {sha256(b'moved')}",
    ]


def test_slide_planar_runs_use_every_method_on_every_input(tmp_path, monkeypatch):
    # A checkout's CLI as far as the check reads it: gen and perturb write
    # their arguments, optimize the method into its output and report.
    calls = []

    def fake(checkout, command, *args):
        calls.append((checkout, command))
        if command == "optimize":
            method = args[args.index("--method") + 1]
            Path(args[1]).write_text(method)
            Path(args[-1]).write_text(f"iter,cg_s\n0,{len(calls)}\n")
            return 2 if method == "nlcg" else 0
        Path(args[-1] if command == "gen" else args[1]).write_text(" ".join(args))
        return 0

    monkeypatch.setattr(same_bits, "cli", fake)
    runs = same_bits.slide_planar_runs(str(tmp_path))
    assert same_bits.SLIDE_METHODS == METHODS
    names = [name for name, _, _ in same_bits.SLIDE_INPUTS]
    assert list(runs) == [key for name in names
                          for key in (name, *(f"{name} {m}" for m in METHODS))]
    assert runs["cube4 nlcg"] == {"exit": 2, "output": sha256(b"nlcg"), "column iter": ["0"]}
    assert calls == [(str(tmp_path), c) for _ in names
                     for c in ("gen", "perturb", *["optimize"] * len(METHODS))]


def test_compare_slide_planar_prints_same_bits_or_each_difference(monkeypatch, capsys):
    runs = {"parent": {"sq": {"input": "a"}, "sq lbfgs": {"exit": 0, "output": "x"}},
            "change": {"sq": {"input": "a"}, "sq lbfgs": {"exit": 2, "output": "x"}}}
    monkeypatch.setattr(same_bits, "slide_planar_runs", runs.get)
    assert same_bits.compare_slide_planar("parent", "change") == [
        "slide-planar sq lbfgs exit: 0 -> 2"]
    assert capsys.readouterr().out.splitlines() == [
        "slide-planar sq: same bits", "slide-planar sq lbfgs exit: 0 -> 2"]
