"""``tools/same_bits.py``: its comparison, and its reading of a run's record,
on hand-written records; no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SAME_BITS = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"


def load_same_bits():
    spec = importlib.util.spec_from_file_location("same_bits", SAME_BITS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bits = load_same_bits()


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
    fingerprints, counts = same_bits.run(str(tmp_path), "w", 3, 1)
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
        same_bits.run(str(tmp_path), "w", 3, 1)
