"""``tools/ab.py``: its verdict on synthetic paired runs, and the order in
which it runs the two checkouts; no benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_ab():
    # ab.py imports its run helper from tools/same_bits.py, as it does when
    # run as a script from tools/.
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return module


ab = load_ab()
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_above_the_spread():
    faster = [p - 0.1 for p in PARENT]
    v = ab.verdict(PARENT, faster, "lower", 0.25)
    assert (v["wins"], v["pairs"], v["verdict"]) == (10, 10, "gain")
    assert v["parent"] == 1.0 and v["change"] == pytest.approx(0.9)
    eight = faster[:8] + [p + 0.01 for p in PARENT[8:]]
    assert ab.verdict(PARENT, eight, "lower", 0.25)["verdict"] == "within bound"
    # Nine wins, but the medians differ by less than the parent's spread.
    close = [p - 0.001 for p in PARENT[:9]] + [PARENT[9] + 0.001]
    v = ab.verdict(PARENT, close, "lower", 0.25)
    assert v["wins"] == 9 and v["change"] < v["parent"]
    assert v["parent"] - v["change"] < v["spread"] and v["verdict"] == "within bound"


def test_fewer_than_ten_pairs_claim_no_gain():
    v = ab.verdict(PARENT[:3], [p - 0.1 for p in PARENT[:3]], "lower", 0.25)
    assert (v["wins"], v["pairs"], v["verdict"]) == (3, 3, "within bound")


def test_ties_count_for_neither_side():
    v = ab.verdict(PARENT, list(PARENT), "lower", 0.25)
    assert (v["wins"], v["verdict"]) == (0, "within bound")


def test_higher_is_better_metrics_win_upwards():
    v = ab.verdict(PARENT, [p + 0.1 for p in PARENT], "higher", 0.02)
    assert (v["wins"], v["verdict"]) == (10, "gain")
    assert ab.verdict(PARENT, [p - 0.1 for p in PARENT], "higher", 0.02)["verdict"] == "regression"


def test_a_regression_is_worse_than_the_bound():
    assert ab.verdict(PARENT, [1.3 * p for p in PARENT], "lower", 0.25)["verdict"] == "regression"
    assert ab.verdict(PARENT, [1.2 * p for p in PARENT], "lower", 0.25)["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 2.0] * 5
    v = ab.verdict(noisy, [1.1, 1.9] * 5, "lower", 0.25)
    assert v["spread"] == 1.0 and v["verdict"] == "unresolved"


@pytest.mark.parametrize("better, sign", [("lower", 1.0), ("higher", -1.0)])
def test_under_a_wide_spread_every_run_better_reads_better(better, sign):
    noisy = [sign * v for v in [1.0, 2.0] * 5]
    # Every run of the change beats every run of the parent, but the medians
    # differ by less than the parent's spread: no gain, yet resolved.
    separated = [sign * 0.99] * 10
    v = ab.verdict(noisy, separated, better, 0.25)
    assert v["wins"] == 10 and abs(v["parent"] - v["change"]) < v["spread"]
    assert v["verdict"] == "better"
    # One change run as bad as the parent's best run: unresolved again.
    assert ab.verdict(noisy, separated[:9] + [sign * 1.0], better, 0.25)["verdict"] == "unresolved"
    # A larger failed share voids it.
    more = ((0, 20), (1, 20))
    assert ab.verdict(noisy, separated, better, 0.25, more)["verdict"] == "unresolved"


def test_more_failures_void_a_gain():
    faster = [p - 0.1 for p in PARENT]
    more, same = ((0, 20), (1, 20)), ((1, 20), (1, 20))
    assert ab.verdict(PARENT, faster, "lower", 0.25, more)["verdict"] == "within bound"
    assert ab.verdict(PARENT, faster, "lower", 0.25, same)["verdict"] == "gain"


def test_failed_shares_compare_as_fractions():
    assert ab.more_failed(((1, 20), (1, 10)))
    assert not ab.more_failed(((2, 20), (1, 10)))
    assert not ab.more_failed(((0, 0), (0, 0)))


def test_quartile_spread():
    assert ab.quartile_spread([3.0]) == 0.0
    assert ab.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def fake_checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    return parent, change, spec


def fake_result(spec, value, failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": 2, "failed": failed, "metrics": metrics}


def test_pairs_alternate_which_checkout_runs_first(monkeypatch, tmp_path, capsys):
    parent, change, spec = fake_checkouts(tmp_path)
    calls = []

    def fake_run(checkout, command, workload, seconds):
        calls.append((Path(checkout).name, workload))
        assert (command, seconds) == (spec["command"], spec["run_seconds"])
        return fake_result(spec, 1.0 if Path(checkout) == parent else 2.0)

    monkeypatch.setattr(ab, "run", fake_run)
    assert ab.main([str(parent), str(change), "--pairs", "3"]) == 1
    first = spec["workloads"][0]["name"]
    assert [name for name, w in calls if w == first] == [
        "parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    assert f"{first}: failed/attempted parent 0/6, change 0/6\n" in out
    assert "won 0/3  regression" in out


def test_a_larger_failed_share_fails_the_comparison(monkeypatch, tmp_path, capsys):
    parent, change, spec = fake_checkouts(tmp_path)

    def fake_run(checkout, command, workload, seconds):
        # Equal metrics, but the change fails one operation per run.
        return fake_result(spec, 1.0, failed=int(Path(checkout) == change))

    monkeypatch.setattr(ab, "run", fake_run)
    assert ab.main([str(parent), str(change), "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "regression" not in out
    for w in spec["workloads"]:
        assert f"{w['name']}: failed/attempted parent 0/4, change 2/4  more failed" in out


def test_run_starts_the_benchmarks_command_untraced_at_its_default_seed(monkeypatch):
    started = []

    def fake_bench(checkout, command, workload, *options):
        started.append([*command, "--workload", workload, *options])
        return 'progress\n{"metrics": {"solve_s": {"value": 1.0}}}\n'

    monkeypatch.setattr(ab, "bench", fake_bench)
    result = ab.run("c", ["python3", "perfbench/run.py"], "w", 10)
    assert result == {"metrics": {"solve_s": {"value": 1.0}}}
    assert started == [["python3", "perfbench/run.py", "--workload", "w",
                        "--seconds", "10", "--trace", "0"]]
