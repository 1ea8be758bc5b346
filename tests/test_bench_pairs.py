"""The verdicts of ``tools/bench_pairs.py``, which writes each ``BENCH_*.json``.

The tool is imported, never modified or run against the repository here:
its verdict and summary are checked on synthetic pairs, a run too short
to give a spread is refused before anything is copied or run, and the
traced record is checked on stubbed runs written under a temporary root.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def tool():
    sys.path.insert(0, str(TOOLS))
    try:
        return importlib.import_module("bench_pairs")
    finally:
        sys.path.remove(str(TOOLS))


LOWER = {"name": "us_per_fe", "better": "lower", "bound": 0.2}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.2}


def pairs_of(parent, change, name="us_per_fe"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


PARENT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


class TestSummarize:
    def test_a_tie_counts_for_neither_side(self, tool):
        summary = tool.summarize(pairs_of(PARENT, PARENT), [LOWER])["us_per_fe"]
        assert summary["change_better_in"] == "0 of 10 pairs"
        assert summary["verdict"] == "within bound"
        assert summary["median_change"] == 0.0

    def test_gain_needs_nine_of_ten_wins(self, tool):
        faster = [p - 0.1 for p in PARENT]
        summary = tool.summarize(pairs_of(PARENT, faster), [LOWER])["us_per_fe"]
        assert summary["change_better_in"] == "10 of 10 pairs"
        assert summary["verdict"] == "gain"
        nine = faster[:9] + [PARENT[9]]  # the last pair ties
        assert tool.summarize(pairs_of(PARENT, nine), [LOWER])["us_per_fe"]["verdict"] == "gain"
        eight = faster[:8] + PARENT[8:]
        summary = tool.summarize(pairs_of(PARENT, eight), [LOWER])["us_per_fe"]
        assert summary["change_better_in"] == "8 of 10 pairs"
        assert summary["verdict"] == "within bound"

    def test_gain_needs_a_gap_above_the_parents_spread(self, tool):
        # every pair won by less than the parent's interquartile range
        summary = tool.summarize(pairs_of(PARENT, [p - 0.001 for p in PARENT]), [LOWER])["us_per_fe"]
        assert summary["change_better_in"] == "10 of 10 pairs"
        assert summary["parent"]["q3"] - summary["parent"]["q1"] > 0.001
        assert summary["verdict"] == "within bound"

    def test_higher_is_better_metrics_win_upward(self, tool):
        summary = tool.summarize(pairs_of(PARENT, [p + 0.1 for p in PARENT], "rate"), [HIGHER])["rate"]
        assert summary["verdict"] == "gain"

    def test_a_metric_either_side_lacks_is_left_out(self, tool):
        pairs = [{"parent": {"us_per_fe": 1.0}, "change": {}}] * 3
        assert tool.summarize(pairs, [LOWER]) == {}


class TestVerdict:
    @staticmethod
    def side(median, q1=None, q3=None):
        return {"median": median, "q1": median if q1 is None else q1, "q3": median if q3 is None else q3}

    def test_worse_means_worse_by_more_than_the_bound(self, tool):
        parent = self.side(1.0)
        assert tool.verdict(parent, self.side(1.25), 0, 10, True, 0.2) == "worse"
        assert tool.verdict(parent, self.side(1.15), 0, 10, True, 0.2) == "within bound"
        assert tool.verdict(parent, self.side(0.75), 0, 10, False, 0.2) == "worse"
        assert tool.verdict(parent, self.side(0.85), 0, 10, False, 0.2) == "within bound"

    def test_unresolved_means_the_parents_spread_exceeds_the_bound(self, tool):
        wide = self.side(1.0, 0.8, 1.3)
        assert tool.verdict(wide, self.side(1.1), 5, 10, True, 0.2) == "unresolved"
        assert tool.verdict(self.side(1.0, 0.95, 1.05), self.side(1.1), 5, 10, True, 0.2) == "within bound"
        assert tool.verdict(wide, self.side(1.3), 0, 10, True, 0.2) == "worse"  # worse comes first

    def test_gain_needs_nine_in_ten_wins_and_a_gap_above_the_parents_spread(self, tool):
        parent = self.side(1.0, 0.95, 1.05)
        assert tool.verdict(parent, self.side(0.85), 9, 10, True, 0.2) == "gain"
        assert tool.verdict(parent, self.side(0.85), 8, 10, True, 0.2) == "within bound"
        assert tool.verdict(parent, self.side(0.96), 10, 10, True, 0.2) == "within bound"
        wide = self.side(1.0, 0.8, 1.3)  # a gap above a spread wider than the bound is still a gain
        assert tool.verdict(wide, self.side(0.4), 10, 10, True, 0.2) == "gain"


def test_one_pair_is_refused_before_anything_runs(tool, capsys, monkeypatch):
    root = Path(tool.ROOT)
    before = sorted(root.glob("BENCH_*.json"))
    monkeypatch.setattr(tool, "bench", lambda *args: pytest.fail("a benchmark ran"))
    monkeypatch.setattr(tool, "checkout", lambda *args: pytest.fail("a tree was copied"))
    argv = ["--parent", "HEAD", "--pr", "999999", "--workload", "paper-d10", "--seeds", "1", "--pairs", "1"]
    with pytest.raises(SystemExit) as exit_info:
        tool.main(argv)
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert sorted(root.glob("BENCH_*.json")) == before


def test_traced_runs_every_workload(tool, tmp_path, monkeypatch):
    """``--traced`` runs parent, change, change, parent at seed 0 on each workload and records them there."""
    (tmp_path / "BENCHMARK.json").write_text((Path(tool.ROOT) / "BENCHMARK.json").read_text())
    calls = []

    def bench(tree, workload, seed, trace):
        calls.append((tree, workload, seed, trace))
        values = {"us_per_fe": 1.0, "swarm_ops.pso_step.calls": len(calls), "optimizer.us_per_iteration": 2.0}
        values |= {"core.transform.us_per_call": 3.0, "core.transform.share": 0.125, "cli.import_s": 0.05}
        return {"failed": 0, "correct": True, "values": values}

    monkeypatch.setattr(tool, "ROOT", str(tmp_path))
    monkeypatch.setattr(tool, "git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(tool, "checkout", lambda ref, into: "parent-tree")
    monkeypatch.setattr(tool, "copy_working_tree", lambda into: "change-tree")
    monkeypatch.setattr(tool, "bench", bench)
    argv = ["--parent", "HEAD", "--pr", "7", "--pairs", "2", "--traced"]
    argv += ["--workload", "paper-d10", "--seeds", "11", "--workload", "campaign-jobs2", "--seeds", "31"]
    assert tool.main(argv) == 0

    traced = [call for call in calls if call[3] == 1]
    order = ["parent-tree", "change-tree", "change-tree", "parent-tree"]
    assert traced == [(tree, w, 0, 1) for w in ("paper-d10", "campaign-jobs2") for tree in order]
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    for workload, first_seed in (("paper-d10", 11), ("campaign-jobs2", 31)):
        entry = record["workloads"][workload]["traced_seed0"]
        assert entry["command"] == f"python3 perfbench/run.py --workload {workload} --seed 0 --trace 1"
        assert [run["side"] for run in entry["runs"]] == ["parent", "change", "change", "parent"]
        assert all(run["correct"] and run["optimizer.us_per_iteration"] == 2.0 for run in entry["runs"])
        # the rotation's cost and the import time reach the record
        for run in entry["runs"]:
            assert (run["core.transform.us_per_call"], run["core.transform.share"], run["cli.import_s"]) == (3.0, 0.125, 0.05)
        assert all(set(run["counts"]) == {"swarm_ops.pso_step.calls"} for run in entry["runs"])
        assert [pair["seed"] for pair in record["workloads"][workload]["pairs"]] == [first_seed, first_seed + 1]



@pytest.mark.parametrize("parent_failed, change_failed, code", [(0, 0, 0), (1, 0, 0), (2, 2, 0), (0, 1, 1), (1, 2, 1)])
def test_failed_runs_are_totalled_and_more_of_them_fail_the_run(tool, tmp_path, monkeypatch, parent_failed, change_failed, code):
    """Each workload records both sides' failed runs; the change failing more on any one workload exits 1."""
    (tmp_path / "BENCHMARK.json").write_text((Path(tool.ROOT) / "BENCHMARK.json").read_text())
    failed = {"parent-tree": parent_failed, "change-tree": change_failed}

    def bench(tree, workload, seed, trace):
        # runs fail on paper-d10 only; campaign-jobs2 fails none on either side
        return {"failed": failed[tree] if workload == "paper-d10" else 0, "correct": True, "values": {"us_per_fe": 1.0}}

    monkeypatch.setattr(tool, "ROOT", str(tmp_path))
    monkeypatch.setattr(tool, "git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(tool, "checkout", lambda ref, into: "parent-tree")
    monkeypatch.setattr(tool, "copy_working_tree", lambda into: "change-tree")
    monkeypatch.setattr(tool, "bench", bench)
    argv = ["--parent", "HEAD", "--pr", "7", "--pairs", "3"]
    argv += ["--workload", "paper-d10", "--seeds", "11", "--workload", "campaign-jobs2", "--seeds", "31"]
    assert tool.main(argv) == code

    workloads = json.loads((tmp_path / "BENCH_7.json").read_text())["workloads"]  # written either way
    assert workloads["paper-d10"]["failed"] == {"parent": 3 * parent_failed, "change": 3 * change_failed}
    assert workloads["campaign-jobs2"]["failed"] == {"parent": 0, "change": 0}
