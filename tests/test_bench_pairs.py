"""tools/bench_pairs.py keeps each run's correctness and exit status."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    """The tool with git, the exports and bench/run.py stubbed out; its
    ``runs`` maps (tree name, seed) to the stub's (correct, exit status),
    clean for every run not named."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.runs = {}
    benchmark = (TOOL.parent.parent / "BENCHMARK.json").read_text()

    def export(treeish, dest):
        dest.mkdir()
        (dest / "BENCHMARK.json").write_text(benchmark)

    def bench(tree, workload, seed, trace):
        correct, code = tool.runs.get((tree.name, seed), (True, 0))
        metrics = {m["name"]: {"value": 1.0 + seed}
                   for m in json.loads(benchmark)["end_to_end"]}
        return {"correct": correct, "attempted": 3, "failed": 0,
                "metrics": metrics, "exit": code,
                "environment": {"python": "3"}}

    monkeypatch.setattr(tool, "git", lambda *args, **kwargs: "0" * 40)
    monkeypatch.setattr(tool, "working_tree", lambda tmp: "0" * 40)
    monkeypatch.setattr(tool, "export", export)
    monkeypatch.setattr(tool, "bench", bench)
    return tool


def test_pair_keeps_correct_and_exit_status(bench_pairs):
    bench_pairs.runs[("change", 3)] = (False, 1)
    p = bench_pairs.pair({"parent": Path("parent"), "change": Path("change")},
                         "desk-ojtrta", 3, 0)
    assert (p["parent_correct"], p["parent_exit"]) == (True, 0)
    assert (p["change_correct"], p["change_exit"]) == (False, 1)
    assert bench_pairs.faults([p]) == [
        "change run, seed 3: correct False, exit status 1"]


def test_main_writes_the_json_then_fails_naming_the_bad_runs(
        bench_pairs, tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["HEAD", "desk-ojtrta", "0", "1",
                             "--out", str(out)]) == 0
    assert capsys.readouterr().err.count("error") == 0

    bench_pairs.runs[("parent", 1)] = (False, 0)
    bench_pairs.runs[("change", 5)] = (True, 2)
    assert bench_pairs.main(["HEAD", "desk-ojtrta", "0", "1", "--out",
                             str(out), "--unused-seed", "5"]) == 1
    err = capsys.readouterr().err
    assert "error: parent run, seed 1: correct False, exit status 0" in err
    assert "error: change run, seed 5: correct True, exit status 2" in err
    assert err.count("error") == 2
    entry = json.loads(out.read_text())["workloads"]["desk-ojtrta"]
    assert [p["parent_correct"] for p in entry["pairs"]] == [True, False]
    assert entry["unused_seed"]["change_exit"] == 2
