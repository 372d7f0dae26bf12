"""Tests of the benchmark itself: span arithmetic, the output gate,
metric names against BENCHMARK.json, and a tiny run of every workload.

Run from the repository root: python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import spans

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _span(sid, parent, name, start, end, vals=()):
    return (sid, 1, parent, name, start, end, vals)


def test_self_times_subtract_covered_child_intervals():
    tree = [
        _span(1, 0, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 2, "c", 2.0, 3.0),
        _span(4, 1, "b", 5.0, 9.0),
        _span(5, 4, "d", 5.0, 7.0),
        _span(6, 4, "e", 6.0, 8.0),  # overlaps d: 5..8 is covered once
        _span(7, 3, "f", 2.5, 3.5),  # runs past its parent c: clipped at 3.0
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 0.5, 4: 1.0, 5: 2.0, 6: 2.0, 7: 1.0})


def test_layer_metrics_split_probe_space_time_by_caller():
    tree = [
        _span(1, 0, "cli.solve", 0.0, 10.0),
        _span(2, 1, "solvers.solve", 1.0, 9.0, (100, 40)),
        # graph: primers, probes, edges, pruned, rss growth
        _span(3, 2, "instance.build_graph", 1.0, 6.0, (200, 50, 300, 2, 3 * 2**20)),
        _span(4, 3, "probespace.adjacency", 1.0, 2.0, (7, 1)),
        _span(5, 4, "probespace.spectrum", 1.0, 1.5, (0,)),
        _span(6, 3, "probespace.adjacency", 2.0, 2.5, (5, 0)),
        _span(7, 0, "cli.verify", 10.0, 12.0),
        _span(8, 7, "decodability.verify", 10.5, 11.5, (40, 0)),
        _span(9, 8, "probespace.adjacency", 10.5, 11.0, (6, 1)),
    ]
    m = spans.layer_metrics(tree)
    assert m["instance.build_graph_s"] == pytest.approx(5.0)
    assert m["instance.build_graph_self_s"] == pytest.approx(3.5)
    assert m["instance.build_graph_rss_mb"] == pytest.approx(3.0)
    assert m["instance.graph_edges"] == 300
    assert m["solvers.self_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(2.0 + 1.0)
    assert m["probespace.adjacency_calls"] == 3
    assert m["probespace.spectrum_calls"] == 1
    assert m["probespace.edges"] == 18
    assert m["probespace.adjacency_s"] == pytest.approx(2.0)
    assert m["probespace.adjacency_graph_s"] == pytest.approx(1.5)
    assert m["probespace.adjacency_verify_s"] == pytest.approx(0.5)
    assert m["probespace.adjacency_seq_s"] == 0
    assert m["probespace.first_call_s"] == pytest.approx(1.5)
    assert m["decodability.self_s"] == pytest.approx(0.5)
    assert m["decodability.checked_pools"] == 40
    assert m["partition.rounds"] == 0


def test_gate_catches_repeated_witnesses_and_overlapping_arrays():
    SelectedPool = run.load_snpmux().decodability.SelectedPool

    a = [SelectedPool(0, 0, (221, 221)), SelectedPool(1, 0, (5, 9))]
    b = [SelectedPool(1, 1, (3, 4))]
    assert len(gate.check_witnesses(a, 2)) == 1
    manifest = {"arrays": "2", "covered": "3"}
    coverage = [(1, "0.666667"), (2, "1.000000")]
    problems = gate.check_partition(manifest, [a, b], coverage, [], [], [0, 1, 2])
    assert any("more than one array" in p for p in problems)
    assert any("add up" in p for p in problems)


def test_ledger_compares_reports_only_within_one_code_hash(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "cli.py").write_text("VERSION = 1\n")
    old_code = gate.sha256_sources(src)
    (src / "cli.py").write_text("VERSION = 2\n")
    new_code = gate.sha256_sources(src)
    assert old_code != new_code
    old_key = run.ledger_key("partition-kmer8-r2", old_code, 300, 7) + "/design"
    new_key = run.ledger_key("partition-kmer8-r2", new_code, 300, 7) + "/design"
    old_report, new_report = tmp_path / "old.txt", tmp_path / "new.txt"
    old_report.write_text("# version=1\n")
    new_report.write_text("# version=2\n")

    ledger = gate.Ledger(str(tmp_path / "ledger.json"))
    assert ledger.check(old_key, str(old_report)) is None
    ledger.save()
    ledger = gate.Ledger(str(tmp_path / "ledger.json"))
    assert ledger.check(new_key, str(new_report)) is None
    assert ledger.check(old_key, str(old_report)) is None
    assert ledger.check(old_key, str(new_report)) is not None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_emits_exactly_the_declared_metrics(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_CYCLES", 1)
    result = run.run_workload(name, 7, 0, trace, tmp_path, pools=300, out=sys.stderr)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "partition-kmer8-r2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env={"PATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""
