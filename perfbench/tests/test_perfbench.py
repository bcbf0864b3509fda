"""Tests of the benchmark itself: output gate, seeded inputs, tracing.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = child.import_cli()


def _single_graph_ops(tmp_path, seed, ids):
    inputs = workloads.write_inputs(tmp_path, seed)
    return [op for op in workloads.operations("single-graph", seed, inputs) if op["id"] in ids]


def test_wrong_digest_is_a_failed_operation(tmp_path):
    (good,) = _single_graph_ops(tmp_path, 1, {"compare-tutte"})
    bad = dict(good, id="compare-wrong", expect={"sha256": "0" * 64})
    _, verdicts = child.run_ops(CLI.main, [good, bad])
    assert [v["ok"] for v in verdicts] == [True, False]
    assert "pinned" in verdicts[1]["why"]


def test_failed_exit_and_failed_cross_check_are_failed_operations():
    assert child.check({"sha256": "x"}, 2, "") == "exit code 2"
    failing = json.dumps({"verdict": "fail", "trials": 10})
    assert child.check({"mc_trials": 10}, 0, failing) is not None
    passing = json.dumps({"verdict": "pass", "trials": 10})
    assert child.check({"mc_trials": 10}, 0, passing) is None
    assert child.check({"mc_trials": 11}, 0, passing) is not None


def test_raising_operation_is_a_failed_operation():
    def broken_main(argv):
        raise RuntimeError("boom")

    _, verdicts = child.run_ops(broken_main, [{"id": "x", "argv": [], "expect": {}}])
    assert not verdicts[0]["ok"] and "boom" in verdicts[0]["why"]


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for d in (a, b, c):
        d.mkdir()
    workloads.write_inputs(a, 7)
    workloads.write_inputs(b, 7)
    workloads.write_inputs(c, 8)
    names = [f"{name}.txt" for name in workloads.SINGLE_GRAPH_INPUTS]
    assert all((a / n).read_text() == (b / n).read_text() for n in names)
    assert any((a / n).read_text() != (c / n).read_text() for n in names)


@pytest.mark.parametrize("seed", [2, 3])
def test_label_free_outputs_match_their_digests_for_any_seed(tmp_path, seed):
    ops = _single_graph_ops(tmp_path, seed, {"rel-figure1_G", "compare-tutte", "poly-ladder8"})
    _, verdicts = child.run_ops(CLI.main, ops)
    assert all(v["ok"] for v in verdicts), verdicts


def test_self_times_subtract_direct_children():
    names = ["root", "child", "leaf"]
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (2, 2.0, 3.0, 1, 0),
        (1, 5.0, 6.0, 0, 0),
    ]
    assert tracer.self_times(names, spans) == {"root": 6.0, "child": 3.0, "leaf": 1.0}


def _traced_pass(ops):
    t = tracer.Tracer()
    t.install()
    try:
        wall, verdicts = child.run_ops(CLI.main, ops, t)
    finally:
        t.uninstall()
    trace = json.loads(json.dumps({"names": t.names, "spans": t.spans, "counters": t.counters}))
    return wall, verdicts, tracer.layer_metrics(trace)


def test_traced_pass_checks_outputs_and_counts_repeat(tmp_path):
    import relpoly.tutte

    original = relpoly.tutte._dc_block
    ops = _single_graph_ops(tmp_path, 4, {"rel-figure1_G", "compare-tutte"})
    wall, verdicts, first = _traced_pass(ops)
    _, _, second = _traced_pass(ops)
    assert relpoly.tutte._dc_block is original
    assert all(v["ok"] for v in verdicts), verdicts
    counts = [m for m in first if not m.endswith(("_s", ".s"))]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["tutte.dc.nodes"] > 0 and first["order.divide.calls"] == 1
    assert 0 < first["tutte.memo.hit_ratio"] < 1
    assert first["trace.self_sum_s"] <= wall


def test_declared_metrics_are_the_reported_ones():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    empty = {"names": [], "spans": [], "counters": tracer.Tracer().counters}
    reported = set(tracer.layer_metrics(empty)) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in declared["per_layer"]} == reported
    assert {m["name"] for m in declared["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-c8-18", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
