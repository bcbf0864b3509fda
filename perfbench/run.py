"""relpoly benchmark: exact class scans and a single-graph pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; relpoly is imported from its src/.  Each
pass runs in a fresh interpreter (perfbench/child.py), serially, with no
worker pool.  Passes repeat while another one is predicted to end within
--seconds; there is always at least one.  Every operation's output is
checked against a pinned digest (workloads.py, design.json).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the median
pass wall time, the median of the set-ups (input generation, then a fresh
interpreter up to the end of the import of relpoly; four before each pass)
and the median peak RSS of a pass.  --trace 1 runs
one untraced and one traced pass and reports the per-layer metrics from the
traced pass's spans (tracer.py) plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_SAMPLES_PER_PASS = 4
RUN_LIMIT_S = 170  # a run must end within 180 s

clock = time.perf_counter


def child_env() -> dict[str, str]:
    """The caller's environment without a worker count or a foreign path."""
    return {k: v for k, v in os.environ.items() if k not in ("RELPOLY_WORKERS", "PYTHONPATH")}


def setup_sample(workload: str, seed: int, work: Path) -> float:
    """Seconds to generate the inputs and start an interpreter that imports
    relpoly, up to the end of the import as the child reads the clock.  The
    child's exit is not waited for on the clock: with a timeout, Popen.wait
    polls in sleeps of up to 50 ms."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    if workload == "single-graph":
        workloads.write_inputs(work, seed)
    proc = subprocess.run([sys.executable, str(CHILD), "--setup-only"], cwd=work,
                          env=child_env(), capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout) - start


def run_pass(ops: list[dict], work: Path, deadline: float, spans: Path | None = None) -> dict:
    """One pass in a fresh interpreter.  A child that dies, times out or
    writes no result fails every operation of the pass."""
    spec, result = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps({"ops": ops, "spans": str(spans) if spans else None}))
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(spec), str(result)], cwd=work,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - clock()))
        problem = proc.stderr.strip() if proc.returncode else None
    except subprocess.TimeoutExpired:
        problem = "pass timed out"
    if problem is None and result.exists():
        out = json.loads(result.read_text())
    else:
        why = problem or "child wrote no result"
        out = {"wall_s": None, "peak_rss_mb": None,
               "ops": [{"id": op["id"], "ok": False, "why": why} for op in ops]}
    for verdict in out["ops"]:
        if not verdict["ok"]:
            print(f"FAILED {verdict['id']}: {verdict['why']}", file=sys.stderr)
    return out


def timed_run(workload, seed, seconds, ops, work, deadline):
    """Rounds of set-up samples and one pass each, while another round is
    predicted to end within `seconds`.  Spreading the set-up samples over
    the run keeps their median from following a short slow spell."""
    setup_sample(workload, seed, work)  # warm-up: byte-compiles src/ once
    setups, passes = [], []
    start = clock()
    longest = 0.0
    while True:
        round_start = clock()
        setups += [setup_sample(workload, seed, work) for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(run_pass(ops, work, deadline))
        now = clock()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds or now + 2 * longest > deadline:
            break
    ok = [p for p in passes if p["wall_s"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in ok) if ok else None,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok) if ok else None,
    }
    return passes, metrics, True


def traced_run(ops, work, deadline):
    plain = run_pass(ops, work, deadline)
    spans = work / "spans.json"
    traced = run_pass(ops, work, deadline, spans=spans)
    if plain["wall_s"] is None or traced["wall_s"] is None:
        return [plain, traced], {}, False
    metrics = tracer.layer_metrics(json.loads(spans.read_text()))
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # self times partition the time under the operations' root spans, which
    # lie inside the traced wall time
    sound = metrics["trace.self_sum_s"] <= traced["wall_s"]
    if not sound:
        print(f"summed self time {metrics['trace.self_sum_s']} exceeds traced wall time "
              f"{traced['wall_s']}", file=sys.stderr)
    return [plain, traced], metrics, sound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "relpoly" / "cli.py").is_file():
        print(f"no relpoly sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    deadline = clock() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        inputs = workloads.write_inputs(work, args.seed) if args.workload == "single-graph" else {}
        ops = workloads.operations(args.workload, args.seed, inputs)
        if args.trace:
            passes, values, sound = traced_run(ops, work, deadline)
        else:
            passes, values, sound = timed_run(args.workload, args.seed, args.seconds, ops, work,
                                              deadline)

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not v["ok"] for p in passes for v in p["ops"])
    metrics = {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
        for m in wanted
    }
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes if p["wall_s"] is not None)
    print(f"{args.workload} seed {args.seed}: {attempted} operations in {len(passes)} passes "
          f"(wall s: {walls})")
    for name, metric in metrics.items():
        print(f"  {name:26} {metric['value']} {metric['unit']}")
    print(f"  {'failed_ops_ratio':26} {failed / attempted:.6g} (failed / attempted)")
    print(json.dumps({"correct": sound and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
