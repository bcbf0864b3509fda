"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json
    python3 perfbench/child.py --setup-only

Imports relpoly from the checkout's src/, runs the operations listed in
SPEC.json through relpoly.cli.main, checks each output, and writes the pass's
wall time, peak RSS and per-operation verdicts to RESULT.json.  Every pass
gets its own interpreter because relpoly.scan keeps a module-global memo: a
second scan in one process would skip the member DC that a CLI user always
pays for.  With "spans" set in SPEC.json the pass runs traced and writes the
spans there.  --setup-only imports the program and prints the time the
import finished, which ends the interpreter start and import part of set-up.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    """relpoly.cli from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import relpoly.cli

    if not Path(relpoly.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"relpoly was imported from {relpoly.cli.__file__}, not {SRC}")
    return relpoly.cli


def check(expect: dict, rc: int, stdout: str) -> str | None:
    """None when the output passes its check, else the reason it fails."""
    if rc != 0:
        return f"exit code {rc}"
    if "sha256" in expect:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != expect["sha256"]:
            return f"sha256 {digest} != pinned {expect['sha256']}"
        return None
    out = json.loads(stdout)
    if out.get("verdict") != "pass" or out.get("trials") != expect["mc_trials"]:
        return f"Monte Carlo cross-check {out.get('verdict')!r} over {out.get('trials')} trials"
    return None


def run_ops(main, ops: list[dict], tracer=None) -> tuple[float, list[dict]]:
    """Run each operation, check it, and return (wall seconds from the first
    operation to the last checked output, per-operation verdicts)."""
    verdicts = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = main(op["argv"])
                else:
                    rc = tracer.operation(op_id, main, op["argv"])
            why = check(op["expect"], rc, out.getvalue())
        except Exception:  # an operation that raises is a failed operation
            why = traceback.format_exc()
        if why is not None and err.getvalue():
            why += "; stderr: " + err.getvalue().strip()
        verdicts.append({"id": op["id"], "ok": why is None, "why": why})
    return time.perf_counter() - start, verdicts


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        import_cli()
        # CLOCK_MONOTONIC is one clock for every process on the machine
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    cli = import_cli()
    tracer = None
    if spec.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall, verdicts = run_ops(cli.main, spec["ops"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(spec["spans"]))
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "ops": verdicts}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
