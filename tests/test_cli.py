"""End-to-end CLI checks: schemas, exit codes, determinism."""
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import relpoly
from relpoly.cli import main
from relpoly.graphs import SimpleGraph, fixture, to_graph6
from relpoly.poly import BivarPoly
from relpoly.tutte import tutte_dc, whitney


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rel_example(capsys):
    code, out, _ = run_cli(capsys, "rel", "--graph", "fixture:cycle:3", "--k", "1", "--p", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/2"


def test_rel_via_tutte(capsys):
    code, out, _ = run_cli(
        capsys, "rel", "--graph", "fixture:cycle:4", "--k", "1", "--p", "1/3", "--via-tutte"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == payload["via_tutte"]


def test_rel_via_tutte_runs_deletion_contraction_once(capsys, monkeypatch):
    tutte_module = importlib.import_module("relpoly.tutte")
    original = tutte_module._dc_block
    nodes = []

    def spy(core, memo):
        nodes.append(core)
        return original(core, memo)

    monkeypatch.setattr(tutte_module, "_dc_block", spy)
    tutte_dc(fixture("figure1_G"))
    one_run = len(nodes)
    nodes.clear()
    code, out, _ = run_cli(
        capsys, "rel", "--graph", "fixture:figure1_G", "--k", "1", "--p", "1/2", "--via-tutte"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == payload["via_tutte"] == "42605/65536"
    assert len(nodes) == one_run  # 157 nodes, where a DC per route made 314


def test_rel_refuses_k_and_p_before_deletion_contraction(capsys, monkeypatch):
    cli_module = importlib.import_module("relpoly.cli")
    calls = []

    def counting_tutte_dc(g):
        calls.append(g)
        return tutte_dc(g)

    monkeypatch.setattr(cli_module, "tutte_dc", counting_tutte_dc)
    rel = ("rel", "--graph", "fixture:cycle:3")
    assert run_cli(capsys, *rel, "--k", "1", "--p", "1/2")[0] == 0
    assert len(calls) == 1  # the spy sees the one deletion-contraction of a valid run
    for bad in (
        ("--k", "0", "--p", "1/2"),
        ("--k", "4", "--p", "1/2"),
        ("--k", "1", "--p=-1/2"),
        ("--k", "1", "--p", "3/2"),
        ("--k", "1", "--p", "0", "--via-tutte"),
        ("--k", "1", "--p", "1", "--via-tutte"),
    ):
        calls.clear()
        code, _, err = run_cli(capsys, *rel, *bad)
        assert (code, json.loads(err)["error"], calls) == (2, "usage", []), bad


def test_mc_and_rel_word_a_refusal_alike(capsys):
    graph = ("--graph", "fixture:cycle:3")
    for bad in (("--k", "0", "--p", "1/2"), ("--k", "4", "--p", "1/2"), ("--k", "1", "--p", "3/2")):
        mc = run_cli(capsys, "mc", *graph, *bad, "--trials", "10")
        rel = run_cli(capsys, "rel", *graph, *bad)
        assert mc[0] == rel[0] == 2, bad
        assert json.loads(mc[2]) == json.loads(rel[2]), bad


def test_compare_tutte_figure1(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--g", "fixture:figure1_G", "--h", "fixture:figure1_H", "--order", "tutte",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NegativeQuotient"
    quotient = BivarPoly.from_triples(payload["quotient"])
    assert quotient.coeff(0, 3) == -8
    assert quotient.coeff(1, 5) == 4


def test_compare_whitney_figure1(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--g", "fixture:figure1_G", "--h", "fixture:figure1_H", "--order", "whitney",
    )
    payload = json.loads(out)
    assert payload["verdict"] == "Dominates"
    assert all(int(c) > 0 for _, _, c in payload["quotient"])


def test_poly_methods_agree(capsys):
    _, out_dc, _ = run_cli(capsys, "poly", "--graph", "fixture:cycle:4", "--tutte")
    _, out_exp, _ = run_cli(
        capsys, "poly", "--graph", "fixture:cycle:4", "--tutte", "--method", "expansion"
    )
    assert json.loads(out_dc)["terms"] == json.loads(out_exp)["terms"]
    _, out_w, _ = run_cli(capsys, "poly", "--graph", "fixture:cycle:3", "--whitney")
    assert json.loads(out_w)["terms"] == [[0, 0, "3"], [0, 1, "1"], [1, 0, "3"], [2, 0, "1"]]


def test_poly_expansion_on_k8(capsys):
    # 28 edges: past the reach of a 2^m walk, well inside the census width
    code, out_exp, _ = run_cli(
        capsys, "poly", "--graph", "fixture:complete:8", "--method", "expansion"
    )
    assert code == 0
    _, out_dc, _ = run_cli(capsys, "poly", "--graph", "fixture:complete:8", "--method", "dc")
    assert json.loads(out_exp) == {**json.loads(out_dc), "method": "expansion"}


def test_counts_schema(capsys):
    code, out, _ = run_cli(capsys, "counts", "--graph", "fixture:cycle:3")
    payload = json.loads(out)
    assert payload["mu"] == ["1", "3", "0", "0"]
    assert payload["t"] == ["3", "3", "1"]
    assert payload["lambda"] == [2, 3, None]
    assert payload["table"]["counts"][0] == ["0", "0", "1"]


def test_scan_c44(capsys, tmp_path):
    csv_path = tmp_path / "digest.csv"
    code, out, _ = run_cli(
        capsys, "scan", "--n", "4", "--m", "4", "--csv", str(csv_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["members"]) == 2
    assert payload["theorem2_check"] is True
    assert payload["summary"]["whitney_max"] == 1
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("graph6,strong")
    assert len(lines) == 3


def test_scan_has_no_limit_option(capsys):
    # every scan report covers its whole class: a slice of it is refused
    # before anything is enumerated
    code, out, err = run_cli(capsys, "scan", "--n", "8", "--m", "18", "--limit", "40")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_scan_full_does_not_change_results(capsys):
    # every scan certifies every member; --full stays accepted, unlisted
    _, base, _ = run_cli(capsys, "scan", "--n", "5", "--m", "6")
    code, full, _ = run_cli(capsys, "scan", "--n", "5", "--m", "6", "--full")
    assert code == 0 and base == full
    with pytest.raises(SystemExit):
        main(["scan", "--help"])
    usage = capsys.readouterr().out
    assert "--csv" in usage and "--full" not in usage


def test_certify_maximum_and_expect_flag(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--graph", "fixture:cycle:4", "--n", "4", "--m", "4",
        "--order", "whitney", "--expect-maximum",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Maximum"

    code, out, _ = run_cli(
        capsys, "certify", "--graph", "g6:CN", "--n", "4", "--m", "4",
        "--order", "whitney", "--expect-maximum",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Counterexample"
    assert len(payload["counterexamples"]) == 1


def test_certify_full_collects_all(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--graph", "g6:CN", "--n", "4", "--m", "4", "--full"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 2


def test_mc_cross_check_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--graph", "fixture:cycle:3", "--k", "1", "--p", "1/2",
        "--trials", "20000", "--seed", "3", "--cross-check",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["exact"] == "1/2"


def test_graph_sources(capsys, tmp_path):
    edge_file = tmp_path / "triangle.txt"
    edge_file.write_text("3 3\n0 1\n1 2\n0 2\n")
    _, out_file, _ = run_cli(capsys, "counts", "--graph", str(edge_file))
    _, out_fixture, _ = run_cli(capsys, "counts", "--graph", "fixture:cycle:3")
    g6 = to_graph6(fixture("cycle", 3))
    _, out_g6, _ = run_cli(capsys, "counts", "--graph", f"g6:{g6}")
    assert out_file == out_fixture == out_g6


def test_usage_errors_are_json_on_stderr(capsys):
    code, out, err = run_cli(capsys, "rel", "--graph", "fixture:cycle:3", "--k", "1", "--p", "half")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "usage"

    code, _, err = run_cli(capsys, "counts", "--graph", "missing_file.txt")
    assert code == 2
    assert json.loads(err)["error"] == "parse"

    code, _, err = run_cli(capsys, "rel", "--graph", "g6:A_")  # missing required args
    assert code == 2
    assert json.loads(err)["error"] == "usage"

    # scans run serially with one memo, so these options were removed
    for option, value in (("--workers", "2"), ("--memo-cap", "5")):
        code, out, err = run_cli(capsys, "scan", "--n", "5", "--m", "6", option, value)
        assert code == 2 and not out
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "usage"


def test_empty_class_is_usage_refusal(capsys):
    # C(3, 10) is empty: three vertices carry at most three edges
    for argv in (
        ["scan", "--n", "3", "--m", "10"],
        ["certify", "--graph", "fixture:cycle:3", "--n", "3", "--m", "10"],
        ["scan", "--n", "0", "--m", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "usage", argv


def test_out_of_range_k_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "rel", "--graph", "fixture:cycle:3", "--k", "9", "--p", "1/2"
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


_C3 = ["--graph", "fixture:cycle:3"]
_MC = ["mc", *_C3, "--k", "1", "--p", "1/2", "--trials", "100"]

# one malformed or out-of-scope argv per subcommand at least, with the
# error kind and exit code it must get
_REFUSALS = [
    (["poly", "--graph", "g6:"], "parse", 2),
    (["poly", "--graph", "fixture:complete:12", "--method", "expansion"], "budget", 3),
    (["counts", "--graph", "fixture:no_such_fixture"], "parse", 2),
    (["counts", "--graph", "g6:C`"], "input", 2),
    (["counts", "--graph", "."], "parse", 2),
    (["counts", "--graph", "{tmp}/latin1.txt"], "parse", 2),
    (["rel", *_C3, "--k", "0", "--p", "1/2"], "usage", 2),
    (["rel", *_C3, "--k", "1", "--p", "3/2"], "usage", 2),
    (["rel", *_C3, "--k", "1", "--p", "1", "--via-tutte"], "usage", 2),
    (["rel", *_C3, "--k", "one", "--p", "1/2"], "usage", 2),
    (["compare", "--g", "fixture:cycle:3", "--h", "fixture:cycle:4"], "parse", 2),
    (["compare", "--g", "fixture:cycle:3", "--h", "fixture:cycle:3", "--order", "x"],
     "usage", 2),
    (["scan", "--n", "10", "--m", "9"], "budget", 3),
    (["scan", "--n", "5", "--m", "6", "--limit", "0"], "usage", 2),
    (["scan", "--n", "4", "--m", "4", "--csv", "{tmp}/no_such_dir/digest.csv"], "usage", 2),
    (["certify", *_C3, "--n", "4", "--m", "4"], "parse", 2),
    (["certify", *_C3, "--n", "3"], "usage", 2),
    (["mc", *_C3, "--k", "1", "--p", "1/2", "--trials", "0"], "usage", 2),
    (["mc", *_C3, "--k", "0", "--p", "1/2", "--trials", "100"], "usage", 2),
    (["mc", *_C3, "--k", "1", "--p", "3/2", "--trials", "100"], "usage", 2),
    ([*_MC, "--seed", "-1"], "usage", 2),
    ([*_MC, "--seed", str(2**64)], "usage", 2),
    (["mc", "--graph", "g6:C`", "--k", "1", "--p", "1/2", "--trials", "100",
      "--cross-check"], "input", 2),
    (["frobnicate"], "usage", 2),
]


@pytest.mark.parametrize(
    "argv, kind, exit_code", _REFUSALS, ids=[" ".join(argv) for argv, _, _ in _REFUSALS]
)
def test_cli_refusal_contract(capsys, tmp_path, argv, kind, exit_code):
    (tmp_path / "latin1.txt").write_bytes(b"3 1\n0 1 \xe9\n")  # not UTF-8
    code, out, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == exit_code and not out
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == kind
    assert payload["message"]


def test_mc_cross_check_refuses_disconnected_graph(capsys):
    # only --cross-check needs the exact count table; plain estimates run
    argv = ["mc", "--graph", "g6:C`", "--k", "2", "--p", "1/2", "--trials", "100"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert 0 < json.loads(out)["mean"] <= 1
    code, out, err = run_cli(capsys, *argv, "--cross-check")
    assert code == 2 and not out
    assert json.loads(err) == {
        "error": "input", "message": "graph has 2 components; need a connected graph"
    }


def test_internal_fault_is_not_a_parse_error(capsys, monkeypatch):
    # exit 1 means a negative verdict; a bug in the program gets its own kind
    def broken(*args, **kwargs):
        raise ValueError("simulated fault")

    monkeypatch.setattr("relpoly.cli.whitney", broken)
    code, out, err = run_cli(capsys, "counts", "--graph", "fixture:cycle:3")
    assert code == 4 and not out
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "internal", "message": "ValueError: simulated fault"}


def test_table_invariant_failure_is_internal(capsys, monkeypatch):
    # the graph is checked connected first, so a bad table means a wrong polynomial
    def off_by_x(g):
        return whitney(g) + BivarPoly.x()

    monkeypatch.setattr("relpoly.cli.whitney", off_by_x)
    code, out, err = run_cli(capsys, "counts", "--graph", "fixture:cycle:4")
    assert code == 4 and not out
    assert json.loads(err) == {
        "error": "internal",
        "message": "TableConsistencyError: row 2 sums to 7, expected C(4,2) = 6",
    }


def test_certify_dimension_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "certify", "--graph", "fixture:cycle:3", "--n", "4", "--m", "4"
    )
    assert code == 2
    assert json.loads(err)["error"] == "parse"


def _fail_if_enumerated(spec):
    raise AssertionError("enumerate_class called before the class check")


def test_certify_checks_class_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr("relpoly.cli.enumerate_class", _fail_if_enumerated)
    code, out, err = run_cli(
        capsys, "certify", "--graph", "fixture:cycle:4", "--n", "8", "--m", "18"
    )
    assert code == 2 and not out
    assert json.loads(err)["error"] == "parse"


def test_certify_refuses_disconnected_graph_before_enumerating(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("relpoly.cli.enumerate_class", _fail_if_enumerated)
    # K7 (21 edges) less three edges, beside an isolated vertex: (8, 18), disconnected
    dropped = {(0, 1), (2, 3), (4, 5)}
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) not in dropped]
    path = tmp_path / "split.txt"
    path.write_text(f"8 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run_cli(capsys, "certify", "--graph", str(path), "--n", "8", "--m", "18")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "input"


def test_budget_refusal_exit_code(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "poly", "--graph", "fixture:complete:12", "--method", "expansion"
    )
    assert time.perf_counter() - start < 1  # refused before any census state
    assert code == 3
    assert json.loads(err)["error"] == "budget"

    code, _, err = run_cli(capsys, "scan", "--n", "10", "--m", "9")
    assert code == 3


_SMALL_CALLS = {
    "poly": ["poly", "--graph", "fixture:figure1_G", "--whitney"],
    "counts": ["counts", "--graph", "fixture:figure1_G"],
    "rel": ["rel", "--graph", "fixture:figure1_G", "--k", "1", "--p", "1/2", "--via-tutte"],
    "compare": ["compare", "--g", "fixture:figure1_G", "--h", "fixture:figure1_H"],
    "scan": ["scan", "--n", "6", "--m", "8"],
    "certify": ["certify", "--graph", "fixture:complete_minus_matching:5:2", "--n", "5",
                "--m", "8"],
    "mc": ["mc", "--graph", "fixture:figure1_G", "--k", "1", "--p", "1/2", "--trials", "1000",
           "--cross-check"],
    # the wheel W_60: its DC goes deeper than 80 frames of recursion could
    "counts-W60": ["counts", "--graph", "g6:" + to_graph6(SimpleGraph(
        61, tuple((i, (i + 1) % 60) for i in range(60)) + tuple((i, 60) for i in range(60))))],
}


@pytest.mark.parametrize("command", sorted(_SMALL_CALLS))
def test_low_recursion_limit_answers_or_refuses(command):
    # in a fresh process whose recursion limit is lowered after importing the
    # CLI, every command answers (exit 0) with the same stdout as at the
    # default limit; any other exit means some step still needs the
    # interpreter stack, such as a module imported only when a command runs
    src = str(Path(relpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    outs = {}
    for limit in (None, 45, 80):
        lower = "" if limit is None else f"sys.setrecursionlimit({limit})\n"
        code = (
            f"import sys\nfrom relpoly.cli import main\n{lower}"
            f"sys.exit(main({_SMALL_CALLS[command]!r}))"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        assert run.returncode == 0, (limit, run.stderr)
        outs[limit] = run.stdout
    assert outs[45] == outs[80] == outs[None]


def test_counts_on_graph_with_over_255_vertices(capsys, tmp_path):
    # theta graph: hubs 0 and 1 joined by paths of 1, 2 and 257 edges; the
    # canonical search behind its 259-vertex block's memo key compares wide
    # certificates
    edges = [(0, 1), (0, 2), (2, 1), (0, 3)] + [(i, i + 1) for i in range(3, 258)] + [(258, 1)]
    path = tmp_path / "theta.txt"
    path.write_text(f"259 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run_cli(capsys, "counts", "--graph", str(path))
    assert code == 0, err
    assert json.loads(out)["t"][0] == str(1 * 2 + 2 * 257 + 257 * 1)


def test_disconnected_input_error(capsys):
    # "C`" is the disconnected graph on 4 vertices with edges (0,1), (2,3);
    # the count-table route requires a connected graph and must refuse cleanly
    code, out, err = run_cli(capsys, "rel", "--graph", "g6:C`", "--k", "1", "--p", "1/2")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "input"


def test_output_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "counts", "--graph", "fixture:figure1_G")
    _, out2, _ = run_cli(capsys, "counts", "--graph", "fixture:figure1_G")
    assert out1 == out2
    _, scan1, _ = run_cli(capsys, "scan", "--n", "4", "--m", "4")
    _, scan2, _ = run_cli(capsys, "scan", "--n", "4", "--m", "4")
    assert scan1 == scan2


def test_scan_into_a_reader_that_closes_early_exits_cleanly():
    # like `relpoly scan --n 8 --m 18 | head -c 10`: the scan's 336 kB of
    # JSON overflow the pipe, so the scan is still writing when its reader
    # closes, and must stop with exit 0 and nothing on stderr
    src = str(Path(relpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys; from relpoly.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "scan", "--n", "8", "--m", "18"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.read(10) == b'{"members"'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err
        assert err == b""
    finally:
        proc.kill()
        proc.wait()
