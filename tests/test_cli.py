"""End-to-end CLI checks: schemas, exit codes, determinism."""
import importlib
import json

import pytest

from relpoly.cli import main
from relpoly.graphs import fixture, to_graph6
from relpoly.poly import BivarPoly
from relpoly.tutte import tutte_dc


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
    assert len(nodes) == one_run  # 249 nodes, where a DC per route made 498


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


def test_scan_limit_marks_partial(capsys):
    _, out, _ = run_cli(capsys, "scan", "--n", "5", "--m", "6", "--limit", "2")
    payload = json.loads(out)
    assert payload["partial"] is True
    assert len(payload["members"]) == 2

    code, _, err = run_cli(capsys, "scan", "--n", "5", "--m", "6", "--limit", "0")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_scan_full_does_not_change_results(capsys):
    # every scan certifies every member; --full stays accepted, unlisted
    _, base, _ = run_cli(capsys, "scan", "--n", "5", "--m", "6")
    code, full, _ = run_cli(capsys, "scan", "--n", "5", "--m", "6", "--full")
    assert code == 0 and base == full
    with pytest.raises(SystemExit):
        main(["scan", "--help"])
    usage = capsys.readouterr().out
    assert "--limit" in usage and "--full" not in usage


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
    (["poly", "--graph", "fixture:complete:8", "--method", "expansion"], "budget", 3),
    (["counts", "--graph", "fixture:no_such_fixture"], "parse", 2),
    (["counts", "--graph", "g6:C`"], "input", 2),
    (["rel", *_C3, "--k", "0", "--p", "1/2"], "usage", 2),
    (["rel", *_C3, "--k", "1", "--p", "3/2"], "usage", 2),
    (["rel", *_C3, "--k", "1", "--p", "1", "--via-tutte"], "usage", 2),
    (["rel", *_C3, "--k", "one", "--p", "1/2"], "usage", 2),
    (["compare", "--g", "fixture:cycle:3", "--h", "fixture:cycle:4"], "parse", 2),
    (["compare", "--g", "fixture:cycle:3", "--h", "fixture:cycle:3", "--order", "x"],
     "usage", 2),
    (["scan", "--n", "10", "--m", "9"], "budget", 3),
    (["scan", "--n", "5", "--m", "6", "--limit", "0"], "usage", 2),
    (["certify", *_C3, "--n", "4", "--m", "4"], "parse", 2),
    (["certify", *_C3, "--n", "3"], "usage", 2),
    (["mc", *_C3, "--k", "1", "--p", "1/2", "--trials", "0"], "usage", 2),
    (["mc", *_C3, "--k", "0", "--p", "1/2", "--trials", "100"], "usage", 2),
    (["mc", *_C3, "--k", "1", "--p", "3/2", "--trials", "100"], "usage", 2),
    ([*_MC, "--cross-check", "--sigmas", "-1"], "usage", 2),
    ([*_MC, "--cross-check", "--sigmas", "0"], "usage", 2),
    ([*_MC, "--cross-check", "--sigmas", "nan"], "usage", 2),
    ([*_MC, "--cross-check", "--sigmas", "inf"], "usage", 2),
    (["mc", "--graph", "g6:C`", "--k", "1", "--p", "1/2", "--trials", "100",
      "--cross-check"], "input", 2),
    (["frobnicate"], "usage", 2),
]


@pytest.mark.parametrize(
    "argv, kind, exit_code", _REFUSALS, ids=[" ".join(argv) for argv, _, _ in _REFUSALS]
)
def test_cli_refusal_contract(capsys, argv, kind, exit_code):
    code, out, err = run_cli(capsys, *argv)
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
        "error": "input", "message": "count tables need a connected input graph"
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
    code, _, err = run_cli(
        capsys, "poly", "--graph", "fixture:complete:8", "--method", "expansion"
    )
    assert code == 3
    assert json.loads(err)["error"] == "budget"

    code, _, err = run_cli(capsys, "scan", "--n", "10", "--m", "9")
    assert code == 3


def test_counts_on_graph_with_over_255_vertices(capsys, tmp_path):
    # theta graph: hubs 0 and 1 joined by paths of 1, 2 and 257 edges; its
    # 259-vertex block needs a wide certificate as a memo key
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
