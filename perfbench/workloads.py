"""The three workloads: their seeded inputs, the CLI operations of one pass,
and how each operation's output is checked.

Inputs are built here, independently of relpoly, so a change to the program
cannot change what the benchmark feeds it.  The seed permutes the vertex
labels of every single-graph input and sets the Monte Carlo stream; counts,
reliability, order certificates and polynomials do not depend on labels, so
their pinned digests hold for every seed.  The scans take no input.
"""
from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
DESIGN = json.loads((HERE / "design.json").read_text())
DIGESTS = DESIGN["digests"]

MC_TRIALS = 10**6

WORKLOADS = ("scan-c8-18", "scan-c8-18-full", "single-graph")


def ladder(length: int) -> tuple[int, list[tuple[int, int]]]:
    """The 2 x length ladder: two paths joined by rungs."""
    rails = [(i, i + 1) for i in range(length - 1)]
    rails += [(length + i, length + i + 1) for i in range(length - 1)]
    rungs = [(i, length + i) for i in range(length)]
    return 2 * length, rails + rungs


def complete(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, list(combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> tuple[int, list[tuple[int, int]]]:
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def figure1(extra: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """K4,4 on {0..3} x {4..7} plus two edges: the paper's Figure 1 pair."""
    return 8, [(i, 4 + j) for i in range(4) for j in range(4)] + extra


SINGLE_GRAPH_INPUTS = {
    "ladder30": ladder(30),
    "k9": complete(9),
    "k55": complete_bipartite(5, 5),
    "figure1_G": figure1([(0, 1), (2, 3)]),
    "figure1_H": figure1([(2, 3), (6, 7)]),
    "ladder8": ladder(8),
}


def write_inputs(directory: Path, seed: int) -> dict[str, str]:
    """Write every single-graph input as an edge-list file with its vertex
    labels permuted by the seed; return the paths by input name."""
    rng = random.Random(seed)
    paths = {}
    for name, (n, edges) in SINGLE_GRAPH_INPUTS.items():
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        path = directory / f"{name}.txt"
        path.write_text(f"{n} {len(relabeled)}\n" + "".join(f"{u} {v}\n" for u, v in relabeled))
        paths[name] = str(path)
    return paths


def operations(workload: str, seed: int, inputs: dict[str, str]) -> list[dict]:
    """The operations of one pass: an id, the argv for relpoly.cli.main, and
    the check its output must pass ({"sha256": ...} or {"mc_trials": ...})."""
    if workload == "scan-c8-18":
        return [_op("scan", ["scan", "--n", "8", "--m", "18"])]
    if workload == "scan-c8-18-full":
        return [_op("scan", ["scan", "--n", "8", "--m", "18", "--full"])]
    if workload != "single-graph":
        raise ValueError(f"unknown workload {workload!r}")
    g, h = inputs["figure1_G"], inputs["figure1_H"]
    return [
        _op("counts-ladder30", ["counts", "--graph", inputs["ladder30"]]),
        _op("counts-k9", ["counts", "--graph", inputs["k9"]]),
        _op("counts-k55", ["counts", "--graph", inputs["k55"]]),
        _op("rel-figure1_G", ["rel", "--graph", g, "--k", "1", "--p", "1/2", "--via-tutte"]),
        _op("compare-tutte", ["compare", "--g", g, "--h", h, "--order", "tutte"]),
        _op("poly-ladder8", ["poly", "--graph", inputs["ladder8"], "--method", "expansion"]),
        {
            "id": "mc-figure1_G",
            "argv": ["mc", "--graph", g, "--k", "1", "--p", "1/2", "--trials", str(MC_TRIALS),
                     "--seed", str(seed), "--cross-check"],
            # the estimate depends on seed and edge order, so only the
            # cross-check verdict (exit 0) and the trial count are checked
            "expect": {"mc_trials": MC_TRIALS},
        },
    ]


def _op(op_id: str, argv: list[str]) -> dict:
    return {"id": op_id, "argv": argv, "expect": {"sha256": DIGESTS[op_id]}}
