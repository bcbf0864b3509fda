"""Monte Carlo percolation estimates."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import relpoly
from relpoly import mc
from relpoly.counts import ntable_from_whitney, rel_eval, reliability
from relpoly.errors import ParameterError
from relpoly.graphs import SimpleGraph, fixture
from relpoly.mc import BATCH_SIZE, _component_counts, cross_check, estimate
from relpoly.tutte import whitney


def test_p_one_connected_is_certain():
    est = estimate(fixture("cycle", 4), 1, 1, 2000, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_p_zero_k_equals_n_is_certain():
    est = estimate(fixture("cycle", 4), 4, 0, 2000, seed=1)
    assert est.mean == 1.0


def test_p_zero_k_below_n_is_never():
    est = estimate(fixture("cycle", 4), 3, 0, 500, seed=1)
    assert est.mean == 0.0


def test_determinism_across_batch_boundaries():
    g = fixture("figure1_G")
    trials = BATCH_SIZE + 123
    a = estimate(g, 1, Fraction(1, 3), trials, seed=9)
    b = estimate(g, 1, Fraction(1, 3), trials, seed=9)
    assert a == b
    c = estimate(g, 1, Fraction(1, 3), trials, seed=10)
    assert c.mean != a.mean  # different stream (overwhelmingly)


def test_triangle_within_four_sigma():
    est = estimate(fixture("cycle", 3), 1, Fraction(1, 2), 100_000, seed=5)
    assert abs(est.mean - 0.5) <= 4 * est.stderr


def test_monotone_in_k_with_shared_seed():
    g = fixture("figure1_G")
    means = [
        estimate(g, k, Fraction(1, 4), 20_000, seed=3).mean for k in range(1, g.n + 1)
    ]
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert means[-1] == 1.0  # k = n always succeeds


def test_cross_check_pass_and_negative_control():
    g = fixture("cycle", 4)
    report = cross_check(g, 1, Fraction(1, 2), 50_000, seed=11)
    assert report.passed
    exact = rel_eval(reliability(ntable_from_whitney(whitney(g), 4, 4), 1), Fraction(1, 2))
    assert report.exact == exact
    corrupted = cross_check(
        g, 1, Fraction(1, 2), 50_000, seed=11, exact=exact + Fraction(1, 50)
    )
    assert not corrupted.passed


def test_single_trial_passes_vacuously():
    report = cross_check(fixture("cycle", 4), 1, Fraction(1, 2), 1, seed=2)
    assert report.estimate.trials == 1
    assert report.estimate.mean in (0.0, 1.0)
    # the band falls back to the exact-value standard error, which is wide
    assert report.sigma > 0.4
    assert report.passed


def test_near_certain_event_passes():
    # exact reliability close to (but not exactly) 1: all trials may agree,
    # and the hypothesized-value band must absorb the tiny discrepancy
    g = fixture("complete", 5)
    report = cross_check(g, 1, Fraction(9, 10), 50_000, seed=4)
    assert float(report.exact) > 0.999
    assert report.passed


def test_estimate_validation():
    g = fixture("cycle", 3)
    with pytest.raises(ParameterError):
        estimate(g, 1, Fraction(3, 2), 10, seed=0)
    with pytest.raises(ParameterError):
        estimate(g, 0, Fraction(1, 2), 10, seed=0)
    with pytest.raises(ParameterError):
        estimate(g, 1, Fraction(1, 2), 0, seed=0)


def test_edgeless_graph():
    g = SimpleGraph(3, ())
    assert estimate(g, 3, Fraction(1, 2), 100, seed=0).mean == 1.0
    assert estimate(g, 2, Fraction(1, 2), 100, seed=0).mean == 0.0


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by estimate() only; the other commands start without
    # it, and scans run serially, so no process pool is imported either.  The
    # records are NamedTuples and __slots__ classes, so dataclasses and the
    # inspect module it pulls in stay out too, and hashlib (OpenSSL) waits for
    # a scan's first table digest
    heavy = ("numpy", "multiprocessing", "dataclasses", "inspect", "hashlib")
    src = str(Path(relpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, relpoly.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def union_find_counts(g, threshold, trials, seed):
    """Oracle: each trial's component count by a union-find over the kept
    edges, drawing a batch's uniforms in one call."""
    import numpy as np

    counts = []
    for batch_index, done in enumerate(range(0, trials, BATCH_SIZE)):
        batch = min(BATCH_SIZE, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, batch_index], dtype=np.uint64))
        )
        rows = (rng.random((batch, g.m)) < threshold).tolist() if g.m else [[]] * batch
        for row in rows:
            parent = list(range(g.n))
            merges = 0
            for (u, v), kept in zip(g.edges, row):
                if not kept:
                    continue
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u != v:
                    parent[v] = u
                    merges += 1
            counts.append(g.n - merges)
    return counts


def kernel_counts(g, threshold, trials, seed):
    return [int(c) for batch in _component_counts(g.n, g.edges, threshold, trials, seed)
            for c in batch]


def random_graph(rng, n):
    density = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SimpleGraph(n, tuple(e for e in pairs if rng.random() < density))


_EDGE_CASES = [
    (SimpleGraph(1, ()), 0.5, 1),
    (SimpleGraph(1, ()), 0.5, 130),
    (SimpleGraph(4, ()), 0.5, 65),
    (SimpleGraph(7, ((0, 1), (1, 2), (4, 5))), 0.5, 200),  # isolated vertices
    (fixture("path", 6), 0.0, 100),
    (fixture("complete", 6), 1.0, 100),
    (SimpleGraph(8, ((0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7))), 1.0, 77),
    (fixture("figure1_G"), 0.5, BATCH_SIZE + 70),  # crosses a batch boundary
    (fixture("complete", 12), 0.2, BATCH_SIZE + 70),  # 18 draw blocks per batch, the last short
]


@pytest.mark.parametrize("g,threshold,trials", _EDGE_CASES)
def test_kernel_counts_match_union_find_edge_cases(g, threshold, trials):
    assert kernel_counts(g, threshold, trials, 2**64 - 1) == union_find_counts(
        g, threshold, trials, 2**64 - 1
    )


def test_kernel_counts_match_union_find_on_random_graphs():
    rng = random.Random(20240611)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12))
        threshold = rng.choice([0.0, 1.0, rng.random(), rng.random()])
        trials = rng.choice([1, 63, 64, 65, rng.randint(1, 700)])
        seed = rng.choice([0, 2**64 - 1, rng.randrange(2**64)])
        assert kernel_counts(g, threshold, trials, seed) == union_find_counts(
            g, threshold, trials, seed
        ), (g, threshold, trials, seed)


def test_draw_blocks_give_one_stream(monkeypatch):
    # 64-row draw blocks: each batch spans many blocks, the last one short
    monkeypatch.setattr(mc, "DRAW_BLOCK", 1)
    rng = random.Random(7)
    for trials in (1, 64, 200, BATCH_SIZE + 5):
        g = random_graph(rng, rng.randint(2, 12))
        assert kernel_counts(g, 0.5, trials, 11) == union_find_counts(g, 0.5, trials, 11)


@pytest.mark.parametrize(
    "g,k,p,trials,seed,successes",
    [
        (fixture("figure1_G"), 1, Fraction(1, 3), BATCH_SIZE + 123, 9, 3390),
        (fixture("figure1_G"), 3, Fraction(1, 2), 5000, 2**64 - 1, 4887),
        (fixture("cycle", 5), 1, Fraction(2, 3), 2001, 0, 937),
        (fixture("complete", 7), 2, Fraction(1, 5), 3000, 17, 1039),
        (SimpleGraph(6, ((0, 1), (1, 2), (3, 4))), 3, Fraction(1, 2), 999, 5, 140),
    ],
)
def test_pinned_estimates(g, k, p, trials, seed, successes):
    est = estimate(g, k, p, trials, seed)
    assert est.mean == successes / trials
