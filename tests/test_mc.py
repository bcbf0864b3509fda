"""Monte Carlo percolation estimates."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import relpoly
from relpoly.counts import ntable_bruteforce, ntable_from_whitney, rel_eval, reliability
from relpoly.errors import ParameterError
from relpoly.graphs import SimpleGraph, components, fixture
from relpoly.mc import BATCH_SIZE, _bernoulli_row, _component_counts, cross_check, estimate
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
    # relpoly imports numpy nowhere, and scans run serially, so no process
    # pool is imported either.  The records are NamedTuples and __slots__
    # classes, so dataclasses and the inspect module it pulls in stay out
    # too, and hashlib (OpenSSL) waits for a scan's first table digest
    heavy = ("numpy", "multiprocessing", "dataclasses", "inspect", "hashlib")
    src = str(Path(relpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, relpoly.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_mc_cross_check_leaves_numpy_unloaded():
    # the estimate runs on Python integers; numpy would come back with a
    # kernel that needs it
    src = str(Path(relpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["mc", "--graph", "fixture:figure1_G", "--k", "1", "--p", "1/2",
            "--trials", "20000", "--cross-check"]
    code = (
        "import sys\nfrom relpoly.cli import main\n"
        f"status = main({argv!r})\n"
        "print('numpy' in sys.modules, file=sys.stderr)\nsys.exit(status)"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert '"verdict":"pass"' in run.stdout
    assert run.stderr.strip() == "False"


class FixedWords:
    """Stands in for random.Random: getrandbits returns the given words in
    turn, then zeros, and counts its calls."""

    def __init__(self, words):
        self.words = iter(words)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return next(self.words, 0)


def binary_digits(p, count):
    """The first count digits of p's binary expansion, 0 <= p < 1."""
    digits = []
    for _ in range(count):
        p *= 2
        digits.append(int(p >= 1))
        p -= digits[-1]
    return digits


_EXACT_PS = [
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
    1 - Fraction(1, 2**60), Fraction(1, 10**30),
]


def test_bit_rows_compare_uniforms_with_p_exactly():
    # trial t's uniform U_t is read from bit t of the words; the first
    # trials follow p's own expansion for all 120 digits, or for 60 and
    # then differ, the cases where the draws go deepest
    depth, batch = 120, 100
    rng = random.Random(31)
    columns = [[rng.getrandbits(1) for _ in range(depth)] for _ in range(batch)]
    columns[0] = [0] * depth
    columns[1] = [1] * depth
    for t, p in enumerate(_EXACT_PS[2:]):
        digits = binary_digits(p, depth)
        columns[2 + 2 * t] = digits
        columns[3 + 2 * t] = digits[:60] + [1 - digits[60]] + digits[61:]
    words = [sum(columns[t][i] << t for t in range(batch)) for i in range(depth)]
    uniforms = [Fraction(int("".join(map(str, col)), 2), 2**depth) for col in columns]
    for p in _EXACT_PS:
        stub = FixedWords(words)
        kept = _bernoulli_row(stub, p, batch)
        assert [kept >> t & 1 for t in range(batch)] == [int(u < p) for u in uniforms], p
        if p in (0, 1):
            assert stub.calls == 0
        if p == Fraction(1, 2):
            assert stub.calls == 1


def union_find_counts(g, p, trials, seed):
    """Oracle: each trial's component count by a union-find over the edges
    kept in its bits of the batch's bit-rows."""
    counts = []
    for batch_index, done in enumerate(range(0, trials, BATCH_SIZE)):
        batch = min(BATCH_SIZE, trials - done)
        rng = random.Random(seed << 64 | batch_index)
        rows = [_bernoulli_row(rng, p, batch) for _ in g.edges]
        for t in range(batch):
            parent = list(range(g.n))
            merges = 0
            for (u, v), kept in zip(g.edges, rows):
                if not kept >> t & 1:
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


def kernel_counts(g, p, trials, seed):
    """Each trial's component count, read from the kernel's bit-sliced planes."""
    counts = []
    for done, planes in zip(range(0, trials, BATCH_SIZE),
                            _component_counts(g.n, g.edges, p, trials, seed)):
        for t in range(min(BATCH_SIZE, trials - done)):
            counts.append(sum((plane >> t & 1) << i for i, plane in enumerate(planes)))
    return counts


def random_graph(rng, n):
    density = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SimpleGraph(n, tuple(e for e in pairs if rng.random() < density))


_EDGE_CASES = [  # p as a float, read exactly as a dyadic rational
    (SimpleGraph(1, ()), 0.5, 1),
    (SimpleGraph(1, ()), 0.5, 130),
    (SimpleGraph(4, ()), 0.5, 65),
    (SimpleGraph(7, ((0, 1), (1, 2), (4, 5))), 0.5, 200),  # isolated vertices
    (fixture("path", 6), 0.0, 100),
    (fixture("complete", 6), 1.0, 100),
    (SimpleGraph(8, ((0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7))), 1.0, 77),
    (fixture("figure1_G"), 0.5, BATCH_SIZE + 70),  # crosses a batch boundary
    (fixture("complete", 12), 0.2, BATCH_SIZE + 70),  # p has 54 binary digits
]


@pytest.mark.parametrize("g,p,trials", _EDGE_CASES)
def test_kernel_counts_match_union_find_edge_cases(g, p, trials):
    p = Fraction(p)
    assert kernel_counts(g, p, trials, 2**64 - 1) == union_find_counts(g, p, trials, 2**64 - 1)


def test_kernel_counts_match_union_find_on_random_graphs():
    rng = random.Random(20240611)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12))
        q = rng.randint(1, 30)
        p = rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(0, q), q),
                        Fraction(rng.random())])
        trials = rng.choice([1, 63, 64, 65, rng.randint(1, 700)])
        seed = rng.choice([0, 2**64 - 1, rng.randrange(2**64)])
        counts = union_find_counts(g, p, trials, seed)
        assert kernel_counts(g, p, trials, seed) == counts, (g, p, trials, seed)
        k = rng.randint(1, g.n)
        assert estimate(g, k, p, trials, seed).mean == sum(c <= k for c in counts) / trials


def test_each_batch_draws_from_its_own_stream():
    # a run's first batch is the whole of a shorter run, and its second
    # batch reads random.Random(seed << 64 | 1) from its start
    g, p, seed = fixture("figure1_G"), Fraction(2, 7), 12345
    counts = kernel_counts(g, p, BATCH_SIZE + 70, seed)
    assert counts[:BATCH_SIZE] == kernel_counts(g, p, BATCH_SIZE, seed)
    rng = random.Random(seed << 64 | 1)
    rows = [_bernoulli_row(rng, p, 70) for _ in g.edges]
    assert counts[BATCH_SIZE:] == [
        components(SimpleGraph(g.n, tuple(e for e, row in zip(g.edges, rows) if row >> t & 1)))[0]
        for t in range(70)
    ]


@pytest.mark.parametrize(
    "g,k,p,trials,seed,successes",
    [
        (fixture("figure1_G"), 1, Fraction(1, 3), BATCH_SIZE + 123, 9, 3274),
        (fixture("figure1_G"), 3, Fraction(1, 2), 5000, 2**64 - 1, 4877),
        (fixture("cycle", 5), 1, Fraction(2, 3), 2001, 0, 883),
        (fixture("complete", 7), 2, Fraction(1, 5), 3000, 17, 1024),
        (SimpleGraph(6, ((0, 1), (1, 2), (3, 4))), 3, Fraction(1, 2), 999, 5, 119),
    ],
)
def test_pinned_estimates(g, k, p, trials, seed, successes):
    est = estimate(g, k, p, trials, seed)
    assert est.mean == successes / trials
    exact = rel_eval(reliability(ntable_bruteforce(g), k), p)
    assert abs(successes - exact * trials) <= 4 * (exact * (1 - exact) * trials) ** 0.5
