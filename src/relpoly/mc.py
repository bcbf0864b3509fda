"""Monte Carlo edge percolation, cross-validating the exact pipeline.

Trials run in fixed-size batches, each seeded by a counter-based Philox
stream keyed on (seed, batch index), so results depend only on the seed
and the batch index.

Components are counted for 64 trials per machine word, by vertex
elimination.  Each edge's draws are packed into a bit-row: bit t is set when
the edge is kept in trial t.  link[a][b] holds the trials in which a and b
are joined through vertices already eliminated; it starts as the edge's
bit-row.  Vertices are eliminated in min-degree order, ties by label, and
eliminating k ORs link[a][k] & link[k][b] into link[a][b] for every pair of
its live neighbours.  k is the last vertex of its component in exactly the
trials where no link[k][.] bit is set, so a trial's component count is the
number of such vertices.  The count is exact: a vertex that is not last
reaches a later vertex of its component, and the first live vertex on that
path is joined to it through eliminated vertices only.  The kernel uses numpy
and the edge list, none of the exact engines it checks.  cross_check's band
is a fixed BAND_SIGMAS = 4 standard errors.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import NamedTuple

from .counts import ntable_from_whitney, rel_eval, reliability, require_k, require_probability
from .errors import ParameterError
from .graphs import SimpleGraph
from .tutte import whitney

BATCH_SIZE = 1 << 14
# uniforms per draw call: a batch is drawn in row blocks of about this size,
# which continue one stream, so a dense graph never holds a whole batch's draw
DRAW_BLOCK = 1 << 16
# half-width of the cross-check's acceptance band, in standard errors
BAND_SIGMAS = 4


class McEstimate(NamedTuple):
    mean: float
    stderr: float
    trials: int
    seed: int


def estimate(g: SimpleGraph, k: int, p, trials: int, seed: int) -> McEstimate:
    """Fraction of trials where keeping each edge with probability p leaves
    at most k components.

    Batch b of BATCH_SIZE trials draws from the Philox stream keyed on
    (seed, b).  Components are counted for 64 trials per machine word by
    vertex elimination: the kept edges' bit-rows are joined through each
    vertex as it is eliminated, in min-degree order, and a trial's count is
    the number of vertices joined to no vertex still left.
    """
    p = Fraction(p)
    require_probability(p)
    if trials < 1:
        raise ParameterError("need at least one trial")
    require_k(k, g.n)
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed = {seed} outside 0..2^64-1")
    # p as a threshold against 53-bit uniforms; representation error < 2^-50
    counts = _component_counts(g.n, g.edges, float(p), trials, seed)
    successes = sum(int((kappa <= k).sum()) for kappa in counts)

    mean = successes / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def _component_counts(n, edges, threshold, trials, seed):
    """Yield each batch's component counts, one per trial, as an int array.
    Edge e is kept in a trial when its uniform is below threshold."""
    import numpy as np  # deferred: importing numpy costs more than the CLI's own start-up

    # The elimination depends on the graph only.  Rows 0..m-1 of link are the
    # edges, later rows the fill pairs; each step lists the pairs it fills,
    # the rows joining them through k, and k's own rows.
    m = len(edges)
    row = {}  # (a, b) and (b, a) -> link row
    adj = [set() for _ in range(n)]
    for u, v in edges:
        row[u, v] = row[v, u] = len(row) // 2
        adj[u].add(v)
        adj[v].add(u)
    steps = []
    live = set(range(n))
    queue = [(len(adj[v]), v) for v in range(n)]  # (degree, label); stale entries skipped
    heapq.heapify(queue)
    while queue:
        degree, k = heapq.heappop(queue)
        if k not in live or degree != len(adj[k]):
            continue
        live.remove(k)
        nbrs = sorted(adj[k])
        fill, via_a, via_b = [], [], []
        for i, a in enumerate(nbrs):
            adj[a].remove(k)
            for b in nbrs[i + 1:]:
                if (a, b) not in row:
                    row[a, b] = row[b, a] = len(row) // 2
                    adj[a].add(b)
                    adj[b].add(a)
                fill.append(row[a, b])
                via_a.append(row[a, k])
                via_b.append(row[k, b])
        for a in nbrs:
            heapq.heappush(queue, (len(adj[a]), a))
        if nbrs:
            steps.append((fill, via_a, via_b, [row[k, a] for a in nbrs]))

    block = max(64, DRAW_BLOCK // max(m, 1) // 64 * 64)  # draw rows per block
    done = batch_index = 0
    while done < trials:
        batch = min(BATCH_SIZE, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, batch_index], dtype=np.uint64))
        )
        words = -(-batch // 64)
        link = np.zeros((len(row) // 2, 8 * words), dtype=np.uint8)
        for start in range(0, batch, block):
            kept = rng.random((min(block, batch - start), m)) < threshold
            bits = np.packbits(kept, axis=0).T
            link[:m, start // 8:start // 8 + bits.shape[1]] = bits
        link = link.view(np.uint64)
        joined = np.zeros((len(steps), words), dtype=np.uint64)
        for j, (fill, via_a, via_b, own) in enumerate(steps):
            if fill:
                link[fill] |= link[via_a] & link[via_b]
            np.bitwise_or.reduce(link[own], axis=0, out=joined[j])
        yield n - np.unpackbits(joined.view(np.uint8), axis=1, count=batch).sum(
            axis=0, dtype=np.int64
        )
        done += batch
        batch_index += 1


class CrossCheckReport(NamedTuple):
    estimate: McEstimate
    exact: Fraction
    diff: float
    sigma: float  # standard error used for the band
    passed: bool


def cross_check(
    g: SimpleGraph,
    k: int,
    p,
    trials: int,
    seed: int,
    exact: Fraction | None = None,
) -> CrossCheckReport:
    """Fail iff |estimate - exact| exceeds BAND_SIGMAS standard errors.

    The band uses the larger of the plug-in standard error and the one
    implied by the exact value, sqrt(exact*(1-exact)/trials); the plug-in
    formula alone collapses to an empty band whenever every trial agrees
    (e.g. near-certain events), where the hypothesized-value error is the
    meaningful scale.  exact defaults to the Whitney-route value; pass a
    corrupted value to exercise the negative-control path.
    """
    est = estimate(g, k, p, trials, seed)
    if exact is None:
        table = ntable_from_whitney(whitney(g), g.n, g.m)
        exact = rel_eval(reliability(table, k), Fraction(p))
    diff = abs(est.mean - float(exact))
    sigma0 = math.sqrt(float(exact * (1 - exact)) / trials) if 0 <= exact <= 1 else 0.0
    sigma = max(est.stderr, sigma0)
    return CrossCheckReport(
        estimate=est, exact=exact, diff=diff, sigma=sigma, passed=diff <= BAND_SIGMAS * sigma
    )
