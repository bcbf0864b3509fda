"""Monte Carlo edge percolation, cross-validating the exact pipeline.

Trials run in fixed-size batches; batch b draws from
random.Random(seed << 64 | b), so results depend only on the seed and the
batch index.

Components are counted for a whole batch at once on Python integers used as
bit-rows: bit t of an edge's row is set when the edge is kept in trial t.
An edge is kept when the trial's uniform U = 0.u1u2... is below p, compared
with the exact binary expansion of the rational p, most significant digit
first, so every rational p is exact.  Digit i of trial t's U is bit t of the
i-th word drawn for the edge, and the draws stop once every trial is decided
or p's expansion ends.

link[a][b] holds the trials in which a and b are joined through vertices
already eliminated; it starts as the edge's bit-row.  Vertices are
eliminated in min-degree order, ties by label, and eliminating k ORs
link[a][k] & link[k][b] into link[a][b] for every pair of its live
neighbours.  k is the last vertex of its component in exactly the trials
where no link[k][.] bit is set, so a trial's component count is the number
of such vertices.  The count is exact: a vertex that is not last reaches a
later vertex of its component, and the first live vertex on that path is
joined to it through eliminated vertices only.  The "last" masks are summed
in a bit-sliced counter, whose planes are compared with k bitwise.  The
kernel uses the edge list only, none of the exact engines it checks.
cross_check's band is a fixed BAND_SIGMAS = 4 standard errors.
"""
from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from typing import NamedTuple

from .counts import ntable_from_whitney, rel_eval, reliability, require_k, require_probability
from .errors import ParameterError
from .graphs import SimpleGraph
from .tutte import whitney

BATCH_SIZE = 1 << 14
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

    Batch b of BATCH_SIZE trials draws from random.Random(seed << 64 | b),
    and each edge is kept with probability exactly p.  Components are
    counted for a whole batch at once by vertex elimination on bit-rows:
    the kept edges' rows are joined through each vertex as it is
    eliminated, in min-degree order, and a trial's count is the number of
    vertices joined to no vertex still left.
    """
    p = Fraction(p)
    require_probability(p)
    if trials < 1:
        raise ParameterError("need at least one trial")
    require_k(k, g.n)
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed = {seed} outside 0..2^64-1")
    over = sum(
        _more_than(planes, k).bit_count()
        for planes in _component_counts(g.n, g.edges, p, trials, seed)
    )

    mean = (trials - over) / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def _component_counts(n, edges, p, trials, seed):
    """Yield each batch's component counts, bit-sliced: bit t of planes[i]
    is bit i of trial t's count.  Each edge is kept with probability p."""
    # The elimination depends on the graph only.  Rows 0..m-1 of link are the
    # edges, later rows the fill pairs; each step lists, per pair it fills,
    # the pair's row and the rows joining it through k, then k's own rows.
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
        fills = []
        for i, a in enumerate(nbrs):
            adj[a].remove(k)
            for b in nbrs[i + 1:]:
                if (a, b) not in row:
                    row[a, b] = row[b, a] = len(row) // 2
                    adj[a].add(b)
                    adj[b].add(a)
                fills.append((row[a, b], row[a, k], row[k, b]))
        for a in nbrs:
            heapq.heappush(queue, (len(adj[a]), a))
        if nbrs:
            steps.append((fills, [row[k, a] for a in nbrs]))
    alone = n - len(steps)  # vertices last of their component in every trial

    done = batch_index = 0
    while done < trials:
        batch = min(BATCH_SIZE, trials - done)
        rng = random.Random(seed << 64 | batch_index)
        full = (1 << batch) - 1
        link = [_bernoulli_row(rng, p, batch) for _ in range(m)]
        link += [0] * (len(row) // 2 - m)
        planes = [full if alone >> i & 1 else 0 for i in range(alone.bit_length())]
        for fills, own in steps:
            for f, a, b in fills:
                link[f] |= link[a] & link[b]
            joined = 0
            for r in own:
                joined |= link[r]
            _add(planes, full ^ joined)
        yield planes
        done += batch
        batch_index += 1


def _bernoulli_row(rng, p, batch):
    """A row of batch bits, bit t set when trial t's uniform U is below p.

    Bit t of the i-th word drawn is digit i of U = 0.u1u2..., compared with
    p's binary expansion most significant digit first, only in the trials
    that every earlier digit left undecided.  About log2(batch) + 2 words,
    and one for p = 1/2.
    """
    num, den = p.numerator, p.denominator
    if num == den:
        return (1 << batch) - 1
    kept, undecided = 0, (1 << batch) - 1
    while undecided and num:
        num <<= 1
        ones = undecided & rng.getrandbits(batch)  # undecided trials with digit 1
        if num >= den:  # p's digit is 1: U < p where the trial's digit is 0
            num -= den
            kept |= undecided ^ ones
            undecided = ones
        else:  # p's digit is 0: U > p where the trial's digit is 1
            undecided ^= ones
    return kept


def _add(planes, mask):
    """Add 1 to the bit-sliced counts of the trials in mask."""
    for i, plane in enumerate(planes):
        planes[i] = plane ^ mask
        mask &= plane
        if not mask:
            return
    planes.append(mask)


def _more_than(planes, k):
    """The trials whose bit-sliced count exceeds k."""
    if k >> len(planes):
        return 0
    # tied: counts with a 1 wherever k has one, among the bits compared so
    # far, from the top; of these, a count with a 1 where k has a 0 is more
    more, tied = 0, -1
    for i in reversed(range(len(planes))):
        if k >> i & 1:
            tied &= planes[i]
        else:
            more |= tied & planes[i]
    return more


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
