"""Monte Carlo edge percolation, cross-validating the exact pipeline.

Trials run in fixed-size batches, each seeded by a counter-based Philox
stream keyed on (seed, batch index), so results depend only on the seed
and the batch index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counts import ntable_from_whitney, rel_eval, reliability
from .errors import ParameterError
from .graphs import SimpleGraph
from .tutte import whitney

BATCH_SIZE = 1 << 14


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int


def estimate(g: SimpleGraph, k: int, p, trials: int, seed: int) -> McEstimate:
    """Fraction of trials where keeping each edge with probability p leaves
    at most k components (components counted by union-find per trial)."""
    import numpy as np  # deferred: importing numpy costs more than the CLI's own start-up

    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"p = {p} outside [0, 1]")
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not 1 <= k <= g.n:
        raise ParameterError(f"k = {k} outside 1..{g.n}")
    n, m = g.n, g.m
    us = [e[0] for e in g.edges]
    vs = [e[1] for e in g.edges]
    # p as a threshold against 53-bit uniforms; representation error < 2^-50
    threshold = float(p)
    max_merges = n - k  # once kappa reaches k, the trial already succeeded

    successes = 0
    done = 0
    batch_index = 0
    while done < trials:
        batch = min(BATCH_SIZE, trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed & (2**64 - 1), batch_index], dtype=np.uint64))
        )
        if m:
            draws = rng.random((batch, m)) < threshold
            rows = draws.tolist()
        else:
            rows = [[]] * batch
        for row in rows:
            parent = list(range(n))
            merges = 0
            for idx in range(m):
                if not row[idx]:
                    continue
                ru = us[idx]
                while parent[ru] != ru:
                    parent[ru] = parent[parent[ru]]
                    ru = parent[ru]
                rv = vs[idx]
                while parent[rv] != rv:
                    parent[rv] = parent[parent[rv]]
                    rv = parent[rv]
                if ru != rv:
                    parent[rv] = ru
                    merges += 1
                    if merges >= max_merges:
                        break
            if n - merges <= k:
                successes += 1
        done += batch
        batch_index += 1

    mean = successes / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return McEstimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


@dataclass(frozen=True)
class CrossCheckReport:
    estimate: McEstimate
    exact: Fraction
    diff: float
    sigma: float  # standard error used for the band
    tolerance_sigmas: float
    passed: bool


def cross_check(
    g: SimpleGraph,
    k: int,
    p,
    trials: int,
    seed: int,
    tolerance_sigmas: float = 4.0,
    exact: Fraction | None = None,
) -> CrossCheckReport:
    """Fail iff |estimate - exact| exceeds tolerance_sigmas standard errors.

    The band uses the larger of the plug-in standard error and the one
    implied by the exact value, sqrt(exact*(1-exact)/trials); the plug-in
    formula alone collapses to an empty band whenever every trial agrees
    (e.g. near-certain events), where the hypothesized-value error is the
    meaningful scale.  exact defaults to the Whitney-route value; pass a
    corrupted value to exercise the negative-control path.
    """
    if not (math.isfinite(tolerance_sigmas) and tolerance_sigmas > 0):
        raise ParameterError(
            f"tolerance of {tolerance_sigmas} sigmas; need a finite positive number"
        )
    est = estimate(g, k, p, trials, seed)
    if exact is None:
        table = ntable_from_whitney(whitney(g), g.n, g.m)
        exact = rel_eval(reliability(table, k), Fraction(p))
    diff = abs(est.mean - float(exact))
    sigma0 = math.sqrt(float(exact * (1 - exact)) / trials) if 0 <= exact <= 1 else 0.0
    sigma = max(est.stderr, sigma0)
    passed = diff <= tolerance_sigmas * sigma
    return CrossCheckReport(
        estimate=est,
        exact=exact,
        diff=diff,
        sigma=sigma,
        tolerance_sigmas=tolerance_sigmas,
        passed=passed,
    )
