"""Monte Carlo percolation against the exact pipeline.

Each trial keeps every edge independently with probability exactly p and
counts components.  A batch of trials is counted at once on Python integers:
each edge's draws form a bit-row, one bit per trial, and eliminating the
vertices one by one (min-degree first) ORs together the trials in which two
neighbours of the eliminated vertex are joined through it; a vertex is the
last of its component in exactly the trials where it is joined to no vertex
still left.  Batch b draws from random.Random(seed << 64 | b), so a (seed,
trial budget) pair is fully reproducible.
"""
from fractions import Fraction

from relpoly import cross_check, estimate, fixture
from relpoly.mc import BAND_SIGMAS

g = fixture("complete_minus_matching", 6, 3)
print(f"graph: K6 minus a perfect matching ({g.n} vertices, {g.m} edges)")
print(f"an estimate agrees when it is within {BAND_SIGMAS} standard errors of the exact value")

for k in (1, 2):
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        report = cross_check(g, k, p, trials=200_000, seed=42)
        est = report.estimate
        print(
            f"  k={k} p={p}: estimate {est.mean:.5f} +- {est.stderr:.5f}, "
            f"exact {float(report.exact):.5f}, "
            f"{'agrees' if report.passed else 'DISAGREES'}"
        )

print()
a = estimate(g, 1, Fraction(1, 2), trials=100_000, seed=7)
b = estimate(g, 1, Fraction(1, 2), trials=100_000, seed=7)
print("same seed, same answer:", a == b)

bad = cross_check(g, 1, Fraction(1, 2), trials=100_000, seed=7,
                  exact=report.exact + Fraction(1, 20))
print("corrupted exact value is caught:", not bad.passed)
