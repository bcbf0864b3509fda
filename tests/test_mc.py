"""Monte Carlo percolation estimates."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import relpoly
from relpoly.counts import ntable_from_whitney, rel_eval, reliability
from relpoly.errors import ParameterError
from relpoly.graphs import SimpleGraph, fixture
from relpoly.mc import BATCH_SIZE, cross_check, estimate
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
    for sigmas in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            cross_check(g, 1, Fraction(1, 2), 10, 0, sigmas)


def test_edgeless_graph():
    g = SimpleGraph(3, ())
    assert estimate(g, 3, Fraction(1, 2), 100, seed=0).mean == 1.0
    assert estimate(g, 2, Fraction(1, 2), 100, seed=0).mean == 0.0


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by estimate() only; the other commands start without
    # it, and scans run serially, so no process pool is imported either
    src = str(Path(relpoly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, relpoly.cli; print([m in sys.modules for m in ('numpy', 'multiprocessing')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[False, False]"
