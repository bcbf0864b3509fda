"""Count tables, reliability polynomials, invariants, sign certificates."""
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import random_connected
from relpoly.counts import (
    NEGATIVE_WITNESS,
    NONNEGATIVE_ON_01,
    UNKNOWN,
    bernstein_certify,
    lambda_k,
    mu_lex_compare,
    mu_vector,
    n_leq,
    ntable_bruteforce,
    ntable_from_whitney,
    rel_eval,
    reliability,
    reliability_via_tutte,
    t_k,
)
from relpoly.errors import DisconnectedGraphError, ParameterError, TableConsistencyError
from relpoly.graphs import SimpleGraph, fixture
from relpoly.poly import BivarPoly
from relpoly.scan import ClassSpec, enumerate_class
from relpoly.tutte import forest_gen, whitney


def table_of(g, memo=None):
    return ntable_from_whitney(whitney(g, memo=memo), g.n, g.m)


def test_k2_table():
    t = table_of(SimpleGraph(2, ((0, 1),)))
    assert t.count(0, 2) == 1
    assert t.count(1, 1) == 1
    assert t.count(0, 1) == 0


def test_triangle_table_matches_bruteforce():
    g = fixture("cycle", 3)
    t = table_of(g)
    b = ntable_bruteforce(g)
    assert t == b
    assert t.count(0, 3) == 1
    assert t.count(1, 2) == 3
    assert t.count(2, 1) == 3
    assert t.count(3, 1) == 1


def test_c4_table_details():
    t = ntable_bruteforce(fixture("cycle", 4))
    assert t.count(2, 1) == 0  # any 2 edges of C4 leave 2 components
    assert t.count(2, 2) == 6
    assert t.count(1, 3) == 4
    assert t.count(3, 1) == 4
    assert t.count(4, 1) == 1
    assert t.count(0, 4) == 1


def test_table_routes_agree_exhaustive_small():
    memo = {}
    for n in range(2, 6):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in enumerate_class(ClassSpec(n, m)):
                assert table_of(g, memo) == ntable_bruteforce(g)


def test_table_row_sums():
    g = fixture("figure1_G")
    t = table_of(g)
    for i in range(t.m + 1):
        assert sum(t.rows[i][1:]) == comb(18, i)


def test_bad_whitney_rejected():
    w = whitney(fixture("cycle", 3)) + BivarPoly.monomial(1, 0, 1)
    with pytest.raises(TableConsistencyError):
        ntable_from_whitney(w, 3, 3)


def test_n_leq():
    g = fixture("cycle", 3)
    t = table_of(g)
    assert n_leq(t, 2, 1) == 3
    assert n_leq(t, 0, 3) == 1
    assert n_leq(ntable_bruteforce(fixture("cycle", 4)), 2, 1) == 0
    for i in range(4):
        assert n_leq(t, i, 3) == comb(3, i)
    with pytest.raises(IndexError):
        n_leq(t, 4, 1)
    with pytest.raises(IndexError):
        n_leq(t, 0, 0)


def test_mu_vectors():
    assert mu_vector(table_of(fixture("cycle", 3))).values == (1, 3, 0, 0)
    assert mu_vector(table_of(fixture("path", 3))).values == (1, 2, 0)
    rng = random.Random(19)
    for _ in range(10):  # bounds, and mu_m = 0 on connected graphs
        g = random_connected(rng, n_max=7, m_max=12)
        mu = mu_vector(table_of(g)).values
        assert all(0 <= mu[i] <= comb(g.m, i) for i in range(g.m + 1))
        assert mu[g.m] == 0
    a = mu_vector(table_of(fixture("cycle", 4)))
    b = mu_vector(ntable_bruteforce(fixture("cycle", 4)))
    assert mu_lex_compare(a, b) == 0
    paw = mu_vector(table_of(SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))))
    assert mu_lex_compare(a, paw) == -1
    assert mu_lex_compare(paw, a) == 1
    with pytest.raises(ValueError):
        mu_lex_compare(a, mu_vector(table_of(fixture("cycle", 3))))


def test_reliability_triangle():
    t = table_of(fixture("cycle", 3))
    rp = reliability(t, 1)
    assert rp.coeffs == (0, 0, 3, 1)
    assert rel_eval(rp, Fraction(1, 2)) == Fraction(1, 2)
    assert rel_eval(rp, 1) == 1
    assert rel_eval(rp, 0) == 0
    assert rel_eval(reliability(t, 3), Fraction(1, 7)) == 1  # k = n
    with pytest.raises(ParameterError):
        rel_eval(rp, Fraction(3, 2))
    for k in (0, 4):
        with pytest.raises(ParameterError):
            reliability(t, k)


def test_reliability_monotone_in_k():
    rng = random.Random(20)
    for _ in range(10):
        g = random_connected(rng, n_max=6, m_max=12)
        t = table_of(g)
        p = Fraction(rng.randint(1, 9), 10)
        values = [rel_eval(reliability(t, k), p) for k in range(1, g.n + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        coeffs = [reliability(t, k).coeffs for k in range(1, g.n + 1)]
        for a, b in zip(coeffs, coeffs[1:]):
            assert all(x <= y for x, y in zip(a, b))


def test_reliability_via_tutte_examples():
    assert reliability_via_tutte(fixture("cycle", 3), Fraction(1, 2)) == Fraction(1, 2)
    k2 = SimpleGraph(2, ((0, 1),))
    assert reliability_via_tutte(k2, Fraction(2, 3)) == Fraction(2, 3)
    c4 = fixture("cycle", 4)
    direct = rel_eval(reliability(table_of(c4), 1), Fraction(1, 3))
    assert reliability_via_tutte(c4, Fraction(1, 3)) == direct
    with pytest.raises(ParameterError):
        reliability_via_tutte(k2, 1)
    with pytest.raises(ParameterError):
        reliability_via_tutte(k2, 0)
    with pytest.raises(DisconnectedGraphError):
        reliability_via_tutte(SimpleGraph(3, ((0, 1),)), Fraction(1, 2))


def test_reliability_dual_route_random():
    rng = random.Random(21)
    for _ in range(25):
        g = random_connected(rng, n_max=7, m_max=14)
        t = table_of(g)
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            assert reliability_via_tutte(g, p) == rel_eval(reliability(t, 1), p)


def test_lambda_k():
    assert lambda_k(table_of(fixture("cycle", 5)), 1) == 2
    assert lambda_k(table_of(fixture("cycle", 3)), 2) == 3
    assert lambda_k(table_of(SimpleGraph(2, ((0, 1),))), 1) == 1
    assert lambda_k(table_of(fixture("cycle", 3)), 3) is None
    with pytest.raises(IndexError):
        lambda_k(table_of(fixture("cycle", 3)), 4)


def test_t_k():
    t3 = table_of(fixture("cycle", 3))
    assert t_k(t3, 2) == 3
    assert t_k(t3, 3) == 1
    assert t_k(table_of(fixture("cycle", 5)), 1) == 5
    with pytest.raises(IndexError):
        t_k(t3, 0)


def test_t_k_matches_forest_gen():
    rng = random.Random(22)
    for _ in range(15):
        g = random_connected(rng, n_max=7, m_max=14)
        t = table_of(g)
        assert [t_k(t, k) for k in range(1, g.n + 1)] == forest_gen(g)


def test_bernstein_trivial_cases():
    assert bernstein_certify([1, 2, 0, 3]).status == NONNEGATIVE_ON_01
    assert bernstein_certify([0, 0, 0]).status == NONNEGATIVE_ON_01
    assert bernstein_certify([]).status == NONNEGATIVE_ON_01


def test_bernstein_negative_witness_is_sound():
    out = bernstein_certify([1, -5, 1])
    assert out.status == NEGATIVE_WITNESS
    p = out.witness
    value = (1 - p) ** 2 - 5 * p * (1 - p) + p**2
    assert value < 0


def test_bernstein_positive_with_mixed_signs_certifies():
    # (1-2p)^2 touches zero at 1/2 but is nonnegative on [0,1]
    assert bernstein_certify([1, -2, 1]).status == NONNEGATIVE_ON_01


def test_bernstein_unknown_at_zero_depth():
    assert bernstein_certify([1, -2, 1], max_depth=0).status == UNKNOWN


def test_bernstein_soundness_randomized():
    # whatever the certifier claims must hold under independent dense sampling
    rng = random.Random(23)
    nonneg_seen = witness_seen = 0
    for _ in range(150):
        m = rng.randint(1, 6)
        delta = [rng.randint(-4, 6) for _ in range(m + 1)]

        def value(p, d=delta, mm=m):
            return sum(Fraction(c) * p**i * (1 - p) ** (mm - i) for i, c in enumerate(d))

        out = bernstein_certify(delta, max_depth=20)
        samples = [Fraction(t, 64) for t in range(65)]
        if out.status == NONNEGATIVE_ON_01:
            nonneg_seen += 1
            assert all(value(p) >= 0 for p in samples)
        elif out.status == NEGATIVE_WITNESS:
            witness_seen += 1
            assert value(out.witness) < 0
    assert nonneg_seen > 10 and witness_seen > 10


def test_bernstein_on_reliability_difference():
    # C4 dominates the paw for k=1; the reverse difference must go negative
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    c4 = fixture("cycle", 4)
    rc = reliability(table_of(c4), 1)
    rp = reliability(table_of(paw), 1)
    forward = [a - b for a, b in zip(rc.coeffs, rp.coeffs)]
    backward = [-d for d in forward]
    assert bernstein_certify(forward).status == NONNEGATIVE_ON_01
    out = bernstein_certify(backward)
    assert out.status == NEGATIVE_WITNESS
    value = sum(
        d * out.witness**i * (1 - out.witness) ** (4 - i) for i, d in enumerate(backward)
    )
    assert value < 0


def test_bruteforce_budget():
    with pytest.raises(Exception):
        ntable_bruteforce(fixture("complete", 8))
