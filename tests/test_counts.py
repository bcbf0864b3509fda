"""Count tables, reliability polynomials, invariants, sign certificates."""
import random
from fractions import Fraction
from math import comb

import pytest

from conftest import class_graphs, random_connected
from relpoly.counts import (
    NEGATIVE_WITNESS,
    NONNEGATIVE_ON_01,
    UNKNOWN,
    NTable,
    bernstein_certify,
    count_rows,
    lambda_k,
    mu_vector,
    ntable_bruteforce,
    ntable_from_whitney,
    rel_eval,
    reliability,
    reliability_via_tutte,
    t_k,
)
from relpoly.errors import (
    BudgetError,
    DisconnectedGraphError,
    ParameterError,
    TableConsistencyError,
)
from relpoly.graphs import SimpleGraph, fixture
from relpoly.poly import BivarPoly
from relpoly.scan import ClassSpec
from relpoly.tutte import whitney


def table_of(g, memo=None):
    return ntable_from_whitney(whitney(g, memo=memo), g.n, g.m)


def test_k2_table():
    t = table_of(SimpleGraph(2, ((0, 1),)))
    assert t.rows[0][2] == 1
    assert t.rows[1][1] == 1
    assert t.rows[0][1] == 0


def test_triangle_table_matches_bruteforce():
    g = fixture("cycle", 3)
    t = table_of(g)
    b = ntable_bruteforce(g)
    assert t == b
    assert t.rows[0][3] == 1
    assert t.rows[1][2] == 3
    assert t.rows[2][1] == 3
    assert t.rows[3][1] == 1


def test_c4_table_details():
    t = ntable_bruteforce(fixture("cycle", 4))
    assert t.rows[2][1] == 0  # any 2 edges of C4 leave 2 components
    assert t.rows[2][2] == 6
    assert t.rows[1][3] == 4
    assert t.rows[3][1] == 4
    assert t.rows[4][1] == 1
    assert t.rows[0][4] == 1


def test_table_routes_agree_exhaustive_small():
    memo = {}
    for n in range(1, 6):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in class_graphs(ClassSpec(n, m)):
                assert table_of(g, memo) == ntable_bruteforce(g)
    # n = 0 has no Whitney table to compare with; its one row leaves index 0 unused
    assert ntable_bruteforce(SimpleGraph(0, ())) == NTable(0, 0, ((0,),))


def test_table_row_sums():
    g = fixture("figure1_G")
    t = table_of(g)
    for i in range(t.m + 1):
        assert sum(t.rows[i][1:]) == comb(18, i)


def test_count_rows_share_the_whitney_ints():
    # a scan keeps W and rebuilds the count rows from it; the rows hold W's
    # own int objects, so a table costs its pointers and no new ints
    g = fixture("figure1_G")
    w = whitney(g)
    rows = count_rows(w, g.n, g.m)
    assert rows == ntable_from_whitney(w, g.n, g.m).rows
    for a, b, c in w.terms():
        assert rows[g.n - 1 - a + b][a + 1] is c


def test_bad_whitney_rejected():
    w = whitney(fixture("cycle", 3)) + BivarPoly.monomial(1, 0, 1)
    with pytest.raises(TableConsistencyError):
        ntable_from_whitney(w, 3, 3)


def test_prefix_sums():
    t = table_of(fixture("cycle", 3))
    assert t.prefix[2][1] == 3
    assert t.prefix[0][3] == 1
    assert ntable_bruteforce(fixture("cycle", 4)).prefix[2][1] == 0
    for i in range(4):
        assert t.prefix[i][3] == comb(3, i)


def test_ntable_is_an_immutable_value_with_prefix_built_once():
    t = table_of(fixture("cycle", 3))
    assert t.prefix is t.prefix
    same = NTable(3, 3, tuple(t.rows))
    assert t == same and hash(t) == hash(same) and t.prefix == same.prefix
    assert t != NTable(3, 4, t.rows) and t != (3, 3, t.rows)
    assert repr(t) == f"NTable(n=3, m=3, rows={t.rows!r})"
    with pytest.raises(AttributeError):
        t.prefix = ()


def test_mu_vectors():
    assert mu_vector(table_of(fixture("cycle", 3))) == (1, 3, 0, 0)
    assert mu_vector(table_of(fixture("path", 3))) == (1, 2, 0)
    rng = random.Random(19)
    for _ in range(10):  # bounds, and mu_m = 0 on connected graphs
        g = random_connected(rng, n_max=7, m_max=12)
        mu = mu_vector(table_of(g))
        assert all(0 <= mu[i] <= comb(g.m, i) for i in range(g.m + 1))
        assert mu[g.m] == 0
    c4 = fixture("cycle", 4)
    assert mu_vector(table_of(c4)) == mu_vector(ntable_bruteforce(c4))
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert mu_vector(table_of(c4)) < mu_vector(table_of(paw))  # scan's lexicographic order


def test_reliability_triangle():
    t = table_of(fixture("cycle", 3))
    rp = reliability(t, 1)
    assert rp == (0, 0, 3, 1)
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
        coeffs = [reliability(t, k) for k in range(1, g.n + 1)]
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
    with pytest.raises(ParameterError):
        lambda_k(table_of(fixture("cycle", 3)), 4)


def test_t_k():
    t3 = table_of(fixture("cycle", 3))
    assert t_k(t3, 2) == 3
    assert t_k(t3, 3) == 1
    assert t_k(t3, 1) == 3
    assert t_k(table_of(fixture("cycle", 4)), 1) == 4
    assert t_k(table_of(fixture("cycle", 5)), 1) == 5
    k2 = table_of(SimpleGraph(2, ((0, 1),)))
    assert [t_k(k2, 1), t_k(k2, 2)] == [1, 1]
    with pytest.raises(ParameterError):
        t_k(t3, 0)


def test_t_k_matches_forest_gen():
    # the forest generating function is W(x, 0): t_k is the x^(k-1) coefficient
    rng = random.Random(22)
    for _ in range(15):
        g = random_connected(rng, n_max=7, m_max=14)
        w = whitney(g)
        forests = [0] * g.n
        for a, b, c in w.terms():
            if b == 0:
                forests[a] = c
        t = ntable_from_whitney(w, g.n, g.m)
        assert [t_k(t, k) for k in range(1, g.n + 1)] == forests


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


def test_bernstein_unknown_at_irrational_double_root():
    # (1-3p)^2 touches zero at 1/3, which no dyadic subinterval has as an end,
    # so the intervals around it keep mixed signs down to CERTIFY_DEPTH
    out = bernstein_certify([1, -4, 4])
    assert out.status == UNKNOWN and out.witness is None


def test_bernstein_soundness_randomized():
    # whatever the certifier claims must hold under independent dense sampling,
    # and a delta negative at a sample p = t/64 (an interval end at depth 6)
    # must come back with a witness
    rng = random.Random(23)
    nonneg_seen = witness_seen = 0
    for _ in range(150):
        m = rng.randint(1, 6)
        delta = [rng.randint(-4, 6) for _ in range(m + 1)]

        def value(p, d=delta, mm=m):
            return sum(Fraction(c) * p**i * (1 - p) ** (mm - i) for i, c in enumerate(d))

        out = bernstein_certify(delta)
        samples = [Fraction(t, 64) for t in range(65)]
        if any(value(p) < 0 for p in samples):
            assert out.status == NEGATIVE_WITNESS
        if out.status == NONNEGATIVE_ON_01:
            nonneg_seen += 1
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
    forward = [a - b for a, b in zip(rc, rp)]
    backward = [-d for d in forward]
    assert bernstein_certify(forward).status == NONNEGATIVE_ON_01
    out = bernstein_certify(backward)
    assert out.status == NEGATIVE_WITNESS
    value = sum(
        d * out.witness**i * (1 - out.witness) ** (4 - i) for i, d in enumerate(backward)
    )
    assert value < 0


def test_bruteforce_budget():
    # the one census budget, a frontier of 10 vertices, also caps the
    # brute-force table; K12's frontier reaches 12
    with pytest.raises(BudgetError):
        ntable_bruteforce(fixture("complete", 12))
