"""Order certificates: division by (1 - xy) and class-maximum checks."""
import random

import pytest

from conftest import class_graphs
from relpoly.counts import ntable_bruteforce
from relpoly.errors import DimensionMismatchError, ParameterError
from relpoly.graphs import SimpleGraph, fixture
from relpoly.order import (
    DOMINATES,
    EQUAL,
    NEGATIVE_QUOTIENT,
    NOT_DIVISIBLE,
    certify_maximum,
    divide_one_minus_xy,
    tutte_compare,
    whitney_compare,
)
from relpoly.poly import BivarPoly
from relpoly.scan import ClassSpec
from relpoly.tutte import tutte_dc

ONE_MINUS_XY = BivarPoly({(0, 0): 1, (1, 1): -1})
X_PLUS_Y_MINUS_XY = BivarPoly({(1, 0): 1, (0, 1): 1, (1, 1): -1})

PAW = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))

# expected Tutte-order quotient for the figure-1 pair, frozen after the
# reconstruction checks below first confirmed it
FIGURE1_P = BivarPoly(
    {
        (1, 5): 4, (3, 2): 1, (2, 3): 4, (1, 4): 12, (3, 1): 2, (2, 2): 13,
        (1, 3): 24, (3, 0): -1, (2, 1): 1, (1, 2): 9, (0, 3): -8, (2, 0): -4,
        (1, 1): -12, (0, 2): -19, (1, 0): -7, (0, 1): -15, (0, 0): -4,
    }
)


def test_divide_examples():
    q, w = divide_one_minus_xy(ONE_MINUS_XY)
    assert w is None and q == BivarPoly.one()
    q, w = divide_one_minus_xy(BivarPoly({(0, 0): 1, (2, 2): -1}))
    assert w is None and q == BivarPoly({(0, 0): 1, (1, 1): 1})
    q, w = divide_one_minus_xy(BivarPoly({(1, 0): 1, (0, 1): -1}))
    assert q is None
    # the cited diagonal must have nonzero coefficient sum
    a0, b0 = w
    assert min(a0, b0) == 0


def test_divide_zero():
    q, w = divide_one_minus_xy(BivarPoly.zero())
    assert w is None and q.is_zero()


def test_divide_reconstruction_random():
    rng = random.Random(30)
    for _ in range(100):
        terms = {
            (rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-9, 9)
            for _ in range(rng.randint(0, 8))
        }
        quotient = BivarPoly(terms)
        d = ONE_MINUS_XY * quotient
        q, w = divide_one_minus_xy(d)
        assert w is None
        assert q == quotient
        assert ONE_MINUS_XY * q == d


def test_divide_witness_random():
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 6))
        }
        d = BivarPoly(terms)
        q, w = divide_one_minus_xy(d)
        if q is not None:
            assert ONE_MINUS_XY * q == d
            continue
        found += 1
        a0, b0 = w
        diag_sum = sum(
            c for a, b, c in d.terms() if a - b == a0 - b0
        )
        assert diag_sum != 0
    assert found > 50


def test_whitney_compare_equal():
    g = fixture("cycle", 4)
    r = whitney_compare(g, g.relabel([1, 2, 3, 0]))
    assert r.verdict == EQUAL and r.quotient is None


def test_whitney_compare_figure1():
    g, h = fixture("figure1_G"), fixture("figure1_H")
    r = whitney_compare(g, h)
    assert r.verdict == DOMINATES
    assert r.quotient.is_nonnegative()
    from relpoly.tutte import whitney

    assert ONE_MINUS_XY * r.quotient == whitney(g) - whitney(h)


def test_tutte_compare_figure1_matches_frozen_quotient():
    g, h = fixture("figure1_G"), fixture("figure1_H")
    r = tutte_compare(g, h)
    assert r.verdict == NEGATIVE_QUOTIENT
    assert r.quotient == FIGURE1_P
    assert r.quotient.coeff(0, 3) == -8
    assert X_PLUS_Y_MINUS_XY * r.quotient == tutte_dc(g) - tutte_dc(h)
    a, b = r.witness
    assert r.quotient.coeff(a, b) < 0


def test_whitney_compare_c4_dominates_paw():
    # oracle first: brute-force tables show entrywise domination
    c4 = fixture("cycle", 4)
    tc, tp = ntable_bruteforce(c4), ntable_bruteforce(PAW)
    assert all(
        tc.prefix[i][k] >= tp.prefix[i][k] for i in range(5) for k in range(1, 5)
    )
    r = whitney_compare(c4, PAW)
    assert r.verdict == DOMINATES
    rev = whitney_compare(PAW, c4)
    assert rev.verdict != DOMINATES


def test_compare_antisymmetry():
    for spec in (ClassSpec(4, 4), ClassSpec(5, 6), ClassSpec(5, 7)):
        members = class_graphs(spec)
        for g in members:
            for h in members:
                r = whitney_compare(g, h)
                if r.verdict == DOMINATES:
                    assert whitney_compare(h, g).verdict != DOMINATES


def test_tutte_dominates_implies_whitney_dominates_small():
    for spec in (ClassSpec(4, 4), ClassSpec(4, 5), ClassSpec(5, 6)):
        members = class_graphs(spec)
        for g in members:
            for h in members:
                rt = tutte_compare(g, h)
                if rt.verdict in (EQUAL, DOMINATES):
                    assert whitney_compare(g, h).verdict in (EQUAL, DOMINATES)


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        whitney_compare(fixture("cycle", 3), fixture("cycle", 4))
    with pytest.raises(DimensionMismatchError):
        tutte_compare(fixture("path", 3), fixture("path", 4))


def test_certify_maximum_small_class():
    c44 = class_graphs(ClassSpec(4, 4))
    c4 = fixture("cycle", 4)
    out = certify_maximum(c4, c44)
    assert out.is_maximum and out.checked == 2
    out_paw = certify_maximum(PAW, c44)
    assert not out_paw.is_maximum
    h, res = out_paw.counterexamples[0]
    assert res.verdict == NOT_DIVISIBLE or not res.ok()


def test_certify_maximum_singleton_and_collect_all():
    g = fixture("cycle", 5)
    assert certify_maximum(g, [g]).is_maximum
    c55 = class_graphs(ClassSpec(5, 5))
    assert len(c55) > 1
    worst = None
    for cand in c55:
        out = certify_maximum(cand, c55, collect_all=True)
        if not out.is_maximum:
            worst = out
    assert worst is not None
    assert len(worst.counterexamples) >= 1
    assert worst.checked == len(c55)


def test_certify_maximum_rejects_unknown_order():
    with pytest.raises(ParameterError):
        certify_maximum(fixture("cycle", 4), [], order="nope")
