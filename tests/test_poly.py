"""Exact polynomial arithmetic."""
import random
from fractions import Fraction

import pytest

from relpoly.poly import BivarPoly


def P(terms):
    return BivarPoly(terms)


X = BivarPoly.x()
Y = BivarPoly.y()
ONE = BivarPoly.one()


def random_poly(rng, max_terms=8, max_exp=5, max_coeff=20):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = rng.randint(
            -max_coeff, max_coeff
        )
    return BivarPoly(terms)


def test_product_difference_of_squares():
    assert (ONE - X * Y) * (ONE + X * Y) == P({(0, 0): 1, (2, 2): -1})


def test_self_subtraction_is_empty():
    rng = random.Random(0)
    for _ in range(20):
        p = random_poly(rng)
        assert (p - p).is_zero()
        assert (p - p).num_terms() == 0


def test_square_of_sum():
    assert (X + Y) ** 2 == P({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == BivarPoly.zero()


def test_shift_examples():
    assert (X ** 2).shift_vars(1, 0) == P({(2, 0): 1, (1, 0): 2, (0, 0): 1})
    assert (X * Y).shift_vars(1, 0) == P({(1, 1): 1, (0, 1): 1})


def test_shift_round_trip_many():
    rng = random.Random(2)
    for _ in range(1000):
        p = random_poly(rng, max_terms=20)
        assert p.shift_vars(1, 1).shift_vars(-1, -1) == p


def test_eval_rational():
    half = Fraction(1, 2)
    assert (ONE - X * Y).eval_rational(half, half) == Fraction(3, 4)
    p = P({(3, 1): 7, (0, 0): -2})
    assert p.eval_rational(0, 0) == -2
    assert (X ** 2 + X + Y).eval_rational(1, 2) == 4


def test_eval_is_multiplicative():
    rng = random.Random(3)
    for _ in range(30):
        p, q = random_poly(rng), random_poly(rng)
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        assert (p * q).eval_rational(x0, y0) == p.eval_rational(x0, y0) * q.eval_rational(x0, y0)


def test_coeff_and_nonnegativity():
    assert (ONE - X * Y).coeff(1, 1) == -1
    assert (ONE - X * Y).coeff(4, 2) == 0
    w_triangle = P({(2, 0): 1, (1, 0): 3, (0, 1): 1, (0, 0): 3})
    assert w_triangle.is_nonnegative()
    assert not (ONE - X * Y).is_nonnegative()
    assert BivarPoly.zero().is_nonnegative()


def test_mul_monomial_matches_general_product():
    rng = random.Random(4)
    for _ in range(20):
        p = random_poly(rng)
        assert p.mul_monomial(2, 3, -5) == p * P({(2, 3): -5})


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): 1})
    with pytest.raises(ValueError):
        BivarPoly.monomial(0, -2)


def test_non_integer_coefficients_are_refused():
    # coefficients are exact ints: a fraction or a float is refused, never
    # truncated
    with pytest.raises(ValueError):
        BivarPoly({(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        BivarPoly({(1, 0): 2.7})
    with pytest.raises(ValueError):
        BivarPoly.x().mul_monomial(0, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        BivarPoly.constant(0.5)
    with pytest.raises(ValueError):
        BivarPoly.from_rows([[1, Fraction(3, 2)]])
    with pytest.raises(ValueError):
        BivarPoly.from_triples([[0, 0, 2.7]])
    assert BivarPoly({(1, 0): True}) == X  # bool is an int


def test_rows_are_trimmed_and_shared_with_from_rows():
    assert (X**3 + Y - X**3).rows == ((0, 1),)
    assert BivarPoly.from_rows([[0, 1, 0], [], [0]]).rows == ((0, 1),)
    assert BivarPoly.from_rows([]) == BivarPoly.zero() == 0
    p = P({(2, 1): 5, (0, 3): -1})
    assert BivarPoly.from_rows(p.rows) == p
    assert p.rows == ((0, 0, 0, -1), (), (0, 5))


def test_serialization_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng)
        triples = p.to_triples()
        assert triples == sorted(triples)
        assert all(isinstance(t[2], str) for t in triples)
        assert BivarPoly.from_triples(triples) == p


def test_zero_coefficients_never_stored():
    p = P({(1, 1): 3, (2, 2): 0})
    assert p.num_terms() == 1
    big = 10 ** 40
    q = BivarPoly.monomial(1, 0, big) + BivarPoly.monomial(1, 0, -big)
    assert q.is_zero()


def test_str_rendering():
    p = P({(1, 0): -7, (0, 0): -4, (1, 1): 2})
    assert str(p) == "2xy - 7x - 4"
    assert str(BivarPoly.zero()) == "0"
