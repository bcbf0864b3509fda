"""Property tests: BivarPoly satisfies the commutative ring laws over Z."""
import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from relpoly.poly import BivarPoly  # noqa: E402

# small and deterministic, so the suite stays quick and repeatable
ring_law = settings(max_examples=60, deadline=None, derandomize=True, database=None)

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
# mix small values with ones past 64 bits, where int arithmetic goes wide
coefficients = st.one_of(st.integers(-20, 20), st.integers(-(2**70), 2**70))
polys = st.dictionaries(exponents, coefficients, max_size=6).map(BivarPoly)
ints = st.integers(-(2**70), 2**70)


@ring_law
@given(polys, polys)
def test_sub_is_add_of_negation(p, q):
    assert p - q == p + (-q)


@ring_law
@given(polys, polys)
def test_add_then_sub_round_trips(p, q):
    assert (p + q) - q == p


@ring_law
@given(polys)
def test_self_difference_is_zero(p):
    d = p - p
    assert d == 0 and d.is_zero() and d.num_terms() == 0


@ring_law
@given(polys, ints)
def test_int_operands_on_both_sides(p, c):
    const = BivarPoly.constant(c)
    assert p - c == p - const
    assert c - p == const - p == -(p - c)
    assert p + c == c + p == p + const
    assert p * c == c * p == p * const
    assert BivarPoly.constant(c) == c


@ring_law
@given(polys, polys)
def test_add_and_mul_commute(p, q):
    assert p + q == q + p
    assert p * q == q * p


@ring_law
@given(polys, polys, polys)
def test_add_and_mul_associate(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)


@ring_law
@given(polys, polys, polys)
def test_mul_distributes_over_add_and_sub(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p - q) * r == p * r - q * r


@ring_law
@given(polys, st.integers(2, pickle.HIGHEST_PROTOCOL))
def test_pickle_round_trips(p, protocol):
    assert pickle.loads(pickle.dumps(p, protocol)) == p


shifts = st.integers(-2, 2)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@ring_law
@given(polys, shifts, shifts, rationals, rationals)
def test_shift_vars_is_substitution(p, dx, dy, x0, y0):
    assert p.shift_vars(dx, dy).eval_rational(x0, y0) == p.eval_rational(x0 + dx, y0 + dy)


@ring_law
@given(polys, shifts, shifts)
def test_shift_vars_round_trips(p, dx, dy):
    assert p.shift_vars(dx, dy).shift_vars(-dx, -dy) == p


# rows and columns up to degree 12, past the degree-4 polynomials above
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), coefficients, max_size=8
).map(BivarPoly)
# a full 13 x 13 block, so every row and column has degree 12
dense_block = BivarPoly({(a, b): a * 13 + b - 84 for a in range(13) for b in range(13)})


@ring_law
@given(wide_polys, shifts, shifts)
@example(dense_block, -1, -1)
@example(dense_block, 2, -2)
def test_shift_vars_matches_ring_substitution(p, dx, dy):
    # the oracle: sum of c (x + dx)^a (y + dy)^b in BivarPoly's ring arithmetic
    x, y = BivarPoly.x() + dx, BivarPoly.y() + dy
    expected = BivarPoly.zero()
    for a, b, c in p.terms():
        expected = expected + c * x**a * y**b
    assert p.shift_vars(dx, dy) == expected
