"""BivarPoly against a dict-of-terms reference model.

The model is the sparse arithmetic BivarPoly used before its rows: terms in
a dict keyed by exponent pairs, products term by term, Taylor shifts line by
line, and division by (1 - xy) one diagonal at a time.  It lives only here,
as the 2^m subset walk does; the program never imports it.  Random
sequences of operations run on both, and every step must leave equal terms
and trimmed rows.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from relpoly.order import divide_one_minus_xy  # noqa: E402
from relpoly.poly import BivarPoly  # noqa: E402


class DictPoly:
    """Reference polynomial: a dict {(a, b): nonzero int}."""

    def __init__(self, terms):
        self.terms = {k: c for k, c in terms.items() if c}

    def sorted_terms(self):
        return [(a, b, c) for (a, b), c in sorted(self.terms.items())]

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return DictPoly(out)

    def __neg__(self):
        return DictPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return DictPoly(out)

    def mul_monomial(self, a, b, c):
        return DictPoly({(aa + a, bb + b): cc * c for (aa, bb), cc in self.terms.items()})

    def shift_vars(self, dx, dy):
        return DictPoly(_taylor_shift(_taylor_shift(self.terms, 0, dx), 1, dy))

    def divide_one_minus_xy(self):
        diagonals = {}
        for (a, b), c in self.terms.items():
            diagonals.setdefault(a - b, {})[min(a, b)] = c
        q = {}
        for dd in sorted(diagonals):
            col = diagonals[dd]
            a0, b0 = (dd, 0) if dd >= 0 else (0, -dd)
            tmax = max(col)
            acc = 0
            for t in range(tmax + 1):
                acc += col.get(t, 0)
                if t < tmax and acc:
                    q[(a0 + t, b0 + t)] = acc
            if acc != 0:
                return None, (a0, b0)
        return DictPoly(q), None


def _taylor_shift(terms, axis, d):
    """Substitute t -> t + d for the variable of exponent key[axis], one line
    (fixed other exponent) at a time, by repeated synthetic division."""
    if not d:
        return terms
    lines = {}
    for key, c in terms.items():
        lines.setdefault(key[1 - axis], {})[key[axis]] = c
    out = {}
    for other, line in lines.items():
        top = max(line)
        cs = [line.get(e, 0) for e in range(top + 1)]
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                cs[j] += d * cs[j + 1]
        for e, c in enumerate(cs):
            if c:
                out[(e, other) if axis == 0 else (other, e)] = c
    return out


def assert_same(p: BivarPoly, model: DictPoly):
    assert p.terms() == model.sorted_terms()
    rows = p.rows
    # trimmed: no trailing zero in a row, no trailing empty row
    assert all(not row or row[-1] for row in rows)
    assert not rows or rows[-1]
    constant = model.terms.get((0, 0), 0)
    assert (p == constant) == (set(model.terms) <= {(0, 0)})


X3 = {(3, 0): 1}
ONE_MINUS_XY = {(0, 0): 1, (1, 1): -1}

exponents = st.tuples(st.integers(0, 5), st.integers(0, 5))
coefficients = st.one_of(st.integers(-20, 20), st.integers(-(2**70), 2**70))
term_dicts = st.dictionaries(exponents, coefficients, max_size=6)
operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), term_dicts),
        # so that a later division has an exact quotient to find
        st.just(("*", ONE_MINUS_XY)),
        st.tuples(
            st.just("mul_monomial"), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)
        ),
        st.tuples(st.just("shift_vars"), st.integers(-2, 2), st.integers(-2, 2)),
        st.tuples(st.just("divide_one_minus_xy")),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(term_dicts, operations)
@example({(3, 0): 1, (0, 1): 1}, [("-", X3)])  # (x^3 + y) - x^3 empties rows 1..3
@example({(0, 1): 1}, [("+", X3), ("-", X3), ("-", {(0, 1): 1})])  # down to zero
@example({}, [("*", X3), ("+", {}), ("shift_vars", 1, 1), ("divide_one_minus_xy",)])
@example({(1, 1): 1, (0, 1): -1}, [("shift_vars", 1, 0)])  # xy - y -> xy empties row 0
@example({(0, 0): 7}, [("-", {(0, 0): 7}), ("+", {(0, 0): -3})])  # == against an int
@example({(300, 0): 1}, [("shift_vars", 1, 1), ("divide_one_minus_xy",)])  # x^300
@example({(0, 299): 1}, [("shift_vars", -1, 2), ("*", {(1, 0): 1, (0, 1): -1})])  # y^299
@example({(2, 1): 3, (0, 0): -1}, [("*", ONE_MINUS_XY), ("divide_one_minus_xy",)])
def test_operation_sequences_match_the_dict_model(start, ops):
    p, model = BivarPoly(start), DictPoly(start)
    assert_same(p, model)
    for op, *args in ops:
        if op == "divide_one_minus_xy":
            quotient, witness = divide_one_minus_xy(p)
            expected, expected_witness = model.divide_one_minus_xy()
            assert witness == expected_witness
            if expected is None:
                assert quotient is None
                continue
            p, model = quotient, expected
        elif op in ("+", "-", "*"):
            other, other_model = BivarPoly(args[0]), DictPoly(args[0])
            if op == "+":
                p, model = p + other, model + other_model
            elif op == "-":
                p, model = p - other, model - other_model
            else:
                p, model = p * other, model * other_model
        elif op == "mul_monomial":
            p, model = p.mul_monomial(*args), model.mul_monomial(*args)
        else:
            p, model = p.shift_vars(*args), model.shift_vars(*args)
        assert_same(p, model)
