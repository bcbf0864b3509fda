"""Whitney and Tutte order decisions with machine-checkable certificates.

Both orders reduce to exact division by (1 - xy): the Whitney difference
directly, the Tutte difference after the substitution x -> x+1, y -> y+1
turns its divisor (x + y - xy) into (1 - xy).
"""
from __future__ import annotations

from itertools import repeat
from operator import add
from typing import Iterable, NamedTuple

from .errors import DimensionMismatchError, ParameterError
from .graphs import SimpleGraph
from .poly import BivarPoly
from .tutte import whitney

EQUAL = "Equal"
DOMINATES = "Dominates"
NOT_DIVISIBLE = "NotDivisible"
NEGATIVE_QUOTIENT = "NegativeQuotient"

WHITNEY = "whitney"
TUTTE = "tutte"


class OrderResult(NamedTuple):
    """Outcome of deciding h <= g in one of the two orders.

    quotient is present for Dominates and NegativeQuotient; the witness is
    a diagonal start (a0, b0) for NotDivisible and an exponent pair with a
    negative coefficient for NegativeQuotient.  For the Tutte order the
    NotDivisible witness indexes the shifted difference W_g - W_h.
    """

    verdict: str
    quotient: BivarPoly | None = None
    witness: tuple[int, int] | None = None

    def ok(self) -> bool:
        return self.verdict in (EQUAL, DOMINATES)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "quotient": None if self.quotient is None else self.quotient.to_triples(),
            "witness": None if self.witness is None else list(self.witness),
        }


def divide_one_minus_xy(d: BivarPoly):
    """Exact quotient d / (1 - xy), or a witness that none exists.

    Returns (quotient, None) when d = (1 - xy) * quotient, computed per
    diagonal by q_t = sum of d's coefficients up to t; otherwise
    (None, (a0, b0)) naming the first diagonal, by a - b ascending, whose
    coefficients sum to nonzero; (a0, b0) is where it starts.
    """
    # q_a = d_a + y q_(a-1) row by row: entry b of q_a is the running sum of
    # d's diagonal a - b up to row a.  d is divisible iff every diagonal sums
    # to zero, that is iff the running sums reach zero in d's top row
    quotient: list[list[int]] = []
    q: list[int] = []
    for row in d.rows:
        q = [0, *q] if q else []
        if len(q) < len(row):
            q.extend(repeat(0, len(row) - len(q)))
        q[: len(row)] = map(add, q, row)
        quotient.append(q)
    if any(q):
        # the first diagonal a - b in ascending order that sums to nonzero
        b = max(i for i, c in enumerate(q) if c)
        dd = len(quotient) - 1 - b
        return None, (dd, 0) if dd >= 0 else (0, -dd)
    return BivarPoly.from_rows(quotient[:-1]), None


def _negative_term(p: BivarPoly) -> tuple[int, int]:
    return min((a, b) for a, b, c in p.terms() if c < 0)


def _decide(diff: BivarPoly, back_shift: bool) -> OrderResult:
    """Verdict on a difference of Whitney polynomials: its quotient by
    (1 - xy), back-shifted by (-1, -1) for the Tutte order, must be
    nonnegative."""
    if diff.is_zero():
        return OrderResult(EQUAL)
    quotient, witness = divide_one_minus_xy(diff)
    if quotient is None:
        return OrderResult(NOT_DIVISIBLE, witness=witness)
    if back_shift:
        quotient = quotient.shift_vars(-1, -1)
    if quotient.is_nonnegative():
        return OrderResult(DOMINATES, quotient=quotient)
    return OrderResult(NEGATIVE_QUOTIENT, quotient=quotient, witness=_negative_term(quotient))


def compare_whitney_polys(w_g: BivarPoly, w_h: BivarPoly) -> OrderResult:
    """Decide h <=_W g from the two Whitney polynomials."""
    return _decide(w_g - w_h, back_shift=False)


def compare_tutte_polys(w_g: BivarPoly, w_h: BivarPoly) -> OrderResult:
    """Decide h <= g in the Tutte order, given the Whitney polynomials.

    W_g - W_h is the shifted Tutte difference, so dividing it by (1 - xy)
    and shifting the quotient back yields the polynomial P with
    T_g - T_h = (x + y - xy) P.
    """
    return _decide(w_g - w_h, back_shift=True)


def _check_same_class(g: SimpleGraph, h: SimpleGraph) -> None:
    if g.n != h.n or g.m != h.m:
        raise DimensionMismatchError(
            f"graphs live in different classes: ({g.n}, {g.m}) vs ({h.n}, {h.m})"
        )


def whitney_compare(g: SimpleGraph, h: SimpleGraph) -> OrderResult:
    """Certificate for h <=_W g: W_g - W_h = (1 - xy) * nonnegative quotient."""
    _check_same_class(g, h)
    memo: dict = {}
    return compare_whitney_polys(whitney(g, memo), whitney(h, memo))


def tutte_compare(g: SimpleGraph, h: SimpleGraph) -> OrderResult:
    """Certificate for h <= g: T_g - T_h = (x + y - xy) * nonnegative quotient."""
    _check_same_class(g, h)
    memo: dict = {}
    return compare_tutte_polys(whitney(g, memo), whitney(h, memo))


class MaximumCertificate(NamedTuple):
    """Result of checking one graph against a whole class."""

    order: str
    is_maximum: bool
    checked: int
    counterexamples: tuple[tuple[SimpleGraph, OrderResult], ...] = ()


def certify_maximum(
    g: SimpleGraph,
    class_members: Iterable[SimpleGraph],
    order: str = WHITNEY,
    collect_all: bool = False,
) -> MaximumCertificate:
    """Check h <= g for every h in an isomorphism-class stream.

    Stops at the first counterexample unless collect_all is set.  With the
    stream in sorted canonical order the reported counterexample is the
    canonically smallest one.
    """
    if order not in (WHITNEY, TUTTE):
        raise ParameterError(f"unknown order {order!r}")
    memo: dict = {}  # one deletion-contraction memo for g and the class
    compare_polys = compare_whitney_polys if order == WHITNEY else compare_tutte_polys
    w_g = whitney(g, memo)
    counterexamples = []
    checked = 0
    for h in class_members:
        _check_same_class(g, h)
        checked += 1
        result = compare_polys(w_g, whitney(h, memo))
        if not result.ok():
            counterexamples.append((h, result))
            if not collect_all:
                break
    return MaximumCertificate(
        order=order,
        is_maximum=not counterexamples,
        checked=checked,
        counterexamples=tuple(counterexamples),
    )
