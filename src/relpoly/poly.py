"""Dense bivariate polynomials with exact integer coefficients.

A polynomial is a tuple of rows: row a holds the coefficients of x^a y^0,
x^a y^1, ... as Python ints, so every operation is exact regardless of
coefficient size.  Rows are trimmed (no trailing zero in a row, no trailing
empty row), so a polynomial has one form and equality is tuple equality.  A
row costs one pointer per entry: the 2,409 polynomials live at the end of a
C(8, 18) scan's member pass take 1.6 MB as rows and would take 7.9 MB as dicts
keyed by exponent pairs, not counting the ints both hold.  Work follows the
stored entries, never a padded rectangle: a sum rebuilds only the rows that
both operands hold, a product skips empty rows, and mul_monomial moves,
pads or scales rows.

shift_vars substitutes x -> x + dx, y -> y + dy one variable at a time: a
Taylor shift by synthetic division of each row (one power of x) by dy, then
of each column (one power of y) by dx; O(A^2 B + A B^2) additions for
degrees A in x and B in y.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat, zip_longest
from operator import add, index, mul
from typing import Iterable, Iterator


def _exact(c) -> int:
    """c as an int; anything that is not an integer type is refused, so a
    fraction or a float is never truncated."""
    try:
        return index(c)
    except TypeError:
        raise ValueError(f"coefficient {c!r} is not an integer") from None


def _trim(row) -> tuple:
    """row as a tuple without trailing zeros."""
    k = len(row)
    while k and not row[k - 1]:
        k -= 1
    return tuple(row[:k])


def _trim_rows(rows) -> tuple:
    """Trimmed rows as a tuple without trailing empty rows."""
    k = len(rows)
    while k and not rows[k - 1]:
        k -= 1
    return tuple(rows[:k])


def _scale(row: tuple, c: int) -> tuple:
    return row if c == 1 else tuple(map(mul, row, repeat(c)))


def _add_row(r: tuple, s: tuple) -> tuple:
    if len(r) < len(s):
        r, s = s, r
    if len(r) > len(s):
        # r's last entry survives, so the sum needs no trim
        return tuple(map(add, r, s)) + r[len(s) :]
    return _trim(tuple(map(add, r, s)))


def _add_rows(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for a, s in enumerate(q):
        if s:
            r = out[a]
            out[a] = _add_row(r, s) if r else s
    return _trim_rows(out)


class BivarPoly:
    """Immutable polynomial in x and y over the integers."""

    __slots__ = ("_rows",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        rows: list[list[int]] = []
        for (a, b), c in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent pair {(a, b)}")
            c = _exact(c)
            if c:
                if len(rows) <= a:
                    rows.extend([] for _ in range(a + 1 - len(rows)))
                row = rows[a]
                if len(row) <= b:
                    row.extend(repeat(0, b + 1 - len(row)))
                row[b] = c
        # a row grows only to a nonzero entry and only a nonzero entry adds
        # rows, so every row and the row list end nonzero
        self._rows = tuple(map(tuple, rows))

    @classmethod
    def _raw(cls, rows: tuple) -> "BivarPoly":
        # trusted constructor: rows already trimmed tuples of ints
        p = object.__new__(cls)
        p._rows = rows
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BivarPoly":
        """The polynomial whose row a lists the coefficients of x^a y^b for
        b = 0, 1, ...; rows may end in zeros and the list in empty rows."""
        return cls._raw(_trim_rows([_trim([_exact(c) for c in row]) for row in rows]))

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls._raw(())

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls._raw(((1,),))

    @classmethod
    def constant(cls, c: int) -> "BivarPoly":
        c = _exact(c)
        return cls._raw(((c,),) if c else ())

    @classmethod
    def x(cls) -> "BivarPoly":
        return cls._raw(((), (1,)))

    @classmethod
    def y(cls) -> "BivarPoly":
        return cls._raw(((0, 1),))

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "BivarPoly":
        return cls.one().mul_monomial(a, b, c)

    # -- inspection -----------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The stored rows: rows[a][b] is the coefficient of x^a y^b."""
        return self._rows

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted list of (a, b, coefficient) triples."""
        return [(a, b, c) for a, row in enumerate(self._rows) for b, c in enumerate(row) if c]

    def coeff(self, a: int, b: int) -> int:
        rows = self._rows
        if 0 <= a < len(rows) and 0 <= b < len(rows[a]):
            return rows[a][b]
        return 0

    def is_zero(self) -> bool:
        return not self._rows

    def is_nonnegative(self) -> bool:
        """True iff no coefficient is negative (the zero poly counts)."""
        return all(c >= 0 for row in self._rows for c in row)

    def num_terms(self) -> int:
        return sum(len(row) - row.count(0) for row in self._rows)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.terms())

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivarPoly):
            return self._rows == other._rows
        if isinstance(other, int):
            return self._rows == (((other,),) if other else ())
        return NotImplemented

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: "BivarPoly | int") -> "BivarPoly":
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        return BivarPoly._raw(_add_rows(self._rows, other._rows))

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._raw(tuple(_scale(row, -1) for row in self._rows))

    def __sub__(self, other: "BivarPoly | int") -> "BivarPoly":
        return self + -other

    def __rsub__(self, other: int) -> "BivarPoly":
        return BivarPoly.constant(other) - self

    def __mul__(self, other: "BivarPoly | int") -> "BivarPoly":
        if isinstance(other, int):
            return self.mul_monomial(0, 0, other)
        p, q = self._rows, other._rows
        if not p or not q:
            return BivarPoly.zero()
        out: list[list[int]] = [[] for _ in range(len(p) + len(q) - 1)]
        for a1, r1 in enumerate(p):
            if not r1:
                continue
            for a2, r2 in enumerate(q):
                if not r2:
                    continue
                acc = out[a1 + a2]
                width = len(r2)
                if len(acc) < len(r1) + width - 1:
                    acc.extend(repeat(0, len(r1) + width - 1 - len(acc)))
                for b, c in enumerate(r1):
                    if c:
                        acc[b : b + width] = map(add, acc[b : b + width], map(mul, r2, repeat(c)))
        return BivarPoly._raw(_trim_rows([_trim(acc) for acc in out]))

    __rmul__ = __mul__

    def mul_monomial(self, a: int, b: int, c: int = 1) -> "BivarPoly":
        """Multiply by c * x^a * y^b (cheaper than a general product): rows
        move up by a, each row is padded by b and scaled by c."""
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent pair {(a, b)}")
        c = _exact(c)
        rows = self._rows
        if not c or not rows:
            return BivarPoly.zero()
        if c == 1 and not a and not b:
            return self
        if c != 1:
            rows = tuple(_scale(row, c) for row in rows)
        if b:
            pad = (0,) * b
            rows = tuple(pad + row if row else row for row in rows)
        if a:
            rows = ((),) * a + rows
        return BivarPoly._raw(rows)

    def __pow__(self, e: int) -> "BivarPoly":
        if e < 0:
            raise ValueError("negative power")
        result = BivarPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- substitutions and evaluation -------------------------------------

    def shift_vars(self, dx: int, dy: int) -> "BivarPoly":
        """Substitute x -> x + dx and y -> y + dy, expanded exactly: each row
        is Taylor-shifted by dy, then each column by dx."""
        rows = self._rows
        if dy:
            # a shift keeps a row's leading coefficient, so rows stay trimmed
            rows = tuple(_taylor_shift(row, dy) if len(row) > 1 else row for row in rows)
        if dx and len(rows) > 1:
            rows = _taylor_shift_rows(rows, dx)
        return BivarPoly._raw(rows)

    def eval_rational(self, x0: Fraction | int, y0: Fraction | int) -> Fraction:
        """Exact value at a rational point, by Horner's rule in y, then x."""
        x0 = Fraction(x0)
        y0 = Fraction(y0)
        total = Fraction(0)
        for row in reversed(self._rows):
            value = Fraction(0)
            for c in reversed(row):
                value = value * y0 + c
            total = total * x0 + value
        return total

    # -- serialization -----------------------------------------------------

    def to_triples(self) -> list[list]:
        """JSON form: [a, b, coefficient-as-decimal-string], sorted by (a, b)."""
        return [[a, b, str(c)] for a, b, c in self.terms()]

    @classmethod
    def from_triples(cls, triples: Iterable[Iterable]) -> "BivarPoly":
        terms: dict[tuple[int, int], int] = {}
        for a, b, c in triples:
            key = (int(a), int(b))
            if key in terms:
                raise ValueError(f"duplicate exponent pair {key}")
            # a decimal string is parsed; any other value must be an integer
            terms[key] = int(c) if isinstance(c, str) else c
        return cls(terms)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms()
        if not terms:
            return "0"
        parts = []
        for a, b, c in sorted(terms, key=lambda t: (-(t[0] + t[1]), -t[0])):
            mono = ""
            if a:
                mono += "x" if a == 1 else f"x^{a}"
            if b:
                mono += "y" if b == 1 else f"y^{b}"
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}{mono}"
            parts.append((" - " if c < 0 else " + ", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == " - " else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self) -> str:
        return f"BivarPoly({self})"


def _taylor_shift(row: tuple, d: int) -> tuple:
    """The coefficients of p(t + d) for those of p(t), by repeated synthetic
    division: pass i adds d times c[j + 1] into c[j] for j = top - 1 down
    to i."""
    cs = list(row)
    top = len(cs) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            cs[j] += d * cs[j + 1]
    return tuple(cs)


def _taylor_shift_rows(rows: tuple, d: int) -> tuple:
    """_taylor_shift of each column (one power of y); a row that cancels to
    shorter is trimmed."""
    cols = [_taylor_shift(_trim(col), d) for col in zip_longest(*rows, fillvalue=0)]
    return tuple(map(_trim, zip_longest(*cols, fillvalue=0)))
