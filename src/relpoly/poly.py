"""Sparse bivariate polynomials with exact integer coefficients.

Terms are stored as a dict mapping exponent pairs (a, b) to nonzero Python
ints, so every operation is exact regardless of coefficient size.

shift_vars substitutes x -> x + dx, y -> y + dy one variable at a time: a
Taylor shift by synthetic division of each row (one power of y), then of
each column, O(A^2 B + A B^2) additions for degrees A in x and B in y.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator


class BivarPoly:
    """Immutable polynomial in x and y over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent pair {(a, b)}")
                if c:
                    clean[(a, b)] = int(c)
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], int]) -> "BivarPoly":
        # trusted constructor: terms already zero-free with valid exponents
        p = object.__new__(cls)
        p._terms = terms
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls._raw({(0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "BivarPoly":
        return cls._raw({(0, 0): int(c)} if c else {})

    @classmethod
    def x(cls) -> "BivarPoly":
        return cls._raw({(1, 0): 1})

    @classmethod
    def y(cls) -> "BivarPoly":
        return cls._raw({(0, 1): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "BivarPoly":
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent pair {(a, b)}")
        return cls._raw({(a, b): int(c)} if c else {})

    # -- inspection -----------------------------------------------------

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted list of (a, b, coefficient) triples."""
        return [(a, b, c) for (a, b), c in sorted(self._terms.items())]

    def coeff(self, a: int, b: int) -> int:
        return self._terms.get((a, b), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_nonnegative(self) -> bool:
        """True iff every stored coefficient is positive (zero poly counts)."""
        return all(c > 0 for c in self._terms.values())

    def num_terms(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.terms())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivarPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: "BivarPoly | int") -> "BivarPoly":
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BivarPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "BivarPoly | int") -> "BivarPoly":
        return self + -other

    def __rsub__(self, other: int) -> "BivarPoly":
        return BivarPoly.constant(other) - self

    def __mul__(self, other: "BivarPoly | int") -> "BivarPoly":
        if isinstance(other, int):
            if not other:
                return BivarPoly.zero()
            return BivarPoly._raw({k: c * other for k, c in self._terms.items()})
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return BivarPoly._raw(out)

    __rmul__ = __mul__

    def mul_monomial(self, a: int, b: int, c: int = 1) -> "BivarPoly":
        """Multiply by c * x^a * y^b (cheaper than a general product)."""
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent pair {(a, b)}")
        if not c:
            return BivarPoly.zero()
        return BivarPoly._raw(
            {(aa + a, bb + b): cc * c for (aa, bb), cc in self._terms.items()}
        )

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
        (one power of y) is Taylor-shifted by dx, then each column by dy."""
        return BivarPoly._raw(_taylor_shift(_taylor_shift(self._terms, 0, dx), 1, dy))

    def eval_rational(self, x0: Fraction | int, y0: Fraction | int) -> Fraction:
        """Exact value at a rational point."""
        x0 = Fraction(x0)
        y0 = Fraction(y0)
        return sum((c * x0**a * y0**b for (a, b), c in self._terms.items()), Fraction(0))

    # -- serialization -----------------------------------------------------

    def to_triples(self) -> list[list]:
        """JSON form: [a, b, coefficient-as-decimal-string], sorted by (a, b)."""
        return [[a, b, str(c)] for (a, b), c in sorted(self._terms.items())]

    @classmethod
    def from_triples(cls, triples: Iterable[Iterable]) -> "BivarPoly":
        terms: dict[tuple[int, int], int] = {}
        for a, b, c in triples:
            key = (int(a), int(b))
            if key in terms:
                raise ValueError(f"duplicate exponent pair {key}")
            terms[key] = int(c)
        return cls(terms)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (a, b), c in sorted(self._terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
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


def _taylor_shift(terms: dict, axis: int, d: int) -> dict:
    """Substitute t -> t + d for the variable of exponent key[axis], one line
    (fixed other exponent) at a time, by repeated synthetic division: pass i
    adds d times c[j + 1] into c[j] for j = top - 1 down to i."""
    if not d:
        return terms
    lines: dict[int, dict[int, int]] = {}
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
