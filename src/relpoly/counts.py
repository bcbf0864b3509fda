"""Spanning-subgraph count tables and everything derived from them:
prefix sums, mu-vectors and reliability coefficients (plain integer tuples),
connectivity invariants, and Bernstein-subdivision sign certificates.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import NamedTuple

from .errors import ParameterError, TableConsistencyError
from .graphs import SimpleGraph, _Frozen, edge_subset_census, require_connected
from .poly import BivarPoly
from .tutte import tutte_dc

NONNEGATIVE_ON_01 = "NonnegativeOn01"
NEGATIVE_WITNESS = "NegativeWitness"
UNKNOWN = "Unknown"
# halvings of [0, 1] before bernstein_certify gives up on a subinterval
CERTIFY_DEPTH = 30


class NTable(_Frozen):
    """counts[i][j] = number of spanning subgraphs with i edges and exactly
    j components, for i in 0..m and j in 1..n (index 0 of each row unused).
    prefix[i][k] = N_i^(k) = sum_{j<=k} counts[i][j], built once with the
    table, since every reader of a table reads it."""

    __slots__ = ("n", "m", "rows", "prefix")

    def __init__(self, n: int, m: int, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "prefix", prefix_sums(rows))

    def __eq__(self, other):
        if other.__class__ is not NTable:
            return NotImplemented
        return (self.n, self.m, self.rows) == (other.n, other.m, other.rows)

    def __hash__(self):
        return hash((self.n, self.m, self.rows))

    def __repr__(self):
        return f"NTable(n={self.n!r}, m={self.m!r}, rows={self.rows!r})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "counts": [[str(row[j]) for j in range(1, self.n + 1)] for row in self.rows],
        }


def prefix_sums(rows) -> tuple[tuple[int, ...], ...]:
    """The prefix table of count-table rows: prefix[i][k] = sum of
    rows[i][j] over 1 <= j <= k, with prefix[i][0] = 0."""
    return tuple(tuple(accumulate(row[1:], initial=0)) for row in rows)


def require_k(k: int, n: int) -> None:
    """Refuse a number of components k outside 1..n."""
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} outside 1..{n}")


def require_probability(p: Fraction) -> None:
    """Refuse p outside [0, 1]."""
    if not 0 <= p <= 1:
        raise ParameterError(f"p = {p} outside [0, 1]")


def require_tutte_probability(p: Fraction) -> None:
    """Refuse p outside (0, 1), where the Tutte route evaluates T(1, 1/(1-p))."""
    if not 0 < p < 1:
        raise ParameterError(f"the Tutte route needs p strictly inside (0, 1); got {p}")


def _check_row_sums(rows, m):
    for i, row in enumerate(rows):
        total = sum(row[1:])
        if total != comb(m, i):
            raise TableConsistencyError(
                f"row {i} sums to {total}, expected C({m},{i}) = {comb(m, i)}"
            )


def count_rows(w: BivarPoly, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The count-table rows read off Whitney coefficients, N_{i,j} =
    [x^{j-1} y^{i-n+j}] W (index 0 of each row unused), sharing W's ints.

    Raises TableConsistencyError for a term outside the (n, m) table.
    """
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    for a, row in enumerate(w.rows):
        j = a + 1
        for b, c in enumerate(row):
            if c:
                i = n - 1 - a + b
                if not (j <= n and 0 <= i <= m):
                    raise TableConsistencyError(
                        f"Whitney term x^{a} y^{b} maps outside the (n={n}, m={m}) table"
                    )
                rows[i][j] = c
    return tuple(map(tuple, rows))


def ntable_from_whitney(w: BivarPoly, n: int, m: int) -> NTable:
    """Count table read off Whitney coefficients (count_rows).

    Raises TableConsistencyError when the row sums do not match binomials,
    which signals that w is not the Whitney polynomial of a connected
    (n, m)-graph.
    """
    rows = count_rows(w, n, m)
    _check_row_sums(rows, m)
    return NTable(n, m, rows)


def ntable_bruteforce(g: SimpleGraph) -> NTable:
    """Independent oracle: the subset census of g, which counts the
    components of all 2^m edge subsets by a frontier DP."""
    # index 0 is unused: the census counts the empty graph's one subset there
    return NTable(g.n, g.m, tuple((0, *row[1:]) for row in edge_subset_census(g)))


def mu_vector(table: NTable) -> tuple[int, ...]:
    """mu_i = C(m, i) - N_i^(1), compared lexicographically across a class."""
    return tuple(comb(table.m, i) - table.prefix[i][1] for i in range(table.m + 1))


def reliability(table: NTable, k: int) -> tuple[int, ...]:
    """(N_0^(k), ..., N_m^(k)), the coefficients of R^(k) in the p^i (1-p)^(m-i) basis."""
    require_k(k, table.n)
    return tuple(table.prefix[i][k] for i in range(table.m + 1))


def rel_eval(coeffs: tuple[int, ...], p: Fraction | int) -> Fraction:
    """sum_i coeffs[i] p^i (1-p)^(m-i), with m = len(coeffs) - 1."""
    p = Fraction(p)
    require_probability(p)
    q = 1 - p
    m = len(coeffs) - 1
    total = Fraction(0)
    for i, c in enumerate(coeffs):
        if c:
            total += c * p**i * q ** (m - i)
    return total


def reliability_via_tutte(g: SimpleGraph, p: Fraction | int) -> Fraction:
    """Connectedness probability via p^{n-1} (1-p)^{m-n+1} T(1, 1/(1-p))."""
    require_connected(g)
    return reliability_from_tutte(tutte_dc(g), g.n, g.m, p)


def reliability_from_tutte(t: BivarPoly, n: int, m: int, p: Fraction | int) -> Fraction:
    """p^{n-1} (1-p)^{m-n+1} T(1, 1/(1-p)): the connectedness probability of
    a connected (n, m)-graph whose Tutte polynomial is t."""
    p = Fraction(p)
    require_tutte_probability(p)
    value = t.eval_rational(Fraction(1), 1 / (1 - p))
    return p ** (n - 1) * (1 - p) ** (m - n + 1) * value


def lambda_k(table: NTable, k: int) -> int | None:
    """Minimum number of edge removals forcing more than k components.

    None for k = n: no removal can force more than n components.
    """
    require_k(k, table.n)
    for x in range(table.m + 1):
        if table.prefix[table.m - x][k] < comb(table.m, table.m - x):
            return x
    return None


def t_k(table: NTable, k: int) -> int:
    """Number of spanning forests with exactly k trees: N_{n-k}^(k)."""
    require_k(k, table.n)
    i = table.n - k
    if i > table.m:
        return 0
    return table.prefix[i][k]


# ---------------------------------------------------------------------------
# Sign certification on [0, 1] by exact de Casteljau subdivision.
# ---------------------------------------------------------------------------

class CertifyOutcome(NamedTuple):
    status: str  # NONNEGATIVE_ON_01 | NEGATIVE_WITNESS | UNKNOWN
    witness: Fraction | None = None


def bernstein_certify(delta) -> CertifyOutcome:
    """Sign of sum_i delta[i] p^i (1-p)^(m-i) on [0, 1].

    NonnegativeOn01 is returned only with a full subdivision certificate;
    NegativeWitness carries a rational p with an exactly negative value;
    Unknown means a subinterval still has mixed signs at CERTIFY_DEPTH.
    """
    m = len(delta) - 1
    # Bernstein coefficients: divide out the binomial weights
    coeffs = [Fraction(c) / comb(m, i) for i, c in enumerate(delta)]
    half = Fraction(1, 2)
    unresolved = False
    stack = [(coeffs, Fraction(0), Fraction(1), 0)]
    while stack:
        cs, lo, hi, depth = stack.pop()
        if all(c >= 0 for c in cs):
            continue
        if cs[0] < 0:
            return CertifyOutcome(NEGATIVE_WITNESS, witness=lo)
        if cs[-1] < 0:
            return CertifyOutcome(NEGATIVE_WITNESS, witness=hi)
        if depth >= CERTIFY_DEPTH:
            unresolved = True
            continue
        left, right = _decasteljau_split(cs, half)
        mid = (lo + hi) / 2
        stack.append((left, lo, mid, depth + 1))
        stack.append((right, mid, hi, depth + 1))
    return CertifyOutcome(UNKNOWN if unresolved else NONNEGATIVE_ON_01)


def _decasteljau_split(coeffs, t):
    """Bernstein coefficients of the two halves of the segment at ratio t."""
    work = list(coeffs)
    left = [work[0]]
    right = [work[-1]]
    for level in range(1, len(coeffs)):
        for i in range(len(coeffs) - level):
            work[i] = (1 - t) * work[i] + t * work[i + 1]
        left.append(work[0])
        right.append(work[len(coeffs) - level - 1])
    right.reverse()
    return left, right
