"""Spanning-subgraph count tables and everything derived from them:
prefix sums, mu-vectors, reliability polynomials, connectivity invariants,
and Bernstein-subdivision sign certificates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .errors import DisconnectedGraphError, ParameterError, TableConsistencyError
from .graphs import SimpleGraph, components, edge_subset_census
from .poly import BivarPoly
from .tutte import tutte_dc

BRUTEFORCE_MAX_EDGES = 24

NONNEGATIVE_ON_01 = "NonnegativeOn01"
NEGATIVE_WITNESS = "NegativeWitness"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class NTable:
    """counts[i][j] = number of spanning subgraphs with i edges and exactly
    j components, for i in 0..m and j in 1..n (index 0 of each row unused)."""

    n: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    def count(self, i: int, j: int) -> int:
        if not (0 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError(f"(i={i}, j={j}) outside table 0..{self.m} x 1..{self.n}")
        return self.rows[i][j]

    @cached_property
    def prefix(self) -> tuple[tuple[int, ...], ...]:
        """prefix[i][k] = N_i^(k) = sum_{j<=k} counts[i][j]."""
        out = []
        for row in self.rows:
            acc = [0]
            total = 0
            for j in range(1, self.n + 1):
                total += row[j]
                acc.append(total)
            out.append(tuple(acc))
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "counts": [[str(row[j]) for j in range(1, self.n + 1)] for row in self.rows],
        }


def n_leq(table: NTable, i: int, k: int) -> int:
    """N_i^(k): subgraphs with i edges and at most k components."""
    if not (0 <= i <= table.m and 1 <= k <= table.n):
        raise IndexError(f"(i={i}, k={k}) outside table 0..{table.m} x 1..{table.n}")
    return table.prefix[i][k]


def _check_row_sums(rows, n, m):
    for i, row in enumerate(rows):
        total = sum(row[1:])
        if total != comb(m, i):
            raise TableConsistencyError(
                f"row {i} sums to {total}, expected C({m},{i}) = {comb(m, i)}"
            )


def ntable_from_whitney(w: BivarPoly, n: int, m: int) -> NTable:
    """Count table read off Whitney coefficients: N_{i,j} = [x^{j-1} y^{i-n+j}] W.

    Raises TableConsistencyError when the row sums do not match binomials,
    which signals that w is not the Whitney polynomial of a connected
    (n, m)-graph.
    """
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    for a, b, c in w.terms():
        j = a + 1
        i = n - 1 - a + b
        if not (1 <= j <= n and 0 <= i <= m):
            raise TableConsistencyError(
                f"Whitney term x^{a} y^{b} maps outside the (n={n}, m={m}) table"
            )
        rows[i][j] = c
    _check_row_sums(rows, n, m)
    return NTable(n, m, tuple(tuple(r) for r in rows))


def ntable_bruteforce(g: SimpleGraph) -> NTable:
    """Independent oracle: enumerate all 2^m edge subsets and count components."""
    counts = edge_subset_census(g, max_edges=BRUTEFORCE_MAX_EDGES)
    rows = [[0] * (g.n + 1) for _ in range(g.m + 1)]
    for i in range(g.m + 1):
        for j in range(1, g.n + 1):
            rows[i][j] = counts[i][j]
    return NTable(g.n, g.m, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class MuVector:
    """mu_i = C(m, i) - N_i^(1), compared lexicographically across a class."""

    values: tuple[int, ...]


def mu_vector(table: NTable) -> MuVector:
    return MuVector(
        tuple(comb(table.m, i) - table.prefix[i][1] for i in range(table.m + 1))
    )


def mu_lex_compare(a: MuVector, b: MuVector) -> int:
    """-1, 0, or +1 for a before/equal/after b in lexicographic order."""
    if len(a.values) != len(b.values):
        raise ValueError("mu-vectors of different lengths are not comparable")
    if a.values < b.values:
        return -1
    if a.values > b.values:
        return 1
    return 0


@dataclass(frozen=True)
class ReliabilityPoly:
    """R^(k)(p) = sum_i coeffs[i] p^i (1-p)^(m-i), kept in that basis."""

    m: int
    k: int
    coeffs: tuple[int, ...]


def reliability(table: NTable, k: int) -> ReliabilityPoly:
    if not 1 <= k <= table.n:
        raise ParameterError(f"k={k} outside 1..{table.n}")
    return ReliabilityPoly(
        table.m, k, tuple(table.prefix[i][k] for i in range(table.m + 1))
    )


def rel_eval(rp: ReliabilityPoly, p: Fraction | int) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"p = {p} outside [0, 1]")
    q = 1 - p
    total = Fraction(0)
    for i, c in enumerate(rp.coeffs):
        if c:
            total += c * p**i * q ** (rp.m - i)
    return total


def reliability_via_tutte(g: SimpleGraph, p: Fraction | int) -> Fraction:
    """Connectedness probability via p^{n-1} (1-p)^{m-n+1} T(1, 1/(1-p))."""
    kappa, _ = components(g)
    if kappa != 1:
        raise DisconnectedGraphError("reliability_via_tutte needs a connected graph")
    return reliability_from_tutte(tutte_dc(g), g.n, g.m, p)


def reliability_from_tutte(t: BivarPoly, n: int, m: int, p: Fraction | int) -> Fraction:
    """p^{n-1} (1-p)^{m-n+1} T(1, 1/(1-p)): the connectedness probability of
    a connected (n, m)-graph whose Tutte polynomial is t."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ParameterError(f"the Tutte route needs p strictly inside (0, 1); got {p}")
    value = t.eval_rational(Fraction(1), 1 / (1 - p))
    return p ** (n - 1) * (1 - p) ** (m - n + 1) * value


def lambda_k(table: NTable, k: int) -> int | None:
    """Minimum number of edge removals forcing more than k components.

    None for k = n: no removal can force more than n components.
    """
    if not 1 <= k <= table.n:
        raise IndexError(f"k={k} outside 1..{table.n}")
    for x in range(table.m + 1):
        if table.prefix[table.m - x][k] < comb(table.m, table.m - x):
            return x
    return None


def t_k(table: NTable, k: int) -> int:
    """Number of spanning forests with exactly k trees: N_{n-k}^(k)."""
    if not 1 <= k <= table.n:
        raise IndexError(f"k={k} outside 1..{table.n}")
    i = table.n - k
    if i > table.m:
        return 0
    return table.prefix[i][k]


# ---------------------------------------------------------------------------
# Sign certification on [0, 1] by exact de Casteljau subdivision.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifyOutcome:
    status: str  # NONNEGATIVE_ON_01 | NEGATIVE_WITNESS | UNKNOWN
    witness: Fraction | None = None
    max_depth_hit: bool = False


def bernstein_certify(delta, max_depth: int = 30) -> CertifyOutcome:
    """Sign of sum_i delta[i] p^i (1-p)^(m-i) on [0, 1].

    NonnegativeOn01 is returned only with a full subdivision certificate;
    NegativeWitness carries a rational p with an exactly negative value.
    """
    m = len(delta) - 1
    if m < 0:
        return CertifyOutcome(NONNEGATIVE_ON_01)
    # Bernstein coefficients: divide out the binomial weights
    coeffs = [Fraction(c) / comb(m, i) for i, c in enumerate(delta)]

    def value_at(p: Fraction) -> Fraction:
        q = 1 - p
        return sum(
            (Fraction(c) * p**i * q ** (m - i) for i, c in enumerate(delta)),
            Fraction(0),
        )

    # cheap scan for an early witness
    for num in range(0, 9):
        p = Fraction(num, 8)
        if value_at(p) < 0:
            return CertifyOutcome(NEGATIVE_WITNESS, witness=p)

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
        if depth >= max_depth:
            unresolved = True
            continue
        left, right = _decasteljau_split(cs, half)
        mid = (lo + hi) / 2
        stack.append((left, lo, mid, depth + 1))
        stack.append((right, mid, hi, depth + 1))
    if unresolved:
        return CertifyOutcome(UNKNOWN, max_depth_hit=True)
    return CertifyOutcome(NONNEGATIVE_ON_01)


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
