"""Exhaustive scans of the classes C(n, m) of connected simple graphs.

Enumeration produces one canonically labeled representative per isomorphism
class (via complements when the class is dense); the scan then derives every
member's Whitney polynomial, count table, and flags, and certifies the
Whitney/Tutte maxima by polynomial division.

Every member is certified in the Whitney order, so the theorem check
(strong == Whitney-maximum) tests both directions without using either; the
Tutte pass certifies only the Whitney maxima, since Tutte domination implies
Whitney domination.  Each candidate is compared first with the members that
refuted earlier candidates, and the Tutte pass starts from the refuters of
the Whitney pass, so a scan makes a few compares per member instead of a
pass over the class for each.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from math import comb

from .counts import (
    NTable,
    lambda_k,
    mu_vector,
    ntable_from_whitney,
    t_k,
)
from .errors import BudgetError, EmptyClassError
# canonical_form and canonical_relabel are unused here but stay importable
# from this module because perfbench/tracer.py wraps them here
from .graphs import (  # noqa: F401
    CanonicalLabeling,
    SimpleGraph,
    canonical_form,
    canonical_labeling,
    canonical_relabel,
    to_graph6,
)
from .order import compare_tutte_polys, compare_whitney_polys
from .poly import BivarPoly
from .tutte import whitney

ENUM_MAX_VERTICES = 9


@dataclass(frozen=True)
class ClassSpec:
    """The class C(n, m); nonempty exactly when n-1 <= m <= n(n-1)/2."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise EmptyClassError(f"need n >= 1, got {self.n}")
        if not self.n - 1 <= self.m <= self.n * (self.n - 1) // 2:
            raise EmptyClassError(
                f"C({self.n}, {self.m}) is empty: need {self.n - 1} <= m <= "
                f"{self.n * (self.n - 1) // 2}"
            )


def _nonedge_orbit_reps(g: SimpleGraph, gens):
    """The least non-edge of each orbit of the group generated by gens on
    the non-edges of g."""
    covered: set[tuple[int, int]] = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) or (u, v) in covered:
                continue
            yield u, v
            covered.add((u, v))
            stack = [(u, v)]
            while stack:
                a, b = stack.pop()
                for gen in gens:
                    x, y = gen[a], gen[b]
                    pair = (x, y) if x < y else (y, x)
                    if pair not in covered:
                        covered.add(pair)
                        stack.append(pair)


def _graphs_with_edges(n: int, m: int) -> list[SimpleGraph]:
    """One canonical representative per isomorphism class of graphs on n
    labeled vertices with exactly m edges (connected or not), sorted by
    certificate.

    Each level adds one edge to every class of the level below.  Non-edges
    in one orbit of the parent's automorphism group give isomorphic children,
    so only one per orbit is tried (McKay, "Isomorph-free exhaustive
    generation", 1998); any group of true automorphisms keeps this
    exhaustive.  The search that names a child's class also labels it
    canonically and finds the generators used one level up."""
    empty = canonical_labeling(SimpleGraph(n, ()))
    current = {empty.cert: empty}
    for _ in range(m):
        nxt: dict[bytes, CanonicalLabeling] = {}
        for parent in current.values():
            for u, v in _nonedge_orbit_reps(parent.graph, parent.generators):
                child = canonical_labeling(parent.graph.with_edge(u, v))
                nxt.setdefault(child.cert, child)
        current = nxt
    return [current[cert].graph for cert in sorted(current)]


def enumerate_class(spec: ClassSpec) -> list[SimpleGraph]:
    """All members of C(n, m) up to isomorphism, canonically labeled and
    sorted by certificate.  Dense classes are enumerated via complements."""
    if spec.n > ENUM_MAX_VERTICES:
        raise BudgetError(
            f"class enumeration capped at n <= {ENUM_MAX_VERTICES}, got n = {spec.n}"
        )
    total = spec.n * (spec.n - 1) // 2
    if spec.m <= total // 2:
        # already canonical and sorted: a simple graph is determined by its
        # certificate, which is its encoding under the identity order
        return [g for g in _graphs_with_edges(spec.n, spec.m) if g.is_connected()]
    complements = (g.complement() for g in _graphs_with_edges(spec.n, total - spec.m))
    labelings = [canonical_labeling(g) for g in complements if g.is_connected()]
    return [c.graph for c in sorted(labelings, key=lambda c: c.cert)]


def labeled_connected_count(n: int, m: int) -> int:
    """Number of labeled connected graphs on n vertices with m edges,
    by the component-of-vertex-1 decomposition (independent of enumeration)."""

    def total(k: int, j: int) -> int:
        return comb(comb(k, 2), j)

    conn: dict[tuple[int, int], int] = {}
    for k in range(1, n + 1):
        for j in range(0, comb(k, 2) + 1):
            acc = total(k, j)
            for size in range(1, k):
                for j1 in range(0, min(j, comb(size, 2)) + 1):
                    c = conn.get((size, j1), 0)
                    if c:
                        acc -= comb(k - 1, size - 1) * c * total(k - size, j - j1)
            conn[(k, j)] = acc
    return conn.get((n, m), 0)


# ---------------------------------------------------------------------------
# Per-member computation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemberData:
    graph: SimpleGraph
    graph6: str
    whitney: BivarPoly
    table: NTable
    mu: tuple[int, ...]
    t_list: tuple[int, ...]
    lambda_list: tuple[int | None, ...]


def _member_data(g: SimpleGraph, memo: dict) -> MemberData:
    w = whitney(g, memo=memo)
    table = ntable_from_whitney(w, g.n, g.m)
    return MemberData(
        graph=g,
        graph6=to_graph6(g),
        whitney=w,
        table=table,
        mu=mu_vector(table).values,
        t_list=tuple(t_k(table, k) for k in range(1, g.n + 1)),
        lambda_list=tuple(lambda_k(table, k) for k in range(1, g.n + 1)),
    )


@dataclass(frozen=True)
class MemberReport:
    graph6: str
    strong: bool
    zero_element: bool
    whitney_max: bool
    tutte_max: bool
    t_optimal: bool
    k_umrg_by_domination: tuple[bool, ...]
    t1: int
    lambda1: int | None
    mu: tuple[int, ...]
    t_list: tuple[int, ...]
    lambda_list: tuple[int | None, ...]
    table_digest: str

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "strong": self.strong,
            "zero_element": self.zero_element,
            "whitney_max": self.whitney_max,
            "tutte_max": self.tutte_max,
            "t_optimal": self.t_optimal,
            "k_umrg_by_domination": list(self.k_umrg_by_domination),
            "t1": str(self.t1),
            "lambda1": self.lambda1,
            "mu": [str(v) for v in self.mu],
            "t_list": [str(v) for v in self.t_list],
            "lambda_list": list(self.lambda_list),
            "table_digest": self.table_digest,
        }


@dataclass(frozen=True)
class ClassReport:
    spec: ClassSpec
    partial: bool
    members: tuple[MemberReport, ...]
    summary: dict
    theorem2_check: bool

    def to_json_dict(self) -> dict:
        return {
            "spec": {"n": self.spec.n, "m": self.spec.m},
            "partial": self.partial,
            "members": [r.to_json_dict() for r in self.members],
            "summary": self.summary,
            "theorem2_check": self.theorem2_check,
        }

    def to_csv_rows(self) -> list[str]:
        rows = ["graph6,strong,zero_element,whitney_max,tutte_max,t_optimal,t1,lambda1"]
        for r in self.members:
            rows.append(
                ",".join(
                    [
                        r.graph6,
                        str(int(r.strong)),
                        str(int(r.zero_element)),
                        str(int(r.whitney_max)),
                        str(int(r.tutte_max)),
                        str(int(r.t_optimal)),
                        str(r.t1),
                        "" if r.lambda1 is None else str(r.lambda1),
                    ]
                )
            )
        return rows


def _table_digest(table: NTable) -> str:
    blob = json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _maxima_flags(polys, candidates, compare, refuters: dict) -> list[bool]:
    """flags[i]: whether compare(polys[i], p).ok() for every p in polys,
    decided for each i in candidates (False for the others).  scan passes
    every member in the Whitney order and only the Whitney maxima in the
    Tutte order.

    The members that refuted earlier candidates are tried first, the latest
    first, then the rest in member order; a candidate that passes counts as
    the latest, since a maximum refutes every non-maximum of a transitive
    order.  So one good refuter serves most of the class.  refuters is an
    insertion-ordered set (a dict of None values), updated in place so that
    a later pass can start from it.  Each flag is a conjunction, so the order
    of the compares changes only how many are made."""
    flags = [False] * len(polys)
    for i in candidates:
        # compare(p, p) is Equal, so a candidate skips itself
        recent = [j for j in reversed(refuters) if j != i]
        rest = (j for j in range(len(polys)) if j != i and j not in refuters)
        for j in chain(recent, rest):
            if not compare(polys[i], polys[j]).ok():
                break
        else:
            flags[i] = True
            j = i
        refuters.pop(j, None)
        refuters[j] = None
    return flags


def scan(spec: ClassSpec, limit: int | None = None) -> ClassReport:
    """Classify every member of C(n, m): strong / 0-element / Whitney-maximum /
    Tutte-maximum / t-optimal, with division certificates for the maxima.
    limit (smoke mode) scans only the first members; the report is partial."""
    members = enumerate_class(spec)
    truncated = limit is not None and limit < len(members)
    if truncated:
        members = members[:limit]
    if not members:
        raise BudgetError(f"scan of C({spec.n}, {spec.m}) produced no members")

    # one deletion-contraction memo per scan
    memo: dict = {}
    data = [_member_data(g, memo) for g in members]

    count = len(data)
    n, m = spec.n, spec.m

    # classwise maxima of N_i^(k) decide strong and per-k domination flags
    maxima = [
        [max(d.table.prefix[i][k] for d in data) for k in range(n + 1)]
        for i in range(m + 1)
    ]
    strong = []
    k_umrg = []
    for d in data:
        pref = d.table.prefix
        per_k = tuple(
            all(pref[i][k] == maxima[i][k] for i in range(m + 1))
            for k in range(1, n + 1)
        )
        k_umrg.append(per_k)
        strong.append(all(per_k))

    mu_min = min(d.mu for d in data)
    zero = [d.mu == mu_min for d in data]
    t1_max = max(d.t_list[0] for d in data)
    t_opt = [d.t_list[0] == t1_max for d in data]

    polys = [d.whitney for d in data]
    refuters: dict[int, None] = {}
    whitney_max = _maxima_flags(polys, range(count), compare_whitney_polys, refuters)
    # Tutte domination implies Whitney domination: only a Whitney maximum can
    # be a Tutte maximum, and a Whitney refuter refutes in the Tutte order too
    tutte_max = _maxima_flags(
        polys, [i for i in range(count) if whitney_max[i]], compare_tutte_polys, refuters
    )

    reports = tuple(
        MemberReport(
            graph6=d.graph6,
            strong=strong[i],
            zero_element=zero[i],
            whitney_max=whitney_max[i],
            tutte_max=tutte_max[i],
            t_optimal=t_opt[i],
            k_umrg_by_domination=k_umrg[i],
            t1=d.t_list[0],
            lambda1=d.lambda_list[0],
            mu=d.mu,
            t_list=d.t_list,
            lambda_list=d.lambda_list,
            table_digest=_table_digest(d.table),
        )
        for i, d in enumerate(data)
    )
    summary = {
        "class_size": count,
        "strong": sum(strong),
        "zero_element": sum(zero),
        "whitney_max": sum(whitney_max),
        "tutte_max": sum(tutte_max),
        "t_optimal": sum(t_opt),
    }
    return ClassReport(
        spec=spec,
        partial=truncated,
        members=reports,
        summary=summary,
        theorem2_check=strong == whitney_max,
    )


@dataclass(frozen=True)
class Section4Result:
    ok: bool
    vacuous: bool
    failures: tuple[str, ...] = ()


def verify_section4(report: ClassReport) -> Section4Result:
    """Check the invariant-maxima consequences on a fully scanned class:
    every Whitney-maximum member attains the class maxima of lambda^(k) and
    t_k for all k, is a mu-lex minimum, and every member sharing its N^(1)
    row (equivalently its mu-vector) is a 0-element too."""
    members = report.members
    wm = [r for r in members if r.whitney_max]
    if not wm:
        return Section4Result(ok=True, vacuous=True)
    n = report.spec.n
    failures = []
    t_max = [max(r.t_list[k] for r in members) for k in range(n)]
    lam_max = [
        max((r.lambda_list[k] for r in members if r.lambda_list[k] is not None), default=None)
        for k in range(n)
    ]
    for r in wm:
        for k in range(n):
            if r.t_list[k] != t_max[k]:
                failures.append(f"{r.graph6}: t_{k + 1} = {r.t_list[k]} < max {t_max[k]}")
            if lam_max[k] is not None and r.lambda_list[k] != lam_max[k]:
                failures.append(
                    f"{r.graph6}: lambda^({k + 1}) = {r.lambda_list[k]} < max {lam_max[k]}"
                )
        if not r.zero_element:
            failures.append(f"{r.graph6}: Whitney-maximum but not a mu-lex minimum")
    ref_mu = wm[0].mu
    for r in members:
        if r.mu == ref_mu and not r.zero_element:
            failures.append(f"{r.graph6}: shares the maximum N^(1) row but not flagged 0-element")
    return Section4Result(ok=not failures, vacuous=False, failures=tuple(failures))
