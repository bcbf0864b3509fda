"""Exhaustive scans of the classes C(n, m) of connected simple graphs.

Enumeration yields one canonically labeled representative per isomorphism
class (via complements when the class is dense) as a graph6 string.  A scan
is one pass over them: each member's Whitney polynomial W is folded into the
maximal antichain of the Tutte order (decided by division by 1 - xy) and
into running classwise maxima of the N^(k) prefix sums, then dropped.  The
order is transitive, so a Tutte maximum is the final antichain's only
polynomial.  If T_g - T_h = (x + y - xy) P, then W_g - W_h =
(1 - xy) P(x + 1, y + 1), so Tutte dominance implies Whitney dominance and a
Whitney maximum is the final entry that Whitney-dominates the others.

Strong members come from the count tables (ntable_from_whitney) and
Whitney maxima from division by 1 - xy (divide_one_minus_xy), both read off
the same W.  Since (W_g - W_h) / (1 - xy) is the sum over i and k of
(N_i^(k)(g) - N_i^(k)(h)) x^(k-1) y^(i-n+k), the theorem check (strong ==
Whitney-maximum) checks those two readings against each other, not W
against an independent engine.  tests/test_census_identity.py checks the
identity against the subset census, which shares no code with
deletion-contraction.

A member's report fields are written to a line of a temporary file as it is
scanned, so what a scan holds in memory is classwise: the antichain, the
running maxima and the sets of members that attain them.  The report reads
the file again whenever its members are iterated, merging in their flags.
"""
from __future__ import annotations

import json
from math import comb
from typing import Iterator, NamedTuple

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
    SimpleGraph,
    _canon_search,
    _in_order,
    _multiplicities,
    canonical_form,
    canonical_relabel,
    parse_graph6,
    to_graph6,
)
from .order import EQUAL, NEGATIVE_QUOTIENT, compare_tutte_polys, compare_whitney_polys
from .poly import BivarPoly
from .tutte import whitney

ENUM_MAX_VERTICES = 9


class ClassSpec(NamedTuple("ClassSpec", [("n", int), ("m", int)])):
    """The class C(n, m); nonempty exactly when n-1 <= m <= n(n-1)/2."""

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        if n < 1:
            raise EmptyClassError(f"need n >= 1, got {n}")
        if not n - 1 <= m <= n * (n - 1) // 2:
            raise EmptyClassError(
                f"C({n}, {m}) is empty: need {n - 1} <= m <= {n * (n - 1) // 2}"
            )
        return super().__new__(cls, n, m)


def _pair_orbit(pair: tuple[int, int], gens) -> set[tuple[int, int]]:
    """The orbit of the vertex pair (u, v), u < v, under the group that
    gens generate."""
    orbit = {pair}
    stack = [pair]
    while stack:
        a, b = stack.pop()
        for gen in gens:
            x, y = gen[a], gen[b]
            image = (x, y) if x < y else (y, x)
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _nonedge_orbit_reps(g: SimpleGraph, gens):
    """The least non-edge of each orbit of the group generated by gens on
    the non-edges of g."""
    covered: set[tuple[int, int]] = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and (u, v) not in covered:
                yield u, v
                covered |= _pair_orbit((u, v), gens)


def _edges_tied_with(g: SimpleGraph, u: int, v: int):
    """The edges of G = g + uv whose invariant equals that of uv, uv first,
    or None when an edge of G has a larger one.  The invariant of an edge
    is its sorted pair of endpoint degrees, then the number of common
    neighbours of its endpoints, all in G; it needs no labeling."""
    adj = list(g.adjacency)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    deg = [mask.bit_count() for mask in adj]
    mine = (deg[u], deg[v]) if deg[u] < deg[v] else (deg[v], deg[u])
    common = (adj[u] & adj[v]).bit_count()
    tied = [(u, v)]
    for a, b in g.edges:
        da, db = deg[a], deg[b]
        pair = (da, db) if da < db else (db, da)
        if pair < mine:
            continue
        if pair > mine:
            return None
        shared = (adj[a] & adj[b]).bit_count()
        if shared > common:
            return None
        if shared == common:
            tied.append((a, b))
    return tied


def _deletes_canonically(order, gens, tied) -> bool:
    """Whether tied[0] is in the automorphism orbit of the canonical
    deletable edge: of the tied edges, the one whose endpoints come latest
    in the canonical order.  The order, the generators and the edges are
    all on the searched graph's own labels."""
    pos = {v: p for p, v in enumerate(order)}
    canonical = max(tied, key=lambda e: sorted((pos[e[0]], pos[e[1]]), reverse=True))
    return tied[0] == canonical or tied[0] in _pair_orbit(canonical, gens)


def _graphs_with_edges(
    n: int, m: int, complement: bool = False, connected: bool = False
) -> list[str]:
    """The graph6 strings of one canonical representative per isomorphism
    class of graphs on n labeled vertices with exactly m edges (connected or
    not), sorted by certificate.  With complement, the complements of those
    graphs instead; with connected, only the connected ones of what would be
    returned.

    Generation is depth first by canonical deletion (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998).  A graph P is extended by
    one non-edge per orbit of Aut(P), since non-edges in one orbit give
    isomorphic children, and the child G = P + e is kept only if e is in
    the Aut(G)-orbit of G's canonical deletable edge.  Every class then has
    exactly one parent class and is reached from it once, so no child needs
    to be compared with another.  The canonical deletable edge has the
    largest invariant (_edges_tied_with), so a child with an edge that beats
    e is dropped before any search; ties go to the edge whose endpoints come
    latest in G's canonical order.  One search of a surviving child gives
    that order and the generators used one level down, both on the labels
    the child was built in: the choice depends only on G's class, not on
    its labels, so no child is relabeled until it is kept.

    At level m only the graph that will be returned is searched: the
    complement when asked for, which has the same automorphisms and whose
    canonical order is as good an invariant order of G."""
    kept: list[tuple[bytes, str]] = []

    def grow(parent: SimpleGraph, parent_gens, level: int) -> None:
        last = level == m
        for u, v in _nonedge_orbit_reps(parent, parent_gens):
            tied = _edges_tied_with(parent, u, v)
            if tied is None:
                continue
            child = parent.with_edge(u, v)
            if last:
                child = child.complement() if complement else child
                if connected and not child.is_connected():
                    continue
            cert, order, gens = _canon_search(n, _multiplicities(child))
            if not _deletes_canonically(order, gens, tied):
                continue
            if last:
                kept.append((cert, to_graph6(_in_order(child, order))))
            else:
                grow(child, gens, level + 1)

    empty = SimpleGraph(n, ())
    if m == 0:
        # the empty and the complete graph are their own canonical copies
        root = empty.complement() if complement else empty
        return [to_graph6(root)] if not connected or root.is_connected() else []
    grow(empty, _canon_search(n, {})[2], 1)
    kept.sort()  # certificates are distinct, so this is by certificate
    return [code for _, code in kept]


def enumerate_class(spec: ClassSpec) -> list[str]:
    """The graph6 strings of all members of C(n, m) up to isomorphism,
    canonically labeled and sorted by certificate.  Dense classes are
    enumerated via complements."""
    if spec.n > ENUM_MAX_VERTICES:
        raise BudgetError(
            f"class enumeration capped at n <= {ENUM_MAX_VERTICES}, got n = {spec.n}"
        )
    total = spec.n * (spec.n - 1) // 2
    if spec.m <= total // 2:
        return _graphs_with_edges(spec.n, spec.m, connected=True)
    return _graphs_with_edges(spec.n, total - spec.m, complement=True, connected=True)


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


def _member_data(code: str, memo: dict) -> tuple[BivarPoly, tuple, tuple]:
    """(W, the count table's prefix sums N_i^(k), report fields) of the
    member with graph6 string code; the scan folds the first two and spills
    the fields, (graph6, mu, t_list, lambda_list, table_digest), as one line
    of its report file."""
    g = parse_graph6(code)
    # a member is its own canonical copy, as enumerate_class returns it
    w = whitney(g, memo=memo, canonical=True)
    table = ntable_from_whitney(w, g.n, g.m)
    fields = (
        code,
        mu_vector(table),
        tuple(t_k(table, k) for k in range(1, g.n + 1)),
        tuple(lambda_k(table, k) for k in range(1, g.n + 1)),
        _table_digest(table),
    )
    return w, table.prefix, fields


class MemberReport(NamedTuple):
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


class SpilledMembers:
    """The MemberReports of a scan, in member order, built on each
    iteration: the fields of member i are line i of a temporary file (the
    JSON list that _member_data's fields give), and its flags are read off
    the sets of members that the scan kept.  Supports len and iteration,
    each iteration one pass over the file."""

    def __init__(self, spill, count, at_top, at_mu_min, at_t1_max, whitney_max, tutte_max):
        self._spill = spill
        self._count = count
        # at_top[k - 1]: the members that attain the classwise maximum of
        # N^(k); the other four are the members flagged each way
        self._at_top = at_top
        self._at_mu_min = at_mu_min
        self._at_t1_max = at_t1_max
        self._whitney_max = whitney_max
        self._tutte_max = tutte_max

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[MemberReport]:
        spill, pos = self._spill, 0
        for i in range(self._count):
            # a seek per line keeps two iterations apart
            spill.seek(pos)
            line = spill.readline()
            pos += len(line)
            code, mu, t_list, lambda_list, digest = json.loads(line)
            k_umrg = tuple(i in s for s in self._at_top)
            yield MemberReport(
                graph6=code,
                strong=all(k_umrg),
                zero_element=i in self._at_mu_min,
                whitney_max=i in self._whitney_max,
                tutte_max=i in self._tutte_max,
                t_optimal=i in self._at_t1_max,
                k_umrg_by_domination=k_umrg,
                t1=t_list[0],
                lambda1=lambda_list[0],
                mu=tuple(mu),
                t_list=tuple(t_list),
                lambda_list=tuple(lambda_list),
                table_digest=digest,
            )

    def close(self) -> None:
        """Close the file; iterating after this raises ValueError."""
        self._spill.close()

    # a report dropped unclosed closes its file
    __del__ = close


class ClassReport(NamedTuple):
    spec: ClassSpec
    members: SpilledMembers
    summary: dict
    theorem2_check: bool

    def _head(self) -> dict:
        # every field of the JSON form but "members".  A report covers its
        # whole class, so "partial" is always false; the key stays because
        # the pinned scan digests cover it
        return {
            "spec": {"n": self.spec.n, "m": self.spec.m},
            "partial": False,
            "summary": self.summary,
            "theorem2_check": self.theorem2_check,
        }

    def to_json_dict(self) -> dict:
        return {"members": [r.to_json_dict() for r in self.members], **self._head()}

    def json_chunks(self) -> Iterator[str]:
        """The compact, key-sorted JSON of to_json_dict, in pieces of one
        member each, so the class is never one dict tree.  "members" comes
        first among the sorted keys, so the other fields follow the list."""
        yield '{"members":['
        for i, r in enumerate(self.members):
            yield ("," if i else "") + _compact_json(r.to_json_dict())
        yield "]," + _compact_json(self._head())[1:]

    def to_csv_rows(self) -> Iterator[str]:
        """The lines of the CSV digest, the header first, one member each."""
        yield "graph6,strong,zero_element,whitney_max,tutte_max,t_optimal,t1,lambda1"
        for r in self.members:
            yield ",".join(
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


def _compact_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _table_digest(table: NTable) -> str:
    import hashlib  # deferred: only scans digest tables, and OpenSSL is slow to load

    return hashlib.sha256(_compact_json(table.to_json_dict()).encode()).hexdigest()


def _fold(antichain: list, i: int, w: BivarPoly, compare) -> None:
    """Fold member i, of polynomial w, into antichain: [polynomial, member
    indices] entries, oldest first, for the maximal polynomials so far in
    the order that compare decides.  w joins an equal entry, is dropped
    below a dominating one, or else is appended and drops every entry it
    dominates.  One compare per entry decides both ways: w - entry is
    -(entry - w), so w dominates the entry exactly when the quotient of a
    NegativeQuotient is nonpositive, and NotDivisible holds both ways.
    Newest first takes fewer compares than oldest first."""
    kept = []
    for entry in reversed(antichain):
        above = compare(entry[0], w)
        if above.ok():
            if above.verdict == EQUAL:
                entry[1].append(i)
            return
        if above.verdict != NEGATIVE_QUOTIENT or not (-above.quotient).is_nonnegative():
            kept.append(entry)
    antichain[:] = kept[::-1] + [[w, [i]]]


def _maximum_members(antichain: list) -> set[int]:
    """The members with the final antichain's only polynomial, if it has
    one polynomial."""
    return set(antichain[0][1]) if len(antichain) == 1 else set()


def scan(spec: ClassSpec) -> ClassReport:
    """Classify every member of C(n, m): strong / 0-element / Whitney-maximum /
    Tutte-maximum / t-optimal, with division certificates for the maxima.

    Each W is dropped once folded, and each member's report fields go to a
    line of an unnamed temporary file.  What the scan keeps is classwise:
    the running N^(k) maxima, mu-min and t_1-max, each with the members that
    attain it, and the Tutte antichain.  The report's members are read back
    from the file on each iteration, and the file is closed with them."""
    import tempfile  # deferred: only a scan spills, and the CLI imports this module

    members = enumerate_class(spec)
    n, m = spec.n, spec.m

    # one deletion-contraction memo per scan.  top[k - 1] is the classwise
    # maximum so far of the N^(k) prefix column, at_top[k - 1] the members
    # that attain it; a rise clears them, as a new mu-min or t_1-max clears
    # the members that attained the old one
    memo: dict = {}
    tutte_top: list = []
    top = [(0,) * (m + 1)] * n
    at_top: list[set[int]] = [set() for _ in range(n)]
    spill = tempfile.TemporaryFile()
    try:
        for i, code in enumerate(members):
            w, prefix, fields = _member_data(code, memo)
            spill.write(json.dumps(fields, separators=(",", ":")).encode() + b"\n")
            _fold(tutte_top, i, w, compare_tutte_polys)
            for k, column in enumerate(list(zip(*prefix))[1:]):
                risen = tuple(map(max, top[k], column))
                if risen != top[k]:
                    top[k], at_top[k] = risen, set()
                if column == risen:
                    at_top[k].add(i)
            _, mu, t_list, _, _ = fields
            if i == 0 or mu < mu_min:
                mu_min, at_mu_min = mu, set()
            if mu == mu_min:
                at_mu_min.add(i)
            if i == 0 or t_list[0] > t1_max:
                t1_max, at_t1_max = t_list[0], set()
            if t_list[0] == t1_max:
                at_t1_max.add(i)
        count = len(members)
        del memo, members

        # a Whitney maximum is a final Tutte entry (see the module docstring)
        whitney_top = [
            e for e in tutte_top
            if all(compare_whitney_polys(e[0], f[0]).ok() for f in tutte_top if f is not e)
        ]
        whitney_max = _maximum_members(whitney_top)
        tutte_max = _maximum_members(tutte_top)
        strong = set.intersection(*at_top)
        reports = SpilledMembers(
            spill, count, at_top, at_mu_min, at_t1_max, whitney_max, tutte_max
        )
    except BaseException:
        spill.close()
        raise
    summary = {
        "class_size": count,
        "strong": len(strong),
        "zero_element": len(at_mu_min),
        "whitney_max": len(whitney_max),
        "tutte_max": len(tutte_max),
        "t_optimal": len(at_t1_max),
    }
    return ClassReport(
        spec=spec,
        members=reports,
        summary=summary,
        theorem2_check=strong == whitney_max,
    )


class Section4Result(NamedTuple):
    ok: bool
    vacuous: bool
    failures: tuple[str, ...] = ()


def verify_section4(report: ClassReport) -> Section4Result:
    """Check the invariant-maxima consequences on a scanned class: every
    Whitney-maximum member attains the class maxima of lambda^(k) and t_k
    for all k, is a mu-lex minimum, and every member sharing its N^(1) row
    (equivalently its mu-vector) is a 0-element too."""
    n = report.spec.n
    # one pass for the Whitney-maximum members and the class maxima, one
    # for the members that share their mu-vector: each pass reads the file
    wm = []
    t_max = [0] * n
    lam_max: list[int | None] = [None] * n
    for r in report.members:
        if r.whitney_max:
            wm.append(r)
        for k in range(n):
            t_max[k] = max(t_max[k], r.t_list[k])
            lam = r.lambda_list[k]
            if lam is not None and (lam_max[k] is None or lam > lam_max[k]):
                lam_max[k] = lam
    if not wm:
        return Section4Result(ok=True, vacuous=True)
    failures = []
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
    for r in report.members:
        if r.mu == ref_mu and not r.zero_element:
            failures.append(f"{r.graph6}: shares the maximum N^(1) row but not flagged 0-element")
    return Section4Result(ok=not failures, vacuous=False, failures=tuple(failures))
