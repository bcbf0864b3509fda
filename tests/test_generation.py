"""Generation by canonical deletion against a breadth-first reference.

The reference builds each level breadth first: it extends every class of
the level below by every one of its non-edges and keeps one child per
certificate.  It shares only the canonical search with the generator under
test: no orbit pruning and no acceptance rule.
"""
import hashlib
import importlib
from collections import Counter
from functools import cache

from relpoly.graphs import SimpleGraph, _canon_search, _in_order, _multiplicities, parse_graph6
from relpoly.scan import ClassSpec, _graphs_with_edges, enumerate_class

# relpoly.scan as a package attribute is the scan function
scan_module = importlib.import_module("relpoly.scan")

# graphs on 8 vertices by edge count, m = 0..14, and on 9 vertices with 11
# edges (Polya counts; they equal the breadth-first reference's levels)
EIGHT_VERTEX_LEVELS = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646]
NINE_VERTEX_ELEVEN_EDGES = 3252

# sha256 of the graph6 lines of every class with n <= 7, m = n-1..C(n, 2) in
# order: 996 members
ENUMERATION_DIGEST = "fd5c79a8e9093ea83799c2ca7e6bd83b4d42658c7ab8d238c7b81b9f382ad769"


def canonical_copy(g):
    """(certificate, canonically labeled copy) of g from one search."""
    cert, order, _ = _canon_search(g.n, _multiplicities(g))
    return cert, _in_order(g, order)


@cache
def reference_levels(n, top):
    """levels[m]: the canonical copies of the graphs on n vertices with m
    edges, sorted by certificate, for m = 0..top."""
    current = dict([canonical_copy(SimpleGraph(n, ()))])
    levels = [list(current.values())]
    for _ in range(top):
        nxt = {}
        for g in current.values():
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        cert, copy = canonical_copy(g.with_edge(u, v))
                        nxt.setdefault(cert, copy)
        current = {cert: nxt[cert] for cert in sorted(nxt)}
        levels.append(list(current.values()))
    return levels


def mismatched_levels():
    """Yield each (n, m) whose generated level differs from the reference,
    over every level with n <= 7 and (8, 10)."""
    for n in range(1, 8):
        for m, expected in enumerate(reference_levels(n, n * (n - 1) // 2)):
            if list(map(parse_graph6, _graphs_with_edges(n, m))) != expected:
                yield n, m
    if list(map(parse_graph6, _graphs_with_edges(8, 10))) != reference_levels(8, 10)[10]:
        yield 8, 10


def test_levels_match_breadth_first_reference():
    assert list(mismatched_levels()) == []


def test_acceptance_without_orbit_check_fails_the_level_test(monkeypatch):
    # negative control: keep a child only when its new edge is the
    # canonical deletable edge itself, not any edge of that edge's orbit
    def no_orbit(order, gens, tied):
        pos = {v: p for p, v in enumerate(order)}
        return tied[0] == max(tied, key=lambda e: sorted((pos[e[0]], pos[e[1]]), reverse=True))

    monkeypatch.setattr(scan_module, "_deletes_canonically", no_orbit)
    assert next(mismatched_levels(), None) is not None


def test_level_sizes_are_pinned(monkeypatch):
    # one depth-first run to level 14 visits every lower level; count the
    # classes kept at each, by the edge count of the graph searched last
    kept = Counter()
    searched = []
    search, accept = scan_module._canon_search, scan_module._deletes_canonically

    def recording(n, mult):
        searched.append(len(mult))
        return search(n, mult)

    def counting(order, gens, tied):
        ok = accept(order, gens, tied)
        kept[searched[-1]] += ok
        return ok

    monkeypatch.setattr(scan_module, "_canon_search", recording)
    monkeypatch.setattr(scan_module, "_deletes_canonically", counting)
    assert len(_graphs_with_edges(8, 14)) == EIGHT_VERTEX_LEVELS[14]
    assert [1] + [kept[m] for m in range(1, 15)] == EIGHT_VERTEX_LEVELS
    monkeypatch.undo()
    assert len(_graphs_with_edges(9, 11)) == NINE_VERTEX_ELEVEN_EDGES


def test_pre_test_spares_most_searches(monkeypatch):
    # one search per candidate child makes 9,865 on C(8, 18); the edge
    # pre-test and canonical deletion leave 1,764
    calls = []
    original = scan_module._canon_search

    def spy(n, mult):
        calls.append(mult)
        return original(n, mult)

    monkeypatch.setattr(scan_module, "_canon_search", spy)
    assert len(enumerate_class(ClassSpec(8, 18))) == 658
    assert len(calls) <= 1800


def test_only_kept_members_are_relabeled(monkeypatch):
    # the search's order and generators act on the labels a child was built
    # in, so only a kept member is relabeled, once for its graph6; relabeling
    # every searched child made 8,442 relabels here
    calls = []
    original = SimpleGraph.relabel

    def spy(g, perm):
        calls.append(g)
        return original(g, perm)

    monkeypatch.setattr(SimpleGraph, "relabel", spy)
    codes = enumerate_class(ClassSpec(8, 14))
    assert len(codes) == 1579
    assert len(calls) <= len(codes)


def test_enumeration_is_byte_identical_to_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            codes = enumerate_class(ClassSpec(n, m))
            count += len(codes)
            digest.update(("\n".join(codes) + "\n").encode())
    assert count == 996
    assert digest.hexdigest() == ENUMERATION_DIGEST
