"""Generation by canonical deletion against a breadth-first reference.

The reference builds each level breadth first: it extends every class of
the level below by every one of its non-edges and keeps one child per
certificate.  It shares only canonical_labeling with the generator under
test: no orbit pruning and no acceptance rule.
"""
import importlib
from collections import Counter
from functools import cache

from relpoly.graphs import SimpleGraph, canonical_labeling
from relpoly.scan import ClassSpec, _graphs_with_edges, enumerate_class

# relpoly.scan as a package attribute is the scan function
scan_module = importlib.import_module("relpoly.scan")

# graphs on 8 vertices by edge count, m = 0..14, and on 9 vertices with 11
# edges (Polya counts; they equal the breadth-first reference's levels)
EIGHT_VERTEX_LEVELS = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646]
NINE_VERTEX_ELEVEN_EDGES = 3252


@cache
def reference_levels(n, top):
    """levels[m]: the canonical copies of the graphs on n vertices with m
    edges, sorted by certificate, for m = 0..top."""
    empty = canonical_labeling(SimpleGraph(n, ()))
    current = {empty.cert: empty.graph}
    levels = [list(current.values())]
    for _ in range(top):
        nxt = {}
        for g in current.values():
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        child = canonical_labeling(g.with_edge(u, v))
                        nxt.setdefault(child.cert, child.graph)
        current = {cert: nxt[cert] for cert in sorted(nxt)}
        levels.append(list(current.values()))
    return levels


def mismatched_levels():
    """Yield each (n, m) whose generated level differs from the reference,
    over every level with n <= 7 and (8, 10)."""
    for n in range(1, 8):
        for m, expected in enumerate(reference_levels(n, n * (n - 1) // 2)):
            if _graphs_with_edges(n, m) != expected:
                yield n, m
    if _graphs_with_edges(8, 10) != reference_levels(8, 10)[10]:
        yield 8, 10


def test_levels_match_breadth_first_reference():
    assert list(mismatched_levels()) == []


def test_acceptance_without_orbit_check_fails_the_level_test(monkeypatch):
    # negative control: keep a child only when its new edge is the
    # canonical deletable edge itself, not any edge of that edge's orbit
    def no_orbit(labeling, tied):
        pos = labeling.positions
        images = [tuple(sorted((pos[a], pos[b]))) for a, b in tied]
        return images[0] == max(images, key=lambda pair: (pair[1], pair[0]))

    monkeypatch.setattr(scan_module, "_deletes_canonically", no_orbit)
    assert next(mismatched_levels(), None) is not None


def test_level_sizes_are_pinned(monkeypatch):
    # one depth-first run to level 14 visits every lower level; count the
    # classes kept at each
    kept = Counter()
    accept = scan_module._deletes_canonically

    def counting(labeling, tied):
        ok = accept(labeling, tied)
        kept[labeling.graph.m] += ok
        return ok

    monkeypatch.setattr(scan_module, "_deletes_canonically", counting)
    assert len(_graphs_with_edges(8, 14)) == EIGHT_VERTEX_LEVELS[14]
    assert [1] + [kept[m] for m in range(1, 15)] == EIGHT_VERTEX_LEVELS
    monkeypatch.undo()
    assert len(_graphs_with_edges(9, 11)) == NINE_VERTEX_ELEVEN_EDGES


def test_pre_test_spares_most_searches(monkeypatch):
    # one search per candidate child makes 9,865 on C(8, 18); the edge
    # pre-test and canonical deletion leave 1,764
    calls = []
    original = scan_module.canonical_labeling

    def spy(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(scan_module, "canonical_labeling", spy)
    assert len(enumerate_class(ClassSpec(8, 18))) == 658
    assert len(calls) <= 1800
