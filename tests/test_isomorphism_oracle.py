"""Canonical certificates against networkx's VF2 isomorphism test.

VF2 shares no code with the refinement and search behind canonical_form,
and it reaches past the n <= 8 brute-force canonical form: random graphs up
to 16 vertices, a strongly regular pair that refinement alone cannot tell
apart, and vertex-transitive graphs with large automorphism groups.
"""
import itertools
import random

import pytest

from conftest import random_graph
from relpoly.graphs import SimpleGraph, canonical_form

nx = pytest.importorskip("networkx")


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def switched(g, rng):
    """g with one degree-preserving switch ab, cd -> ac, bd when one applies."""
    edges = set(g.edges)
    pairs = list(itertools.permutations(g.edges, 2))
    for (a, b), (c, d) in rng.sample(pairs, min(20, len(pairs))):
        new = {tuple(sorted((a, c))), tuple(sorted((b, d)))}
        if len({a, b, c, d}) == 4 and not new & edges:
            return SimpleGraph(g.n, tuple((edges - {(a, b), (c, d)}) | new))
    return g


def grid_cayley(connection):
    """Cayley graph on Z4 x Z4 with the given symmetric connection set."""
    vertices = [(i, j) for i in range(4) for j in range(4)]

    def step(a, b):
        return (vertices[b][0] - vertices[a][0]) % 4, (vertices[b][1] - vertices[a][1]) % 4

    edges = [(a, b) for a, b in itertools.combinations(range(16), 2) if step(a, b) in connection]
    return SimpleGraph(16, tuple(edges))


ROOK = grid_cayley({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})  # K4 x K4
SHRIKHANDE = grid_cayley({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})


def paley(p):
    squares = {x * x % p for x in range(1, p)}
    pairs = itertools.combinations(range(p), 2)
    return SimpleGraph(p, tuple((a, b) for a, b in pairs if (b - a) % p in squares))


def hypercube(d):
    edges = [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1]
    return SimpleGraph(1 << d, tuple(edges))


def srg_parameters(g):
    """(n, k, lambda, mu) of a strongly regular graph, or None."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    degrees = {len(a) for a in adj}
    common = {True: set(), False: set()}
    for u, v in itertools.combinations(range(g.n), 2):
        common[v in adj[u]].add(len(adj[u] & adj[v]))
    if len(degrees) != 1 or len(common[True]) != 1 or len(common[False]) != 1:
        return None
    return g.n, degrees.pop(), common[True].pop(), common[False].pop()


def test_certificates_agree_with_vf2_on_random_pairs():
    rng = random.Random(16)
    agreed = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)))
        h = rng.choice([relabeled, switched, lambda g, r: random_graph(r, g.n, g.m)])(g, rng)
        h = relabeled(h, rng)
        iso = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (canonical_form(g) == canonical_form(h)) == iso, (g, h)
        agreed[iso] += 1
    # both outcomes are exercised
    assert min(agreed.values()) >= 50


def test_rook_and_shrikhande_get_different_certificates():
    assert srg_parameters(ROOK) == srg_parameters(SHRIKHANDE) == (16, 6, 2, 2)
    assert not nx.is_isomorphic(to_nx(ROOK), to_nx(SHRIKHANDE))
    assert canonical_form(ROOK) != canonical_form(SHRIKHANDE)


@pytest.mark.parametrize(
    "g", [paley(13), paley(29), hypercube(5), hypercube(6), ROOK, SHRIKHANDE],
    ids=["paley13", "paley29", "Q5", "Q6", "rook", "shrikhande"],
)
def test_vertex_transitive_certificates_survive_relabeling(g):
    rng = random.Random(g.n)
    cert = canonical_form(g)
    for _ in range(4):
        h = relabeled(g, rng)
        assert nx.is_isomorphic(to_nx(g), to_nx(h))
        assert canonical_form(h) == cert
