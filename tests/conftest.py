"""Shared helpers for the test suite."""
from __future__ import annotations

import itertools
import random
from math import comb

from relpoly.graphs import SimpleGraph, parse_graph6
from relpoly.scan import enumerate_class


def random_graph(rng: random.Random, n: int, m: int) -> SimpleGraph:
    pool = list(itertools.combinations(range(n), 2))
    return SimpleGraph(n, tuple(rng.sample(pool, m)))


def random_multigraph(rng: random.Random, n: int, draws: int, mults):
    """A loopless multigraph core (n, classes) on n vertices, the form
    deletion-contraction works on: draws random vertex pairs, each given a
    multiplicity from mults (a pair drawn again keeps the last), as sorted
    classes (u, v, mult), u < v."""
    pairs = list(itertools.combinations(range(n), 2))
    classes = {rng.choice(pairs): rng.choice(mults) for _ in range(draws)} if pairs else {}
    return n, tuple(sorted((u, v, c) for (u, v), c in classes.items()))


def relabel_mult(mult: dict, perm) -> dict:
    """A multiplicity dict {(u, v): mult}, u < v, under the vertex map
    u -> perm[u]."""
    out = {}
    for (u, v), c in mult.items():
        a, b = perm[u], perm[v]
        out[(a, b) if a < b else (b, a)] = c
    return out


def canonical_mult(mult: dict, order) -> dict:
    """The copy of a multigraph relabeled into a search's canonical order:
    order lists the vertices by canonical position."""
    pos = [0] * len(order)
    for p, v in enumerate(order):
        pos[v] = p
    return relabel_mult(mult, pos)


def random_connected_graph(rng: random.Random, n: int, m: int) -> SimpleGraph:
    while True:
        g = random_graph(rng, n, m)
        if g.is_connected():
            return g


def random_connected(rng: random.Random, n_max: int = 8, m_max: int = 20) -> SimpleGraph:
    n = rng.randint(2, n_max)
    m = rng.randint(n - 1, min(m_max, n * (n - 1) // 2))
    return random_connected_graph(rng, n, m)


def class_graphs(spec) -> list[SimpleGraph]:
    """The members of a class as graphs, parsed from the graph6 strings
    that enumerate_class returns."""
    return [parse_graph6(code) for code in enumerate_class(spec)]


def all_labeled_graphs(n: int, m: int):
    for subset in itertools.combinations(itertools.combinations(range(n), 2), m):
        yield SimpleGraph(n, subset)


WALK_MAX_EDGES = 26


def census_by_subset_walk(g: SimpleGraph) -> list[list[int]]:
    """counts[i][kappa] over all 2^m edge subsets of g: the oracle of the
    frontier-DP census, for graphs of up to WALK_MAX_EDGES edges.

    Walks the include/exclude tree with a rollback union-find.  Once a partial
    subset is connected, every completion stays connected, so the remaining
    subtree is folded in with binomial coefficients; every subset is still
    accounted for exactly once.
    """
    n, m = g.n, g.m
    if m > WALK_MAX_EDGES:
        raise ValueError(f"a walk over 2^{m} subsets exceeds the 2^{WALK_MAX_EDGES} cap")
    counts = [[0] * (n + 1) for _ in range(m + 1)]
    if m == 0:
        if n >= 0:
            counts[0][n if n else 0] += 1
        return counts

    # spanning-structure edges first so the connected early-out fires sooner
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    tree, rest = [], []
    for u, v in g.edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
        else:
            rest.append((u, v))
    order = tree + rest

    us = [e[0] for e in order]
    vs = [e[1] for e in order]
    parent = list(range(n))
    size = [1] * n
    binomials = [[comb(r, t) for t in range(r + 1)] for r in range(m + 1)]

    def rec(idx: int, i: int, kappa: int) -> None:
        if kappa == 1:
            row = binomials[m - idx]
            for t, ways in enumerate(row):
                counts[i + t][1] += ways
            return
        if idx == m:
            counts[i][kappa] += 1
            return
        rec(idx + 1, i, kappa)
        ru = us[idx]
        while parent[ru] != ru:
            ru = parent[ru]
        rv = vs[idx]
        while parent[rv] != rv:
            rv = parent[rv]
        if ru == rv:
            rec(idx + 1, i + 1, kappa)
        else:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            rec(idx + 1, i + 1, kappa - 1)
            parent[rv] = rv
            size[ru] -= size[rv]

    rec(0, 0, n)
    return counts
