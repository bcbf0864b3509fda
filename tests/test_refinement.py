"""Refinement against a round-by-round reference.

The reference re-signs every vertex of every non-singleton cell in every
round, as _refine did before it learned which vertices can have changed, and
its neighbor lists carry the multiplicities themselves, where _neighbor_lists
may rank them.  _refine must return the same ordered cells on every
partition, including every partition a search branches from, so canonical
labels stay the same.
"""
import random
from contextlib import contextmanager
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import canonical_mult  # noqa: E402
import relpoly.graphs as graphs_module  # noqa: E402
from relpoly.graphs import (  # noqa: E402
    SimpleGraph,
    _canon_search,
    _decode,
    _multiplicities,
    _neighbor_lists,
)

# small and deterministic, so the suite stays quick and repeatable
oracle = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def reference_neighbor_lists(n, mult):
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), c in mult.items():
        nbrs[u].append((v, c))
        nbrs[v].append((u, c))
    return nbrs


def reference_refine(n, nbrs, cells):
    """Stable refinement of an ordered partition (cells of ascending
    vertices).  Each round splits every cell by the signatures of its
    vertices, the sorted (neighbor cell index, multiplicity) pairs, and puts
    the parts in place of the cell in signature order, so the cell order
    depends only on invariants."""
    while True:
        colors = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            sigs = [tuple(sorted([(colors[u], c) for u, c in nbrs[v]])) for v in cell]
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            if len(rank) == 1:
                split.append(cell)
                continue
            parts = [[] for _ in rank]
            for v, sig in zip(cell, sigs):
                parts[rank[sig]].append(v)
            split.extend(parts)
        if len(split) == len(cells):
            return cells
        cells = split


@contextmanager
def refine_replaced(fn):
    with mock.patch.object(graphs_module, "_refine", fn):
        yield


def labeled(n, mult):
    """The certificate, the canonical copy, rebuilt from the certificate and
    by relabeling mult, and the generators of one search of (n, mult)."""
    cert, order, gens = _canon_search(n, mult)
    return cert, _decode(cert), canonical_mult(mult, order), gens


def labeling_by_reference(n, mult):
    """labeled(n, mult) with every refinement done by the reference."""
    with mock.patch.object(graphs_module, "_neighbor_lists", reference_neighbor_lists):
        with refine_replaced(lambda n, nbrs, cells, touched=None: reference_refine(n, nbrs, cells)):
            return labeled(n, mult)


def refinement_mismatches(n, mult, seed=lambda touched: touched):
    """Label the multigraph (n, mult) and check each refinement the search
    asks for against the reference; seed maps the touched set a caller
    passes to the one used.  Returns the calls whose cells differ and whether
    the labeling differs from the reference's."""
    real = graphs_module._refine
    raw = reference_neighbor_lists(n, mult)
    bad = []

    def checked(n, nbrs, cells, touched=None):
        if touched is not None:
            touched = seed(touched)
        got = real(n, nbrs, cells, touched)
        if got != reference_refine(n, raw, cells):
            bad.append((cells, touched))
        return got

    with refine_replaced(checked):
        labeling = labeled(n, mult)
    return bad, labeling != labeling_by_reference(n, mult)


def simple(g):
    """A simple graph as the (n, mult) a search takes."""
    return g.n, _multiplicities(g)


@st.composite
def multigraphs(draw):
    """Loopless multigraphs (n, mult) with multiplicities, some past one
    byte; the classes drawn on one vertex pair add up."""
    n = draw(st.integers(1, 12))
    mult = st.one_of(st.integers(1, 9), st.just(300))
    # u and u + step (mod n) with 0 < step < n: two distinct vertices
    edge = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)), mult)
    merged = {}
    for u, step, c in draw(st.lists(edge, max_size=3 * (n - 1))):
        key = tuple(sorted((u, (u + step) % n)))
        merged[key] = merged.get(key, 0) + c
    return n, dict(sorted(merged.items()))


@st.composite
def ordered_partitions(draw, n):
    """An ordered partition of range(n) into cells of ascending vertices."""
    color = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return [[v for v in range(n) if color[v] == c] for c in sorted(set(color))]


def ladder(length):
    rails = [(i, i + 1) for i in range(length - 1)]
    rails += [(length + i, length + i + 1) for i in range(length - 1)]
    return 2 * length, rails + [(i, length + i) for i in range(length)]


def wheel(rim):
    """Hub 0 joined to every vertex of the cycle 1..rim."""
    spokes = [(0, i) for i in range(1, rim + 1)]
    return rim + 1, spokes + [(i, i % rim + 1) for i in range(1, rim + 1)]


def prism(k):
    cycles = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return 2 * k, cycles + [(i, k + i) for i in range(k)]


# each family with the sizes whose vertex count is at most 60
FAMILIES = {
    "ladder": (ladder, range(2, 31)),
    "wheel": (wheel, range(3, 60)),
    "prism": (prism, range(3, 31)),
}


def relabeled(family, size, rng):
    build, _ = FAMILIES[family]
    n, edges = build(size)
    perm = list(range(n))
    rng.shuffle(perm)
    return SimpleGraph(n, tuple((perm[u], perm[v]) for u, v in edges))


@st.composite
def sparse_families(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    size = draw(st.sampled_from(FAMILIES[family][1]))
    return relabeled(family, size, draw(st.randoms(use_true_random=False)))


@oracle
@given(multigraphs(), st.data())
def test_refine_matches_reference_on_any_partition(g, data):
    n, mult = g
    cells = data.draw(ordered_partitions(n))
    got = graphs_module._refine(n, _neighbor_lists(n, mult), cells)
    assert got == reference_refine(n, reference_neighbor_lists(n, mult), cells)


def test_every_multiplicity_distinct_matches_reference():
    # complete multigraphs with n(n - 1)/2 distinct multiplicities, as many
    # as the signature encoding leaves room for, some of them past n * n
    rng = random.Random(3)
    for n in range(2, 9):
        for _ in range(20):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            mults = rng.sample(range(1, 4 * len(pairs)), len(pairs))
            mult = dict(zip(pairs, mults))
            color = [rng.randrange(3) for _ in range(n)]
            cells = [[v for v in range(n) if color[v] == c] for c in sorted(set(color))]
            got = graphs_module._refine(n, _neighbor_lists(n, mult), cells)
            assert got == reference_refine(n, reference_neighbor_lists(n, mult), cells)
            assert refinement_mismatches(n, mult) == ([], False)


@oracle
@given(multigraphs())
def test_multigraph_branches_and_labels_match_reference(g):
    assert refinement_mismatches(*g) == ([], False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sparse_families())
def test_sparse_family_branches_and_labels_match_reference(g):
    assert refinement_mismatches(*simple(g)) == ([], False)


def test_every_sparse_family_size_labels_as_the_reference_does():
    rng = random.Random(17)
    for family, (_, sizes) in FAMILIES.items():
        for size in sizes:
            g = relabeled(family, size, rng)
            assert labeled(*simple(g)) == labeling_by_reference(*simple(g)), (family, size)


def test_branch_seeded_with_no_touched_vertex_fails_the_check():
    # negative control: a branch that re-signs nothing is left unrefined
    # (unrefined branches cost a leaf per vertex order, so the graphs are small)
    rng = random.Random(5)
    for family, size in (("ladder", 3), ("wheel", 4), ("prism", 3)):
        bad, _ = refinement_mismatches(*simple(relabeled(family, size, rng)),
                                       seed=lambda touched: set())
        assert bad, family
