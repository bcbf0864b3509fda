"""Graph core: connectivity, canonical labeling, formats, fixtures, census."""
import itertools
import random
from math import comb

import pytest

from conftest import all_labeled_graphs, random_graph
from relpoly.errors import BudgetError, GraphFormatError
from relpoly.graphs import (
    FIXTURE_MAX_VERTICES,
    MultiGraph,
    SimpleGraph,
    automorphism_count,
    canonical_form,
    canonical_labeling,
    canonical_relabel,
    components,
    edge_subset_census,
    fixture,
    parse_edge_list,
    parse_graph6,
    rank_corank,
    to_graph6,
)
from relpoly.graphs import _encode, _mult_and_loops


def canonical_form_bruteforce(g):
    """Minimum encoding over all n! relabelings; test oracle for small n."""
    mult, loops = _mult_and_loops(g)
    return min(
        _encode(g.n, mult, loops, order)
        for order in itertools.permutations(range(g.n))
    )


def test_components_examples():
    assert components(SimpleGraph(3, ()))[0] == 3
    assert components(fixture("cycle", 4))[0] == 1
    kappa, labels = components(SimpleGraph(5, ((0, 1), (2, 3))))
    assert kappa == 3
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert len({labels[0], labels[2], labels[4]}) == 3
    assert components(SimpleGraph(0, ())) == (0, ())


def test_rank_corank_examples():
    assert rank_corank(fixture("cycle", 4)) == (3, 1)
    assert rank_corank(fixture("path", 5)) == (4, 0)
    assert rank_corank(SimpleGraph(3, ())) == (0, 0)


def test_rank_corank_identity_random():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        kappa, _ = components(g)
        r, c = rank_corank(g)
        assert r == n - kappa
        assert c == m - n + kappa
        assert r >= 0 and c >= 0


def test_simple_graph_validation():
    with pytest.raises(GraphFormatError, match=r"\(0, 0\) is a loop"):
        SimpleGraph(3, ((0, 0),))
    with pytest.raises(GraphFormatError, match="duplicate"):
        SimpleGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(GraphFormatError, match="range"):
        SimpleGraph(2, ((0, 5),))
    with pytest.raises(GraphFormatError, match="negative"):
        SimpleGraph(-1, ())
    with pytest.raises(GraphFormatError, match="multiplicity"):
        MultiGraph(2, ((0, 1, 0),))
    with pytest.raises(GraphFormatError, match="negative"):
        MultiGraph(-1, ())


def test_multigraph_merges_parallel_classes():
    mg = MultiGraph(3, ((0, 1, 1), (1, 0, 2), (2, 2, 1)))
    assert mg.edges == ((0, 1, 3), (2, 2, 1))
    assert mg.m == 4
    assert mg.loop_counts() == {2: 1}


def test_canonical_relabel_invariance():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        cert = canonical_form(g)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == cert
        copy = canonical_relabel(g)
        # the canonical copy is a fixed point of the labeling
        again = canonical_labeling(copy)
        assert (again.cert, again.graph) == (cert, copy)


def test_canonical_form_examples():
    path = fixture("path", 3)
    assert canonical_form(path) == canonical_form(path.relabel([2, 0, 1]))
    assert canonical_form(fixture("cycle", 3)) != canonical_form(path)
    assert canonical_form(fixture("figure1_G")) != canonical_form(fixture("figure1_H"))


def test_canonical_form_against_bruteforce_classes():
    # refinement certificates induce the same iso classes as n!-minimization
    rng = random.Random(2)
    pool = [random_graph(rng, 5, rng.randint(0, 10)) for _ in range(120)]
    by_fast = {}
    by_brute = {}
    for i, g in enumerate(pool):
        by_fast.setdefault(canonical_form(g), set()).add(i)
        by_brute.setdefault(canonical_form_bruteforce(g), set()).add(i)
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


def test_canonical_partition_exhaustive_n5():
    # all 2^10 labeled graphs on 5 vertices: both canonizers must induce
    # exactly the same partition into isomorphism classes
    pairs = list(itertools.combinations(range(5), 2))
    by_fast = {}
    by_brute = {}
    for bits in range(1 << 10):
        g = SimpleGraph(5, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))
        by_fast.setdefault(canonical_form(g), set()).add(bits)
        by_brute.setdefault(canonical_form_bruteforce(g), set()).add(bits)
    assert len(by_fast) == 34  # graphs on 5 unlabeled vertices
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


def test_canonical_partition_multigraphs_match_bruteforce():
    rng = random.Random(6)
    pool = []
    for _ in range(150):
        n = rng.randint(1, 4)
        classes = {}
        for _ in range(rng.randint(0, 5)):
            u, v = rng.randrange(n), rng.randrange(n)
            key = (min(u, v), max(u, v))
            classes[key] = rng.randint(1, 3)
        pool.append(MultiGraph(n, tuple((u, v, c) for (u, v), c in classes.items())))
    by_fast = {}
    by_brute = {}
    for i, g in enumerate(pool):
        by_fast.setdefault(canonical_form(g), set()).add(i)
        by_brute.setdefault(canonical_form_bruteforce(g), set()).add(i)
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


def test_canonical_form_multigraph_loops_matter():
    a = MultiGraph(2, ((0, 0, 1), (0, 1, 1)))
    b = MultiGraph(2, ((1, 1, 1), (0, 1, 1)))
    c = MultiGraph(2, ((0, 1, 2),))
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(c)


def test_automorphism_counts():
    assert automorphism_count(fixture("cycle", 4)) == 8
    assert automorphism_count(fixture("complete", 4)) == 24
    assert automorphism_count(fixture("path", 4)) == 2
    assert automorphism_count(fixture("complete_bipartite", 4, 4)) == 1152
    rng = random.Random(3)
    for _ in range(40):  # brute-force oracle on small graphs
        n = rng.randint(1, 5)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        brute = sum(
            1
            for perm in itertools.permutations(range(g.n))
            if g.relabel(list(perm)).edges == g.edges
        )
        assert automorphism_count(g) == brute


def group_order(gens, n):
    """Order of the permutation group generated by gens, by closure."""
    identity = tuple(range(n))
    seen = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for gen in gens:
            q = tuple(gen[p[v]] for v in range(n))
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen)


def test_search_generators_generate_the_automorphism_group():
    graphs = [
        fixture("complete_bipartite", 3, 3),
        fixture("cycle", 7),
        fixture("complete_bipartite", 2, 5),
        SimpleGraph(7, ()),
    ]
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 7)
        graphs.append(random_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
    for g in graphs:
        canon = canonical_labeling(g)
        # the generators act on the canonical copy's vertices
        for gen in canon.generators:
            assert canon.graph.relabel(gen) == canon.graph
        assert group_order(canon.generators, g.n) == automorphism_count(g), g


def test_canonical_form_invariance_with_loops_and_wide_multiplicities():
    rng = random.Random(13)
    by_fast, by_brute = {}, {}
    for i in range(120):
        n = rng.randint(1, 5)
        classes = {}
        for _ in range(rng.randint(1, 6)):
            u, v = rng.randrange(n), rng.randrange(n)
            classes[(min(u, v), max(u, v))] = rng.choice((1, 256, 300, 70000))
        g = MultiGraph(n, tuple((u, v, c) for (u, v), c in classes.items()))
        cert = canonical_form(g)
        copy = canonical_relabel(g)
        assert isinstance(copy, MultiGraph)
        # the canonical copy is a fixed point of the labeling
        again = canonical_labeling(copy)
        assert (again.cert, again.graph) == (cert, copy)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert canonical_form(h) == cert
            assert canonical_relabel(h) == copy
        by_fast.setdefault(cert, set()).add(i)
        by_brute.setdefault(canonical_form_bruteforce(g), set()).add(i)
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


def test_wide_certificates_are_distinct_from_narrow_ones():
    narrow = canonical_form(MultiGraph(2, ((0, 1, 255),)))
    assert narrow == bytes([2, 0, 0, 255])  # one byte per value, as before
    wide = canonical_form(MultiGraph(2, ((0, 1, 256),)))
    assert wide == bytes([0, 2, 0, 2, 0, 0, 0, 0, 1, 0])  # 0, width, values
    assert canonical_form(SimpleGraph(0, ())) == b"\x00"  # the one narrow cert led by 0
    # n >= 256: a path and a relabeled copy
    long_path = SimpleGraph(260, tuple((i, i + 1) for i in range(259)))
    perm = list(range(260))
    random.Random(14).shuffle(perm)
    cert = canonical_form(long_path)
    assert cert[:2] == bytes([0, 2])
    assert canonical_form(long_path.relabel(perm)) == cert
    assert cert != canonical_form(SimpleGraph(260, long_path.edges[1:] + ((0, 2),)))


def test_graph6_k2():
    assert to_graph6(SimpleGraph(2, ((0, 1),))) == "A_"
    assert parse_graph6("A_") == SimpleGraph(2, ((0, 1),))
    assert parse_graph6(">>graph6<<A_") == SimpleGraph(2, ((0, 1),))


def test_graph6_round_trip_small_exhaustive():
    for n in range(0, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = SimpleGraph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))
            assert parse_graph6(to_graph6(g)) == g


def test_graph6_round_trip_random_to_n8():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(5, 8)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_known_petersen_string():
    # standard graph6 encoding of a labeled Petersen graph (nauty's example
    # string); decoding must yield the 3-regular girth-5 graph on 10 vertices
    g = parse_graph6("IheA@GUAo")
    assert g.n == 10 and g.m == 15
    assert g.degree_sequence() == (3,) * 10
    for u, v in g.edges:  # triangle-free
        assert not (g.adjacency[u] & g.adjacency[v])
    for u in range(10):  # no 4-cycles: any two vertices share <= 1 neighbor
        for v in range(u + 1, 10):
            common = g.adjacency[u] & g.adjacency[v]
            assert common.bit_count() <= 1
    assert to_graph6(g) == "IheA@GUAo"


def test_graph6_errors():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError, match="truncated"):
        parse_graph6("D")  # n=5 needs data bytes
    with pytest.raises(GraphFormatError, match="offset"):
        parse_graph6("A_\x19")
    with pytest.raises(GraphFormatError, match="trailing"):
        parse_graph6("A__")


def test_parse_edge_list():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
    assert g == fixture("cycle", 3)
    with pytest.raises(GraphFormatError, match="loop"):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_edge_list("2 2\n0 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="range"):
        parse_edge_list("2 1\n0 2\n")
    with pytest.raises(GraphFormatError, match="header"):
        parse_edge_list("whatever\n")
    with pytest.raises(GraphFormatError, match="edge lines"):
        parse_edge_list("3 2\n0 1\n")


def test_fixtures():
    g = fixture("figure1_G")
    h = fixture("figure1_H")
    assert (g.n, g.m) == (8, 18)
    assert (h.n, h.m) == (8, 18)
    # complete bipartite core plus the two extra edges on the proper sides
    k44 = fixture("complete_bipartite", 4, 4)
    assert set(k44.edges) < set(g.edges)
    assert set(g.edges) - set(k44.edges) == {(0, 1), (2, 3)}
    assert set(h.edges) - set(k44.edges) == {(2, 3), (6, 7)}
    assert fixture("complete_minus_matching", 6, 3).m == 12
    assert fixture("cycle", 4).m == 4
    assert fixture("path", 1).m == 0
    with pytest.raises(GraphFormatError):
        fixture("cycle", 2)
    with pytest.raises(GraphFormatError):
        fixture("complete_minus_matching", 4, 3)
    with pytest.raises(GraphFormatError):
        fixture("nope", 3)
    with pytest.raises(GraphFormatError):
        fixture("cycle")


def test_oversized_fixture_refused_before_building(monkeypatch):
    def small_only(n, edges):
        assert n <= FIXTURE_MAX_VERTICES, "built an out-of-scope fixture"
        return SimpleGraph(n, edges)

    monkeypatch.setattr("relpoly.graphs.SimpleGraph", small_only)
    assert fixture("cycle", 62).n == 62
    for name, params in (
        ("cycle", (63,)),
        ("path", (100,)),
        ("complete", (100,)),
        ("complete_bipartite", (40, 30)),
        ("complete_minus_matching", (70, 2)),
    ):
        with pytest.raises(GraphFormatError, match="scope"):
            fixture(name, *params)


def test_census_triangle():
    counts = edge_subset_census(fixture("cycle", 3))
    assert counts[0][3] == 1
    assert counts[1][2] == 3
    assert counts[2][1] == 3
    assert counts[3][1] == 1
    assert sum(sum(row) for row in counts) == 8


def test_census_against_naive_enumeration():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        counts = edge_subset_census(g)
        naive = [[0] * (n + 1) for _ in range(m + 1)]
        for size in range(m + 1):
            for subset in itertools.combinations(g.edges, size):
                kappa, _ = components(SimpleGraph(n, subset))
                naive[size][kappa] += 1
        assert counts == naive


def test_census_row_sums_are_binomials():
    g = fixture("complete_bipartite", 3, 3)
    counts = edge_subset_census(g)
    for i, row in enumerate(counts):
        assert sum(row) == comb(g.m, i)


def test_census_budget():
    with pytest.raises(BudgetError):
        edge_subset_census(fixture("complete", 8))  # 28 edges > 26


def test_all_labeled_graphs_helper():
    assert sum(1 for _ in all_labeled_graphs(4, 3)) == comb(6, 3)
