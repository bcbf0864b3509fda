"""Graph core: connectivity, canonical labeling, formats, fixtures, census."""
import itertools
import random
from math import comb

import pytest

from conftest import (
    all_labeled_graphs,
    canonical_mult,
    census_by_subset_walk,
    random_graph,
    random_multigraph,
    relabel_mult,
)
import relpoly.graphs as graphs_module
from relpoly.errors import BudgetError, GraphFormatError
from relpoly.graphs import (
    CENSUS_MAX_WIDTH,
    FIXTURE_MAX_VERTICES,
    SimpleGraph,
    automorphism_count,
    canonical_form,
    canonical_relabel,
    components,
    edge_subset_census,
    fixture,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from relpoly.graphs import _canon_search, _census_schedule, _decode, _encode, _multiplicities
from relpoly.tutte import tree_number_mtt


def canonical_form_bruteforce(n, mult):
    """Minimum encoding over all n! relabelings; test oracle for small n."""
    return min(_encode(n, mult, order) for order in itertools.permutations(range(n)))


def core_mult(classes):
    """The multiplicity dict of a core's classes (u, v, mult)."""
    return {(u, v): c for u, v, c in classes}


def as_core(n, mult):
    """The core (n, sorted classes) of a multiplicity dict."""
    return n, tuple(sorted((u, v, c) for (u, v), c in mult.items()))


def test_components_examples():
    assert components(SimpleGraph(3, ()))[0] == 3
    assert components(fixture("cycle", 4))[0] == 1
    kappa, labels = components(SimpleGraph(5, ((0, 1), (2, 3))))
    assert kappa == 3
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert len({labels[0], labels[2], labels[4]}) == 3
    assert components(SimpleGraph(0, ())) == (0, ())


def test_simple_graph_validation():
    with pytest.raises(GraphFormatError, match=r"\(0, 0\) is a loop"):
        SimpleGraph(3, ((0, 0),))
    with pytest.raises(GraphFormatError, match="duplicate"):
        SimpleGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(GraphFormatError, match="range"):
        SimpleGraph(2, ((0, 5),))
    with pytest.raises(GraphFormatError, match="negative"):
        SimpleGraph(-1, ())


def test_simple_graph_errors_keep_their_messages():
    cases = [
        ((3, ((0, 0),)), "edge (0, 0) is a loop"),
        ((3, ((0, 1), (1, 0))), "duplicate edge (0, 1)"),
        ((3, ((2, 1), (0, 2), (1, 2))), "duplicate edge (1, 2)"),
        ((2, ((0, 5),)), "edge (0, 5) out of range for n=2"),
        ((2, ((-1, 1),)), "edge (-1, 1) out of range for n=2"),
        ((-1, ()), "negative vertex count -1"),
    ]
    for args, message in cases:
        with pytest.raises(GraphFormatError) as caught:
            SimpleGraph(*args)
        assert str(caught.value) == message


def test_simple_graph_is_an_immutable_value():
    g = SimpleGraph(4, ((2, 3), (1, 0), (2, 1)))
    same = SimpleGraph(4, [(0, 1), (3, 2), (1, 2)])
    assert g.edges == ((0, 1), (1, 2), (2, 3)) and g.n == 4 and g.m == 3
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != SimpleGraph(5, g.edges) and g != SimpleGraph(4, g.edges[:2])
    assert g != (4, g.edges)
    assert repr(g) == "SimpleGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))"
    # adjacency is built once: every read returns the same tuple
    assert g.adjacency is g.adjacency
    assert g.adjacency == (0b0010, 0b0101, 0b1010, 0b0100)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        del g.edges
    assert g == same


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
        assert (canonical_form(copy), canonical_relabel(copy)) == (cert, copy)


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
        by_brute.setdefault(canonical_form_bruteforce(g.n, _multiplicities(g)), set()).add(i)
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
        by_brute.setdefault(canonical_form_bruteforce(5, _multiplicities(g)), set()).add(bits)
    assert len(by_fast) == 34  # graphs on 5 unlabeled vertices
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


def test_canonical_partition_multigraphs_match_bruteforce():
    rng = random.Random(6)
    pool = []
    for _ in range(150):
        n = rng.randint(1, 4)
        pool.append(random_multigraph(rng, n, rng.randint(0, 5), (1, 2, 3)))
    by_fast = {}
    by_brute = {}
    for i, (n, classes) in enumerate(pool):
        mult = core_mult(classes)
        by_fast.setdefault(_canon_search(n, mult)[0], set()).add(i)
        by_brute.setdefault(canonical_form_bruteforce(n, mult), set()).add(i)
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


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
        _, _, gens = _canon_search(g.n, _multiplicities(g))
        # the generators act on g's own vertices
        for gen in gens:
            assert g.relabel(gen) == g
        assert group_order(gens, g.n) == automorphism_count(g), g
    # deletion-contraction searches multigraph cores: small multiplicities,
    # and some at or above n * n, which _neighbor_lists ranks
    cores = [random_multigraph(rng, n, rng.randint(0, 12), (1, 2, 3))
             for n in (rng.randint(1, 6) for _ in range(150))]
    for _ in range(40):
        n = rng.randint(2, 6)
        cores.append(random_multigraph(rng, n, rng.randint(1, 12), (1, 2, n * n, n * n + 1, 300)))
    for n, classes in cores:
        mult = core_mult(classes)
        _, _, gens = _canon_search(n, mult)
        # the generators act on the input's vertices
        for gen in gens:
            assert relabel_mult(mult, gen) == mult
        brute = sum(1 for perm in itertools.permutations(range(n)) if relabel_mult(mult, perm) == mult)
        assert group_order(gens, n) == brute, (n, classes)


def test_canonical_form_invariance_with_wide_multiplicities():
    rng = random.Random(13)
    by_fast, by_brute = {}, {}
    for i in range(120):
        n = rng.randint(1, 5)
        _, classes = random_multigraph(rng, n, rng.randint(1, 6), (1, 256, 300, 70000))
        mult = core_mult(classes)
        cert, order, _ = _canon_search(n, mult)
        copy = canonical_mult(mult, order)
        assert _decode(cert) == as_core(n, copy)
        # the canonical copy is a fixed point of the labeling
        again, again_order, _ = _canon_search(n, copy)
        assert (again, canonical_mult(copy, again_order)) == (cert, copy)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel_mult(mult, perm)
            h_cert, h_order, _ = _canon_search(n, h)
            assert h_cert == cert
            assert canonical_mult(h, h_order) == copy
        by_fast.setdefault(cert, set()).add(i)
        by_brute.setdefault(canonical_form_bruteforce(n, mult), set()).add(i)
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


def test_wide_certificates_are_distinct_from_narrow_ones():
    narrow = _canon_search(2, {(0, 1): 255})[0]
    assert narrow == bytes([2, 255])  # n, then the upper triangle, a byte each
    wide = _canon_search(2, {(0, 1): 256})[0]
    assert wide == bytes([0, 2, 0, 2, 1, 0])  # 0, width, then the values
    assert canonical_form(SimpleGraph(0, ())) == b"\x00"  # the one narrow cert led by 0
    # n >= 256: a path and a relabeled copy
    long_path = SimpleGraph(260, tuple((i, i + 1) for i in range(259)))
    perm = list(range(260))
    random.Random(14).shuffle(perm)
    cert = canonical_form(long_path)
    assert cert[:2] == bytes([0, 2])
    assert canonical_form(long_path.relabel(perm)) == cert
    assert cert != canonical_form(SimpleGraph(260, long_path.edges[1:] + ((0, 2),)))


def test_decode_inverts_the_encoding_under_the_identity_order():
    # deletion-contraction rebuilds a block's canonical copy from its
    # certificate, so _decode must invert both forms of _encode
    rng = random.Random(15)
    cores = [(2, ((0, 1, 255),)), (2, ((0, 1, 256),)), (1, ()), (4, ())]
    cores += [random_multigraph(rng, rng.randint(2, 9), rng.randint(0, 20), (1, 2, 3, 70000))
              for _ in range(200)]
    cores.append((260, tuple((i, i + 1, 1) for i in range(259))))
    for n, classes in cores:
        mult = core_mult(classes)
        code = _encode(n, mult, range(n))
        assert _decode(code) == (n, classes)
        cert, order, _ = _canon_search(n, mult)
        copy = canonical_mult(mult, order)
        assert _decode(cert) == as_core(n, copy)


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
    assert [mask.bit_count() for mask in g.adjacency] == [3] * 10
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
    with pytest.raises(BudgetError, match="width"):
        edge_subset_census(fixture("complete", 12))  # frontier of 12 > 10


def test_census_refused_before_any_state(monkeypatch):
    built = []
    monkeypatch.setattr(graphs_module, "_census_dp", lambda *args: built.append(args))
    g = fixture("complete", 12)
    assert _census_schedule(g)[1] > CENSUS_MAX_WIDTH
    with pytest.raises(BudgetError):
        edge_subset_census(g)
    assert built == []


def _grid(rows: int, cols: int) -> SimpleGraph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return SimpleGraph(rows * cols, tuple(edges))


def _ladder(length: int) -> SimpleGraph:
    return _grid(2, length)


def test_census_matches_subset_walk():
    fixed = [
        SimpleGraph(0, ()),
        SimpleGraph(1, ()),
        SimpleGraph(5, ()),
        SimpleGraph(6, ((0, 1), (2, 3), (3, 4), (2, 4))),  # two components, an isolated vertex
        fixture("cycle", 3),
        fixture("cycle", 4),
        SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3))),  # the paw
        fixture("complete_bipartite", 3, 3),
        fixture("figure1_G"),
        fixture("figure1_H"),
        parse_graph6("IheA@GUAo"),  # Petersen
        fixture("complete", 7),
        _ladder(7),
        _grid(3, 4),
    ]
    for g in fixed:
        assert edge_subset_census(g) == census_by_subset_walk(g)
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(0, 10)
        g = random_graph(rng, n, rng.randint(0, min(22, n * (n - 1) // 2)))
        assert edge_subset_census(g) == census_by_subset_walk(g)


def test_census_spanning_trees_match_matrix_tree():
    # counts[n-1][1] counts spanning trees, which the Laplacian minor also does
    for g in (_ladder(30), _grid(6, 6)):
        assert edge_subset_census(g)[g.n - 1][1] == tree_number_mtt(g)


def test_all_labeled_graphs_helper():
    assert sum(1 for _ in all_labeled_graphs(4, 3)) == comb(6, 3)
