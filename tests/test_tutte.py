"""Tutte/Whitney engines: dual-route equality and classical evaluations."""
import importlib
import itertools
import random

import pytest

from conftest import (
    class_graphs,
    random_connected,
    random_connected_graph,
    random_graph,
    random_multigraph,
)
from relpoly.counts import ntable_from_whitney, t_k
from relpoly.errors import BudgetError, DisconnectedGraphError
from relpoly.graphs import (
    SimpleGraph,
    components,
    fixture,
    parse_graph6,
)
from relpoly.poly import BivarPoly
from relpoly.scan import ClassSpec
from relpoly.tutte import (
    _block_split,
    _dc,
    _run,
    tree_number_mtt,
    tutte_dc,
    tutte_expansion,
    whitney,
    whitney_expansion,
)

T_TRIANGLE = BivarPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
W_TRIANGLE = BivarPoly({(2, 0): 1, (1, 0): 3, (0, 1): 1, (0, 0): 3})


def multigraph_expansion_oracle(n: int, classes) -> BivarPoly:
    """Literal subgraph expansion over individual edge copies of the core
    (n, classes)."""
    instances = []
    for u, v, c in classes:
        instances.extend([(u, v)] * c)
    kappa_g, _ = components(SimpleGraph(n, tuple((u, v) for u, v, _ in classes)))
    r_g = n - kappa_g
    total = BivarPoly.zero()
    xm1 = BivarPoly.x() - 1
    ym1 = BivarPoly.y() - 1
    for size in range(len(instances) + 1):
        for subset in itertools.combinations(range(len(instances)), size):
            chosen = {instances[i] for i in subset}
            kappa, _ = components(SimpleGraph(n, tuple(chosen)))
            r_h = n - kappa
            c_h = size - r_h
            total = total + xm1 ** (r_g - r_h) * ym1 ** c_h
    return total


def test_tutte_small_literals():
    assert tutte_expansion(fixture("cycle", 3)) == T_TRIANGLE
    assert tutte_expansion(SimpleGraph(2, ((0, 1),))) == BivarPoly.x()
    assert tutte_expansion(fixture("path", 3)) == BivarPoly.monomial(2, 0)


def test_dc_matches_expansion_exhaustive_n5():
    memo = {}
    for n in range(1, 6):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in class_graphs(ClassSpec(n, m)):
                assert tutte_dc(g, memo) == tutte_expansion(g)


def test_dc_matches_expansion_random():
    rng = random.Random(10)
    memo = {}
    for _ in range(30):
        g = random_connected(rng)
        assert tutte_dc(g, memo) == tutte_expansion(g)


EDGELESS = (SimpleGraph(0, ()), SimpleGraph(1, ()), SimpleGraph(3, ()))


def test_dc_on_disconnected_graphs():
    rng = random.Random(11)
    for g in EDGELESS:
        assert tutte_dc(g) == tutte_expansion(g) == BivarPoly.one()
    for _ in range(25):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        assert tutte_dc(g) == tutte_expansion(g)


def test_dc_multigraph_base_cases():
    assert _run(_dc(2, ((0, 1, 2),), {})) == BivarPoly({(1, 0): 1, (0, 1): 1})
    assert _run(_dc(1, (), {})) == BivarPoly.one()
    assert tutte_dc(SimpleGraph(0, ())) == BivarPoly.one()


def test_dc_multigraph_against_expansion_oracle():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, 4)
        n, classes = random_multigraph(rng, n, rng.randint(0, 4), (1, 2, 3))
        if sum(c for _, _, c in classes) > 9:
            continue
        assert _run(_dc(n, classes, {})) == multigraph_expansion_oracle(n, classes)


def _bridged_multigraph(rng: random.Random):
    """A core (n, classes) of at most 6 vertices: one of them isolated, the
    rest split in two parts whose only link is a parallel class of
    multiplicity >= 2.  A part may itself be disconnected."""
    n = rng.randint(3, 6)
    verts = list(range(n))
    rng.shuffle(verts)
    verts.pop()  # stays isolated
    cut = rng.randint(1, len(verts) - 1)
    parts = (verts[:cut], verts[cut:])
    classes = [
        (u, v, rng.choice((1, 1, 2)))
        for part in parts
        for u, v in itertools.combinations(sorted(part), 2)
        if rng.random() < 0.7
    ]
    a, b = sorted((rng.choice(parts[0]), rng.choice(parts[1])))
    classes.append((a, b, rng.randint(2, 3)))
    return n, tuple(sorted(classes))


def test_dc_bridge_classes_against_expansion_oracle():
    fixed = [
        # two triangles joined only by a double class
        (6, ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 2), (3, 4, 1), (3, 5, 1), (4, 5, 1))),
        # a triple class as a whole component, a triangle, an isolated vertex
        (6, ((0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 3))),
        # a path of two double classes: both are bridges, and an isolated vertex
        (4, ((0, 1, 2), (1, 2, 2))),
    ]
    rng = random.Random(22)
    randoms = []
    while len(randoms) < 40:
        n, classes = _bridged_multigraph(rng)
        if sum(c for _, _, c in classes) <= 11:  # keeps the 2^m oracle quick
            randoms.append((n, classes))
    for n, classes in fixed + randoms:
        assert _run(_dc(n, classes, {})) == multigraph_expansion_oracle(n, classes), (n, classes)


def test_block_split_keeps_bridge_class_multiplicity():
    # a triangle, a double class hanging off it, a triple class on its own,
    # and an isolated vertex, which gives no block
    edges = ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 2), (4, 5, 3))
    assert sorted(_block_split(7, edges)) == [
        (2, ((0, 1, 2),)),
        (2, ((0, 1, 3),)),
        (3, ((0, 1, 1), (0, 2, 1), (1, 2, 1))),
    ]
    assert _block_split(3, ()) == []


def test_lowering_a_multiplicity_keeps_a_block_whole():
    # DC hands such a deletion straight to _dc_block, with no block split
    rng = random.Random(21)
    blocks = 0
    for _ in range(400):
        n, classes = random_multigraph(rng, rng.randint(2, 7), rng.randint(1, 14), (1, 2, 3, 5))
        if _block_split(n, classes) != [(n, classes)]:
            continue
        blocks += 1
        for i, (u, v, c) in enumerate(classes):
            if c > 1:
                deleted = classes[:i] + ((u, v, c - 1),) + classes[i + 1 :]
                assert _block_split(n, deleted) == [(n, deleted)]
    assert blocks >= 50


def _ladder(length: int) -> SimpleGraph:
    rails = [(i, i + 1) for i in range(length - 1)]
    rails += [(length + i, length + i + 1) for i in range(length - 1)]
    rungs = [(i, length + i) for i in range(length)]
    return SimpleGraph(2 * length, tuple(rails + rungs))


@pytest.mark.parametrize(
    "g",
    [_ladder(30), fixture("complete", 9), fixture("complete_bipartite", 5, 5)],
    ids=["ladder-2x30", "K9", "K5,5"],
)
def test_dc_equals_expansion_on_large_graphs(g):
    # the frontier-DP census reaches past the 2^m walk's 26 edges, so the
    # expansion checks DC in full; T(1,1) and T(2,2) keep their own values:
    # the matrix-tree determinant and 2^m
    t = tutte_dc(g)
    assert t == tutte_expansion(g)
    assert t.eval_rational(1, 1) == tree_number_mtt(g)
    assert t.eval_rational(2, 2) == 2**g.m


def test_isomorphism_invariance(monkeypatch):
    # DC recurses on canonical copies, so its work, counted in _dc_block
    # calls, depends only on the isomorphism class, not on the labels
    tutte_module = importlib.import_module("relpoly.tutte")
    original = tutte_module._dc_block
    calls = [0]

    def spy(core, memo):
        calls[0] += 1
        return original(core, memo)

    monkeypatch.setattr(tutte_module, "_dc_block", spy)

    def counted(fn, g):
        calls[0] = 0
        return fn(g), calls[0]

    rng = random.Random(13)
    for _ in range(20):
        g = random_connected(rng, n_max=7, m_max=14)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert counted(tutte_dc, g) == counted(tutte_dc, h)
        assert counted(whitney, g) == counted(whitney, h)

    for g in (fixture("figure1_G"), _ladder(12)):
        expected = counted(tutte_dc, g)
        for seed in range(5):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            assert counted(tutte_dc, g.relabel(perm)) == expected


def _counted_searches(monkeypatch):
    """A list that gets one entry per canonical search for a DC memo key."""
    tutte_module = importlib.import_module("relpoly.tutte")
    original = tutte_module._core_key
    searches = []

    def spy(n, mult):
        searches.append(n)
        return original(n, mult)

    monkeypatch.setattr(tutte_module, "_core_key", spy)
    return searches


def _wheel(spokes: int) -> SimpleGraph:
    rim = [(i, (i + 1) % spokes) for i in range(spokes)]
    return SimpleGraph(spokes + 1, tuple(rim + [(i, spokes) for i in range(spokes)]))


def test_memo_keys_are_bytes():
    # a block's own encoding and its certificate share one dict of bytes
    memo = {}
    rng = random.Random(16)
    for g in (fixture("figure1_G"), fixture("complete_bipartite", 3, 4), _ladder(6), _wheel(7)):
        tutte_dc(g, memo)
    for _ in range(5):
        _run(_dc(*random_multigraph(rng, 6, 12, (1, 2, 3)), memo))
    assert memo and all(type(key) is bytes for key in memo)
    assert all(type(value) is bytes for value in memo.values())


def test_memo_hits_rebuild_big_coefficients_exactly(monkeypatch):
    # the 2x35 ladder is the shortest whose tree number exceeds 2^64.  A
    # relabeled copy misses under its own labels, finds the class by
    # certificate and is rebuilt from the packed rows with no recursion:
    # one search and one entry more.  T(1, 1) and T(2, 2) sum every
    # coefficient, some of them above 2^32
    g = _ladder(35)
    rng = random.Random(30)
    first, h = (g.relabel(rng.sample(range(g.n), g.n)) for _ in range(2))
    memo = {}
    tutte_dc(first, memo)
    stored = len(memo)
    searches = _counted_searches(monkeypatch)
    t = tutte_dc(h, memo)
    assert len(searches) == 1 and len(memo) == stored + 1
    assert max(max(row) for row in t.rows if row) > 2**32
    assert t.eval_rational(1, 1) == tree_number_mtt(h) > 2**64
    assert t.eval_rational(2, 2) == 2**h.m


def test_relabeled_copy_with_a_shared_memo_needs_one_search(monkeypatch):
    # each graph is one block: its copy misses under its own labels, finds
    # the class by certificate, and recurses no further; the copy is then
    # stored under its own labels, so running it again needs no search
    searches = _counted_searches(monkeypatch)
    rng = random.Random(17)
    for g in (fixture("figure1_G"), fixture("complete", 6), fixture("complete_bipartite", 4, 4),
              _ladder(12), _wheel(9)):
        memo = {}
        expected = tutte_dc(g, memo)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            searches.clear()
            assert tutte_dc(h, memo) == expected
            assert len(searches) <= 1
            assert tutte_dc(h, memo) == tutte_dc(g, memo) == expected
            assert len(searches) <= 1


@pytest.mark.parametrize(
    "g, bound",
    [
        # a memo keyed only by canonical copies searched 195, 615, 128 and 220 times
        (fixture("complete", 9), 104),
        (fixture("complete_bipartite", 5, 5), 430),
        (fixture("figure1_G"), 89),
        (_ladder(30), 166),
    ],
    ids=["K9", "K5,5", "figure1_G", "ladder-2x30"],
)
def test_dc_search_counts(monkeypatch, g, bound):
    searches = _counted_searches(monkeypatch)
    tutte_dc(g)
    assert len(searches) <= bound


@pytest.mark.parametrize(
    "g",
    [fixture("figure1_G"), _ladder(8), fixture("complete_bipartite", 4, 4)],
    ids=["figure1_G", "ladder-2x8", "K4,4"],
)
def test_canonical_hint_is_exact_on_any_labels(g):
    # the hint is false for these relabelings: the work may then depend on
    # the labels, the result may not
    rng = random.Random(22)
    expected = tutte_expansion(g)
    for _ in range(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert tutte_dc(h, canonical=True) == tutte_dc(h) == expected
        assert whitney(h, {}, canonical=True) == whitney(h)


def test_bridges_fold_into_one_power_of_x(monkeypatch):
    # a tree's blocks are all bridges: T = x^(n-1) comes from one move of
    # the rows, with no _dc_block call and no product per bridge
    tutte_module = importlib.import_module("relpoly.tutte")
    calls = []
    original = tutte_module._dc_block

    def spy(core, memo):
        calls.append(core)
        return original(core, memo)

    monkeypatch.setattr(tutte_module, "_dc_block", spy)
    path = SimpleGraph(400, tuple((i, i + 1) for i in range(399)))
    assert tutte_dc(path) == BivarPoly.monomial(399, 0)
    assert calls == []
    # a triangle with pendant paths: one block and five bridges
    g = SimpleGraph(8, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (1, 7)))
    assert tutte_dc(g) == tutte_expansion(g) == BivarPoly({(6, 0): 1, (7, 0): 1, (5, 1): 1})
    assert len(calls) == 1


def test_whitney_small_literals():
    assert whitney(fixture("cycle", 3)) == W_TRIANGLE
    assert whitney(SimpleGraph(2, ((0, 1),))) == BivarPoly({(1, 0): 1, (0, 0): 1})


def test_whitney_of_trees_is_binomial_power():
    rng = random.Random(14)
    x_plus_1 = BivarPoly({(1, 0): 1, (0, 0): 1})
    for n in range(2, 7):
        g = random_connected_graph(rng, n, n - 1)
        w = whitney(g)
        assert w == whitney_expansion(g)
        assert w == x_plus_1 ** (n - 1)


def test_whitney_matches_direct_expansion():
    for g in EDGELESS:
        assert whitney(g) == whitney_expansion(g) == BivarPoly.one()
    rng = random.Random(15)
    for _ in range(25):
        g = random_connected(rng, n_max=7, m_max=16)
        assert whitney(g) == whitney_expansion(g)


def test_whitney_equals_shifted_tutte():
    rng = random.Random(16)
    for _ in range(15):
        g = random_connected(rng, n_max=7, m_max=14)
        assert whitney(g) == tutte_dc(g).shift_vars(1, 1)


def test_tree_numbers():
    assert whitney(fixture("cycle", 5)).coeff(0, 0) == 5
    assert whitney(fixture("complete", 4)).coeff(0, 0) == 16
    assert tree_number_mtt(fixture("complete", 4)) == 16
    assert tree_number_mtt(fixture("complete", 6)) == 6 ** 4
    with pytest.raises(DisconnectedGraphError):
        tree_number_mtt(SimpleGraph(3, ()))


def test_tree_number_dual_route_random():
    rng = random.Random(17)
    for _ in range(40):
        g = random_connected(rng)
        assert whitney(g).coeff(0, 0) == tree_number_mtt(g)


def test_tree_number_matches_forest_gen_head():
    # t_1, the head of the forest counts, read off the count table
    rng = random.Random(18)
    for _ in range(10):
        g = random_connected(rng, n_max=6, m_max=12)
        assert t_k(ntable_from_whitney(whitney(g), g.n, g.m), 1) == tree_number_mtt(g)


def test_classical_evaluation_identities():
    # T(1,1): spanning trees, T(2,1): spanning forests, T(1,2): connected
    # spanning subgraphs, T(2,2): all 2^m subsets; counted via the census
    rng = random.Random(19)
    from relpoly.graphs import edge_subset_census

    for _ in range(15):
        g = random_connected(rng, n_max=7, m_max=14)
        t = tutte_dc(g)
        counts = edge_subset_census(g)
        trees = counts[g.n - 1][1]
        forests = sum(counts[i][g.n - i] for i in range(g.n))
        connected_sub = sum(counts[i][1] for i in range(g.m + 1))
        assert t.eval_rational(1, 1) == trees
        assert t.eval_rational(2, 1) == forests
        assert t.eval_rational(1, 2) == connected_sub
        assert t.eval_rational(2, 2) == 2 ** g.m


def test_petersen_tree_number():
    petersen = parse_graph6("IheA@GUAo")
    assert whitney(petersen).coeff(0, 0) == 2000
    assert tree_number_mtt(petersen) == 2000
    assert tutte_expansion(petersen).eval_rational(1, 1) == 2000


def test_figure1_regressions():
    g = fixture("figure1_G")
    memo = {}
    t_g = tutte_dc(g, memo)
    assert t_g == tutte_expansion(g)  # 2^18 oracle
    assert t_g.num_terms() == 37  # pinned after the dual-route run above
    assert whitney(g, memo).coeff(0, 0) == 9216  # pinned; equals the determinant route
    assert tree_number_mtt(g) == 9216


def test_dc_on_multiplicity_300_triangle():
    # spanning trees pick two of the three classes: 300*1 + 1*1 + 1*300
    t = _run(_dc(3, ((0, 1, 300), (0, 2, 1), (1, 2, 1)), {}))
    assert t.eval_rational(1, 1) == 601
    assert t.eval_rational(2, 2) == 2**302


def test_expansion_budget_refusal():
    with pytest.raises(BudgetError):
        tutte_expansion(fixture("complete", 12))  # frontier of 12 > 10
