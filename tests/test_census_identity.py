"""The Whitney certificate is a count-table difference, checked against the
subset census.

For G and H in one class C(n, m),

    (W_G - W_H) / (1 - xy) = sum over i, k of
        (N_i^(k)(G) - N_i^(k)(H)) x^(k-1) y^(i-n+k).

The coefficient of x^(j-1) y^(i-n+j) in W counts the i-edge spanning
subgraphs with j components; dividing by 1 - xy sums along the diagonal of
fixed i as j rises, which gives the prefix sums N_i^(k).  The division is
exact in a class, since both graphs have C(m, i) subsets of each size.

theorem2_check compares the strong members (count tables read off W) with
the Whitney maxima (the division of the same W), so it checks those two
readings against each other.  Here the left side comes from deletion-
contraction and divide_one_minus_xy, the right side from ntable_bruteforce,
the subset census, which shares no code with deletion-contraction
(tests/test_census_independence.py), so this is the independent check.
"""
import importlib
import random
from itertools import combinations

from conftest import class_graphs
from relpoly.counts import ntable_bruteforce
from relpoly.order import divide_one_minus_xy
from relpoly.poly import BivarPoly
from relpoly.scan import ClassSpec

tutte_module = importlib.import_module("relpoly.tutte")

SMALL_CLASSES = [
    ClassSpec(n, m) for n in range(1, 7) for m in range(n - 1, n * (n - 1) // 2 + 1)
]
RANDOM_PAIRS = 30
SEED = 20241


def census_quotient(tg, th) -> BivarPoly:
    """sum over i, k of (N_i^(k)(g) - N_i^(k)(h)) x^(k-1) y^(i-n+k), from
    the census tables tg and th of g and h."""
    terms = {}
    for i, (row_g, row_h) in enumerate(zip(tg.prefix, th.prefix)):
        for k in range(1, tg.n + 1):
            diff = row_g[k] - row_h[k]
            if diff:
                # an i-edge subgraph has at least n - i components, so a
                # nonzero difference has i - n + k >= 0
                terms[k - 1, i - tg.n + k] = diff
    return BivarPoly(terms)


def identity_mismatches(graphs, pairs) -> list[tuple[int, int]]:
    """The pairs (a, b) of indices into graphs, one class, for which the
    quotient of W_a - W_b by 1 - xy, W by deletion-contraction, is not the
    census quotient."""
    memo: dict = {}
    ws = [tutte_module.whitney(g, memo) for g in graphs]
    tables = [ntable_bruteforce(g) for g in graphs]
    bad = []
    for a, b in pairs:
        quotient, _ = divide_one_minus_xy(ws[a] - ws[b])
        if quotient != census_quotient(tables[a], tables[b]):
            bad.append((a, b))
    return bad


def test_identity_on_every_pair_of_every_class_up_to_six_vertices():
    checked = 0
    for spec in SMALL_CLASSES:
        graphs = class_graphs(spec)
        pairs = list(combinations(range(len(graphs)), 2))
        assert identity_mismatches(graphs, pairs) == [], spec
        checked += len(pairs)
    assert checked == 855


def test_identity_on_random_pairs_of_c_8_18():
    # 30 disjoint pairs of distinct members
    picked = random.Random(SEED).sample(class_graphs(ClassSpec(8, 18)), 2 * RANDOM_PAIRS)
    pairs = [(2 * j, 2 * j + 1) for j in range(RANDOM_PAIRS)]
    assert identity_mismatches(picked, pairs) == []


def test_a_perturbed_whitney_fails_the_identity(monkeypatch):
    # negative control: W of one member of C(5, 6) gains an xy term
    graphs = class_graphs(ClassSpec(5, 6))
    victim = graphs[0]
    real = tutte_module.whitney

    def perturbed(g, memo=None, **kwargs):
        w = real(g, memo, **kwargs)
        return w + BivarPoly({(1, 1): 1}) if g is victim else w

    monkeypatch.setattr(tutte_module, "whitney", perturbed)
    pairs = list(combinations(range(len(graphs)), 2))
    bad = identity_mismatches(graphs, pairs)
    assert bad and all(0 in pair for pair in bad)
