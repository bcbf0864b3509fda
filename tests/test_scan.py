"""Class enumeration and full-class scans."""
import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import tracemalloc
from collections import Counter
from math import factorial

import pytest

from conftest import all_labeled_graphs, class_graphs
from relpoly.cli import main
from relpoly.errors import BudgetError, EmptyClassError
from relpoly.graphs import (
    SimpleGraph,
    _encode,
    automorphism_count,
    canonical_form,
    fixture,
    parse_graph6,
)
from relpoly.order import (
    DOMINATES,
    NEGATIVE_QUOTIENT,
    NOT_DIVISIBLE,
    OrderResult,
    compare_tutte_polys,
    compare_whitney_polys,
)
from relpoly.scan import (
    ClassSpec,
    MemberReport,
    _fold,
    _graphs_with_edges,
    _maximum_members,
    enumerate_class,
    labeled_connected_count,
    scan,
    verify_section4,
)
from relpoly.tutte import _block_split, whitney


def brute_class_certs(n, m):
    """Independent dedup generator: all labeled graphs, canonical certs."""
    return {
        canonical_form(g) for g in all_labeled_graphs(n, m) if g.is_connected()
    }


def test_class_spec_is_a_value_with_its_errors():
    spec = ClassSpec(8, 18)
    assert (spec.n, spec.m) == (8, 18)
    assert spec == ClassSpec(8, 18) and hash(spec) == hash(ClassSpec(8, 18))
    assert spec != ClassSpec(8, 17)
    assert repr(spec) == "ClassSpec(n=8, m=18)"
    with pytest.raises(AttributeError):
        spec.n = 9
    for (n, m), message in (
        ((0, 0), "need n >= 1, got 0"),
        ((4, 2), "C(4, 2) is empty: need 3 <= m <= 6"),
        ((4, 7), "C(4, 7) is empty: need 3 <= m <= 6"),
    ):
        with pytest.raises(EmptyClassError) as caught:
            ClassSpec(n, m)
        assert str(caught.value) == message


def test_class_spec_bounds():
    ClassSpec(1, 0)
    ClassSpec(4, 6)
    for n, m in ((4, 2), (4, 7), (0, 0)):
        with pytest.raises(EmptyClassError):
            ClassSpec(n, m)
    assert issubclass(EmptyClassError, ValueError)
    with pytest.raises(BudgetError):
        enumerate_class(ClassSpec(10, 9))


def test_enumerate_small_classes():
    assert len(enumerate_class(ClassSpec(3, 3))) == 1
    c44 = class_graphs(ClassSpec(4, 4))
    assert len(c44) == 2
    certs = {canonical_form(g) for g in c44}
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert certs == {canonical_form(fixture("cycle", 4)), canonical_form(paw)}


def test_enumerate_members_are_canonical_sorted_connected():
    members = class_graphs(ClassSpec(5, 6))
    certs = [canonical_form(g) for g in members]
    assert certs == sorted(certs)
    assert len(set(certs)) == len(members)
    for g in members:
        assert g.is_connected()
        assert (g.n, g.m) == (5, 6)


def test_enumeration_matches_bruteforce_dedup():
    for n in range(2, 6):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            got = {canonical_form(g) for g in class_graphs(ClassSpec(n, m))}
            assert got == brute_class_certs(n, m), (n, m)


def test_dense_complement_route_matches_direct():
    # C(6, 10) is enumerated via 5-edge complements; check against the
    # direct generator over 10-edge graphs
    via_complement = {canonical_form(g) for g in class_graphs(ClassSpec(6, 10))}
    direct = {
        canonical_form(g)
        for g in map(parse_graph6, _graphs_with_edges(6, 10))
        if g.is_connected()
    }
    assert via_complement == direct


def test_labeled_connected_count_known_values():
    assert [labeled_connected_count(4, m) for m in range(3, 7)] == [16, 15, 6, 1]
    assert labeled_connected_count(3, 2) == 3
    assert labeled_connected_count(2, 1) == 1
    assert labeled_connected_count(5, 4) == 125  # Cayley: 5^3


def test_labeled_connected_totals_match_known_sequence():
    # total labeled connected graphs on n vertices: 1, 1, 4, 38, 728, 26704
    known = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    for n, expected in known.items():
        total = sum(
            labeled_connected_count(n, m) for m in range(n - 1, n * (n - 1) // 2 + 1)
        )
        assert total == expected, n


def test_unlabeled_connected_totals_match_known_sequence():
    # connected graphs up to isomorphism on n vertices: 1, 1, 2, 6, 21, 112
    known = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, expected in known.items():
        total = sum(
            len(enumerate_class(ClassSpec(n, m)))
            for m in range(n - 1, n * (n - 1) // 2 + 1)
        )
        assert total == expected, n


def test_enumeration_exhaustive_by_automorphism_identity():
    for n in range(2, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            members = class_graphs(ClassSpec(n, m))
            labeled = sum(factorial(n) // automorphism_count(g) for g in members)
            assert labeled == labeled_connected_count(n, m), (n, m)


def test_c98_trees_by_automorphism_identity():
    members = class_graphs(ClassSpec(9, 8))
    assert len(members) == 47  # trees on 9 vertices
    labeled = sum(factorial(9) // automorphism_count(g) for g in members)
    assert labeled == labeled_connected_count(9, 8) == 9**7  # Cayley


def test_enumeration_matches_graph_atlas():
    # networkx's atlas lists every graph on up to 7 vertices once
    nx = pytest.importorskip("networkx")
    atlas_counts = Counter()
    atlas_certs: dict[tuple[int, int], set] = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h):
            g = SimpleGraph(n, tuple(h.edges()))
            atlas_counts[(n, g.m)] += 1
            atlas_certs.setdefault((n, g.m), set()).add(canonical_form(g))
    total = 0
    for n in range(1, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            members = class_graphs(ClassSpec(n, m))
            assert len(members) == atlas_counts[(n, m)], (n, m)
            assert {canonical_form(g) for g in members} == atlas_certs[(n, m)], (n, m)
            total += len(members)
    assert total == sum(atlas_counts.values()) == 996


# sha256 of the scan JSON, pinned before the pruned search; C(7, 12) goes
# through the complement route
SCAN_DIGESTS = {
    (7, 10): "535b771a0193430ab491de5ca3694a9267ccb4302c3984ad00eadeb4390410fb",
    (7, 12): "25025abeccd2cdeb955edfd8bd62568e36b09e8cb22575a394899b2b577b1ab9",
}


def test_scan_json_is_byte_identical_to_pinned_digests(capsys):
    for (n, m), digest in SCAN_DIGESTS.items():
        assert main(["scan", "--n", str(n), "--m", str(m)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, m)


def test_each_scan_gets_a_fresh_memo(monkeypatch):
    # relpoly.scan as a package attribute is the scan function
    scan_module = importlib.import_module("relpoly.scan")
    original = scan_module._member_data
    memos, sizes = [], []

    def spy(code, memo):
        memos.append(memo)
        sizes.append(len(memo))
        return original(code, memo)

    monkeypatch.setattr(scan_module, "_member_data", spy)
    scan(ClassSpec(5, 6))
    first = len(memos)
    scan(ClassSpec(5, 6))
    assert all(memo is memos[0] for memo in memos[:first])
    assert len(memos[0]) > 0  # the first scan filled its memo
    assert sizes[0] == sizes[first] == 0
    assert memos[first] is not memos[0]


def _spied_members(monkeypatch):
    """A list that gets (graph, memo, W) for each member a scan derives."""
    scan_module = importlib.import_module("relpoly.scan")
    original = scan_module._member_data
    seen = []

    def spy(code, memo):
        derived = original(code, memo)
        assert derived[2][0] == code
        seen.append((parse_graph6(code), memo, derived[0]))
        return derived

    monkeypatch.setattr(scan_module, "_member_data", spy)
    return seen


def test_scan_neither_searches_nor_stores_one_block_members(monkeypatch):
    # every DC minor has fewer edges than a member, so no lookup of the scan
    # could reach a member's own entry: a member that is one block, already
    # its canonical copy, is expanded with no search and not stored
    tutte_module = importlib.import_module("relpoly.tutte")
    original_key = tutte_module._core_key
    searches = []

    def counted_key(n, mult):
        searches.append(n)
        return original_key(n, mult)

    monkeypatch.setattr(tutte_module, "_core_key", counted_key)
    original_block = tutte_module._dc_block
    blocks = []

    def counted_block(core, memo, canonical=False):
        blocks.append(core[0])
        return original_block(core, memo, canonical)

    monkeypatch.setattr(tutte_module, "_dc_block", counted_block)
    seen = _spied_members(monkeypatch)
    scan(ClassSpec(8, 18))
    # one search per one-block member more (3,861) when members are searched
    assert len(blocks) == 5529 and len(searches) == 3239
    memo = seen[0][1]
    # every key of a stored block shares the block's one packed value; a
    # pack per key would hold more values than the 1,751 blocks expanded
    assert len(memo) == 4354 and len({id(value) for value in memo.values()}) == 1751
    one_block = 0
    for g, _, _ in seen:
        core = tuple((u, v, 1) for u, v in g.edges)
        if _block_split(g.n, core) == [(g.n, core)]:
            one_block += 1
            assert _encode(g.n, dict.fromkeys(g.edges, 1), range(g.n)) not in memo
    assert one_block == 622


def test_scan_members_get_the_whitney_of_a_fresh_memo(monkeypatch):
    seen = _spied_members(monkeypatch)
    scan(ClassSpec(7, 10))
    assert len(seen) == 132
    for g, _, w in seen:
        assert w == whitney(g, {})


def test_scan_c44_flags():
    report = scan(ClassSpec(4, 4))
    assert report.summary["class_size"] == 2
    assert report.to_json_dict()["partial"] is False
    by_flag = {r.graph6: r for r in report.members}
    c4_g6 = [g6 for g6, r in by_flag.items() if r.strong]
    assert len(c4_g6) == 1
    c4_rec = by_flag[c4_g6[0]]
    assert canonical_form(parse_graph6(c4_rec.graph6)) == canonical_form(fixture("cycle", 4))
    assert c4_rec.zero_element and c4_rec.whitney_max and c4_rec.tutte_max
    assert c4_rec.t_optimal
    assert c4_rec.lambda1 == 2
    assert c4_rec.t1 == 4
    assert all(c4_rec.k_umrg_by_domination)
    paw_rec = next(r for r in report.members if not r.strong)
    assert not (paw_rec.zero_element or paw_rec.whitney_max or paw_rec.tutte_max)
    assert paw_rec.lambda1 == 1
    assert report.theorem2_check


def test_scan_singleton_class():
    report = scan(ClassSpec(3, 3))
    (member,) = report.members
    assert member.strong and member.zero_element and member.whitney_max
    assert member.tutte_max and member.t_optimal
    assert report.theorem2_check


def test_scan_trivial_classes():
    one = scan(ClassSpec(1, 0))
    (k1,) = one.members
    assert k1.strong and k1.whitney_max and k1.t1 == 1
    assert k1.lambda_list == (None,)  # k = n = 1 is degenerate
    two = scan(ClassSpec(2, 1))
    (k2,) = two.members
    assert k2.t1 == 1 and k2.lambda1 == 1
    assert verify_section4(two).ok


def test_theorem2_and_lemma1_small_classes():
    for spec in (ClassSpec(4, 4), ClassSpec(5, 5), ClassSpec(5, 6), ClassSpec(5, 7)):
        report = scan(spec)
        assert report.theorem2_check
        wm = {r.graph6 for r in report.members if r.whitney_max}
        tm = {r.graph6 for r in report.members if r.tutte_max}
        assert tm <= wm  # Tutte-maximum members are Whitney-maximum


def test_theorem2_check_certifies_members_that_are_not_strong(monkeypatch):
    # negative control: under a Tutte order that calls every pair
    # Dominates, the first member's entry dominates every later member, so
    # the antichain keeps the first member alone, and as its only entry that
    # member is the Whitney maximum too; in C(5, 6) it is not the strong
    # one, so the check must fail
    scan_module = importlib.import_module("relpoly.scan")
    monkeypatch.setattr(
        scan_module, "compare_tutte_polys", lambda w_g, w_h: OrderResult(DOMINATES)
    )
    report = scan(ClassSpec(5, 6))
    assert not report.theorem2_check
    assert not all(r.strong for r in report.members)
    assert [r.whitney_max for r in report.members] == [True] + [False] * 4


def test_theorem2_check_fails_without_the_whitney_compares(monkeypatch):
    # negative control: C(8, 18) has a Whitney maximum but no Tutte
    # maximum, so only the Whitney compares between its final Tutte entries
    # find the maximum (no class with n <= 7 has one without the other);
    # with every such compare NotDivisible no member is flagged, and the
    # strong member goes unmatched
    scan_module = importlib.import_module("relpoly.scan")
    monkeypatch.setattr(
        scan_module,
        "compare_whitney_polys",
        lambda w_g, w_h: OrderResult(NOT_DIVISIBLE, witness=(0, 0)),
    )
    report = scan(ClassSpec(8, 18))
    assert report.summary["whitney_max"] == 0
    assert not report.theorem2_check


def test_maxima_flags_match_pairwise_oracle():
    # every ordered pair compared, no short-circuit.  Also checked on every
    # pair, the two facts the scan's one Tutte fold rests on: Tutte
    # dominance implies Whitney dominance, and one compare decides the
    # reverse one (w - v = -(v - w))
    for n in range(1, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            spec = ClassSpec(n, m)
            polys = [whitney(g) for g in class_graphs(spec)]
            verdicts = {}
            for name, compare in (("whitney_max", compare_whitney_polys),
                                  ("tutte_max", compare_tutte_polys)):
                results = [[compare(p, q) for q in polys] for p in polys]
                for a, row in enumerate(results):
                    for b, result in enumerate(row):
                        reverse = results[b][a]
                        if result.verdict == NEGATIVE_QUOTIENT:
                            assert (-result.quotient).is_nonnegative() == reverse.ok()
                        if result.verdict == NOT_DIVISIBLE:
                            assert reverse.verdict == NOT_DIVISIBLE
                verdicts[name] = [[result.ok() for result in row] for row in results]
            for tutte_row, whitney_row in zip(verdicts["tutte_max"], verdicts["whitney_max"]):
                assert all(w for t, w in zip(tutte_row, whitney_row) if t), (n, m)
            report = scan(spec)
            for name, rows in verdicts.items():
                flags = [all(row) for row in rows]
                assert [getattr(r, name) for r in report.members] == flags, (n, m, name)


def _spied_compares(monkeypatch) -> Counter:
    """Counts of the scan's calls to each compare, by function name."""
    scan_module = importlib.import_module("relpoly.scan")
    calls = Counter()
    for name in ("compare_whitney_polys", "compare_tutte_polys"):
        original = getattr(scan_module, name)

        def spy(w_g, w_h, original=original, name=name):
            calls[name] += 1
            return original(w_g, w_h)

        monkeypatch.setattr(scan_module, name, spy)
    return calls


def test_full_scan_tries_the_last_refuter_first(monkeypatch):
    # C(7, 10) has one Whitney-maximum member among 132.  Certifying each
    # member with all() in member order made 1,354 Whitney and 1,354 Tutte
    # compares, trying the refuters of earlier members first made 628, and
    # folding each member into a Whitney and a Tutte antichain, newest entry
    # first, made 344; one Tutte fold with one compare per entry makes 145
    calls = _spied_compares(monkeypatch)
    report = scan(ClassSpec(7, 10))
    assert report.summary["whitney_max"] == 1
    assert sum(calls.values()) < 200


def test_whitney_maximum_costs_a_few_compares_after_the_tutte_fold(monkeypatch):
    # C(8, 18) has a Whitney maximum and no Tutte maximum.  Two antichains
    # with two compares per entry made 1,492 compares; one Tutte fold makes
    # 695, and the Whitney maximum among its three final entries 4 more
    calls = _spied_compares(monkeypatch)
    report = scan(ClassSpec(8, 18))
    assert (report.summary["whitney_max"], report.summary["tutte_max"]) == (1, 0)
    assert calls["compare_whitney_polys"] <= 5
    assert sum(calls.values()) <= 700


def test_antichain_flags_do_not_depend_on_the_member_order():
    # every class with n <= 7, its polynomials folded in member order, in
    # reverse and in a seeded shuffle: the final antichain groups the same
    # members, so the same members are flagged
    rng = random.Random(20260)
    for n in range(1, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            memo: dict = {}
            polys = [whitney(g, memo) for g in class_graphs(ClassSpec(n, m))]
            forward = list(range(len(polys)))
            shuffled = rng.sample(forward, len(forward))
            for compare in (compare_whitney_polys, compare_tutte_polys):
                groups, flags = [], []
                for order in (forward, forward[::-1], shuffled):
                    antichain = []
                    for i in order:
                        _fold(antichain, i, polys[i], compare)
                    groups.append(sorted(sorted(members) for _, members in antichain))
                    flags.append(_maximum_members(antichain))
                assert groups[0] == groups[1] == groups[2], (n, m, compare.__name__)
                assert flags[0] == flags[1] == flags[2], (n, m, compare.__name__)


def test_scan_report_serialization():
    report = scan(ClassSpec(4, 4))
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    again = json.dumps(scan(ClassSpec(4, 4)).to_json_dict(), sort_keys=True)
    assert blob == again
    rows = list(report.to_csv_rows())
    assert rows[0] == "graph6,strong,zero_element,whitney_max,tutte_max,t_optimal,t1,lambda1"
    assert len(rows) == 3


def _dict_tree_json(report) -> str:
    # the scan's output as one dict tree for the whole class
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("m", range(5, 16))
def test_streamed_scan_output_equals_the_dict_tree(capsys, m):
    assert main(["scan", "--n", "6", "--m", str(m)]) == 0
    assert capsys.readouterr().out == _dict_tree_json(scan(ClassSpec(6, m)))


def test_streamed_partial_and_csv_scans_equal_the_dict_tree(capsys, tmp_path):
    csv = tmp_path / "digest.csv"
    assert main(["scan", "--n", "6", "--m", "8", "--csv", str(csv)]) == 0
    report = scan(ClassSpec(6, 8))
    assert capsys.readouterr().out == _dict_tree_json(report)
    assert csv.read_text() == "\n".join(report.to_csv_rows()) + "\n"


def test_scan_footprint_stays_under_its_bound(monkeypatch):
    # tracemalloc's peak over a C(8, 14) scan from the CLI, after its
    # enumeration: the member pass with its DC memo, the classification and
    # the streamed JSON.  CPython 3.10-3.12 read 3.9-4.5 MB here; with the
    # memo's polynomials as row tuples and every member's report fields
    # kept as objects they read 5.5-5.7 MB, and with polynomials in dicts
    # keyed by exponent pairs, a count table kept per member and the report
    # dumped as one dict tree 12.8-13.2 MB
    scan_module = importlib.import_module("relpoly.scan")
    members = enumerate_class(ClassSpec(8, 14))
    # the enumeration runs untraced: its footprint is not what this bounds,
    # and under tracemalloc it alone would take several seconds
    monkeypatch.setattr(scan_module, "enumerate_class", lambda spec: members)
    gc.collect()
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["scan", "--n", "8", "--m", "14"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20, peak


def test_scan_report_keeps_no_member_objects():
    # the members are lines of the report's file, built anew on each
    # iteration; a scan that kept each member's report fields as objects
    # left 126 MemberReports here
    report = scan(ClassSpec(7, 12))
    assert not [obj for obj in gc.get_objects() if type(obj) is MemberReport]
    members = tuple(report.members)
    assert tuple(report.members) == members and len(report.members) == len(members) == 126
    # each iteration keeps its own place in the file
    assert all(a == b for a, b in zip(report.members, report.members))
    report.members.close()
    with pytest.raises(ValueError):
        next(iter(report.members))


def test_verify_section4_c44():
    report = scan(ClassSpec(4, 4))
    result = verify_section4(report)
    assert result.ok and not result.vacuous
    assert result.failures == ()


def test_verify_section4_small_sweep():
    for spec in (ClassSpec(5, 5), ClassSpec(5, 6), ClassSpec(5, 8), ClassSpec(6, 6)):
        report = scan(spec)
        result = verify_section4(report)
        if not result.vacuous:
            assert result.ok, result.failures


def test_whitney_max_members_dominate_every_k(tmp_path=None):
    # Whitney-maximum members carry every per-k domination flag
    for spec in (ClassSpec(4, 4), ClassSpec(5, 6), ClassSpec(6, 7)):
        report = scan(spec)
        for r in report.members:
            if r.whitney_max:
                assert all(r.k_umrg_by_domination)
