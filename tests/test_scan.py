"""Class enumeration and full-class scans."""
import hashlib
import importlib
import json
from collections import Counter
from math import factorial

import pytest

from conftest import all_labeled_graphs
from relpoly.cli import main
from relpoly.errors import BudgetError, EmptyClassError
from relpoly.graphs import (
    SimpleGraph,
    automorphism_count,
    canonical_form,
    fixture,
    parse_graph6,
)
from relpoly.order import DOMINATES, OrderResult, compare_tutte_polys, compare_whitney_polys
from relpoly.scan import (
    ClassSpec,
    _graphs_with_edges,
    enumerate_class,
    labeled_connected_count,
    scan,
    verify_section4,
)
from relpoly.tutte import whitney


def brute_class_certs(n, m):
    """Independent dedup generator: all labeled graphs, canonical certs."""
    return {
        canonical_form(g) for g in all_labeled_graphs(n, m) if g.is_connected()
    }


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
    c44 = enumerate_class(ClassSpec(4, 4))
    assert len(c44) == 2
    certs = {canonical_form(g) for g in c44}
    paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert certs == {canonical_form(fixture("cycle", 4)), canonical_form(paw)}


def test_enumerate_members_are_canonical_sorted_connected():
    members = enumerate_class(ClassSpec(5, 6))
    certs = [canonical_form(g) for g in members]
    assert certs == sorted(certs)
    assert len(set(certs)) == len(members)
    for g in members:
        assert g.is_connected()
        assert (g.n, g.m) == (5, 6)


def test_enumeration_matches_bruteforce_dedup():
    for n in range(2, 6):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            got = {canonical_form(g) for g in enumerate_class(ClassSpec(n, m))}
            assert got == brute_class_certs(n, m), (n, m)


def test_dense_complement_route_matches_direct():
    # C(6, 10) is enumerated via 5-edge complements; check against the
    # direct generator over 10-edge graphs
    via_complement = {canonical_form(g) for g in enumerate_class(ClassSpec(6, 10))}
    direct = {
        canonical_form(g)
        for g in _graphs_with_edges(6, 10)
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
            members = enumerate_class(ClassSpec(n, m))
            labeled = sum(factorial(n) // automorphism_count(g) for g in members)
            assert labeled == labeled_connected_count(n, m), (n, m)


def test_c98_trees_by_automorphism_identity():
    members = enumerate_class(ClassSpec(9, 8))
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
            members = enumerate_class(ClassSpec(n, m))
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

    def spy(g, memo):
        memos.append(memo)
        sizes.append(len(memo))
        return original(g, memo)

    monkeypatch.setattr(scan_module, "_member_data", spy)
    scan(ClassSpec(5, 6))
    first = len(memos)
    scan(ClassSpec(5, 6))
    assert all(memo is memos[0] for memo in memos[:first])
    assert len(memos[0]) > 0  # the first scan filled its memo
    assert sizes[0] == sizes[first] == 0
    assert memos[first] is not memos[0]


def test_scan_c44_flags():
    report = scan(ClassSpec(4, 4))
    assert report.summary["class_size"] == 2
    assert not report.partial
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
    # negative control: a Whitney order that calls every pair Dominates makes
    # every member Whitney-maximum, and C(5, 6) has members that are not
    # strong, so the check must fail rather than certify only strong members
    scan_module = importlib.import_module("relpoly.scan")
    monkeypatch.setattr(
        scan_module, "compare_whitney_polys", lambda w_g, w_h: OrderResult(DOMINATES)
    )
    report = scan(ClassSpec(5, 6))
    assert not report.theorem2_check
    assert not all(r.strong for r in report.members)
    assert all(r.whitney_max for r in report.members)


def test_maxima_flags_match_pairwise_oracle():
    # every ordered pair compared, no short-circuit
    for n in range(1, 7):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            spec = ClassSpec(n, m)
            polys = [whitney(g) for g in enumerate_class(spec)]
            oracle = {}
            for name, compare in (("whitney_max", compare_whitney_polys),
                                  ("tutte_max", compare_tutte_polys)):
                verdicts = [[compare(p, q).ok() for q in polys] for p in polys]
                oracle[name] = [all(row) for row in verdicts]
            report = scan(spec)
            for name, flags in oracle.items():
                assert [getattr(r, name) for r in report.members] == flags, (n, m, name)


def test_full_scan_tries_the_last_refuter_first(monkeypatch):
    # C(7, 10) has one Whitney-maximum member among 132.  Certifying each
    # member with all() in member order made 1,354 Whitney and 1,354 Tutte
    # compares; with the refuters tried first, and the Tutte pass run on the
    # Whitney maximum only, it makes 497 and 131.
    member_order_compares = 1354 + 1354
    scan_module = importlib.import_module("relpoly.scan")
    calls = []
    for name in ("compare_whitney_polys", "compare_tutte_polys"):
        original = getattr(scan_module, name)

        def spy(w_g, w_h, original=original):
            calls.append(1)
            return original(w_g, w_h)

        monkeypatch.setattr(scan_module, name, spy)
    report = scan(ClassSpec(7, 10))
    assert report.summary["whitney_max"] == 1
    assert len(calls) < member_order_compares


def test_scan_limit_smoke_mode():
    report = scan(ClassSpec(5, 6), limit=2)
    assert report.partial
    assert report.summary["class_size"] == 2
    full = scan(ClassSpec(5, 6))
    assert not full.partial
    assert [r.graph6 for r in report.members] == [r.graph6 for r in full.members[:2]]


def test_scan_report_serialization():
    report = scan(ClassSpec(4, 4))
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    again = json.dumps(scan(ClassSpec(4, 4)).to_json_dict(), sort_keys=True)
    assert blob == again
    rows = report.to_csv_rows()
    assert rows[0] == "graph6,strong,zero_element,whitney_max,tutte_max,t_optimal,t1,lambda1"
    assert len(rows) == 3


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
