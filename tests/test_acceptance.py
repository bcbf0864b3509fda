"""Acceptance suite: one test per shipping criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Everything asserted here is exact (integer or rational
equality) except the Monte Carlo criterion, which uses its stated 4-sigma
band.
"""
import hashlib
import json
import random
from fractions import Fraction
from math import comb, factorial

from conftest import class_graphs, random_connected_graph
from relpoly.cli import main as cli_main
from relpoly.counts import (
    ntable_bruteforce,
    ntable_from_whitney,
    rel_eval,
    reliability,
    reliability_via_tutte,
)
from relpoly.graphs import automorphism_count, canonical_form, fixture, parse_graph6
from relpoly.mc import cross_check
from relpoly.order import DOMINATES, EQUAL, compare_tutte_polys, compare_whitney_polys
from relpoly.poly import BivarPoly
from relpoly.scan import (
    ClassSpec,
    labeled_connected_count,
    scan,
    verify_section4,
)
from relpoly.tutte import tree_number_mtt, tutte_dc, tutte_expansion, whitney

FIGURE1_P_TERMS = [
    [0, 0, "-4"], [0, 1, "-15"], [0, 2, "-19"], [0, 3, "-8"],
    [1, 0, "-7"], [1, 1, "-12"], [1, 2, "9"], [1, 3, "24"], [1, 4, "12"], [1, 5, "4"],
    [2, 0, "-4"], [2, 1, "1"], [2, 2, "13"], [2, 3, "4"],
    [3, 0, "-1"], [3, 1, "2"], [3, 2, "1"],
]

C_8_18_CLASS_SIZE = 658  # pinned after the automorphism-count identity below
# sha256 of the stdout of `relpoly scan --n 8 --m 18`: the byte-identity gate
C_8_18_SCAN_SHA256 = "fa4163112f826e7c98556fa1ab724a41b141a1e8613ba66563e78e650cf6c6c4"


def _report(criterion, text):
    print(f"PASS [criterion {criterion}] {text}")


def _random_connected(rng, n_choices, m_cap=None):
    n = rng.choice(n_choices)
    m_max = n * (n - 1) // 2 if m_cap is None else min(m_cap, n * (n - 1) // 2)
    m = rng.randint(n - 1, m_max)
    return random_connected_graph(rng, n, m)


def all_connected_up_to_n5():
    for n in range(1, 6):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            yield from class_graphs(ClassSpec(n, m))


def test_criterion_1_frozen_tutte_quotient(capsys):
    code = cli_main(
        ["compare", "--g", "fixture:figure1_G", "--h", "fixture:figure1_H",
         "--order", "tutte"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NegativeQuotient"
    assert payload["quotient"] == FIGURE1_P_TERMS  # term for term, exact
    with capsys.disabled():
        _report(1, "tutte compare of the figure-1 pair reproduces P(x,y) exactly")


def test_criterion_2_whitney_domination(capsys):
    code = cli_main(
        ["compare", "--g", "fixture:figure1_G", "--h", "fixture:figure1_H",
         "--order", "whitney"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Dominates"
    quotient = BivarPoly.from_triples(payload["quotient"])
    assert quotient.is_nonnegative()
    g, h = fixture("figure1_G"), fixture("figure1_H")
    one_minus_xy = BivarPoly({(0, 0): 1, (1, 1): -1})
    assert one_minus_xy * quotient == whitney(g) - whitney(h)  # exact reconstruction
    with capsys.disabled():
        _report(2, "figure-1 Whitney difference factors as (1-xy) * nonnegative quotient")


def test_criterion_3_unique_whitney_maximum_in_c_8_18(capsys):
    code = cli_main(["scan", "--n", "8", "--m", "18"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == C_8_18_SCAN_SHA256
    payload = json.loads(out)
    assert payload["partial"] is False
    assert payload["summary"]["class_size"] == C_8_18_CLASS_SIZE
    assert payload["theorem2_check"] is True

    wm = [r for r in payload["members"] if r["whitney_max"]]
    strong = [r for r in payload["members"] if r["strong"]]
    assert len(wm) == 1
    assert {r["graph6"] for r in wm} == {r["graph6"] for r in strong}
    g_cert = canonical_form(fixture("figure1_G"))
    assert canonical_form(parse_graph6(wm[0]["graph6"])) == g_cert

    # independent exhaustiveness check of the enumeration behind the scan
    members = class_graphs(ClassSpec(8, 18))
    labeled = sum(factorial(8) // automorphism_count(g) for g in members)
    assert labeled == labeled_connected_count(8, 18)
    with capsys.disabled():
        _report(3, "C(8,18) scan: unique Whitney-maximum class = figure1_G, "
                   f"theorem2_check true ({C_8_18_CLASS_SIZE} classes)")


def test_criterion_4_count_table_oracle_equivalence(capsys):
    memo = {}
    checked = 0
    for g in all_connected_up_to_n5():
        table = ntable_from_whitney(whitney(g, memo=memo), g.n, g.m)
        assert table == ntable_bruteforce(g)
        for i in range(g.m + 1):
            assert sum(table.rows[i][1:]) == comb(g.m, i)
        checked += 1
    rng = random.Random(2024)
    for _ in range(50):
        g = _random_connected(rng, (6, 7))
        table = ntable_from_whitney(whitney(g, memo=memo), g.n, g.m)
        assert table == ntable_bruteforce(g)
        for i in range(g.m + 1):
            assert sum(table.rows[i][1:]) == comb(g.m, i)
        checked += 1
    with capsys.disabled():
        _report(4, f"Whitney-derived tables equal brute-force tables on {checked} graphs")


def test_criterion_5_engine_cross_validation(capsys):
    memo = {}
    checked = max_m = 0
    for g in all_connected_up_to_n5():
        assert tutte_dc(g, memo) == tutte_expansion(g)
        checked += 1
    rng = random.Random(501)
    for _ in range(100):
        g = _random_connected(rng, (6, 7, 8))
        assert tutte_dc(g, memo) == tutte_expansion(g)
        checked += 1
        max_m = max(max_m, g.m)
    rng = random.Random(502)
    for _ in range(100):
        g = _random_connected(rng, (4, 5, 6, 7, 8))
        assert whitney(g, memo).coeff(0, 0) == tree_number_mtt(g)
    with capsys.disabled():
        _report(5, "deletion-contraction equals the spanning-subgraph expansion "
                   f"(frontier-DP census) on {checked} graphs of up to {max_m} edges; "
                   "tree numbers match the determinant route on 100 more")


def test_criterion_6_tutte_reliability_identity(capsys):
    rng = random.Random(601)
    memo = {}
    points = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    for _ in range(50):
        g = _random_connected(rng, (3, 4, 5, 6, 7, 8), m_cap=20)
        table = ntable_from_whitney(whitney(g, memo=memo), g.n, g.m)
        rp = reliability(table, 1)
        for p in points:
            assert reliability_via_tutte(g, p) == rel_eval(rp, p)
    with capsys.disabled():
        _report(6, "Tutte-evaluation route equals the count-table route at "
                   "p in {1/3, 1/2, 2/3} on 50 random graphs, exactly")


def _pair_suite_classes():
    for n in range(2, 6):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            yield ClassSpec(n, m)
    for m in (6, 7, 8):
        yield ClassSpec(6, m)


def test_criterion_7_lemma1_and_lemma3_pair_suites(capsys):
    memo = {}
    pairs = 0
    for spec in _pair_suite_classes():
        members = class_graphs(spec)
        polys = [whitney(g, memo=memo) for g in members]
        tables = [ntable_from_whitney(w, spec.n, spec.m) for w in polys]
        for a in range(len(members)):
            for b in range(len(members)):
                rt = compare_tutte_polys(polys[a], polys[b])
                rw = compare_whitney_polys(polys[a], polys[b])
                if rt.verdict in (EQUAL, DOMINATES):
                    assert rw.verdict in (EQUAL, DOMINATES)  # Tutte order refines Whitney
                if rw.verdict in (EQUAL, DOMINATES):
                    pa, pb = tables[a].prefix, tables[b].prefix
                    assert all(
                        pa[i][k] >= pb[i][k]
                        for i in range(spec.m + 1)
                        for k in range(1, spec.n + 1)
                    )
                pairs += 1
    with capsys.disabled():
        _report(7, f"domination implications verified over {pairs} ordered pairs")


def test_criterion_8_invariant_maxima_in_scanned_classes(capsys):
    scanned = 0
    nonvacuous = 0
    for spec in _pair_suite_classes():
        if spec.n == 1:
            continue
        report = scan(spec)
        assert report.theorem2_check
        outcome = verify_section4(report)
        assert outcome.ok, outcome.failures
        scanned += 1
        if not outcome.vacuous:
            nonvacuous += 1

    report = scan(ClassSpec(4, 4))
    by_strong = {r.strong: r for r in report.members}
    assert by_strong[True].lambda1 == 2  # the 4-cycle
    assert by_strong[False].lambda1 == 1  # the paw
    assert by_strong[True].zero_element and by_strong[True].whitney_max
    with capsys.disabled():
        _report(8, f"Whitney-maximum members attain max lambda^(k), max t_k and "
                   f"mu-lex minimum in all {nonvacuous}/{scanned} applicable classes")


def test_criterion_9_monte_carlo_cross_check(capsys):
    rng = random.Random(901)
    for trial in range(20):
        g = _random_connected(rng, (4, 5, 6, 7), m_cap=16)
        k = rng.randint(1, g.n)
        p = Fraction(rng.randint(1, 9), 10)
        report = cross_check(g, k, p, trials=100_000, seed=9000 + trial)
        assert report.passed, (g, k, p, report)
    base = cross_check(
        fixture("cycle", 4), 1, Fraction(1, 2), trials=100_000, seed=77
    )
    corrupted = cross_check(
        fixture("cycle", 4), 1, Fraction(1, 2), trials=100_000, seed=77,
        exact=base.exact + Fraction(1, 100),
    )
    assert base.passed and not corrupted.passed
    with capsys.disabled():
        _report(9, "20 random configurations agree within 4 sigma at 1e5 trials; "
                   "corrupted control fails")
