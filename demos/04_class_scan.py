"""Exhaustive classification of whole classes C(n, m).

For each isomorphism class of connected (n, m)-graphs the scan derives the
count table and flags the strong, 0-element, Whitney-maximum, Tutte-maximum
and t-optimal members.  Entrywise table domination and division
certificates must flag the same strong set; both read the same Whitney
polynomials, so this checks the table reader and the division against each
other (tests/test_census_identity.py checks both against the subset census).

Run with --large to reproduce the full C(8, 18) result (about 5 seconds):
exactly one Whitney-maximum class, and no Tutte-maximum at all.
"""
import sys
import time

from relpoly import (
    ClassSpec,
    canonical_form,
    enumerate_class,
    fixture,
    parse_graph6,
    scan,
    verify_section4,
)


def show(spec):
    report = scan(spec)
    print(f"C({spec.n}, {spec.m}): {report.summary['class_size']} classes")
    for r in report.members:
        flags = [
            name
            for name, on in [
                ("strong", r.strong),
                ("0-element", r.zero_element),
                ("whitney-max", r.whitney_max),
                ("tutte-max", r.tutte_max),
                ("t-optimal", r.t_optimal),
            ]
            if on
        ]
        print(f"  {r.graph6:<8} t1={r.t1:<5} lambda1={r.lambda1} {' '.join(flags)}")
    print("  strong set == Whitney-maximum set:", report.theorem2_check)
    s4 = verify_section4(report)
    print("  invariant maxima check:", "vacuous" if s4.vacuous else ("ok" if s4.ok else s4.failures))
    print()


show(ClassSpec(4, 4))
show(ClassSpec(5, 6))

if "--large" in sys.argv:
    t0 = time.time()
    members = enumerate_class(ClassSpec(8, 18))
    print(f"C(8, 18) has {len(members)} classes "
          f"(enumerated via 10-edge complements in {time.time() - t0:.0f}s)")
    t0 = time.time()
    report = scan(ClassSpec(8, 18))
    wm = [r for r in report.members if r.whitney_max]
    print(f"scan finished in {time.time() - t0:.0f}s")
    print("Whitney-maximum classes:", [r.graph6 for r in wm])
    target = canonical_form(fixture("figure1_G"))
    print("that class is the K_{4,4}-plus-two-same-side-edges graph:",
          [canonical_form(parse_graph6(r.graph6)) == target for r in wm])
    print("Tutte-maximum classes:", [r.graph6 for r in report.members if r.tutte_max])
    print("strong set == Whitney-maximum set:", report.theorem2_check)
else:
    print("(pass --large for the full C(8, 18) reproduction)")
