"""Spanning-subgraph count tables and exact k-reliability.

N_{i,j} counts spanning subgraphs with i edges and exactly j components.
The table is read straight off the Whitney polynomial's coefficients and
double-checked against the census of all 2^m edge subsets, which a
frontier DP counts without deletion-contraction; reliability polynomials,
the mu-vector, and the connectivity invariants all derive from it.
"""
from fractions import Fraction

from relpoly import (
    SimpleGraph,
    bernstein_certify,
    fixture,
    lambda_k,
    mu_vector,
    ntable_bruteforce,
    ntable_from_whitney,
    rel_eval,
    reliability,
    reliability_via_tutte,
    t_k,
    whitney,
)
from relpoly.counts import CERTIFY_DEPTH

c4 = fixture("cycle", 4)
table = ntable_from_whitney(whitney(c4), c4.n, c4.m)
print("N table of the 4-cycle (rows i = 0..4, columns j = 1..4):")
for i, row in enumerate(table.rows):
    print(f"  i={i}: {list(row[1:])}")
print("equals the subset census:", table == ntable_bruteforce(c4))
print("mu-vector:", mu_vector(table))
print("lambda^(k):", [lambda_k(table, k) for k in range(1, 5)],
      "(None: removing edges can never force more than n components)")
print("t_k:", [t_k(table, k) for k in range(1, 5)])
print()

for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
    via_table = rel_eval(reliability(table, 1), p)
    via_tutte = reliability_via_tutte(c4, p)
    print(f"connectedness probability at p={p}: {via_table} "
          f"(Tutte route agrees: {via_tutte == via_table})")
print()

# Bernstein-basis sign certification of a reliability difference
paw = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
paw_table = ntable_from_whitney(whitney(paw), 4, 4)
print("R_C4 coefficients (N_i^(1), i = 0..4):", reliability(table, 1))
delta = [a - b for a, b in zip(reliability(table, 1), reliability(paw_table, 1))]
print("R_C4 - R_paw coefficient differences:", delta)
print(f"certified on [0,1] (subdividing at most {CERTIFY_DEPTH} times):",
      bernstein_certify(delta).status)
back = bernstein_certify([-d for d in delta])
print("reverse direction:", back.status, "at p =", back.witness)
