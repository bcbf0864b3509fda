"""Tutte and Whitney polynomials, computed two independent ways.

The subgraph-expansion route counts all 2^m edge subsets by edges and
components in a frontier DP; those counts are the coefficients of the
Whitney polynomial W, and T(x, y) = W(x - 1, y - 1) is one shift back.  The
deletion-contraction route runs with an isomorphism-keyed memo and
factors over biconnected blocks.  They must agree exactly, and the
classical specializations fall out of the Whitney polynomial.
"""
from relpoly import (
    fixture,
    ntable_from_whitney,
    t_k,
    tree_number_mtt,
    tutte_dc,
    tutte_expansion,
    whitney,
)

triangle = fixture("cycle", 3)
print("triangle, by expansion:          ", tutte_expansion(triangle))
print("triangle, by deletion-contraction:", tutte_dc(triangle))
print("Whitney polynomial W = T(x+1, y+1):", whitney(triangle))
print()

k4 = fixture("complete", 4)
w_k4 = whitney(k4)
table = ntable_from_whitney(w_k4, k4.n, k4.m)
print("K4 spanning trees via W(0,0):      ", w_k4.coeff(0, 0))
print("K4 spanning trees via determinant: ", tree_number_mtt(k4))
print("K4 spanning forests by tree count: ", [t_k(table, k) for k in range(1, k4.n + 1)])
print()

g = fixture("figure1_G")
memo = {}
t_g = tutte_dc(g, memo)
print(f"dense 8-vertex example: {t_g.num_terms()} Tutte terms, "
      f"{len(memo)} memoized minors")
print("matches the expansion over all 2^18 subsets:", t_g == tutte_expansion(g))
print("tree number:", whitney(g, memo).coeff(0, 0), "==", tree_number_mtt(g), "(determinant route)")

k9 = fixture("complete", 9)
print("K9 (36 edges, 2^36 subsets): expansion equals deletion-contraction:",
      tutte_expansion(k9) == tutte_dc(k9))
