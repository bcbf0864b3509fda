"""Exact graph-polynomial and network-reliability workbench.

Computes Tutte/Whitney polynomials of small graphs by two independent
routes, derives spanning-subgraph count tables and k-reliability
polynomials from them, certifies Whitney/Tutte domination between graphs
by exact polynomial division, and exhaustively classifies whole classes
C(n, m) of connected graphs.
"""

from .counts import (
    CertifyOutcome,
    MuVector,
    NTable,
    ReliabilityPoly,
    bernstein_certify,
    lambda_k,
    mu_lex_compare,
    mu_vector,
    n_leq,
    ntable_bruteforce,
    ntable_from_whitney,
    rel_eval,
    reliability,
    reliability_via_tutte,
    t_k,
)
from .errors import (
    BudgetError,
    DimensionMismatchError,
    DisconnectedGraphError,
    EmptyClassError,
    GraphFormatError,
    ParameterError,
    TableConsistencyError,
)
from .graphs import (
    MultiGraph,
    SimpleGraph,
    automorphism_count,
    canonical_form,
    canonical_relabel,
    components,
    edge_subset_census,
    fixture,
    parse_edge_list,
    parse_graph6,
    rank_corank,
    to_graph6,
)
from .mc import CrossCheckReport, McEstimate, cross_check, estimate
from .order import (
    MaximumCertificate,
    OrderResult,
    certify_maximum,
    divide_one_minus_xy,
    tutte_compare,
    whitney_compare,
)
from .poly import BivarPoly
from .scan import (
    ClassReport,
    ClassSpec,
    enumerate_class,
    labeled_connected_count,
    scan,
    verify_section4,
)
from .tutte import (
    forest_gen,
    tree_number,
    tree_number_mtt,
    tutte_dc,
    tutte_expansion,
    whitney,
    whitney_expansion,
)

__version__ = "0.1.0"
