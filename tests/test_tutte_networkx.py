"""tutte_dc against networkx's tutte_polynomial.

networkx computes the Tutte polynomial by its own deletion-contraction over
sympy expressions and shares no code with relpoly.  The graphs are built by
networkx's generators and have 8 to 10 vertices, so none of them is in the
n <= 7 range that the class scans and the census tests cover.  The
circulant C9(1, 3) is left out: networkx took about 12 s on it.
"""
import importlib

import pytest

nx = pytest.importorskip("networkx")
sympy = pytest.importorskip("sympy")

from relpoly.graphs import SimpleGraph  # noqa: E402
from relpoly.poly import BivarPoly  # noqa: E402

tutte_module = importlib.import_module("relpoly.tutte")

GRAPHS = {
    "cube Q3": nx.hypercube_graph(3),
    "Wagner": nx.circulant_graph(8, [1, 4]),
    "2x5 ladder": nx.ladder_graph(5),
    "Petersen": nx.petersen_graph(),
    "K3,5": nx.complete_bipartite_graph(3, 5),
    "3x3 grid": nx.grid_2d_graph(3, 3),
}


def to_simple(h) -> SimpleGraph:
    h = nx.convert_node_labels_to_integers(h, ordering="sorted")
    return SimpleGraph(h.number_of_nodes(), tuple(h.edges()))


@pytest.fixture(scope="module")
def networkx_polys() -> dict[str, BivarPoly]:
    x, y = sympy.symbols("x y")
    polys = {}
    for name, h in GRAPHS.items():
        poly = sympy.Poly(nx.tutte_polynomial(h), x, y)
        polys[name] = BivarPoly({exps: int(c) for exps, c in poly.terms()})
    return polys


def disagreements(networkx_polys) -> list[str]:
    """The graphs on which relpoly.tutte.tutte_dc differs from networkx."""
    return [
        name
        for name, h in GRAPHS.items()
        if tutte_module.tutte_dc(to_simple(h)) != networkx_polys[name]
    ]


def test_tutte_dc_equals_networkx(networkx_polys):
    assert all(h.number_of_nodes() >= 8 for h in GRAPHS.values())
    assert disagreements(networkx_polys) == []


def test_a_perturbed_tutte_dc_fails(monkeypatch, networkx_polys):
    # negative control: one coefficient of the Petersen graph's T is off by one
    real = tutte_module.tutte_dc
    petersen_edges = to_simple(GRAPHS["Petersen"]).edges

    def perturbed(g, memo=None, **kwargs):
        t = real(g, memo, **kwargs)
        return t + BivarPoly({(1, 1): 1}) if g.edges == petersen_edges else t

    monkeypatch.setattr(tutte_module, "tutte_dc", perturbed)
    assert disagreements(networkx_polys) == ["Petersen"]
