"""Graph types, connectivity, canonical labeling, and graph I/O.

Vertices are dense integer labels 0..n-1.  SimpleGraph stores sorted edge
pairs plus per-vertex adjacency bitmasks; MultiGraph adds multiplicities and
loops (deletion-contraction produces both even from simple inputs).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple

from .errors import BudgetError, DisconnectedGraphError, GraphFormatError

CENSUS_MAX_EDGES = 26


@dataclass(frozen=True)
class SimpleGraph:
    """Labeled simple graph: no loops, no parallel edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphFormatError(f"negative vertex count {self.n}")
        seen = set()
        norm = []
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"edge ({u}, {v}) is a loop")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for n={self.n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphFormatError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmask."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(mask.bit_count() for mask in self.adjacency))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        return SimpleGraph(self.n, self.edges + ((u, v),))

    def complement(self) -> "SimpleGraph":
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not self.has_edge(u, v)
        ]
        return SimpleGraph(self.n, tuple(edges))

    def relabel(self, perm) -> "SimpleGraph":
        """Apply vertex map u -> perm[u]."""
        return SimpleGraph(self.n, tuple((perm[u], perm[v]) for u, v in self.edges))

    def is_connected(self) -> bool:
        kappa, _ = components(self)
        return kappa <= 1


@dataclass(frozen=True)
class MultiGraph:
    """Multigraph with loops: edge classes (u, v, multiplicity), u <= v."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphFormatError(f"negative vertex count {self.n}")
        merged: dict[tuple[int, int], int] = {}
        for u, v, mult in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for n={self.n}")
            if mult < 1:
                raise GraphFormatError(f"multiplicity {mult} < 1 on edge ({u}, {v})")
            key = (u, v) if u <= v else (v, u)
            merged[key] = merged.get(key, 0) + mult
        object.__setattr__(
            self, "edges", tuple((u, v, c) for (u, v), c in sorted(merged.items()))
        )

    @classmethod
    def from_simple(cls, g: SimpleGraph) -> "MultiGraph":
        return cls(g.n, tuple((u, v, 1) for u, v in g.edges))

    @property
    def m(self) -> int:
        """Total edge count with multiplicity, loops included."""
        return sum(c for _, _, c in self.edges)

    def loop_counts(self) -> dict[int, int]:
        return {u: c for u, v, c in self.edges if u == v}

    def nonloop_edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((u, v, c) for u, v, c in self.edges if u != v)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        adj = [0] * self.n
        for u, v, _ in self.edges:
            if u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return tuple(adj)

    def relabel(self, perm) -> "MultiGraph":
        """Apply vertex map u -> perm[u]."""
        return MultiGraph(self.n, tuple((perm[u], perm[v], c) for u, v, c in self.edges))


Graph = SimpleGraph | MultiGraph


def components(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Component count and a vertex -> component-id labeling."""
    n = g.n
    if n == 0:
        return 0, ()
    adj = g.adjacency
    labels = [-1] * n
    kappa = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        frontier = 1 << start
        seen = frontier
        while frontier:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length() - 1
                labels[v] = kappa
                nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= nxt
        kappa += 1
    return kappa, tuple(labels)


def require_connected(g: Graph) -> None:
    """Refuse a graph that is not connected (the empty graph included)."""
    kappa, _ = components(g)
    if kappa != 1:
        raise DisconnectedGraphError(f"graph has {kappa} components; need a connected graph")


def rank_corank(g: Graph) -> tuple[int, int]:
    """(rank, corank) = (n - kappa, m - n + kappa)."""
    kappa, _ = components(g)
    return g.n - kappa, g.m - g.n + kappa


# ---------------------------------------------------------------------------
# Edge-subset census: the inner loop of every brute-force oracle.
# ---------------------------------------------------------------------------

def edge_subset_census(g: SimpleGraph) -> list[list[int]]:
    """counts[i][kappa] over all 2^m edge subsets of g, refused with
    BudgetError above CENSUS_MAX_EDGES edges.

    Walks the include/exclude tree with a rollback union-find.  Once a partial
    subset is connected, every completion stays connected, so the remaining
    subtree is folded in with binomial coefficients; every subset is still
    accounted for exactly once.
    """
    n, m = g.n, g.m
    if m > CENSUS_MAX_EDGES:
        raise BudgetError(
            f"subset census over 2^{m} subsets exceeds the 2^{CENSUS_MAX_EDGES} budget"
        )
    counts = [[0] * (n + 1) for _ in range(m + 1)]
    if m == 0:
        if n >= 0:
            counts[0][n if n else 0] += 1
        return counts

    # spanning-structure edges first so the connected early-out fires sooner
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    tree, rest = [], []
    for u, v in g.edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
        else:
            rest.append((u, v))
    order = tree + rest

    us = [e[0] for e in order]
    vs = [e[1] for e in order]
    parent = list(range(n))
    size = [1] * n
    binomials = [[comb(r, t) for t in range(r + 1)] for r in range(m + 1)]

    def rec(idx: int, i: int, kappa: int) -> None:
        if kappa == 1:
            row = binomials[m - idx]
            for t, ways in enumerate(row):
                counts[i + t][1] += ways
            return
        if idx == m:
            counts[i][kappa] += 1
            return
        rec(idx + 1, i, kappa)
        ru = us[idx]
        while parent[ru] != ru:
            ru = parent[ru]
        rv = vs[idx]
        while parent[rv] != rv:
            rv = parent[rv]
        if ru == rv:
            rec(idx + 1, i + 1, kappa)
        else:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            rec(idx + 1, i + 1, kappa - 1)
            parent[rv] = rv
            size[ru] -= size[rv]

    rec(0, 0, n)
    return counts


# ---------------------------------------------------------------------------
# Canonical labeling: color refinement + individualization search.
# ---------------------------------------------------------------------------

def _neighbor_lists(n, mult):
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), c in mult.items():
        nbrs[u].append((v, c))
        nbrs[v].append((u, c))
    return nbrs


def _refine(n, nbrs, cells):
    """Stable refinement of an ordered partition (cells of ascending
    vertices).  Each round splits every cell by the signatures of its
    vertices, the sorted (neighbor cell index, multiplicity) pairs, and puts
    the parts in place of the cell in signature order, so the cell order
    depends only on invariants."""
    while True:
        colors = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            sigs = [tuple(sorted([(colors[u], c) for u, c in nbrs[v]])) for v in cell]
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            if len(rank) == 1:
                split.append(cell)
                continue
            parts = [[] for _ in rank]
            for v, sig in zip(cell, sigs):
                parts[rank[sig]].append(v)
            split.extend(parts)
        if len(split) == len(cells):
            return cells
        cells = split


def _initial_cells(n, nbrs, loops):
    """Refined partition by loop count and sorted incident multiplicities."""
    cells: dict[tuple, list[int]] = {}
    for v in range(n):
        key = (loops.get(v, 0), tuple(sorted(c for _, c in nbrs[v])))
        cells.setdefault(key, []).append(v)
    return _refine(n, nbrs, [cells[key] for key in sorted(cells)])


def _orbit(seeds, gens):
    """Closure of a vertex set under a list of permutations."""
    orbit = set(seeds)
    stack = list(seeds)
    while stack:
        v = stack.pop()
        for gen in gens:
            w = gen[v]
            if w not in orbit:
                orbit.add(w)
                stack.append(w)
    return orbit


def _canon_search(n, mult, loops):
    """Minimal certificate, one labeling achieving it, and Aut generators.

    Returns (cert_bytes, position_to_vertex, generators), each generator a
    tuple mapping vertex v to its image.  The search individualizes each
    vertex of the first non-singleton cell and refines; every discrete
    partition reached (a leaf) orders the vertices, and the certificate is
    the least encoding over all leaves.  Refinement and cell choice use only
    invariants, so certificates of isomorphic graphs are equal.

    Automorphisms prune the tree (McKay & Piperno, "Practical graph
    isomorphism II", 2014).  A leaf encoding like the first or the best leaf
    so far yields an automorphism; it maps the earlier leaf's subtree, below
    the deepest node the two paths share, onto the current one, so the
    search backtracks straight to that node.  At a node reached by
    individualizing v1..vk, a branch vertex in the orbit of an explored
    sibling, under the automorphisms found so far that fix v1..vk, roots an
    image of that sibling's subtree and is skipped.  Every skipped leaf is
    the image of a visited one under the found automorphisms, so the least
    encoding is that of the unpruned search and the generators found
    generate the whole automorphism group.
    """
    nbrs = _neighbor_lists(n, mult)
    gens: list[tuple[int, ...]] = []
    first = best = None  # (cert, order, path) of the first and the least leaf

    def leaf(cells, path):
        """Record a leaf; return the depth to backtrack to, or None."""
        nonlocal first, best
        order = [cell[0] for cell in cells]
        cert = _encode(n, mult, loops, order)
        if first is None:
            first = best = (cert, order, path)
            return None
        for ref_cert, ref_order, ref_path in (first, best):
            if cert == ref_cert:
                image = [0] * n
                for a, b in zip(ref_order, order):
                    image[a] = b
                gens.append(tuple(image))
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                return depth
        if cert < best[0]:
            best = (cert, order, path)
        return None

    def search(cells, path):
        """Explore the node reached by individualizing path; return the depth
        of the ancestor to backtrack to, or None once the subtree is done."""
        at = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if at is None:
            return leaf(cells, path)
        target = cells[at]
        depth = len(path)
        explored: list[int] = []
        for v in target:
            if explored:
                stabilizer = [g for g in gens if all(g[u] == u for u in path)]
                if v in _orbit(explored, stabilizer):
                    continue
            explored.append(v)
            rest = [u for u in target if u != v]
            branched = cells[:at] + [[v], rest] + cells[at + 1 :]
            back = search(_refine(n, nbrs, branched), path + (v,))
            if back is not None and back < depth:
                return back
        return None

    search(_initial_cells(n, nbrs, loops), ())
    return best[0], tuple(best[1]), tuple(gens)


def _encode(n, mult, loops, order):
    """Adjacency encoding under a vertex order: n, the loop counts, then the
    upper triangle row by row.  One byte per value while every value is
    below 256; otherwise a 0 byte, a width byte w, and w-byte big-endian
    values.  The narrow form starts with the byte n, which is 0 only in the
    one-byte certificate of the empty graph, so the forms never collide."""
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    loop_row = [0] * n
    for v, c in loops.items():
        loop_row[pos[v]] = c
    tri = [0] * (n * (n - 1) // 2)
    for (u, v), c in mult.items():
        pu, pv = pos[u], pos[v]
        if pu > pv:
            pu, pv = pv, pu
        tri[pu * (2 * n - pu - 1) // 2 + pv - pu - 1] = c
    values = [n] + loop_row + tri
    top = max(values)
    if top < 256:
        return bytes(values)
    width = (top.bit_length() + 7) // 8
    return bytes([0, width]) + b"".join(x.to_bytes(width, "big") for x in values)


def _mult_and_loops(g: Graph):
    if isinstance(g, SimpleGraph):
        return {e: 1 for e in g.edges}, {}
    mult = {(u, v): c for u, v, c in g.edges if u != v}
    loops = g.loop_counts()
    return mult, loops


class CanonicalLabeling(NamedTuple):
    """Result of one canonical-labeling search of a graph."""

    cert: bytes  # equal for two graphs exactly when they are isomorphic
    graph: Graph  # the graph relabeled into canonical order, of its own type
    generators: tuple[tuple[int, ...], ...]  # generate Aut(graph); vertex -> image


def canonical_labeling(g: Graph) -> CanonicalLabeling:
    """Certificate, canonically labeled copy and generators of the copy's
    automorphism group, all from one search of g."""
    mult, loops = _mult_and_loops(g)
    cert, order, gens = _canon_search(g.n, mult, loops)
    pos = [0] * g.n
    for p, v in enumerate(order):
        pos[v] = p
    # gen maps v to gen[v] on g, so it maps p to pos[gen[order[p]]] on the copy
    copy_gens = tuple(tuple(pos[gen[v]] for v in order) for gen in gens)
    return CanonicalLabeling(cert, g.relabel(pos), copy_gens)


def canonical_form(g: Graph) -> bytes:
    """Certificate equal for two graphs exactly when they are isomorphic."""
    return canonical_labeling(g).cert


def canonical_relabel(g: Graph) -> Graph:
    """The canonically labeled copy of g."""
    return canonical_labeling(g).graph


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group, by refinement-constrained search."""
    n = g.n
    if n == 0:
        return 1
    mult, loops = _mult_and_loops(g)
    nbrs = _neighbor_lists(n, mult)
    cells = _initial_cells(n, nbrs, loops)

    def ok(perm) -> bool:
        for (u, v), c in mult.items():
            pu, pv = perm[u], perm[v]
            key = (pu, pv) if pu < pv else (pv, pu)
            if mult.get(key, 0) != c:
                return False
        for v in range(n):
            if loops.get(v, 0) != loops.get(perm[v], 0):
                return False
        return True

    count = 0
    perm = [0] * n
    for assignment in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        for cell, images in zip(cells, assignment):
            for v, w in zip(cell, images):
                perm[v] = w
        if ok(perm):
            count += 1
    return count


# ---------------------------------------------------------------------------
# graph6 encoding (n <= 62: single-byte size, 6-bit packed upper triangle).
# ---------------------------------------------------------------------------

def to_graph6(g: SimpleGraph) -> str:
    if g.n > 62:
        raise GraphFormatError("graph6 output limited to n <= 62")
    out = [chr(63 + g.n)]
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_graph6(text: str) -> SimpleGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"invalid graph6 byte {ch!r} at offset {off}")
    n = ord(s[0]) - 63
    if n == 63:
        raise GraphFormatError("multi-byte graph6 sizes (n > 62) not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise GraphFormatError(
            f"truncated graph6 string: need {need} data bytes, got {len(body)} (offset {len(s)})"
        )
    if len(body) > need:
        raise GraphFormatError(
            f"trailing data in graph6 string at offset {1 + need}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return SimpleGraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# Edge-list text format: header "n m", then m lines "u v".
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> SimpleGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"bad header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"bad header {lines[0]!r}: expected integers") from None
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex in {ln!r}") from None
    # SimpleGraph refuses a negative n, loops, labels out of range and duplicates
    return SimpleGraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# Built-in fixture graphs.
# ---------------------------------------------------------------------------

FIXTURE_MAX_VERTICES = 62

# fixture name -> number of integer parameters
_FIXTURE_PARAMS = {
    "cycle": 1,
    "path": 1,
    "complete": 1,
    "complete_bipartite": 2,
    "complete_minus_matching": 2,
    "figure1_G": 0,
    "figure1_H": 0,
}


def fixture(name: str, *params: int) -> SimpleGraph:
    """Built-in graphs: cycle, path, complete, complete_bipartite,
    complete_minus_matching, figure1_G, figure1_H.  Sizes are capped at
    n = 62, matching the graph6 scope of the toolkit; the cap is checked
    before any edge is built."""
    if name not in _FIXTURE_PARAMS:
        raise GraphFormatError(f"unknown fixture {name!r}")
    count = _FIXTURE_PARAMS[name]
    if len(params) != count:
        raise GraphFormatError(f"fixture {name!r} takes {count} parameter(s), got {len(params)}")
    # n is the first parameter, a + b for complete_bipartite, 8 for figure1_*
    n = sum(params) if name == "complete_bipartite" else params[0] if params else 8
    if n > FIXTURE_MAX_VERTICES:
        raise GraphFormatError(
            f"fixture {name!r} with n = {n} exceeds the n = {FIXTURE_MAX_VERTICES} scope"
        )
    return _build_fixture(name, params)


def _build_fixture(name: str, params) -> SimpleGraph:
    if name == "cycle":
        (n,) = params
        if n < 3:
            raise GraphFormatError("cycle needs n >= 3")
        return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
    if name == "path":
        (n,) = params
        if n < 1:
            raise GraphFormatError("path needs n >= 1")
        return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    if name == "complete":
        (n,) = params
        if n < 1:
            raise GraphFormatError("complete needs n >= 1")
        return SimpleGraph(n, tuple(itertools.combinations(range(n), 2)))
    if name == "complete_bipartite":
        a, b = params
        if a < 1 or b < 1:
            raise GraphFormatError("complete_bipartite needs both sides >= 1")
        return SimpleGraph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))
    if name == "complete_minus_matching":
        n, k = params
        if n < 1 or k < 0 or 2 * k > n:
            raise GraphFormatError("complete_minus_matching needs 0 <= 2k <= n")
        removed = {(2 * i, 2 * i + 1) for i in range(k)}
        edges = [e for e in itertools.combinations(range(n), 2) if e not in removed]
        return SimpleGraph(n, tuple(edges))
    base = [(i, 4 + j) for i in range(4) for j in range(4)]
    if name == "figure1_G":
        return SimpleGraph(8, tuple(base + [(0, 1), (2, 3)]))
    return SimpleGraph(8, tuple(base + [(2, 3), (6, 7)]))  # figure1_H
