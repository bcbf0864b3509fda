"""The graph type, connectivity, canonical labeling, and graph I/O.

Vertices are dense integer labels 0..n-1.  SimpleGraph stores sorted edge
pairs plus per-vertex adjacency bitmasks.  Canonical labeling works on an
edge-multiplicity dict, so it also labels the multigraph cores that
deletion-contraction (relpoly.tutte) makes by contracting.
"""
from __future__ import annotations

import itertools

from .errors import BudgetError, DisconnectedGraphError, GraphFormatError

CENSUS_MAX_WIDTH = 10  # frontier vertices; the DP's states grow like Bell(width)


class _Frozen:
    """Base of relpoly's immutable __slots__ value types: __init__ sets each
    field once with object.__setattr__, and nothing assigns it again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class SimpleGraph(_Frozen):
    """Labeled simple graph: no loops, no parallel edges.  Its edge pairs
    are stored sorted, so two graphs are equal (and hash alike) exactly
    when they have the same n and edge set."""

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        if n < 0:
            raise GraphFormatError(f"negative vertex count {n}")
        adj = [0] * n  # per-vertex neighbor bitmask, built once with the graph
        norm = []
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"edge ({u}, {v}) is a loop")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if adj[u] >> v & 1:
                raise GraphFormatError(f"duplicate edge {e}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            norm.append(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "adjacency", tuple(adj))

    def __eq__(self, other):
        if other.__class__ is not SimpleGraph:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n!r}, edges={self.edges!r})"

    @property
    def m(self) -> int:
        return len(self.edges)

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


def components(g: SimpleGraph) -> tuple[int, tuple[int, ...]]:
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


def require_connected(g: SimpleGraph) -> None:
    """Refuse a graph that is not connected (the empty graph included)."""
    kappa, _ = components(g)
    if kappa != 1:
        raise DisconnectedGraphError(f"graph has {kappa} components; need a connected graph")


# ---------------------------------------------------------------------------
# Edge-subset census: the inner loop of every brute-force oracle.
# ---------------------------------------------------------------------------

def edge_subset_census(g: SimpleGraph) -> list[list[int]]:
    """counts[i][kappa]: the number of i-edge subsets of g whose spanning
    subgraph has kappa components, over all 2^m subsets.  Refused with
    BudgetError when the frontier of the DP is wider than CENSUS_MAX_WIDTH,
    before any state is built.

    A connectivity-state ("frontier") DP after Sekine, Imai & Tani,
    "Computing the Tutte polynomial of a graph of moderate size" (ISAAC
    1995); it shares no code with deletion-contraction or canonical
    labeling, so it stays an independent oracle for both.
    """
    steps, width = _census_schedule(g)
    if width > CENSUS_MAX_WIDTH:
        raise BudgetError(
            f"subset census with a frontier of {width} vertices exceeds the "
            f"width budget of {CENSUS_MAX_WIDTH}"
        )
    return _census_dp(g.n, g.m, steps)


def _census_schedule(g: SimpleGraph):
    """The steps of the census DP and the width of its frontier.

    Vertices come in BFS order: each component from a vertex of least degree
    (least label on ties), neighbors by ascending label.  Each vertex enters
    the frontier, joins the earlier endpoints of its edges one edge at a
    time, and every frontier vertex whose last edge that was leaves.  A step
    is (the frontier slots of those earlier endpoints, the slots that stay,
    or None when no vertex leaves); the width is the largest frontier, the
    entering vertex included.
    """
    n, adj = g.n, g.adjacency
    pos = [-1] * n
    order: list[int] = []
    for start in sorted(range(n), key=lambda v: (adj[v].bit_count(), v)):
        if pos[start] >= 0:
            continue
        pos[start] = len(order)
        order.append(start)
        head = len(order) - 1
        while head < len(order):
            nbrs = adj[order[head]]
            head += 1
            while nbrs:
                bit = nbrs & -nbrs
                nbrs ^= bit
                w = bit.bit_length() - 1
                if pos[w] < 0:
                    pos[w] = len(order)
                    order.append(w)
    last = list(range(n))  # position of each vertex's last neighbor, or its own
    earlier: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        a, b = sorted((pos[u], pos[v]))
        earlier[b].append(a)
        last[a] = max(last[a], b)
    steps = []
    frontier: list[int] = []  # positions of the frontier vertices, by slot
    width = 0
    for k in range(n):
        frontier.append(k)
        width = max(width, len(frontier))
        joins = [frontier.index(a) for a in sorted(earlier[k])]
        keep = [slot for slot, p in enumerate(frontier) if last[p] > k]
        steps.append((joins, keep if len(keep) < len(frontier) else None))
        frontier = [frontier[slot] for slot in keep]
    return steps, width


def _census_dp(n: int, m: int, steps) -> list[list[int]]:
    """Run the frontier DP over the schedule of _census_schedule.

    A state is (the partition of the frontier into components, as block
    labels per slot relabeled by first occurrence, the number of components
    already closed).  Its value packs the subset counts by edges taken into
    one integer, m + 1 bits per count: no count exceeds 2^m, so taking an
    edge is a shift and adding two values never carries between counts.
    A leaving vertex closes a component when no staying vertex shares its
    block, so an isolated vertex closes one as soon as it enters.
    """
    bits = m + 1
    states: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    for joins, keep in steps:
        states = {(s + (max(s, default=-1) + 1,), c): val for (s, c), val in states.items()}
        for a in joins:
            nxt: dict[tuple[tuple[int, ...], int], int] = {}
            get = nxt.get
            for key, val in states.items():
                s, c = key
                la, lb = s[a], s[-1]
                if la == lb:  # a cycle edge: the partition stays
                    nxt[key] = get(key, 0) + val + (val << bits)
                    continue
                nxt[key] = get(key, 0) + val
                lo, hi = (la, lb) if la < lb else (lb, la)
                merged = (tuple(lo if x == hi else x - (x > hi) for x in s), c)
                nxt[merged] = get(merged, 0) + (val << bits)
            states = nxt
        if keep is None:
            continue
        nxt = {}
        for (s, c), val in states.items():
            kept = [s[slot] for slot in keep]
            relabel: dict[int, int] = {}
            t = tuple([relabel.setdefault(x, len(relabel)) for x in kept])
            key = (t, c + max(s) + 1 - len(relabel))
            nxt[key] = nxt.get(key, 0) + val
        states = nxt
    counts = [[0] * (n + 1) for _ in range(m + 1)]
    mask = (1 << bits) - 1
    for ((), kappa), val in states.items():
        for i in range(m + 1):
            counts[i][kappa] = val >> (bits * i) & mask
    return counts


# ---------------------------------------------------------------------------
# Canonical labeling: color refinement + individualization search.
# ---------------------------------------------------------------------------

def _neighbor_lists(n, mult):
    """nbrs[v]: (neighbor, weight) pairs.  Weights order like the
    multiplicities and stay below n * n, which _refine relies on: they are
    the multiplicities, or their ranks among the graph's distinct ones
    counted from 1 when some multiplicity reaches n * n."""
    if max(mult.values(), default=0) >= n * n:
        rank = {c: r for r, c in enumerate(sorted(set(mult.values())), 1)}
        mult = {e: rank[c] for e, c in mult.items()}
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), c in mult.items():
        nbrs[u].append((v, c))
        nbrs[v].append((u, c))
    return nbrs


def _refine(n, nbrs, cells, touched=None):
    """Stable refinement of an ordered partition (cells of ascending
    vertices).  Each round splits every cell by the signatures of its
    vertices, the sorted (neighbor cell index, edge weight) pairs, and puts
    the parts in place of the cell in signature order, so the cell order
    depends only on invariants.  A pair is held as the one integer
    index * n * n + weight, which orders as the pair does.

    A round re-signs only the touched vertices and yields the partition that
    re-signing every vertex would.  The parts that touch are those McKay
    ("Practical graph isomorphism", 1981) queues as splitters, every part of
    a split cell but its largest; here they only decide who is re-signed,
    so the cell order is unchanged.

    * Rule 1.  After a round, each cell is uniform under the signatures it
      was split by.  Call the largest part of a cell that split its kept
      part, and a vertex touched when it has a neighbor in any other part of
      a split cell.  An untouched vertex's neighbors in a split cell all
      went to the kept part, so its new signature is its old one under a
      renumbering of the cells that is the same for every untouched vertex:
      the untouched vertices of a cell share a signature.  A cell signs one
      untouched vertex for all of them, re-signs its touched ones, and is
      skipped when none is touched.
    * Rule 2.  The caller names the first round's touched set.  A search
      branch splits a cell of an equitable partition into [v] and the rest,
      so it passes v's neighbors; None, for a partition that is not
      equitable, re-signs every vertex.

    A round costs the touched vertices' degrees, plus a pass over the cells
    and the renumbering of the cells after the first split.
    """
    top = n * n
    colors = [0] * n  # top * cell index
    fresh = 0  # cells before this index kept their index in the last round
    while True:
        for i in range(fresh, len(cells)):
            for v in cells[i]:
                colors[v] = i * top
        split = []
        moved = []  # vertices of the split cells' parts other than the largest
        fresh = None
        for cell in cells:
            if len(cell) == 1 or touched is not None and touched.isdisjoint(cell):
                split.append(cell)
                continue
            if touched is None or touched.issuperset(cell):
                sigs = [tuple(sorted([colors[u] + c for u, c in nbrs[v]])) for v in cell]
            else:
                w = next(v for v in cell if v not in touched)
                shared = tuple(sorted([colors[u] + c for u, c in nbrs[w]]))
                sigs = [
                    tuple(sorted([colors[u] + c for u, c in nbrs[v]])) if v in touched else shared
                    for v in cell
                ]
            distinct = set(sigs)
            if len(distinct) == 1:
                split.append(cell)
                continue
            if fresh is None:
                fresh = len(split)
            rank = {sig: i for i, sig in enumerate(sorted(distinct))}
            parts = [[] for _ in rank]
            for v, sig in zip(cell, sigs):
                parts[rank[sig]].append(v)
            split.extend(parts)
            largest = max(parts, key=len)
            for part in parts:
                if part is not largest:
                    moved.extend(part)
        if fresh is None:
            return cells
        cells = split
        touched = {u for v in moved for u, _ in nbrs[v]}
        if len(touched) == n:
            touched = None


def _initial_cells(n, nbrs):
    """Refined partition by sorted incident edge weights."""
    cells: dict[tuple, list[int]] = {}
    for v in range(n):
        key = tuple(sorted([c for _, c in nbrs[v]]))
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


def _canon_search(n, mult):
    """Minimal certificate, one labeling achieving it, and Aut generators:
    the one canonical search, behind canonical_form, canonical_relabel,
    enumeration and the deletion-contraction memo keys.

    Returns (cert_bytes, position_to_vertex, generators), the order and
    each generator (a tuple mapping vertex v to its image) on the input's
    own vertex labels.  The search individualizes each vertex of the first
    non-singleton cell and refines; every discrete partition reached (a
    leaf) orders the vertices, and the certificate is the least encoding
    over all leaves.  Refinement and cell choice use only invariants, so
    certificates of isomorphic graphs are equal.

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
        cert = _encode(n, mult, order)
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
            # rule 2: the split keeps rest, so v's neighbors are the touched set
            touched = {u for u, _ in nbrs[v]}
            back = search(_refine(n, nbrs, branched, touched), path + (v,))
            if back is not None and back < depth:
                return back
        return None

    search(_initial_cells(n, nbrs), ())
    return best[0], tuple(best[1]), tuple(gens)


def _encode(n, mult, order):
    """Adjacency encoding under a vertex order: n, then the upper triangle
    of multiplicities row by row.  One byte per value while every value is
    below 256; otherwise a 0 byte, a width byte w, and w-byte big-endian
    values.  The narrow form starts with the byte n, which is 0 only in the
    one-byte certificate of the empty graph, so the forms never collide."""
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    tri = [0] * (n * (n - 1) // 2)
    for (u, v), c in mult.items():
        pu, pv = pos[u], pos[v]
        if pu > pv:
            pu, pv = pv, pu
        tri[pu * (2 * n - pu - 1) // 2 + pv - pu - 1] = c
    values = [n] + tri
    top = max(values)
    if top < 256:
        return bytes(values)
    width = (top.bit_length() + 7) // 8
    return bytes([0, width]) + b"".join(x.to_bytes(width, "big") for x in values)


def _decode(code):
    """(n, classes) of the multigraph that _encode(n, mult, range(n)) wrote
    as code: the classes (u, v, mult), u < v, in ascending order."""
    if len(code) > 1 and code[0] == 0:
        width = code[1]
        values = [int.from_bytes(code[i : i + width], "big") for i in range(2, len(code), width)]
    else:
        values = code
    n = values[0]
    tri = values[1:]
    pairs = itertools.combinations(range(n), 2)  # the upper triangle, row by row
    return n, tuple((u, v, c) for (u, v), c in itertools.compress(zip(pairs, tri), tri))


def _multiplicities(g: SimpleGraph) -> dict[tuple[int, int], int]:
    return {e: 1 for e in g.edges}


def canonical_form(g: SimpleGraph) -> bytes:
    """Certificate equal for two graphs exactly when they are isomorphic."""
    return _canon_search(g.n, _multiplicities(g))[0]


def canonical_relabel(g: SimpleGraph) -> SimpleGraph:
    """The canonically labeled copy of g."""
    return _in_order(g, _canon_search(g.n, _multiplicities(g))[1])


def _in_order(g: SimpleGraph, order) -> SimpleGraph:
    """The copy of g whose vertex p is order[p]: g relabeled by the
    order's inverse."""
    return g.relabel(sorted(range(g.n), key=order.__getitem__))


def automorphism_count(g: SimpleGraph) -> int:
    """Order of the automorphism group, by refinement-constrained search."""
    n = g.n
    if n == 0:
        return 1
    mult = _multiplicities(g)
    nbrs = _neighbor_lists(n, mult)
    cells = _initial_cells(n, nbrs)

    def ok(perm) -> bool:
        for (u, v), c in mult.items():
            pu, pv = perm[u], perm[v]
            key = (pu, pv) if pu < pv else (pv, pu)
            if mult.get(key, 0) != c:
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
