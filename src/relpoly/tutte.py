"""Tutte and Whitney polynomials by two independent routes.

whitney_expansion reads W off the frontier-DP census of relpoly.graphs, which
counts all 2^m spanning subgraphs by edges and components, and
tutte_expansion is W shifted back, T(x, y) = W(x - 1, y - 1); tutte_dc runs
deletion-contraction on canonical copies, so its work depends only on the
isomorphism class.  Its memo maps bytes to bytes.  A block is looked up first
by its own encoding, the certificate layout of relpoly.graphs under the
identity order, which needs no search; only on a miss is it searched for its
certificate, the encoding of its canonical copy.  Equal bytes always name the
same labeled multigraph, so one dict holds both kinds of key.  A value is the
polynomial's coefficient rows packed by marshal: the 1,751 distinct values
of a C(8, 18) scan take 0.38 MB packed, against 1.17 MB as row tuples.  Only
_dc_block packs and unpacks them.

DC contracts a whole parallel class at once, so no minor has a loop.  It
factors over biconnected blocks (a parallel class on no cycle is a block,
with factor x + y + ... + y^(c-1)) and short-circuits parallel classes and
plain cycles.  The design follows Haggard, Pearce & Royle, "Computing Tutte
polynomials" (ACM TOMS 2010).  _dc and _expand are generators that yield the
work of each sub-core, and _run drives them from a list, so the depth DC
reaches is bounded by memory, not by the interpreter's recursion limit.
"""
from __future__ import annotations

import marshal

from .graphs import (
    SimpleGraph,
    _canon_search,
    _decode,
    _encode,
    components,
    edge_subset_census,
    require_connected,
)
from .poly import BivarPoly

# The one multigraph of the package: a core (n, edges), where edges is a
# sorted tuple of parallel classes (u, v, mult), u < v, mult >= 1, at most one
# class per vertex pair and no loop.  A simple graph's core has every mult 1;
# contraction merges the classes that meet, so DC never leaves this form.


def _block_split(n, edges):
    """Biconnected components of a loopless core, each renumbered.

    One iterative DFS from every unvisited vertex walks each parallel class
    as a single edge, so a class on no cycle comes out as a bridge block
    that keeps its full multiplicity.  Isolated vertices give no block.
    """
    adj = [[] for _ in range(n)]
    for cid, (u, v, _) in enumerate(edges):
        adj[u].append((v, cid))
        adj[v].append((u, cid))

    disc = [-1] * n
    low = [0] * n
    estack: list[int] = []
    blocks: list[list[int]] = []
    timer = 0

    # iterative DFS: frames of (vertex, entering class, adjacency cursor)
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        frames = [(root, -1, iter(adj[root]))]
        while frames:
            u, parent_cid, it = frames[-1]
            advanced = False
            for w, cid in it:
                if cid == parent_cid:
                    continue
                if disc[w] == -1:
                    estack.append(cid)
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append((w, cid, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[u]:
                    estack.append(cid)
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            if advanced:
                continue
            frames.pop()
            if frames:
                pu = frames[-1][0]
                if low[u] < low[pu]:
                    low[pu] = low[u]
                if low[u] >= disc[pu]:
                    blk = []
                    while True:
                        cid = estack.pop()
                        blk.append(cid)
                        if cid == parent_cid:
                            break
                    blocks.append(blk)

    cores = []
    for blk in blocks:
        cids = sorted(blk)
        verts = sorted({v for cid in cids for v in edges[cid][:2]})
        remap = {v: i for i, v in enumerate(verts)}
        blk_edges = tuple(
            (remap[edges[cid][0]], remap[edges[cid][1]], edges[cid][2]) for cid in cids
        )
        cores.append((len(verts), blk_edges))
    return cores


def _core_key(n, mult):
    # the certificate: the encoding of the block's canonical copy
    return _canon_search(n, mult)[0]


def _dipole_poly(c):
    # c parallel edges on 2 vertices: x + y + y^2 + ... + y^{c-1}
    return BivarPoly.from_rows(((0,) + (1,) * (c - 1), (1,)))


def _cycle_poly(length):
    # plain cycle: y + x + x^2 + ... + x^{length-1}
    return BivarPoly.from_rows(((0, 1),) + ((1,),) * (length - 1))


def _dc_block(core, memo, canonical=False):
    # a block's polynomial, or on a memo miss the generator that expands it
    n, edges = core
    if len(edges) == 1:
        return _dipole_poly(edges[0][2])
    if len(edges) == n and all(c == 1 for _, _, c in edges):
        # a block is 2-connected, so n simple edges on n vertices form a cycle
        return _cycle_poly(n)

    # canonical is the caller's word that the block is its own canonical
    # copy and that no later lookup of the caller reaches it: it is expanded
    # with no search and not stored.  A wrong word costs only the
    # label-independence of the work, not the result.
    if canonical:
        return _expand(n, edges, memo, ())
    # a block's own encoding names it exactly, so a block the memo has seen
    # under these labels needs no search
    mult = {(u, v): c for u, v, c in edges}
    own = _encode(n, mult, range(n))
    hit = memo.get(own)
    if hit is not None:
        return BivarPoly._raw(marshal.loads(hit))
    cert = _core_key(n, mult)
    hit = memo.get(cert)
    if hit is not None:
        memo[own] = hit
        return BivarPoly._raw(marshal.loads(hit))
    if cert != own:
        n, edges = _decode(cert)
    return _expand(n, edges, memo, (cert, own))


def _expand(n, edges, memo, keys):
    # one DC step on a block, whose polynomial is stored under keys: none
    # for a block taken on the caller's canonical word.  It expands the
    # first class of maximal multiplicity: on the canonical copy this choice
    # is a function of the isomorphism class
    best = max(range(len(edges)), key=lambda i: edges[i][2])
    u, v, c = edges[best]
    rest = edges[:best] + edges[best + 1 :]

    if c > 1:
        # fewer parallel edges leave a 2-connected block 2-connected, so the
        # deletion is still one block on all n vertices
        result = yield _dc_block((n, edges[:best] + ((u, v, c - 1),) + edges[best + 1 :]), memo)
    else:
        result = yield _dc(n, rest, memo)

    # v joins u: the classes that meet merge, v is left isolated, and the
    # block split drops it
    merged: dict[tuple[int, int], int] = {}
    for a, b, cc in rest:
        a, b = u if a == v else a, u if b == v else b
        key = (a, b) if a < b else (b, a)
        merged[key] = merged.get(key, 0) + cc
    contracted = tuple((a, b, cc) for (a, b), cc in sorted(merged.items()))
    cpoly = yield _dc(n, contracted, memo)
    if c > 1:
        cpoly = cpoly.mul_monomial(0, c - 1)
    result = result + cpoly

    # one packed value for every key: a pack per key would hold each
    # polynomial twice
    memo.update(dict.fromkeys(keys, marshal.dumps(result.rows)))
    return result


# a block of one simple edge, as _block_split renumbers it: its factor is x
_BRIDGE = (2, ((0, 1, 1),))


def _dc(n, edges, memo, canonical=False):
    # a loopless core's polynomial: the product over its blocks.  canonical
    # says the core is its own canonical copy; if the core is one block on
    # all its vertices, that block is the core and _dc_block is told so
    blocks = _block_split(n, edges)
    if canonical and blocks == [(n, edges)]:
        return (yield _dc_block(blocks[0], memo, canonical=True))
    bridges = 0
    result = None
    for block in blocks:
        if block == _BRIDGE:
            bridges += 1
        else:
            factor = yield _dc_block(block, memo)
            result = factor if result is None else result * factor
    # the bridges, each a factor x, come as one x^k: x^k holds k rows, so a
    # product per bridge would cost quadratically in k
    if result is None:
        return BivarPoly.monomial(bridges, 0)
    return result.mul_monomial(bridges, 0) if bridges else result


def _run(work):
    # drives the DC generators from a list, so DC depth is bounded by memory,
    # not by the interpreter stack.  A generator yields the work of one
    # sub-core and is sent its polynomial: a polynomial yielded goes straight
    # back, a generator yielded runs first and its return value goes back
    stack = [work]
    value = None
    while True:
        try:
            work = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
            continue
        if isinstance(work, BivarPoly):
            value = work
        else:
            stack.append(work)
            value = None


def tutte_dc(g: SimpleGraph, memo=None, *, canonical=False) -> BivarPoly:
    """Tutte polynomial by deletion-contraction with iso-keyed memoization.

    T is the product of the block polynomials.  The block split walks every
    component, so components and isolated vertices need no pass of their
    own.  The DC steps run from an explicit stack, so the depth DC reaches
    is bounded by memory, not by the interpreter's recursion limit.

    A memo dict may be shared between calls (scan() and certify_maximum
    share one across a class); each entry maps the encoding of a labeled
    block, its own or its canonical copy's, to its polynomial's packed rows,
    so reuse across graphs is safe.  Without one, the call uses a fresh memo.

    canonical says that g is its own canonical copy, as enumerate_class
    returns it.  If g is then one block on all its vertices, its first step
    runs with no search and its polynomial is not stored: scan() passes it,
    since no minor in a class scan has as many edges as a member.  The
    result is exact either way; only the label-independence of the work
    rests on the word being true.
    """
    core = tuple((u, v, 1) for u, v in g.edges)
    return _run(_dc(g.n, core, {} if memo is None else memo, canonical))


def tutte_expansion(g: SimpleGraph) -> BivarPoly:
    """Tutte polynomial from the subset census: T(x, y) = W(x - 1, y - 1),
    one shift back from whitney_expansion, without deletion-contraction."""
    return whitney_expansion(g).shift_vars(-1, -1)


def whitney_expansion(g: SimpleGraph) -> BivarPoly:
    """Whitney polynomial straight from the subset census: each count of
    i-edge subsets with kappa components is the coefficient of
    x^(kappa - kappa_G) y^(i - n + kappa)."""
    counts = edge_subset_census(g)
    kappa_g, _ = components(g)
    terms: dict[tuple[int, int], int] = {}
    for i, row in enumerate(counts):
        for kappa, cnt in enumerate(row):
            if cnt:
                terms[(kappa - kappa_g, i - g.n + kappa)] = cnt
    return BivarPoly(terms)


def whitney(g: SimpleGraph, memo=None, *, canonical=False) -> BivarPoly:
    """Whitney polynomial W(x, y) = T(x+1, y+1), via deletion-contraction;
    memo and canonical as for tutte_dc."""
    return tutte_dc(g, memo=memo, canonical=canonical).shift_vars(1, 1)


def tree_number_mtt(g: SimpleGraph) -> int:
    """Spanning-tree count by an exact Laplacian-minor determinant."""
    require_connected(g)
    n = g.n
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_det(minor)


def _bareiss_det(mat) -> int:
    """Fraction-free integer determinant (Bareiss elimination)."""
    m = [row[:] for row in mat]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]
