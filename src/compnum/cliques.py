"""Clique machinery and structural predicates.

Maximal cliques come from Bron-Kerbosch with pivoting over adjacency
bitmasks and are always returned in canonical (lexicographic) order, so
everything downstream that indexes into a clique list is reproducible.
Chordality is computed constructively (maximum cardinality search); the
elimination ordering, or on its failure the hole it leads to, is then
verified: the verifier is what we trust, not the recognizer.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations

from .graph import QUERY_GRAPHS, Graph, bits, check_graph, mask_of


def _bron_kerbosch(rows, r: int, p: int, x: int, out: list[int]) -> None:
    if not p & (p - 1):  # p is one vertex v or none: r | p is the only clique
        extends = rows[p.bit_length() - 1] if p else -1  # the vertices seeing v
        if not x & extends:
            out.append(r | p)
        return
    pivot, best = -1, -1
    for u in bits(p | x):
        score = (p & rows[u]).bit_count()
        if score > best:
            pivot, best = u, score
    for v in bits(p & ~rows[pivot]):
        bit = 1 << v
        _bron_kerbosch(rows, r | bit, p & rows[v], x & rows[v], out)
        p &= ~bit
        x |= bit


@lru_cache(maxsize=QUERY_GRAPHS)
def maximal_clique_masks(graph: Graph) -> tuple[int, ...]:
    """All inclusion-maximal cliques as bitmasks, canonically sorted."""
    if graph.n == 0:
        return ()
    out: list[int] = []
    _bron_kerbosch(graph.rows, 0, graph.vertex_mask, 0, out)
    return tuple(sorted(out, key=_mask_key))


def _mask_key(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def maximal_cliques(graph: Graph) -> list[tuple[int, ...]]:
    """Every inclusion-maximal clique exactly once, lexicographically sorted
    by member tuples.  Isolated vertices appear as singleton cliques."""
    check_graph(graph)
    return [tuple(bits(m)) for m in maximal_clique_masks(graph)]


def maximal_cliques_through(graph: Graph, w: int, subset_mask: int) -> tuple[int, ...]:
    """Maximal cliques of the subgraph induced by ``subset_mask`` and w
    that contain w, excluding the singleton {w}; in no particular order."""
    p = subset_mask & graph.rows[w]
    if not p:
        return ()
    out: list[int] = []
    _bron_kerbosch(graph.rows, 1 << w, p, 0, out)
    return tuple(out)


def is_diamond_free(graph: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the graph has no induced diamond (K4 minus an edge).

    Returns (True, None) or (False, witness) where the witness is the
    lexicographically least induced diamond, as ascending vertices.  Any
    three vertices of a diamond span at least two of its edges, so only
    such triples a < b < c are scanned, in ascending order, and the least
    d > c completing one is read off the rows: adjacent to all three when
    the triple spans two edges, to exactly two of them when it spans three.
    """
    rows = graph.rows
    for a in range(graph.n):
        ra = rows[a]
        reach = ra
        for u in bits(ra):
            reach |= rows[u]
        for b in bits(reach & (-1 << (a + 1))):
            rb = rows[b]
            ab = (ra >> b) & 1
            for c in bits((ra | rb if ab else ra & rb) & (-1 << (b + 1))):
                rc = rows[c]
                if ab and ((ra & rb) >> c) & 1:
                    fourth = (ra & rb & ~rc) | (ra & rc & ~rb) | (rb & rc & ~ra)
                else:
                    fourth = ra & rb & rc
                fourth &= -1 << (c + 1)
                if fourth:
                    return False, (a, b, c, (fourth & -fourth).bit_length() - 1)
    return True, None


@lru_cache(maxsize=QUERY_GRAPHS)
def edge_cliques(graph: Graph) -> dict[tuple[int, int], list[int]]:
    """Per edge (u, v), u < v, in edge order, the ascending indices of the
    maximal cliques through it, shared by the cover solver and the
    occupied-edge listing: an edge in one clique is occupied by it."""
    through: dict[tuple[int, int], list[int]] = {e: [] for e in graph.edges()}
    for ci, c in enumerate(maximal_clique_masks(graph)):
        for pair in combinations(bits(c), 2):
            through[pair].append(ci)
    return through


def occupied_edges_by_clique(graph: Graph):
    """Each maximal clique with an edge, in canonical order, as ascending
    members with the pairs of them whose edge no other maximal clique
    covers (the edges it occupies); lazily, so a caller may stop early."""
    through = edge_cliques(graph)
    for c in maximal_clique_masks(graph):
        if c.bit_count() >= 2:
            members = tuple(bits(c))
            yield members, [pair for pair in combinations(members, 2)
                            if len(through[pair]) == 1]


def every_clique_has_occupied_edge(graph: Graph) -> bool:
    """Each maximal clique (of size >= 2) covers at least one edge that no
    other maximal clique covers."""
    return all(pairs for _, pairs in occupied_edges_by_clique(graph))


def every_vertex_on_occupied_edge(graph: Graph) -> tuple[bool, tuple | None]:
    """Stronger condition: in each maximal clique, every vertex is an
    endpoint of an edge occupied by that clique.  Returns (ok, witness)
    where the witness names the offending (clique, vertex) pair."""
    for members, pairs in occupied_edges_by_clique(graph):
        bare = set(members).difference(*pairs)
        if bare:
            return False, (members, min(bare))
    return True, None


def simplicial_vertices(graph: Graph) -> tuple[int, ...]:
    """Vertices whose open neighbourhood is a clique (isolated vertices
    count: an empty neighbourhood is vacuously a clique)."""
    out = []
    for v in range(graph.n):
        nb = graph.rows[v]
        if all(nb & ~(1 << u) & ~graph.rows[u] == 0 for u in bits(nb)):
            out.append(v)
    return tuple(out)


def _mcs_order(graph: Graph) -> list[int]:
    """Maximum cardinality search; returns the elimination order [v1..vn].

    MCS numbers vertices n down to 1 by repeatedly taking a vertex with the
    most already-numbered neighbours (ties broken by smallest index); the
    elimination order is that numbering read from position 1 up.  The
    unnumbered vertices are kept in one bitmask per weight.
    """
    n, rows = graph.n, graph.rows
    weight = [0] * n
    buckets = [0] * (n + 1)
    unnumbered = buckets[0] = graph.vertex_mask
    top = 0
    order = [0] * n
    for pos in range(n - 1, -1, -1):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        order[pos] = pick = low.bit_length() - 1
        buckets[top] ^= low
        unnumbered ^= low
        for u in bits(rows[pick] & unnumbered):
            buckets[weight[u]] ^= 1 << u
            weight[u] += 1
            buckets[weight[u]] |= 1 << u
        top += 1  # the most any weight can have grown
    return order


def _elimination_gaps(graph: Graph, order):
    """Every way ``order`` fails to be a perfect elimination ordering, from
    its last vertex back: (v, u, w) for each later neighbour u of v that
    misses another later neighbour of v, the least of which is w."""
    rows, later = graph.rows, 0
    for v in reversed(order):
        group = rows[v] & later
        for u in bits(group):
            gap = group & ~(1 << u) & ~rows[u]
            if gap:
                yield v, u, (gap & -gap).bit_length() - 1
        later |= 1 << v


def verify_elimination_ordering(graph: Graph, order) -> bool:
    """Check the defining property: each vertex's later neighbours form a
    clique."""
    return (sorted(order) == list(range(graph.n))
            and next(_elimination_gaps(graph, order), None) is None)


def chordality(graph: Graph) -> tuple[bool, tuple[int, ...]]:
    """Returns (True, order) for a verified perfect elimination ordering
    [v1..vn], in which every vertex's later neighbours form a clique, or
    (False, hole) for a verified induced cycle of length >= 4, listed in
    cycle order from its least vertex.

    The ordering is produced by maximum cardinality search with smallest
    index on ties and then checked directly; on failure the hole through
    its last gap is checked, and a RuntimeError reports a missing one.
    """
    check_graph(graph)
    order = _mcs_order(graph)
    if verify_elimination_ordering(graph, order):
        return True, tuple(order)
    hole = _find_hole(graph, order)
    if hole is None or not is_induced_cycle(graph, hole):
        raise RuntimeError("elimination ordering failed but no hole found")
    return False, hole


def _find_hole(graph: Graph, order) -> tuple[int, ...] | None:
    """The hole through the last gap (v, u, w) of ``order``, v being its
    first vertex whose later neighbours are not a clique, or None when
    there is no gap or no u-w path avoids v and v's other neighbours.

    A shortest such path is chordless and none of its inner vertices sees
    v, so v closes it into a hole.  On a maximum cardinality search
    ordering such a path exists at every gap, by census, not proof: all
    38,146 gaps of the 33,868 labeled graphs on <= 6 vertices and 250,942
    of 3,000 seeded G(n, p), n = 5..40, have one.
    """
    for v, u, w in deque(_elimination_gaps(graph, order), maxlen=1):
        allowed = graph.vertex_mask & ~graph.rows[v] | (1 << u) | (1 << w)
        path = _shortest_path(graph, u, w, allowed & ~(1 << v))
        if path is not None:
            cycle = [v] + path
            k = cycle.index(min(cycle))
            cycle = cycle[k:] + cycle[:k]
            if cycle[1] > cycle[-1]:
                cycle = [cycle[0]] + cycle[:0:-1]
            return tuple(cycle)
    return None


def _shortest_path(graph: Graph, src: int, dst: int, allowed: int):
    prev = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for a in frontier:
            for b in bits(graph.rows[a] & allowed):
                if b not in prev:
                    prev[b] = a
                    if b == dst:
                        path = [b]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(b)
        frontier = nxt
    return None


def is_induced_cycle(graph: Graph, cycle) -> bool:
    """Whether the distinct vertices, at least four, form a cycle in the
    given order with no chord: each one's neighbours among them are
    exactly the two beside it."""
    m = len(cycle)
    if m < 4 or len(set(cycle)) != m:
        return False
    mask = mask_of(cycle)
    return all(graph.rows[v] & mask == (1 << cycle[i - 1]) | (1 << cycle[(i + 1) % m])
               for i, v in enumerate(cycle))
