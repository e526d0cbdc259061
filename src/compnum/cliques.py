"""Clique machinery and structural predicates.

Maximal cliques come from Bron-Kerbosch with pivoting over adjacency
bitmasks and are always returned in canonical (lexicographic) order, so
everything downstream that indexes into a clique list is reproducible.
Chordality is computed constructively (maximum cardinality search) and the
returned elimination ordering is then verified; the verifier is what we
trust, not the recognizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graph import Graph, bits, mask_of


@dataclass(frozen=True)
class EliminationOrdering:
    """Vertex order [v1..vn] in which every vertex's later neighbours form
    a clique (a perfect elimination ordering)."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class Hole:
    """An induced cycle of length at least 4, listed in cycle order."""

    vertices: tuple[int, ...]


def _bron_kerbosch(rows, r: int, p: int, x: int, out: list[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
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


@lru_cache(maxsize=None)
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
    return [tuple(bits(m)) for m in maximal_clique_masks(graph)]


def maximal_cliques_in(graph: Graph, subset_mask: int) -> tuple[int, ...]:
    """Maximal cliques of the subgraph induced by ``subset_mask``,
    excluding singletons."""
    rows = tuple(graph.rows[v] & subset_mask if (subset_mask >> v) & 1 else 0
                 for v in range(graph.n))
    out: list[int] = []
    _bron_kerbosch(rows, 0, subset_mask, 0, out)
    return tuple(sorted((m for m in out if m.bit_count() >= 2), key=_mask_key))


def is_diamond_free(graph: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the graph has no induced diamond (K4 minus an edge).

    Returns (True, None) or (False, witness) where the witness is the first
    induced-diamond quadruple in ascending scan order.  For graphs beyond
    direct-scan size the maximal-clique shared-edge characterization is used
    instead; the two tests agree everywhere both run.
    """
    if graph.n <= 32:
        for quad in combinations(range(graph.n), 4):
            edges = sum(1 for u, v in combinations(quad, 2) if graph.has_edge(u, v))
            if edges == 5:
                return False, quad
        return True, None
    return _diamond_free_by_cliques(graph)


def _diamond_free_by_cliques(graph: Graph) -> tuple[bool, tuple[int, ...] | None]:
    cliques = maximal_clique_masks(graph)
    for ci, cj in combinations(cliques, 2):
        shared = ci & cj
        if shared.bit_count() < 2:
            continue
        u, v = list(bits(shared))[:2]
        # maximality of both cliques guarantees a nonadjacent cross pair
        for x in bits(ci & ~cj):
            nonadj = cj & ~ci & ~graph.rows[x]
            if nonadj:
                y = next(bits(nonadj))
                return False, tuple(sorted((u, v, x, y)))
    return True, None


def occupied_edges(graph: Graph, clique) -> list[tuple[int, int]]:
    """Edges inside the maximal clique that no other maximal clique covers."""
    members = tuple(sorted(clique))
    mask = mask_of(members)
    if mask not in maximal_clique_masks(graph):
        raise ValueError(f"{members} is not a maximal clique")
    others = [c for c in maximal_clique_masks(graph) if c != mask]
    out = []
    for u, v in combinations(members, 2):
        pair = (1 << u) | (1 << v)
        if not any(c & pair == pair for c in others):
            out.append((u, v))
    return out


def every_clique_has_occupied_edge(graph: Graph) -> bool:
    """Each maximal clique (of size >= 2) covers at least one edge that no
    other maximal clique covers."""
    return all(occupied_edges(graph, tuple(bits(c)))
               for c in maximal_clique_masks(graph) if c.bit_count() >= 2)


def every_vertex_on_occupied_edge(graph: Graph) -> tuple[bool, tuple | None]:
    """Stronger condition: in each maximal clique, every vertex is an
    endpoint of an edge occupied by that clique.  Returns (ok, witness)
    where the witness names the offending (clique, vertex) pair."""
    for c in maximal_clique_masks(graph):
        if c.bit_count() < 2:
            continue
        members = tuple(bits(c))
        occ = occupied_edges(graph, members)
        covered = set()
        for u, v in occ:
            covered.add(u)
            covered.add(v)
        for v in members:
            if v not in covered:
                return False, (members, v)
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
    elimination order is that numbering read from position 1 up.
    """
    n = graph.n
    weight = [0] * n
    numbered = 0
    order = [0] * n
    for pos in range(n - 1, -1, -1):
        pick, best = -1, -1
        for v in range(n):
            if not (numbered >> v) & 1 and weight[v] > best:
                pick, best = v, weight[v]
        order[pos] = pick
        numbered |= 1 << pick
        for u in bits(graph.rows[pick] & ~numbered):
            weight[u] += 1
    return order


def verify_elimination_ordering(graph: Graph, order) -> bool:
    """Check the defining property: each vertex's later neighbours form a
    clique."""
    position = {v: i for i, v in enumerate(order)}
    if sorted(order) != list(range(graph.n)):
        return False
    later = 0
    for i in range(graph.n - 1, -1, -1):
        v = order[i]
        group = graph.rows[v] & later
        for u in bits(group):
            if group & ~(1 << u) & ~graph.rows[u]:
                return False
        later |= 1 << v
    return True


def chordality(graph: Graph) -> EliminationOrdering | Hole:
    """A verified perfect elimination ordering, or a hole witness.

    The ordering is produced by maximum cardinality search with smallest
    index on ties and then checked directly; on failure an induced cycle of
    length >= 4 is extracted and returned as the result.
    """
    order = _mcs_order(graph)
    if verify_elimination_ordering(graph, order):
        return EliminationOrdering(tuple(order))
    hole = _find_hole(graph, order)
    if hole is None:
        raise RuntimeError("elimination ordering failed but no hole found")
    return hole


def _find_hole(graph: Graph, order) -> Hole | None:
    # locate the first position whose later neighbourhood is not a clique,
    # then close a chordless path between the offending pair through the
    # allowed region; fall back to a subset scan if that ever misses
    later = 0
    fail = None
    for i in range(graph.n - 1, -1, -1):
        v = order[i]
        group = graph.rows[v] & later
        for u in bits(group):
            gap = group & ~(1 << u) & ~graph.rows[u]
            if gap:
                fail = (v, u, next(bits(gap)))
        later |= 1 << v
    if fail is not None:
        v, u, w = fail
        allowed = graph.vertex_mask & ~(graph.rows[v] & ~(1 << u) & ~(1 << w))
        allowed &= ~(1 << v)
        path = _shortest_path(graph, u, w, allowed)
        if path is not None and len(path) >= 3:
            cycle = [v] + path
            k = cycle.index(min(cycle))
            cycle = cycle[k:] + cycle[:k]
            if cycle[1] > cycle[-1]:
                cycle = [cycle[0]] + cycle[:0:-1]
            cand = Hole(tuple(cycle))
            if is_induced_cycle(graph, cand.vertices):
                return cand
    return _hole_by_scan(graph)


def _shortest_path(graph: Graph, src: int, dst: int, allowed: int):
    if not ((allowed >> src) & 1 and (allowed >> dst) & 1):
        return None
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
    m = len(cycle)
    if m < 4 or len(set(cycle)) != m:
        return False
    for i, u in enumerate(cycle):
        for j in range(i + 1, m):
            v = cycle[j]
            adjacent = graph.has_edge(u, v)
            consecutive = (j - i == 1) or (i == 0 and j == m - 1)
            if adjacent != consecutive:
                return False
    return True


def _hole_by_scan(graph: Graph) -> Hole | None:
    if graph.n > 20:
        raise NotImplementedError("hole scan limited to 20 vertices")
    for size in range(4, graph.n + 1):
        for sub in combinations(range(graph.n), size):
            cyc = _as_cycle(graph, sub)
            if cyc is not None:
                return Hole(cyc)
    return None


def _as_cycle(graph: Graph, sub) -> tuple[int, ...] | None:
    smask = mask_of(sub)
    if any((graph.rows[v] & smask).bit_count() != 2 for v in sub):
        return None
    start = sub[0]
    walk = [start]
    prev = -1
    while True:
        nbrs = [u for u in bits(graph.rows[walk[-1]] & smask) if u != prev]
        prev = walk[-1]
        walk.append(nbrs[0])
        if walk[-1] == start:
            break
    cycle = walk[:-1]
    if len(cycle) != len(sub):
        return None
    # canonical rotation: smallest vertex first, smaller neighbour second
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    if cycle[1] > cycle[-1]:
        cycle = [cycle[0]] + cycle[:0:-1]
    return tuple(cycle)
