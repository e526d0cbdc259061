"""Exact minimum edge clique covers.

The candidate universe is the maximal cliques only: any edge clique cover
can be turned into one of maximal cliques of the same size by expanding
each clique, so restricting to maximal cliques is sound.  The solver
numbers the edges most constrained first, by the number of maximal cliques
containing each edge, then by the edge itself.

One question is asked of an edge set, ``at_most(mask, t)``: does a cover
by at most t maximal cliques exist?  One search answers it.  It looks up
the set's exact size, then its memoized lower bound, then a
greedy edge packing (edges no two of which share a maximal clique, so
each needs its own clique: Gramm, Guo, Hueffner and Niedermeier, Data
reduction and exact algorithms for clique cover, ACM JEA 2008), and only
then branches on the lowest-numbered uncovered edge, so on one with the
fewest candidate cliques, trying only cliques that contain it, to depth
t.  An edge in one maximal clique forces that clique: the packing takes
the edge first and goes on in the one child, so the child inherits the
packing less one instead of computing it again.  A bound of the form
"size > t" holds at every later threshold, so later questions share it;
a cover found as small as a set's lower bound makes its size an exact
entry.  A larger cover is not kept; a set asked again branches again.

The exact size, which theta_e, the cover extraction and a recorded plan's
total read, is the least t the question accepts, counted up from 0, or
from the set's memoized exact size.
Among equal-size optima the lexicographically least cover (cliques as
sorted tuples, the cover as a sorted tuple of them) is returned, so
fixtures are stable.
"""

from __future__ import annotations

from functools import lru_cache

from .cliques import edge_cliques, maximal_clique_masks
from .graph import (QUERY_GRAPHS, Graph, bits, check_graph, clique_rows,
                    mask_of)


class _CoverSolver:
    """Exact set-cover engine over the maximal cliques of an isolate-free graph."""

    def __init__(self, graph: Graph):
        self.clique_masks = masks = maximal_clique_masks(graph)
        through = edge_cliques(graph)
        # sorted stably, so edges with as many cliques stay in edge order
        self.edges = edges = sorted(through, key=lambda e: len(through[e]))
        self.stars = stars = [0] * graph.n  # per vertex, the edges at it
        for i, (u, v) in enumerate(edges):
            stars[u] |= 1 << i
            stars[v] |= 1 << i
        self.full_mask = (1 << len(edges)) - 1
        self.clique_edge_masks = ems = [self.edge_mask_of(bits(c)) for c in masks]
        self.cliques_per_edge = [through[e] for e in edges]
        # per edge bit, the edges that share no maximal clique with it
        self._apart = {}
        for i, cliques in enumerate(self.cliques_per_edge):
            shared = 0
            for ci in cliques:
                shared |= ems[ci]
            self._apart[1 << i] = ~shared
        self._size_memo: dict[int, int] = {0: 0}
        self._lower: dict[int, int] = {}

    def edge_mask_of(self, members) -> int:
        """Bitmask, over this solver's edge numbering, of the edges inside
        the clique ``members``: each member's edges to those before it."""
        em = seen = 0
        for v in members:
            em |= self.stars[v] & seen
            seen |= self.stars[v]
        return em

    def size(self, uncovered: int) -> int:
        """Exact minimum number of maximal cliques covering the edge set.
        Each threshold that fails leaves a lower bound above it, so the
        first that holds is met by a cover as small as that bound, which
        ``_bound`` stores as an exact entry."""
        t = self._size_memo.get(uncovered, 0)
        while not self.at_most(uncovered, t):
            t += 1
        return t

    def at_most(self, uncovered: int, t: int) -> bool:
        """Whether the edge set has a cover by at most t maximal cliques."""
        b = self._size_memo.get(uncovered)
        if b is None:
            b = self._lower.get(uncovered)
            if b is None or b <= t:
                b = self._bound(uncovered, t)
        return b <= t

    def _bound(self, uncovered: int, t: int) -> int:
        """A number b with size <= b <= t, or with size >= b > t, for an
        edge set whose exact size is not memoized.  A b above t is kept as
        the set's lower bound and answers every later threshold below it;
        a b that meets the lower bound is kept as the exact size.  A cover
        larger than the lower bound is not kept."""
        lo = self._lower.get(uncovered)
        if lo is None:
            # a greedy packing: edges no two of which share a maximal
            # clique, so that each needs a clique of its own
            apart = self._apart
            rest, lo = uncovered, 0
            while rest:
                lo += 1
                rest &= apart[rest & -rest]
            self._lower[uncovered] = lo
        if lo > t:
            return lo
        memo, ems = self._size_memo, self.clique_edge_masks
        e = (uncovered & -uncovered).bit_length() - 1
        cliques = self.cliques_per_edge[e]
        least = len(self.edges) + 1
        for ci in cliques:
            rest = uncovered & ~ems[ci]
            b = memo.get(rest)
            if b is None:
                if len(cliques) == 1:
                    # e forces its clique: the packing lo took e first
                    # and went on in rest, so rest's packing is lo - 1
                    # (a rest bounded before keeps its own bound)
                    self._lower.setdefault(rest, lo - 1)
                b = self._bound(rest, t - 1)
            b += 1
            if b <= t:
                if b == lo:
                    memo[uncovered] = b
                    del self._lower[uncovered]
                return b
            if b < least:
                least = b
        self._lower[uncovered] = least
        return least

    def lex_min_cover(self, uncovered: int) -> tuple[int, ...]:
        """Lexicographically least minimum cover of the edge set, returned
        as the chosen cliques' vertex masks in canonical order.

        Each step takes the lowest-index clique that lies in some minimum
        cover of the uncovered edges.  No earlier clique lies in a minimum
        cover of what is left (it would have been taken first), so asking
        whether what is left has a cover one smaller, by any cliques,
        decides each step."""
        budget = self.size(uncovered)
        at_most, ems = self.at_most, self.clique_edge_masks
        chosen: list[int] = []
        lo = 0
        while uncovered:
            for idx in range(lo, len(ems)):
                em = ems[idx]
                if at_most(uncovered & ~em, budget - 1):
                    chosen.append(self.clique_masks[idx])
                    uncovered &= ~em
                    budget -= 1
                    lo = idx + 1
                    break
            else:
                raise RuntimeError("cover extraction failed")
        return tuple(chosen)


@lru_cache(maxsize=QUERY_GRAPHS)
def cover_solver(core: Graph) -> _CoverSolver:
    return _CoverSolver(core)


def theta_e(graph: Graph) -> int:
    """Minimum size of an edge clique cover (0 for an edgeless graph)."""
    check_graph(graph)
    solver = cover_solver(graph.without_isolates()[0])
    return solver.size(solver.full_mask)


def min_edge_clique_cover(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """A minimum edge clique cover consisting of maximal cliques, as a
    sorted tuple of sorted vertex tuples."""
    core, keep = graph.without_isolates()
    solver = cover_solver(core)
    cover = solver.lex_min_cover(solver.full_mask)
    return tuple(tuple(map(keep.__getitem__, bits(c))) for c in cover)


def make_cover(graph: Graph, cliques) -> tuple[tuple[int, ...], ...]:
    """Check explicit cliques of the graph and return them as a cover, a
    tuple of sorted vertex tuples; ``cover_checks`` says whether it is a
    minimum cover of maximal cliques.  Each clique is a list or tuple of
    vertices, ints in 0..n-1 (no bools)."""
    for c in cliques:
        if not (isinstance(c, (list, tuple))
                and all(type(v) is int and 0 <= v < graph.n for v in c)):
            raise ValueError(f"{c!r} is not a list of vertices 0..{graph.n - 1}")
    cliques = tuple(tuple(sorted(c)) for c in cliques)
    for c in cliques:
        if not c:
            raise ValueError("empty clique in cover")
        if not graph.is_clique(c):  # a repeated vertex is no edge
            raise ValueError(f"{c} is not a clique")
    return cliques


def cover_checks(graph: Graph, cover) -> tuple[bool, bool, bool]:
    """(covers all edges, all maximal, minimum) for a cover, a collection
    of vertex sets: whether they cover every edge of the graph and no other
    pair, whether each is a maximal clique of it, and whether they cover
    every edge with theta_e cliques; all three fail when a vertex is not
    an int in 0..n-1 (a bool counts as no int).  Worked out from the graph
    on every call."""
    n = graph.n
    if not all(type(v) is int and 0 <= v < n for c in cover for v in c):
        return False, False, False
    masks = [mask_of(c) for c in cover]
    covers = clique_rows(n, masks) == graph.rows
    return (covers, set(maximal_clique_masks(graph)).issuperset(masks),
            covers and len(masks) == theta_e(graph))
