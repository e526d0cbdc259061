"""Exact competition numbers and predator indices with witness digraphs.

Search model.  A realization of G plus k isolated vertices is rebuilt as an
ordered placement of vertices: each placed vertex may take as in-neighbour
set one clique of G drawn from the vertices placed before it.  Three
reductions make this complete:

* an added isolate never needs out-arcs (an out-arc from an isolate forces
  its head's in-neighbourhood to be a singleton, which induces no edge, so
  the arc can be deleted);
* every in-neighbourhood of size >= 2 is a clique of G inside V(G), because
  an isolate inside one would pick up an edge in the competition graph;
* singleton in-neighbourhoods induce no edge and only raise the prey count,
  so they are never needed for feasibility or for maximizing predators.

Since isolates send no arcs, they can all be placed last, where they may
host arbitrary cliques of G; the search therefore walks orderings of V(G)
only and finishes each branch with an exact set-cover of the leftover
edges, one clique per isolate.  States are memoized on (placed-vertex
bitmask, covered-edge bitmask).  Hosting a clique that is maximal within
the placed prefix dominates hosting any sub-clique, so only those are
branched on.

The walk prunes at the parent.  Below a child, the k isolates and the
n - |placed| - 1 vertices still unplaced can host one clique each, so a
child whose leftover edges need more cliques than that is never entered.
Each option's leftover cover size is computed once per node, at its
first use, and serves the option under every next vertex.  A prefix's
options come from its parent's: adding w keeps every clique that w does
not see whole and adds the maximal cliques through w, so no prefix is
enumerated from scratch.

Every witness comes out of one path, ``_realize(graph, k, cost)``: it
walks the isolate-free core with the graph's own isolates added to the
budget of k, builds the plan's digraph in the graph's own numbering, and
certifies it: re-checks it against the competition-graph definition and
gives it an acyclic labeling.  The competition number's ascent asks for
the witness at each k, so its last step is the witness.  Each core's
search keeps every walk's result keyed by (isolate budget, cost), which
later queries on the core reuse; a walk's own state dies with the walk.

The number of prey (vertices of nonzero in-degree) of an optimal witness is
the minimum possible, and the predator count n + k minus prey is the
maximum; with k = k(G) the latter is the primary predator index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cliques import maximal_cliques_through
from .ecc import cover_solver, theta_e
from .graph import (QUERY_GRAPHS, AcyclicLabeling, Digraph, Graph,
                    add_isolated, acyclic_labeling, bits, competition_graph)


class RealizationError(RuntimeError):
    """A digraph failed re-verification against its claimed competition
    graph; raised instead of trusting any construction."""


@dataclass(frozen=True)
class Realization:
    """A verified witness digraph for G together with k isolated vertices."""

    digraph: Digraph
    k: int
    labeling: AcyclicLabeling
    prey_count: int
    predator_count: int
    sink_map: tuple[tuple[int, int], ...] | None = None

    def witness_arcs(self) -> list[list[int]]:
        return [[u, v] for u, v in self.digraph.arcs]


@lru_cache(maxsize=2 * QUERY_GRAPHS)
def certify_realization(graph: Graph, digraph: Digraph, k: int,
                        sink_map=None) -> Realization:
    """Check a claimed realization and package it; never trust, verify.
    Recent results are kept, so a witness checked again costs a lookup."""
    if digraph.n < graph.n:
        raise RealizationError(f"digraph has {digraph.n} vertices, fewer "
                               f"than the graph's {graph.n}")
    if digraph.n != graph.n + k:
        raise RealizationError(
            f"digraph has {digraph.n} vertices, expected {graph.n + k}")
    comp = competition_graph(digraph)
    if comp != add_isolated(graph, k):
        raise RealizationError("competition graph mismatch")
    labeling = acyclic_labeling(digraph)
    if not isinstance(labeling, AcyclicLabeling):
        raise RealizationError(f"digraph contains a cycle: {labeling.vertices}")
    prey = sum(1 for v in range(digraph.n) if digraph.in_rows[v])
    if graph.edge_count > 0 and prey < theta_e(graph):
        raise RealizationError("fewer prey than the edge clique cover number")
    return Realization(digraph, k, labeling, prey, digraph.n - prey, sink_map)


class _Found(Exception):
    pass


class _Search:
    """Exact placement search on a graph without isolated vertices."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.all_mask = graph.vertex_mask
        self.solver = cover_solver(graph)
        self.full_edges = self.solver.full_mask
        self._options: dict[int, tuple] = {0: ()}
        self._walks: dict[tuple[int, int], tuple | None] = {}

    def _clique_options(self, placed: int, w: int):
        """Cliques maximal within the prefix ``placed``, largest first, as
        (-size, members, vertex mask, edge mask).  They are derived from
        the options of the prefix without ``w``, which must be cached:
        each of those stays maximal unless w sees all of it, and the new
        ones are the maximal cliques through w."""
        cached = self._options.get(placed)
        if cached is None:
            nb = self.graph.rows[w]
            opts = [opt for opt in self._options[placed & ~(1 << w)]
                    if opt[2] & ~nb]
            for cm in maximal_cliques_through(self.graph, w, placed):
                members = tuple(bits(cm))
                opts.append((-len(members), members, cm,
                             self.solver.edge_mask_of(members)))
            opts.sort()
            cached = tuple(opts)
            self._options[placed] = cached
        return cached

    def best(self, budget: int, cost: int):
        """``_walk(budget, cost)``, walked once per (budget, cost)."""
        key = (budget, cost)
        if key not in self._walks:
            self._walks[key] = self._walk(budget, cost)
        return self._walks[key]

    def _walk(self, k: int, cost: int):
        """Depth-first search over placement plans whose leftover edges k
        isolates can cover.  A plan's total is ``cost`` per hosted clique
        plus the size of the leftover cover; returns the least (total,
        plan) seen, stopping at the first total <= goal, or None when no
        plan exists.  With cost 0 the goal is k, which every plan meets,
        so the first plan found ends the walk; with cost 1 the total is
        the prey count and the goal is theta_e, below which none falls."""
        size = self.solver.size
        c = size(self.full_edges)
        goal = c if cost else k
        best: list = [None, None]
        visited: dict[tuple[int, int], int] = {}

        def rec(placed, covered, c, used, trail):
            # c is the leftover's cover size, which the caller computed
            rem = self.full_edges & ~covered
            if c <= k:
                total = used + c
                if best[0] is None or total < best[0]:
                    best[0] = total
                    best[1] = (list(trail), rem)
                    if total <= goal:
                        raise _Found
            if placed == self.all_mask:
                return
            if best[0] is not None and used + c >= best[0]:
                return
            state = (placed, covered)
            seen = visited.get(state)
            if seen is not None and seen <= used:
                return
            visited[state] = used
            options = (self._clique_options(placed, trail[-1][0]) if trail
                       else ())
            # a child whose leftover needs more than room cliques can
            # neither record a plan (room >= k) nor be finished by the
            # isolates and the vertices left after it, so it is not entered
            room = k + self.n - placed.bit_count() - 1
            fits: list = []
            children = self._fitting(options, rem, room, fits)
            for w in bits(self.all_mask & ~placed):
                wbit = 1 << w
                for members, em, left in children:
                    trail.append((w, members))
                    rec(placed | wbit, covered | em, left, used + cost, trail)
                    trail.pop()
                children = fits
                if c <= room:
                    trail.append((w, None))
                    rec(placed | wbit, covered, c, used, trail)
                    trail.pop()

        try:
            if c <= k + self.n:
                rec(0, 0, c, 0, [])
        except _Found:
            pass
        # rec refers to itself; unbinding it frees the walk's state at once
        del rec
        return None if best[0] is None else tuple(best)

    def _fitting(self, options, rem: int, room: int, fits: list):
        """The options that cover some of the uncovered edges ``rem`` and
        leave at most ``room`` cliques' worth, as (members, edge mask,
        leftover cover size).  Each is tested when the walk reaches it and
        is also appended to ``fits``, which later vertices replay."""
        for _, members, _, em in options:
            if em & rem:
                left = self.solver.size(rem & ~em)
                if left <= room:
                    fits.append((members, em, left))
                    yield members, em, left

    def build(self, plan, mapping) -> Digraph:
        """Turn a placement plan into a digraph whose vertex mapping[i] is
        the plan's vertex i: the n placed ones, then the budget's isolates."""
        placements, rem = plan
        arcs = [(v, w) for w, members in placements if members is not None
                for v in members]
        leftover = self.solver.lex_min_cover(rem)
        if len(leftover) > len(mapping) - self.n:
            raise RealizationError("isolate budget exceeded by plan")
        for j, idx in enumerate(leftover, self.n):
            arcs.extend((v, j) for v in bits(self.solver.clique_masks[idx]))
        return Digraph.from_arcs(len(mapping),
                                 [(mapping[u], mapping[v]) for u, v in arcs])


@lru_cache(maxsize=QUERY_GRAPHS)
def _search(graph: Graph) -> _Search:
    return _Search(graph)


def _realize(graph: Graph, k: int, cost: int) -> tuple[int, Realization] | None:
    """The walk's total and the certified witness for the graph plus k
    isolates, or None when there is none.  The walk runs on the core with
    the graph's own isolates added to the budget; the built digraph's
    vertices are the core's, then those isolates, then the k added ones."""
    if k < 0:
        raise ValueError("isolate count must be nonnegative")
    core, keep = graph.without_isolates()
    search = _search(core)
    isolates = graph.isolated_vertices()
    found = search.best(k + len(isolates), cost)
    if found is None:
        return None
    total, plan = found
    mapping = keep + isolates + tuple(range(graph.n, graph.n + k))
    return total, certify_realization(graph, search.build(plan, mapping), k)


def realizable_with(graph: Graph, k: int) -> Realization | None:
    """A verified realization of the graph plus k isolates, or None."""
    found = _realize(graph, k, 0)
    return None if found is None else found[1]


@lru_cache(maxsize=QUERY_GRAPHS)
def competition_number(graph: Graph) -> tuple[int, Realization]:
    """The least k for which the graph plus k isolates is the competition
    graph of an acyclic digraph, with a verified witness.

    The ascent asks for a witness at k = floor, floor + 1, ... and returns
    the first.  The floor is 0 for an edgeless graph, else Opsut's bound
    theta_e - n + 2, raised to 1 when no vertex is isolated: the minimal
    vertex of any acyclic labeling sends no arcs, so a competition graph
    of an acyclic digraph always has an isolated vertex.
    """
    theta = theta_e(graph)
    floor = (max(theta - graph.n + 2, 0 if graph.isolated_vertices() else 1)
             if theta else 0)
    for k in range(floor, theta + 1):
        witness = realizable_with(graph, k)
        if witness is not None:
            return k, witness
    raise RuntimeError("no realization found up to the cover-size bound")


def max_predators_with(graph: Graph, k: int) -> tuple[int, Realization] | None:
    """Maximum number of in-degree-0 vertices over realizations with a
    given isolate count k (not necessarily the competition number), with a
    witness attaining it.  Returns None when no realization exists."""
    found = _realize(graph, k, 1)
    if found is None:
        return None
    m_star, witness = found
    assert witness.prey_count == m_star
    return graph.n + k - m_star, witness


@lru_cache(maxsize=QUERY_GRAPHS)
def primary_predator_index(graph: Graph) -> tuple[int, Realization]:
    """Maximum number of in-degree-0 vertices over all acyclic digraphs
    whose competition graph is the graph plus k(G) isolates."""
    k, _ = competition_number(graph)
    result = max_predators_with(graph, k)
    assert result is not None
    return result


def min_prey_count(graph: Graph) -> int:
    """Minimum number of nonzero-in-degree vertices over realizations at
    the competition number; always at least theta_e."""
    p, witness = primary_predator_index(graph)
    return witness.prey_count
