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
A node's children are its options that fit, then hosting nothing when
its own leftover fits; each option's fit is decided once per node, at
its first use, and each child serves under every next vertex, so a node
with no child leaves its vertex loop after the first.  A prefix's
options come from its parent's, passed down the walk: adding w keeps
every clique that w does not see whole and adds the maximal cliques
through w, so no prefix is enumerated from scratch.

The walk only compares leftover cover sizes with thresholds (the budget
k, that room, and the best total so far), so it asks the cover solver's
threshold decision ``at_most``; the exact size is computed only for a
plan it records.  Every decision is exact, so the order of search and
every witness are those of exact sizes.

One walk per isolate budget answers both questions.  A plan's prey
(vertices of nonzero in-degree) are the vertices that host its cliques
and the isolates that host its leftover cover.  The walk's first plan is
the witness that the budget suffices; it goes on to the plan with the
fewest prey, whose predator count n + k minus prey is the maximum, and
with k = k(G) that is the primary predator index.  States left before
the first plan hold no plan, so the walk never enters them again, and a
plan with theta_e prey ends it.

Every witness comes out of one path, ``_witnesses``: it walks the
isolate-free core with the graph's own isolates added to the budget of
k, builds the digraphs of the walk's first plan and of its fewest-prey
plan in the graph's own numbering, and certifies them: re-checks each
against the competition-graph definition and gives it an acyclic
labeling.  When the first plan has the fewest prey, it is built and
certified once and serves as both witnesses.  ``_ascent`` asks for the
witnesses at each k from the suffix floor ``k_floor`` up and keeps its
answer per graph: k(G) with its two witnesses, which
``competition_number`` and ``primary_predator_index`` read.  The floor
starts at Opsut's theta_e - n + 2 and rises past every budget that the
two vertices placed last refute, so no walk is spent on such a budget.
Certification keeps nothing; later readers take the ascent's witnesses.
Each core's search keeps every walk's result keyed by isolate budget,
which later queries on the core and on the graph reuse; a walk's own
state dies with the walk.
"""

from __future__ import annotations

from functools import lru_cache

from .cliques import maximal_cliques_through
from .ecc import cover_solver, theta_e
from .graph import (QUERY_GRAPHS, Digraph, Frozen, Graph, acyclic_labeling,
                    bits, check_count, check_digraph, check_graph, clique_rows)


class RealizationError(RuntimeError):
    """A digraph failed re-verification against its claimed competition
    graph; raised instead of trusting any construction."""


class Realization(Frozen):
    """A verified witness digraph for G together with k isolated vertices;
    ``labeling`` holds acyclic_labeling's labels."""

    _fields = ("digraph", "k", "labeling", "prey_count", "predator_count",
               "sink_map")

    def __init__(self, digraph: Digraph, k: int, labeling: tuple[int, ...],
                 prey_count: int, predator_count: int,
                 sink_map: tuple[tuple[int, int], ...] | None = None):
        self._freeze(digraph, k, labeling, prey_count, predator_count,
                     sink_map)

    def witness_arcs(self) -> list[list[int]]:
        return [[u, v] for u, v in self.digraph.arcs]


def certify_realization(graph: Graph, digraph: Digraph, k: int,
                        sink_map=None) -> Realization:
    """Check a claimed realization and package it; never trust, verify."""
    check_digraph(digraph)
    if digraph.n < graph.n:
        raise RealizationError(f"digraph has {digraph.n} vertices, fewer "
                               f"than the graph's {graph.n}")
    if digraph.n != graph.n + k:
        raise RealizationError(
            f"digraph has {digraph.n} vertices, expected {graph.n + k}")
    # the competition graph's rows against G's plus k isolates' empty ones
    if clique_rows(digraph.n, digraph.in_rows) != graph.rows + (0,) * k:
        raise RealizationError("competition graph mismatch")
    acyclic, labeling = acyclic_labeling(digraph)
    if not acyclic:
        raise RealizationError(f"digraph contains a cycle: {labeling}")
    prey = sum(1 for v in range(digraph.n) if digraph.in_rows[v])
    if graph.edge_count > 0 and prey < theta_e(graph):
        raise RealizationError("fewer prey than the edge clique cover number")
    return Realization(digraph, k, labeling, prey, digraph.n - prey, sink_map)


class _Search:
    """Exact placement search on a graph without isolated vertices."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.solver = cover_solver(graph)
        self._options: dict[int, tuple] = {}
        self._walks: dict[int, tuple | None] = {}

    def _clique_options(self, placed: int, w: int, parent: tuple):
        """Cliques maximal within the prefix ``placed``, largest first, as
        (-size, members, vertex mask, edge mask).  They are derived from
        ``parent``, the options of the prefix without ``w``: each of those
        stays maximal unless w sees all of it, and the new ones are the
        maximal cliques through w."""
        cached = self._options.get(placed)
        if cached is None:
            nb = self.graph.rows[w]
            opts = [opt for opt in parent if opt[2] & ~nb]
            for cm in maximal_cliques_through(self.graph, w, placed):
                members = tuple(bits(cm))
                opts.append((-len(members), members, cm,
                             self.solver.edge_mask_of(members)))
            opts.sort()
            cached = tuple(opts)
            self._options[placed] = cached
        return cached

    def best(self, budget: int):
        """``_walk(budget)``, walked once per budget."""
        if budget not in self._walks:
            self._walks[budget] = self._walk(budget)
        return self._walks[budget]

    def _walk(self, k: int):
        """Depth-first search over placement plans whose leftover edges k
        isolates can cover.  A plan's total is its prey count: the cliques
        it hosts plus the size of its leftover cover.  Returns None when no
        plan exists, else the first plan found and the plan of least
        total, each as (total, plan); a total of theta_e, below which none
        falls, ends the walk.  A state is recorded in ``visited`` after its
        children, with the cliques hosted on the way in; one left before
        any plan is recorded holds no plan at any total, so it is recorded
        dead and never entered again, and the first plan is the one a walk
        for any plan finds.  Every question about a leftover's cover size
        is a threshold, put to the solver's ``at_most``; only a recorded
        plan's total is computed exactly."""
        solver, everyone = self.solver, self.graph.vertex_mask
        full = solver.full_mask
        at_most = solver.at_most
        goal = solver.size(full)
        # room below counts the isolates and the vertices still unplaced
        # after the one a node places
        spare = k + self.n - 1
        found: list = []  # the first (total, plan), then each better one
        visited: dict[tuple[int, int], int] = {}

        def rec(placed, covered, used, trail, options):
            state = (placed, covered)
            seen = visited.get(state)
            if seen is not None and seen <= used:
                return
            rem = full & ~covered
            if found and not at_most(rem, found[-1][0] - used - 1):
                return
            # before the last vertex room >= k, so a leftover that does
            # not fit room cannot record a plan.  The last vertex's node
            # is entered only if its leftover fits its parent's room,
            # k + n - 1 - (n - 1) = k, and an empty core's root, itself
            # the last node, has no edge left, so either records its plan
            # without asking
            last = placed == everyone
            room = spare - placed.bit_count()
            fits_room = not last and at_most(rem, room)
            if last or (fits_room and at_most(rem, k)):
                total = used + solver.size(rem)
                found.append((total, (list(trail), rem)))
                return total <= goal
            if trail:
                options = self._clique_options(placed, trail[-1][0], options)
            # a child whose leftover needs more than room cliques can
            # neither record a plan nor be finished by the isolates and
            # the vertices left after it, so it is not entered
            fits: list = []
            children = self._fitting(options, rem, room, fits_room, fits)
            for w in bits(everyone & ~placed):
                for members, em in children:
                    trail.append((w, members))
                    if rec(placed | 1 << w, covered | em, used + bool(em),
                           trail, options):
                        return True
                    trail.pop()
                if not fits:
                    break  # no later vertex has a child
                children = fits
            visited[state] = used if found else 0  # 0: dead to any entry

        rec(0, 0, 0, [], ())
        # rec refers to itself; unbinding it frees the walk's state at once
        del rec
        return (found[0], found[-1]) if found else None

    def _fitting(self, options, rem: int, room: int, fits_room: bool,
                 fits: list):
        """A node's children, as (members, edge mask): the options that
        cover some of the uncovered edges ``rem`` and leave at most
        ``room`` cliques' worth, then (None, 0), hosting nothing, if
        ``fits_room``.  Each option is tested when the walk reaches it;
        each child is also appended to ``fits``, which later vertices
        replay: a walk often ends at a theta_e-prey plan before a node's
        later options are asked."""
        at_most = self.solver.at_most
        for _, members, _, em in options:
            if em & rem and at_most(rem & ~em, room):
                fits.append((members, em))
                yield members, em
        if fits_room:
            fits.append((None, 0))
            yield None, 0

    def build(self, plan, mapping) -> Digraph:
        """Turn a placement plan into a digraph whose vertex mapping[i] is
        the plan's vertex i: the n placed ones, then the budget's isolates."""
        placements, rem = plan
        arcs = [(v, w) for w, members in placements if members is not None
                for v in members]
        leftover = self.solver.lex_min_cover(rem)
        if len(leftover) > len(mapping) - self.n:
            raise RealizationError("isolate budget exceeded by plan")
        for j, clique in enumerate(leftover, self.n):
            arcs.extend((v, j) for v in bits(clique))
        return Digraph.from_arcs(len(mapping),
                                 [(mapping[u], mapping[v]) for u, v in arcs])


@lru_cache(maxsize=QUERY_GRAPHS)
def _search(graph: Graph) -> _Search:
    return _Search(graph)


def _witnesses(graph: Graph,
               k: int) -> tuple[Realization, Realization] | None:
    """The certified witnesses of the walk's first plan and of its plan
    with the fewest prey, for the graph plus k isolates, or None when there
    is none; when the first plan has the fewest prey, both are the one
    witness object.  The walk runs on the core with the graph's own
    isolates added to the budget; a built digraph's vertices are the
    core's, then those isolates, then the k added ones."""
    core, keep = graph.without_isolates()
    search = _search(core)
    isolates = graph.isolated_vertices()
    found = search.best(k + len(isolates))
    if found is None:
        return None
    mapping = keep + isolates + tuple(range(graph.n, graph.n + k))
    witnesses = []
    for total, plan in found[:1] if found[1] is found[0] else found:
        witness = certify_realization(graph, search.build(plan, mapping), k)
        if witness.prey_count != total:
            raise RuntimeError("witness prey count differs from the walk's "
                               "total")
        witnesses.append(witness)
    return witnesses[0], witnesses[-1]


def k_floor(graph: Graph, theta: int) -> int:
    """A floor on k(G), at most theta = theta_e(G): 0 for an edgeless
    graph, else the least k from Opsut's theta_e - n + 2 up whose walk
    budget b, k plus the graph's own isolates, the last two core vertices
    do not refute.

    Order a realization's vertices so that every arc runs forward.  An
    edge of G lies in the in-neighbourhood, a clique, of a vertex after
    both its ends.  After the last core vertex t come only the b isolates,
    so t's edges have a cover by b cliques; after the one before it, s,
    come t and the isolates, so the edges at s or t have a cover by b + 1.
    A budget that no pair (t, s) passes is refuted; with b = 0 no star
    passes, so a graph with an edge and no isolate has k >= 1.  The pair
    is searched for lazily: a feasible budget usually costs three cover
    questions, a refuted one at most n + |F| n, F being the vertices whose
    star fits b."""
    if not theta:
        return 0
    core, _ = graph.without_isolates()
    solver = cover_solver(core)
    at_most, stars = solver.at_most, solver.stars

    def refuted(b: int) -> bool:
        return not any(at_most(last | before, b + 1)
                       for t, last in enumerate(stars) if at_most(last, b)
                       for s, before in enumerate(stars) if s != t)

    k, isolates = max(theta - graph.n + 2, 0), graph.n - core.n
    while k < theta and refuted(k + isolates):
        k += 1
    return k


@lru_cache(maxsize=QUERY_GRAPHS)
def _ascent(graph: Graph) -> tuple[int, tuple[Realization, Realization]]:
    """The least k for which the graph plus k isolates is the competition
    graph of an acyclic digraph, with ``_witnesses`` at that k: the ascent
    asks for the witnesses at k = ``k_floor``, k_floor + 1, ... and returns
    the first."""
    theta = theta_e(graph)
    for k in range(k_floor(graph, theta), theta + 1):
        witnesses = _witnesses(graph, k)
        if witnesses is not None:
            return k, witnesses
    raise RuntimeError("no realization found up to the cover-size bound")


def competition_number(graph: Graph) -> tuple[int, Realization]:
    """The least k for which the graph plus k isolates is the competition
    graph of an acyclic digraph, with a verified witness."""
    check_graph(graph)
    k, (first, _) = _ascent(graph)
    return k, first


def max_predators_with(graph: Graph, k: int) -> tuple[int, Realization] | None:
    """Maximum number of in-degree-0 vertices over realizations with a
    given isolate count k (not necessarily the competition number), with a
    witness attaining it.  Returns None when no realization exists, and
    without a walk when k lies below ``k_floor``.  Above theta_e, every
    further isolate is a predator: prey >= theta_e always, and theta_e
    isolates can host a minimum cover.  So the witness is theta_e's, with
    theta_e added isolates, and the count adds k - theta_e to theta_e's."""
    check_count(k, "k", "isolate count")
    theta = theta_e(graph)
    if k < k_floor(graph, theta):
        return None
    found = _witnesses(graph, min(k, theta))
    return None if found is None else (
        found[1].predator_count + max(k - theta, 0), found[1])


def primary_predator_index(graph: Graph) -> tuple[int, Realization]:
    """Maximum number of in-degree-0 vertices over all acyclic digraphs
    whose competition graph is the graph plus k(G) isolates."""
    check_graph(graph)
    _, (_, fewest) = _ascent(graph)
    return fewest.predator_count, fewest
