"""Certified builders and verifiers for effective competition covers.

An effective competition cover is a minimum edge clique cover of maximal
cliques C_1..C_t together with an accompanying acyclic digraph whose only
nonzero-in-degree vertices are t pairwise distinct sinks w_1..w_t, where
w_i is a common out-neighbour of every vertex of C_i.  Three builders
produce such digraphs (for chordal graphs, for graphs whose maximal
cliques each pin all their vertices to occupied edges, and for covers with
a simplicial-vertex-rich subfamily); a verifier checks arbitrary claimed
triples; and a Hall-style certificate extracts, from any realization, a
system of distinct prey matched to the cover.

Builders never trust their construction and keep no checks of their own:
every output goes through one check, which certifies the digraph with
``certify_realization`` and requires a minimum cover of maximal cliques
with one prey per clique; the check runs no exact search, and the chordal
builder runs none at all.  The verifier compares adjacency rows as that
certifier does; the star rebuild reads the clique layer's occupied edges.
"""

from __future__ import annotations

from .cliques import (chordality, every_vertex_on_occupied_edge,
                      occupied_edges_by_clique, simplicial_vertices)
from .ecc import cover_checks, make_cover, min_edge_clique_cover, theta_e
from .graph import (Digraph, Graph, acyclic_labeling, bits, check_graph,
                    clique_rows, mask_of)
from .realizer import (Realization, RealizationError, certify_realization,
                       competition_number, k_floor)


class NotChordalError(ValueError):
    def __init__(self, hole):
        super().__init__(f"graph is not chordal; induced cycle {hole}")
        self.hole = hole


def _max_bipartite_matching(adjacency) -> list:
    """Kuhn augmenting paths; deterministic given the adjacency order."""
    match_right: dict[int, int] = {}

    def try_assign(i, seen):
        for r in adjacency[i]:
            if r in seen:
                continue
            seen.add(r)
            if r not in match_right or try_assign(match_right[r], seen):
                match_right[r] = i
                return True
        return False

    for i in range(len(adjacency)):
        try_assign(i, set())
    match_left: list = [None] * len(adjacency)
    for r, i in match_right.items():
        match_left[i] = r
    return match_left


def _check_buildable(graph: Graph) -> None:
    if graph.edge_count == 0:
        raise ValueError("graph must have at least one edge")
    if graph.isolated_vertices():
        raise ValueError("strip isolated vertices before building")


def _certified(graph: Graph, digraph: Digraph | None = None) -> Realization:
    """The realization a construction works on: the handed-in digraph,
    certified to realize the graph plus its extra vertices as isolates (a
    ValueError if not), or else the competition number's witness."""
    if digraph is None:
        return competition_number(graph)[1]
    try:
        return certify_realization(graph, digraph, digraph.n - graph.n)
    except RealizationError as exc:
        raise ValueError(str(exc)) from None


def _effective(graph: Graph, cover, sinks, k: int, name: str) -> Realization:
    """Certify the digraph on graph.n + k vertices in which cover clique i
    feeds sinks[i], a minimum cover of maximal cliques, and return its
    realization.  As many prey as cliques make the sinks distinct, so each
    sink's in-neighbourhood is its own clique.  A failed check raises."""
    arcs = [(v, w) for clique, w in zip(cover, sinks) for v in clique]
    digraph = Digraph.from_arcs(graph.n + k, arcs)
    try:
        realization = certify_realization(graph, digraph, k,
                                          tuple(enumerate(sinks)))
        if realization.prey_count != len(cover):
            raise RealizationError("prey count differs from cover size")
        if not all(cover_checks(graph, cover)):
            raise RealizationError("cover is not a minimum cover of maximal "
                                   "cliques")
    except RealizationError as exc:
        raise RealizationError(f"{name} construction failed: {exc}") from None
    return realization


# ---------------------------------------------------------------------------
# chordal graphs


def chordal_realizer(graph: Graph) -> tuple[Realization, tuple]:
    """Build an effective competition cover for a chordal graph.

    Takes a perfect elimination ordering [v1..vn], a minimum cover of
    maximal cliques reordered by the sorted position tuples of their
    members, identifies each cover clique with the closed later
    neighbourhood of its earliest vertex, and points that neighbourhood at
    the vertex one position earlier (the first clique, which holds the
    simplicial v1, at a fresh isolate); the certification of the output
    decides both facts, so neither is checked here.  The result realizes
    the graph with one added isolate and exactly theta_e prey.  One
    isolate is k(G), so no search is run: the vertex labeled 1 in an
    acyclic labeling sends no arcs, so it is isolated in the competition
    graph, and as the graph has no isolated vertex it is an added one
    (k >= 1); the certified digraph gives k <= 1.
    """
    _check_buildable(graph)
    chordal, order = chordality(graph)
    if not chordal:
        raise NotChordalError(order)
    pos = {v: i + 1 for i, v in enumerate(order)}

    cover = tuple(sorted(min_edge_clique_cover(graph),
                         key=lambda c: tuple(sorted(pos[v] for v in c))))

    sinks = [graph.n if nk == 1 else order[nk - 2]
             for nk in (min(pos[v] for v in clique) for clique in cover)]
    return _effective(graph, cover, sinks, 1, "chordal"), cover


# ---------------------------------------------------------------------------
# occupied-edge graphs


def rebuild_star(graph: Graph, digraph: Digraph | None = None) -> Realization:
    """Rewire any realization into one with exactly theta_e prey.

    A digraph handed in is certified first, as in ``hall_certificate``.
    Requires that in every maximal clique each vertex lies on an edge
    occupied by that clique (then the maximal cliques are the unique
    minimum cover); only then is the default, the competition number's
    witness, taken.  Every clique is redirected at the common
    out-neighbour, of smallest label in its certified labeling, of the
    endpoints of its occupied edges (in a certified realization every edge
    has a common prey), and the result is certified.
    """
    realization = None if digraph is None else _certified(graph, digraph)
    ok, witness = every_vertex_on_occupied_edge(graph)
    if not ok:
        clique, vertex = witness
        raise ValueError(
            f"vertex {vertex} of maximal clique {clique} lies on no edge "
            f"occupied by it")
    realization = realization or _certified(graph)
    out, label = realization.digraph.out_rows, realization.labeling

    listing = list(occupied_edges_by_clique(graph))
    sinks = [min((w for u, v in pairs for w in bits(out[u] & out[v])),
                 key=label.__getitem__) for _, pairs in listing]
    return _effective(graph, [clique for clique, _ in listing], sinks,
                      realization.k, "star")


# ---------------------------------------------------------------------------
# simplicial-vertex families


def simplicial_family_realizer(graph: Graph, cover, family) -> Realization:
    """Build an accompanying digraph from a simplicial-vertex-rich subfamily.

    ``family`` lists indices into ``cover``; it must have theta_e - k + 1
    members and the subgraph spanned by the edges those cliques cover must
    contain at least theta_e - k simplicial vertices, where k is the
    competition number.  Family cliques are ranked by how many of those
    simplicial vertices they contain; the first k cover cliques feed fresh
    isolates and every later family clique feeds a fresh simplicial vertex
    drawn from the earlier family cliques.  The result is verified and
    rejected with a diagnostic rather than trusted.
    """
    _check_buildable(graph)
    if not all(cover_checks(graph, cover)):
        raise ValueError("cover must be a minimum cover of maximal cliques")
    if not all(type(i) is int for i in family):
        raise ValueError("family indices must be ints")
    family = sorted(set(family))
    theta = len(cover)
    if any(not 0 <= i < theta for i in family):
        raise ValueError("family indices out of range")
    k, _ = competition_number(graph)
    if len(family) != theta - k + 1:
        raise ValueError(
            f"family must have theta_e - k + 1 = {theta - k + 1} members, "
            f"got {len(family)}")

    edge_graph = Graph(graph.n, clique_rows(graph.n,
                                            (mask_of(cover[i]) for i in family)))
    simplicial = {v for v in simplicial_vertices(edge_graph) if edge_graph.rows[v]}
    if len(simplicial) < theta - k:
        raise ValueError(
            f"only {len(simplicial)} simplicial vertices in the family "
            f"subgraph; need at least {theta - k}")

    fam_sorted = sorted(family,
                        key=lambda i: (-len(simplicial & set(cover[i])), cover[i]))
    rest_sorted = sorted(i for i in range(theta) if i not in set(family))
    ordered = rest_sorted + fam_sorted

    sinks = [0] * theta
    for slot in range(k):
        sinks[ordered[slot]] = graph.n + slot
    used: set[int] = set()
    reachable = set(cover[ordered[k - 1]])
    for j in range(k, theta):
        pool = sorted((simplicial & reachable) - used)
        if not pool:
            raise RealizationError(
                "ran out of fresh simplicial vertices; construction "
                "preconditions too weak for this input")
        used.add(pool[0])
        sinks[ordered[j]] = pool[0]
        reachable |= set(cover[ordered[j]])
    return _effective(graph, cover, sinks, k, "simplicial-family")


# ---------------------------------------------------------------------------
# verification


def verify_effective_cover(graph: Graph, cover, digraph: Digraph) -> dict:
    """Check whether a cover plus digraph witnesses an effective
    competition cover, as the record {valid, failure, checks, sink_map}:
    every condition is named in checks, failure gives the first that
    fails, and sink_map pairs each clique index with its sink."""
    check_graph(graph)
    try:
        made, cliques_ok = make_cover(graph, cover), True
    except ValueError:
        made, cliques_ok = (), False
    covers, maximal, minimum = (
        cover_checks(graph, made) if cliques_ok else (False, False, False))
    acyclic, _ = acyclic_labeling(digraph)  # a non-Digraph raises: no search
    j = digraph.n - graph.n  # below k's floor, no exact search is needed
    iso_ok = (j >= k_floor(graph, theta_e(graph))
              and j == competition_number(graph)[0])
    rows = digraph.in_rows  # a clique's candidate sinks are the prey it feeds
    match = _max_bipartite_matching([
        [w for w, row in enumerate(rows) if row & mask == mask]
        for mask in map(mask_of, made)])

    table = (  # (check name, result, failure message), in reporting order
        ("cliques are cliques", cliques_ok, "cover contains a non-clique"),
        ("covers all edges", covers, "cover does not cover all edges"),
        ("cover minimum", minimum, "cover not minimum"),
        ("all cliques maximal", maximal,
         "cover contains a non-maximal clique"),
        ("isolate count equals competition number", iso_ok,
         "isolate count differs from k"),
        ("competition graph matches",
         iso_ok and clique_rows(digraph.n, rows) == graph.rows + (0,) * j,
         "competition graph mismatch"),
        ("digraph is acyclic", acyclic, "digraph contains a cycle"),
        ("prey count equals cover size", sum(map(bool, rows)) == len(cover),
         "prey count differs from cover size"),
        ("sinks assigned", cliques_ok and all(w is not None for w in match),
         "no distinct sink assignment covers the cliques"),
    )
    failure = next((message for _, ok, message in table if not ok), None)
    return {"valid": failure is None, "failure": failure,
            "checks": {name: ok for name, ok, _ in table},
            "sink_map": None if failure
            else [[i, w] for i, w in enumerate(match)]}


def hall_certificate(graph: Graph, cover=None, digraph=None) -> dict:
    """Match every cover clique to a distinct prey that two of its members
    feed, as the record {sets, matching}.  The sets A_i collect, per clique,
    the common out-neighbours of pairs inside it; the matching pairs each
    clique index with its prey.  The cover defaults to the minimum cover,
    and the digraph, taken after the cover checks, to k's witness."""
    if cover is None:
        cover = min_edge_clique_cover(graph)
    elif not all(cover_checks(graph, cover)):
        raise ValueError("cover must be a minimum cover of maximal cliques")
    return hall_matching(cover, _certified(graph, digraph).digraph)


def hall_matching(cover, digraph: Digraph) -> dict:
    """``hall_certificate``'s matching, of a checked cover into a certified
    digraph; such a digraph always saturates it, so a miss aborts loudly."""
    prey = [(v, row) for v, row in enumerate(digraph.in_rows) if row]
    sets = tuple(tuple([v for v, row in prey if (row & mask).bit_count() >= 2])
                 for mask in map(mask_of, cover))
    match = _max_bipartite_matching(sets)
    if any(w is None for w in match):
        raise RuntimeError(
            "no matching saturates the cover cliques; this contradicts a "
            "proven guarantee and indicates a library bug")
    return {"sets": sets, "matching": tuple(enumerate(match))}
