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

Builders never trust their construction: every output is re-verified
against the competition-graph definition before it is returned.
"""

from __future__ import annotations

from .cliques import (chordality, edge_clique_counts,
                      every_vertex_on_occupied_edge, maximal_clique_masks,
                      occupied_pairs, simplicial_vertices)
from .ecc import cover_checks, make_cover, min_edge_clique_cover, theta_e
from .graph import (Digraph, Graph, acyclic_labeling, add_isolated, bits,
                    clique_rows, competition_graph, mask_of)
from .realizer import (Realization, RealizationError, certify_realization,
                       competition_number)


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


def _effective(graph: Graph, cover, sinks, n: int, name: str) -> Realization:
    """Verify the digraph on n vertices in which cover clique i feeds
    sinks[i], and return its realization; a failed check, or a sink map
    other than the intended one, raises."""
    arcs = [(v, w) for clique, w in zip(cover, sinks) for v in clique]
    digraph = Digraph.from_arcs(n, arcs)
    cert, labeling = _verify(graph, cover, digraph)
    sink_map = tuple(enumerate(sinks))
    if not cert["valid"] or cert["sink_map"] != [list(p) for p in sink_map]:
        raise RealizationError(f"{name} construction failed: "
                               f"{cert['failure'] or 'sink map differs'}")
    # the checks imply certify_realization's, as prey = theta_e
    return Realization(digraph, n - graph.n, labeling, len(sinks),
                       n - len(sinks), sink_map)


# ---------------------------------------------------------------------------
# chordal graphs


def chordal_realizer(graph: Graph) -> tuple[Realization, tuple]:
    """Build an effective competition cover for a chordal graph.

    Takes a perfect elimination ordering [v1..vn], a minimum cover of
    maximal cliques reordered by the sorted position tuples of their
    members, identifies each cover clique with the closed later
    neighbourhood of its earliest vertex, and points that neighbourhood at
    the vertex one position earlier (the first clique at a fresh isolate).
    The result realizes the graph with one added isolate and exactly
    theta_e prey.
    """
    _check_buildable(graph)
    chordal, order = chordality(graph)
    if not chordal:
        raise NotChordalError(order)
    pos = {v: i + 1 for i, v in enumerate(order)}

    cover = tuple(sorted(min_edge_clique_cover(graph),
                         key=lambda c: tuple(sorted(pos[v] for v in c))))

    n = graph.n
    sinks = []
    suffix = [0] * (n + 2)
    mask = 0
    for i in range(n, 0, -1):
        mask |= 1 << order[i - 1]
        suffix[i] = mask
    for clique in cover:
        nk = min(pos[v] for v in clique)
        head = order[nk - 1]
        closed = ((1 << head) | graph.rows[head]) & suffix[nk]
        if closed != mask_of(clique):
            raise RealizationError(
                f"cover clique {clique} is not a closed later neighbourhood")
        if not sinks and nk != 1:
            raise RealizationError("first cover clique misses the first vertex")
        sinks.append(n if nk == 1 else order[nk - 2])
    return _effective(graph, cover, sinks, n + 1, "chordal"), cover


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
    endpoints of its occupied edges; that labeling stays acyclic.
    """
    realization = None if digraph is None else _certified(graph, digraph)
    ok, witness = every_vertex_on_occupied_edge(graph)
    if not ok:
        clique, vertex = witness
        raise ValueError(
            f"vertex {vertex} of maximal clique {clique} lies on no edge "
            f"occupied by it")
    realization = realization or _certified(graph)
    digraph = realization.digraph

    cliques = [tuple(bits(c)) for c in maximal_clique_masks(graph)
               if c.bit_count() >= 2]
    if len(cliques) != theta_e(graph):
        raise RealizationError(
            "maximal cliques do not form a minimum cover despite the "
            "occupied-edge hypothesis")
    labels = realization.labeling
    counts = edge_clique_counts(graph)
    arcs = []
    sink_map = []
    for idx, clique in enumerate(cliques):
        candidates = set()
        for u, v in occupied_pairs(counts, clique):
            candidates.update(bits(digraph.out_rows[u] & digraph.out_rows[v]))
        if not candidates:
            raise RealizationError(
                f"no common out-neighbour for the occupied edges of {clique}")
        sink = min(candidates, key=lambda w: labels[w])
        sink_map.append((idx, sink))
        arcs.extend((v, sink) for v in clique)

    sinks = [w for _, w in sink_map]
    if len(set(sinks)) != len(sinks):
        raise RealizationError("rebuilt sinks are not pairwise distinct")
    star = Digraph.from_arcs(digraph.n, arcs)
    if any(labels[u] <= labels[v] for u, v in star.arcs):
        raise RealizationError(
            "input labeling is no longer acyclic on the rebuilt digraph")
    rebuilt = certify_realization(graph, star, realization.k, tuple(sink_map))
    if rebuilt.prey_count != theta_e(graph):
        raise RealizationError("rebuilt digraph does not have theta_e prey")
    return rebuilt


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
    reachable: set[int] = set(cover[ordered[k - 1]]) if k >= 1 else set()
    for j in range(k, theta):
        pool = sorted((simplicial & reachable) - used)
        if not pool:
            raise RealizationError(
                "ran out of fresh simplicial vertices; construction "
                "preconditions too weak for this input")
        used.add(pool[0])
        sinks[ordered[j]] = pool[0]
        reachable |= set(cover[ordered[j]])
    return _effective(graph, cover, sinks, graph.n + k, "simplicial-family")


# ---------------------------------------------------------------------------
# verification


def verify_effective_cover(graph: Graph, cover, digraph: Digraph) -> dict:
    """Check whether a cover plus digraph witnesses an effective
    competition cover, as the record {valid, failure, checks, sink_map}:
    every condition is named in checks, failure gives the first that
    fails, and sink_map pairs each clique index with its sink."""
    return _verify(graph, cover, digraph)[0]


def _verify(graph: Graph, cover, digraph: Digraph):
    """verify_effective_cover's record and the digraph's acyclic labeling
    (or directed cycle)."""
    try:
        made, cliques_ok = make_cover(graph, cover), True
    except ValueError:
        made, cliques_ok = (), False
    covers, maximal, minimum = (
        cover_checks(graph, made) if cliques_ok else (False, False, False))
    k, _ = competition_number(graph)
    iso_ok = digraph.n == graph.n + k
    acyclic, labeling = acyclic_labeling(digraph)
    prey = [v for v in range(digraph.n) if digraph.in_rows[v]]
    adjacency = []
    for c in made:
        mask = mask_of(c)
        adjacency.append([w for w in prey if digraph.in_rows[w] & mask == mask])
    match = _max_bipartite_matching(adjacency)

    table = (  # (check name, result, failure message), in reporting order
        ("cliques are cliques", cliques_ok, "cover contains a non-clique"),
        ("covers all edges", covers, "cover does not cover all edges"),
        ("cover minimum", minimum, "cover not minimum"),
        ("all cliques maximal", maximal,
         "cover contains a non-maximal clique"),
        ("isolate count equals competition number", iso_ok,
         "isolate count differs from k"),
        ("competition graph matches",
         iso_ok and competition_graph(digraph) == add_isolated(graph, k),
         "competition graph mismatch"),
        ("digraph is acyclic", acyclic, "digraph contains a cycle"),
        ("prey count equals cover size", len(prey) == len(cover),
         "prey count differs from cover size"),
        ("sinks assigned", cliques_ok and all(w is not None for w in match),
         "no distinct sink assignment covers the cliques"),
    )
    failure = next((message for _, ok, message in table if not ok), None)
    record = {"valid": failure is None, "failure": failure,
              "checks": {name: ok for name, ok, _ in table},
              "sink_map": None if failure
              else [[i, w] for i, w in enumerate(match)]}
    return record, labeling


def hall_certificate(graph: Graph, cover=None, digraph=None) -> dict:
    """Match every cover clique to a distinct prey that two of its members
    feed, as the record {sets, matching}.  The sets A_i collect, per clique,
    the common out-neighbours of pairs inside it; the matching pairs each
    clique index with its prey.  The cover defaults to the minimum cover,
    and the digraph, taken after the cover checks, to k's witness.  A
    genuine realization always has a saturating matching, so a missing
    one aborts loudly."""
    if cover is None:
        cover = min_edge_clique_cover(graph)
    elif not all(cover_checks(graph, cover)):
        raise ValueError("cover must be a minimum cover of maximal cliques")
    digraph = _certified(graph, digraph).digraph
    sets = []
    for c in cover:
        mask = mask_of(c)
        members = tuple(v for v in range(digraph.n)
                        if (digraph.in_rows[v] & mask).bit_count() >= 2)
        if not members:
            raise ValueError(f"clique {c} has no fed prey; not a realization")
        sets.append(members)
    match = _max_bipartite_matching([list(s) for s in sets])
    if any(w is None for w in match):
        raise RuntimeError(
            "no matching saturates the cover cliques; this contradicts a "
            "proven guarantee and indicates a library bug")
    return {"sets": tuple(sets), "matching": tuple(enumerate(match))}
