"""Closed-form bounds and the diamond-free plane-graph formula.

Bounds are reported raw (they may be negative); since a competition number
is never negative, callers wanting a usable floor should clamp at zero.
The union-tail bound is deliberately strengthened over its per-labeling
statement: it minimizes the union size over all subsets of the given
cardinality, so it is sound without knowing any accompanying digraph
("subset-min variant").  `union_tail_bounds` answers every index from one
depth-first search that grows subsets of the cover in index order and
extends a subset only while its union is below the least union known for
the largest size its extensions reach.  It takes the graph along with the
cover and checks the cover against it once: only a minimum cover of
maximal cliques has bounds.
"""

from __future__ import annotations

from .cliques import every_clique_has_occupied_edge, is_diamond_free, maximal_cliques
from .ecc import cover_checks, min_edge_clique_cover, theta_e
from .graph import Graph, mask_of
from .realizer import competition_number, primary_predator_index


def opsut_bound(graph: Graph) -> int:
    """theta_e - n + 2; the classical floor for the competition number of
    a graph with at least one edge.  An edgeless graph has k = 0, which
    the formula exceeds on K0 and K1, so its usable floor is 0."""
    return theta_e(graph) - graph.n + 2


def predator_bound(graph: Graph, p: int) -> int:
    """theta_e - n + p for a predator count p (exact or a lower bound)."""
    return theta_e(graph) - graph.n + p


def union_tail_bounds(graph: Graph, cover) -> tuple[int, ...]:
    """Subset-min union-tail bounds on the predator count, the bound for
    index k at position k - 1: for a minimum cover of the graph by t
    maximal cliques, the least union of any t - k + 1 of its cliques,
    minus t, plus k."""
    if not all(cover_checks(graph, cover)):
        raise ValueError("cover must be a minimum cover of maximal cliques")
    masks = [mask_of(c) for c in cover]
    t = len(masks)
    # least[j]: the fewest vertices any j cliques seen so far span; each
    # subset's prefixes are seen before it, so least never falls as j grows
    least = [0] + [graph.n + 1] * t

    def grow(start: int, size: int, union: int) -> None:
        for i in range(start, t):
            merged = union | masks[i]
            span = merged.bit_count()
            if span < least[size + 1]:
                least[size + 1] = span
            # a union only grows, so extend only while the largest size
            # the extensions reach can still gain
            if span < least[size + t - i]:
                grow(i + 1, size + 1, merged)

    grow(0, 0, 0)
    return tuple(least[t - k + 1] - t + k for k in range(1, t + 1))


def clique_census(graph: Graph) -> tuple[int, int, int]:
    """Counts (c2, c3, c4) of maximal cliques by size; isolated vertices
    are not counted.  Any maximal clique on 5 or more vertices is an error,
    because the census is meant for graphs without a K5 subgraph."""
    counts = {2: 0, 3: 0, 4: 0}
    for c in maximal_cliques(graph):
        if len(c) >= 5:
            raise ValueError(
                f"maximal clique of size {len(c)} found; the census covers "
                f"sizes 2..4 only")
        if len(c) >= 2:
            counts[len(c)] += 1
    return counts[2], counts[3], counts[4]


def planar_formula_check(graph: Graph, p: int) -> dict:
    """Evaluate the face-count formula for a connected diamond-free plane
    graph: k = f + p - 2*c3 - 5*c4 - 2 with f = |E| - n + 2.

    Planarity itself is the caller's assertion; only the edge-count sanity
    check |E| <= 3n - 6 (for n >= 3) guards it.  Returns the record
    {faces, k_formula, theta_from_census, k_exact, consistent}; ``consistent``
    requires both that the formula reproduces the exact competition number
    and that theta_e equals |E| - 2*c3 - 5*c4.
    """
    if graph.n == 0:
        raise ValueError("graph must have at least one vertex")
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    free, witness = is_diamond_free(graph)
    if not free:
        raise ValueError(f"graph contains an induced diamond on {witness}")
    if graph.n >= 3 and graph.edge_count > 3 * graph.n - 6:
        raise ValueError("edge count exceeds the planar bound 3n - 6")
    c2, c3, c4 = clique_census(graph)
    faces = graph.edge_count - graph.n + 2
    k_formula = faces + p - 2 * c3 - 5 * c4 - 2
    theta_census = graph.edge_count - 2 * c3 - 5 * c4
    k_exact, _ = competition_number(graph)
    return {"faces": faces, "k_formula": k_formula,
            "theta_from_census": theta_census, "k_exact": k_exact,
            "consistent": k_formula == k_exact and theta_census == theta_e(graph)}


def bounds_report(graph: Graph) -> dict:
    """Every applicable bound for a graph, using exact k and p, as the JSON
    record the CLI prints; ``*_usable`` keys clamp a bound at zero."""
    k, _ = competition_number(graph)
    p, _ = primary_predator_index(graph)
    theta = theta_e(graph)
    tail = union_tail_bounds(graph, min_edge_clique_cover(graph))
    try:
        census = list(clique_census(graph))
    except ValueError:
        census = None
    try:
        planar = planar_formula_check(graph, p)
    except ValueError:
        planar = {}
    occupied = None
    if graph.edge_count > 0:
        occupied = every_clique_has_occupied_edge(graph)
        if occupied and k != theta - graph.n + p:
            raise RuntimeError(
                "every maximal clique owns an occupied edge but the exact "
                "equality k = theta_e - n + p fails; library bug")
    opsut, predator = opsut_bound(graph), predator_bound(graph, p)
    return {
        "n": graph.n,
        "edges": graph.edge_count,
        "theta_e": theta,
        "k": k,
        "p": p,
        "opsut": opsut,
        "opsut_usable": max(opsut, 0) if graph.edge_count else 0,
        "predator_bound": predator,
        "predator_bound_usable": max(predator, 0),
        "union_tail": {str(i): bound for i, bound in enumerate(tail, 1)},
        "union_tail_best": [tail.index(max(tail)) + 1, max(tail)]
        if tail else None,
        "union_tail_variant": "subset-min variant",
        "census": census,
        "faces": planar.get("faces"),
        "planar_formula_k": planar.get("k_formula"),
        "planar_consistent": planar.get("consistent"),
        "occupied_equality": occupied,
    }
