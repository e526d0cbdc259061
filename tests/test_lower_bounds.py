"""Opsut's two lower bounds on the competition number as oracles for the
side of k that no witness proves: that no smaller k works.

* For a graph with an edge, k(G) >= theta_e(G) - n + 2.
* For every graph, k(G) >= the least over v of theta(N(v)), the number of
  cliques needed to cover the vertices of v's neighbourhood: the
  lowest-labelled vertex of G sends its arcs to added isolates only
  (Opsut, SIAM J. Algebraic Discrete Methods, 1982).

On a connected triangle-free graph with at least two vertices the first
bound is attained, k(G) = |E| - |V| + 2 (Roberts, 1978), so there the
same oracle also checks the search from above.

The bounds are checked on the n <= 6 graphs, the n = 7 atlas, the golden
sweep pool and the golden dense queries with a known k, whose k and
theta_e are read from `bench/data/golden.json`.

Where the bounds fall short of k, an unpruned placement search of its own
decides k - 1 and k.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from compnum.ecc import theta_e
from compnum.graph import Graph, bits
from compnum.io import parse_graph6, serialize_graph6
from compnum.realizer import _Search, competition_number
from compnum.smallgraphs import enumerate_small_graphs
from test_exact_search_pins import rg

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def cliques_through(graph: Graph, v: int, within: int) -> list[int]:
    """The cliques containing v that are maximal inside the vertex set
    ``within``, as masks."""
    return bron_kerbosch(graph, 1 << v, graph.rows[v] & within)


def bron_kerbosch(graph: Graph, clique: int, candidates: int) -> list[int]:
    """The cliques containing ``clique`` that are maximal inside
    ``clique | candidates``, as masks, by plain Bron-Kerbosch; every
    candidate must see all of ``clique``."""
    found = []

    def extend(clique: int, candidates: int, excluded: int):
        if not candidates and not excluded:
            found.append(clique)
        for u in bits(candidates):
            extend(clique | 1 << u, candidates & graph.rows[u],
                   excluded & graph.rows[u])
            candidates &= ~(1 << u)
            excluded |= 1 << u

    extend(clique, candidates, 0)
    return found


def vertex_clique_cover_number(graph: Graph, mask: int) -> int:
    """The least number of cliques covering the vertex set ``mask``.  Its
    lowest vertex lies in some clique of an optimal cover, and widening
    that clique to one maximal inside the set leaves less to cover."""
    @lru_cache(maxsize=None)
    def cover(rest: int) -> int:
        if not rest:
            return 0
        v = (rest & -rest).bit_length() - 1
        return 1 + min(cover(rest & ~clique)
                       for clique in cliques_through(graph, v, rest))

    return cover(mask)


def neighbourhood_bound(graph: Graph) -> int:
    return min((vertex_clique_cover_number(graph, row) for row in graph.rows),
               default=0)


def is_triangle_free(graph: Graph) -> bool:
    return not any(graph.rows[u] & graph.rows[v] for u, v in graph.edges())


def bound_failures(graph: Graph, k: int, theta: int) -> list[str]:
    """The bounds that k breaks on the graph, by name."""
    failures = []
    m = graph.edge_count
    if m and k < theta - graph.n + 2:
        failures.append("theta_e - n + 2")
    if k < neighbourhood_bound(graph):
        failures.append("min theta(N(v))")
    if (graph.n >= 2 and graph.is_connected() and is_triangle_free(graph)
            and k != m - graph.n + 2):
        failures.append("triangle-free |E| - |V| + 2")
    return failures


def floor(graph: Graph) -> int:
    """The largest closed-form floor on k: theta_e - n + 2 for a graph
    with an edge, and the neighbourhood bound, which is at least 1 on a
    graph without isolates."""
    opsut = theta_e(graph) - graph.n + 2 if graph.edge_count else 0
    return max(opsut, neighbourhood_bound(graph))


def realizable(graph: Graph, k: int) -> bool:
    """Whether the graph plus k isolates is the competition graph of an
    acyclic digraph, decided in the placement walk's model without its
    prunes or tables: a plain memoized search over (placed vertices,
    uncovered edges).  Each vertex, placed in some order, may host one
    clique of two or more vertices maximal among those placed before it,
    enumerated afresh for each placed set; the k isolates, last, cover the
    leftover edges, one clique each, found by trying every maximal clique
    of the graph through the lowest leftover edge."""
    edges = graph.edges()
    everyone = graph.vertex_mask

    def edge_mask(clique: int) -> int:
        return sum(1 << i for i, (u, v) in enumerate(edges)
                   if clique >> u & clique >> v & 1)

    cliques = [edge_mask(c) for c in bron_kerbosch(graph, 0, everyone)]

    def cover_fits(uncovered: int, t: int) -> bool:
        if not uncovered:
            return True
        low = uncovered & -uncovered
        return t > 0 and any(cover_fits(uncovered & ~c, t - 1)
                             for c in cliques if c & low)

    @lru_cache(maxsize=None)
    def hosted(placed: int) -> list[int]:
        # hosting nothing, or one clique of two or more vertices
        return [0] + [edge_mask(c) for c in bron_kerbosch(graph, 0, placed)
                      if c & (c - 1)]

    @lru_cache(maxsize=None)
    def search(placed: int, uncovered: int) -> bool:
        if placed == everyone:
            return cover_fits(uncovered, k)
        return any(search(placed | 1 << w, uncovered & ~c)
                   for w in bits(everyone & ~placed) for c in hosted(placed))

    return search(0, (1 << len(edges)) - 1)


def small_graphs() -> list[Graph]:
    return [g for n in range(7) for g in enumerate_small_graphs(n)]


def atlas7() -> list[Graph]:
    lines = (DATA / "atlas7.g6").read_text(encoding="ascii").split()
    return [parse_graph6(line) for line in lines]


def golden() -> dict:
    return json.loads((DATA / "golden.json").read_text(encoding="ascii"))


def sweep_pool() -> list[Graph]:
    return [parse_graph6(line) for line in golden()["sweep_pool"]]


@pytest.mark.parametrize("graphs, count", [
    (small_graphs, 209), (atlas7, 1044), (sweep_pool, 300),
], ids=["n<=6", "atlas7", "sweep-pool"])
def test_competition_number_meets_opsuts_bounds(graphs, count):
    graphs = graphs()
    assert len(graphs) == count
    failures = [(g, bound) for g in graphs
                for bound in bound_failures(g, competition_number(g)[0],
                                            theta_e(g))]
    assert failures == []


@pytest.mark.parametrize("graphs, count", [
    (small_graphs, 11), (atlas7, 142),
], ids=["n<=6", "atlas7"])
def test_unpruned_search_decides_k_where_the_floors_fall_short(graphs, count):
    # Only the library's walk refutes k - 1 on these graphs: no closed-form
    # floor reaches their k.  The golden sweep pool's 60 such graphs, on 8
    # and 9 vertices, are left out: they take about 20 s.
    unproven = [(g, k) for g in graphs() for k in [competition_number(g)[0]]
                if k > floor(g)]
    wrong = [(serialize_graph6(g), k) for g, k in unproven
             if realizable(g, k - 1) or not realizable(g, k)]
    assert wrong == []
    assert len(unproven) == count


def test_walk_finds_a_plan_exactly_where_the_unpruned_search_does():
    # Every budget from 0 to theta_e, those below Opsut's floor included,
    # which no library caller walks: the walk enters its root without a
    # question of its own, so a root whose edges do not fit its room must
    # find nothing by itself.  K_{3,3} has theta_e = 9 > n = 6.
    graphs = [g for g in small_graphs() if not g.isolated_vertices()]
    graphs.append(Graph.from_edges(6, [(i, j) for i in range(3)
                                       for j in range(3, 6)]))
    cases = [(g, search, b) for g in graphs for search in [_Search(g)]
             for b in range(theta_e(g) + 1)]
    assert (len(graphs), len(cases)) == (157, 784)
    wrong = [(serialize_graph6(g), b) for g, search, b in cases
             if (search._walk(b) is None) != (not realizable(g, b))]
    assert wrong == []


def test_golden_dense_competition_numbers_meet_opsuts_bounds():
    known = {op_id: query for op_id, query in golden()["queries"].items()
             if op_id.startswith("rg-") and "k" in query}
    assert len(known) == 213
    failures = []
    for op_id, query in known.items():
        n, seed = map(int, op_id.split("-")[1:])
        graph = rg(n, .5, seed)
        failures += [(op_id, bound) for bound in
                     bound_failures(graph, query["k"], query["theta_e"])]
    assert failures == []


@pytest.mark.parametrize("graph, expected", [
    (Graph(0, ()), 0),
    (Graph(3, (0, 0, 0)), 0),
    # P3: the middle vertex's neighbours are not adjacent
    (Graph.from_edges(3, [(0, 1), (1, 2)]), 1),
    # C4: every neighbourhood is two non-adjacent vertices
    (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 2),
    # K4 minus an edge: the degree-2 vertices see an edge
    (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 1),
    # the 5-cycle's complement is a 5-cycle; each neighbourhood is 2K1
    (Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 2),
    # K_{3,3}: each neighbourhood is three independent vertices
    (Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]), 3),
])
def test_neighbourhood_bound_by_hand(graph, expected):
    assert neighbourhood_bound(graph) == expected
