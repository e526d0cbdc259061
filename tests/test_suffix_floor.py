"""The ascent's floor on k, ``realizer.k_floor``, against answers it did
not compute.

* Soundness: the floor never exceeds k.  On the n = 6 graphs, the n = 7
  atlas, the sweep pool and the golden dense queries, k is read from
  `bench/data/golden.json`, written before the floor refuted any budget.
  On n <= 5 the test's own unpruned search shows that k_floor - 1
  isolates do not suffice.
* Quasi-line graphs: where every neighbourhood is covered by at most two
  cliques, k(G) <= 2, with equality iff every neighbourhood needs two
  (McKay, Schweitzer and Schweitzer, Competition numbers, quasi-line
  graphs, and holes, SIAM J. Discrete Math. 2014).  Line graphs qualify.
  A pendant vertex drops the neighbourhood bound to 1; where k is still
  2, the two vertices placed last refute k = 1, so the ascent walks once.
"""

import pytest

from compnum.ecc import theta_e
from compnum.graph import Graph
from compnum.io import serialize_graph6
from compnum.realizer import _ascent, competition_number, k_floor
from compnum.smallgraphs import enumerate_small_graphs
from test_exact_search_pins import count_walks, rg
from test_lower_bounds import (atlas7, golden, realizable, sweep_pool,
                               vertex_clique_cover_number)


def line_graph(graph: Graph) -> Graph:
    """Vertices are the graph's edges, adjacent when they share an end."""
    edges = graph.edges()
    return Graph.from_edges(len(edges), [
        (i, j) for i, e in enumerate(edges) for j in range(i + 1, len(edges))
        if set(e) & set(edges[j])])


def with_pendant(graph: Graph) -> Graph:
    """The graph with a new vertex joined to vertex 0."""
    return Graph.from_edges(graph.n + 1, graph.edges() + [(0, graph.n)])


def test_floor_stays_below_the_unpruned_answer_on_small_graphs():
    checked = 0
    for n in range(6):
        for graph in enumerate_small_graphs(n):
            floor = k_floor(graph, theta_e(graph))
            assert floor == 0 or not realizable(graph, floor - 1), graph
            checked += 1
    assert checked == 53


@pytest.mark.parametrize("graphs, count", [
    (lambda: list(enumerate_small_graphs(6)), 156), (atlas7, 1044),
    (sweep_pool, 300),
], ids=["n=6", "atlas7", "sweep-pool"])
def test_floor_stays_below_the_golden_competition_number(graphs, count):
    records = golden()["sweep_records"]
    graphs = graphs()
    assert len(graphs) == count
    above = []
    for graph in graphs:
        record = records[serialize_graph6(graph)]
        if k_floor(graph, record["theta_e"]) > record["k"]:
            above.append(record["graph6"])
    assert above == []


def test_floor_stays_below_the_golden_dense_competition_numbers():
    known = {op_id: query for op_id, query in golden()["queries"].items()
             if op_id.startswith("rg-") and "k" in query}
    assert len(known) == 213
    above = []
    for op_id, query in known.items():
        n, seed = map(int, op_id.split("-")[1:])
        if k_floor(rg(n, .5, seed), query["theta_e"]) > query["k"]:
            above.append(op_id)
    assert above == []


QUASI_LINE = [(n, seed, pendant) for n in (7, 8, 9) for seed in range(4)
              for pendant in (False, True)]


@pytest.mark.parametrize("n, seed, pendant", QUASI_LINE)
def test_line_graphs_answer_from_one_walk(n, seed, pendant, monkeypatch):
    # L(rg(8, .5, 1)) has 17 vertices; its k = 1 walk, which finds no
    # plan, ran for minutes before the floor refuted k = 1, and with the
    # pendant vertex so did the k = 1 walk of a floor that looked at the
    # last vertex alone.
    graph = line_graph(rg(n, .5, seed))
    if pendant:
        graph = with_pendant(graph)
    calls = count_walks(monkeypatch)
    k = _ascent.__wrapped__(graph)[0]
    assert len(calls) == 1
    needs = [vertex_clique_cover_number(graph, row) for row in graph.rows]
    if max(needs) <= 2:
        assert k <= 2 and (k == 2) == (min(needs) == 2)
    assert k >= min(needs)


def test_the_line_graph_of_rg_8_1_and_its_pendant_extension():
    graph = line_graph(rg(8, .5, 1))
    assert (graph.n, graph.edge_count, theta_e(graph)) == (17, 61, 8)
    assert competition_number(graph)[0] == 2
    assert k_floor(graph, theta_e(graph)) == 2
    extended = with_pendant(graph)
    assert extended.n == 18
    assert competition_number(extended)[0] == 2
    assert k_floor(extended, theta_e(extended)) == 2
