import random

import pytest
from conftest import (acyclic_labeling_by_scan, brute_competition_graph,
                      has_directed_cycle, random_digraph, random_graph)

from compnum.fixtures import effective_cover_example_digraph, effective_cover_example_graph
from compnum.graph import (Digraph, Graph, acyclic_labeling, add_isolated,
                           competition_graph)


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


def test_graph_validation_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_from_edges_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_edge_count_is_half_degree_sum():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 7))
        degrees = [sum(g.has_edge(v, u) for u in range(g.n)) for v in range(g.n)]
        assert g.edge_count == sum(degrees) // 2


def test_digraph_rejects_self_arc_and_duplicates():
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 0)])
    assert Digraph.from_arcs(2, [(0, 1), (0, 1)]).arcs == ((0, 1),)
    # built directly, the arcs must strictly increase
    with pytest.raises(ValueError):
        Digraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Digraph(2, ((1, 0), (0, 1)))
    assert Digraph(2, ((0, 1), (1, 0))).arcs == ((0, 1), (1, 0))


def test_competition_graph_arcless():
    d = Digraph.from_arcs(5, [])
    assert competition_graph(d) == Graph(5, (0,) * 5)


def test_competition_graph_worked_example():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    assert competition_graph(d) == add_isolated(g, 1)


def test_competition_graph_matches_pair_scan():
    rng = random.Random(42)
    for _ in range(400):
        d = random_digraph(rng, rng.randint(1, 7))
        assert competition_graph(d) == brute_competition_graph(d)


def test_acyclic_labeling_arcless_tie_break():
    assert acyclic_labeling(Digraph.from_arcs(3, [])) == (True, (1, 2, 3))


def test_acyclic_labeling_worked_example_is_index_order():
    d = effective_cover_example_digraph()
    # arcs descend in the fixture's vertex subscripts, so v_i gets label
    # i+1 and the pure sink v0 gets label 1
    assert acyclic_labeling(d) == (True, (2, 3, 4, 5, 6, 7, 8, 9, 10, 1))


def test_acyclic_labeling_two_cycle_witness():
    assert acyclic_labeling(Digraph.from_arcs(2, [(0, 1), (1, 0)])) == (False, (0, 1))


def test_acyclic_labeling_agrees_with_cycle_search():
    rng = random.Random(5)
    for _ in range(400):
        d = random_digraph(rng, 6, p=0.25)
        acyclic, witness = acyclic_labeling(d)
        assert acyclic != has_directed_cycle(d)
        if acyclic:
            assert sorted(witness) == list(range(1, d.n + 1))
            assert all(witness[u] > witness[v] for u, v in d.arcs)
        else:
            arcs = set(d.arcs)
            for i, u in enumerate(witness):
                assert (u, witness[(i + 1) % len(witness)]) in arcs


def test_acyclic_labeling_matches_the_scan():
    # Arcs go down a shuffled order, so ready vertices tie; a cycle, when
    # the extra arc closes one, is found after a prefix is labeled.
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 30)
        rank = list(range(n))
        rng.shuffle(rank)
        p = rng.choice((0.05, 0.15, 0.4))
        arcs = [(u, v) for u in range(n) for v in range(n)
                if rank[u] > rank[v] and rng.random() < p]
        if n >= 2 and rng.random() < 0.5:
            # one arc up the order, which may close a cycle
            arcs.append(tuple(sorted(rng.sample(range(n), 2), key=rank.__getitem__)))
        d = Digraph.from_arcs(n, set(arcs))
        assert acyclic_labeling(d) == acyclic_labeling_by_scan(d)
    for _ in range(300):
        d = random_digraph(rng, rng.randint(1, 12), p=rng.choice((0.1, 0.3)))
        assert acyclic_labeling(d) == acyclic_labeling_by_scan(d)


def test_add_isolated():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert add_isolated(k2, 0) == k2
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    bigger = add_isolated(k3, 1)
    assert bigger.n == 4 and bigger.edge_count == 3
    assert bigger.isolated_vertices() == (3,)
    assert add_isolated(Graph(2, (0, 0)), 3) == Graph(5, (0,) * 5)
