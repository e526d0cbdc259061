import random
from itertools import combinations

import pytest
from conftest import dag_oracle, random_graph, raw_dag_oracle

from compnum.ecc import theta_e
from compnum.fixtures import effective_cover_example_graph
from compnum.graph import Digraph, Graph, add_isolated, competition_graph
from compnum.realizer import (RealizationError, _Search, _witnesses,
                              certify_realization, competition_number,
                              max_predators_with, primary_predator_index)
from compnum.smallgraphs import enumerate_small_graphs

K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_clique_options_are_the_prefix_maximal_cliques():
    # Each prefix's options are derived from its parent's, carried
    # forward; they must be the maximal cliques of the prefix, as a subset
    # scan lists them.
    rng = random.Random(4)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8))
        search = _Search(g)
        prefix, options = [], ()
        for w in rng.sample(range(g.n), g.n):
            prefix.append(w)
            cliques = [c for size in range(2, len(prefix) + 1)
                       for c in combinations(sorted(prefix), size)
                       if g.is_clique(c)]
            maximal = [c for c in cliques
                       if not any(set(c) < set(d) for d in cliques)]
            placed = sum(1 << v for v in prefix)
            options = search._clique_options(placed, w, options)
            assert [members for _, members, _, _ in options] == sorted(
                maximal, key=lambda c: (-len(c), c))


def test_k2_witnesses():
    assert max_predators_with(K2, 0) is None
    first, fewest = _witnesses(K2, 1)
    assert first is fewest
    assert first.digraph.arcs == ((0, 2), (1, 2))
    assert first.prey_count == 1 and first.predator_count == 2


def test_realizable_witnesses_verify():
    # both witnesses at k: the walk's first plan and its fewest-prey plan
    for n in range(1, 6):
        for g in enumerate_small_graphs(n):
            k, _ = competition_number(g)
            for witness in _witnesses(g, k):
                assert competition_graph(witness.digraph) == add_isolated(g, k)
                labels = witness.labeling
                assert all(labels[u] > labels[v]
                           for u, v in witness.digraph.arcs)
                assert witness.prey_count + witness.predator_count == g.n + k


@pytest.mark.parametrize("call,error,message", [
    (lambda: certify_realization(
        K2, Digraph.from_arcs(4, [(0, 2), (1, 2)]), 1),
     RealizationError, "^digraph has 4 vertices, expected 3$"),
    (lambda: max_predators_with(K2, -1),
     ValueError, "^isolate count must be nonnegative$"),
    # checked before the search runs, not after
    (lambda: max_predators_with(K2, 1.5), ValueError, "^k must be an int$"),
    (lambda: max_predators_with(K2, True), ValueError, "^k must be an int$"),
], ids=["vertex-count", "negative-k", "float-k", "bool-k"])
def test_realizer_rejects_inconsistent_counts(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_isolates_past_theta_e_build_no_larger_digraph(monkeypatch):
    # P3 has theta_e = 2: from 2 isolates on, the fewest prey are 2, so
    # the witness at 2 answers every larger count, each further isolate
    # being a predator
    sizes = []
    init = Digraph.__init__

    def recording(self, n, arcs):
        sizes.append(n)
        init(self, n, arcs)

    monkeypatch.setattr(Digraph, "__init__", recording)
    predators, witness = max_predators_with(P3, 10**6)
    assert predators == 1_000_001
    assert (witness.k, witness.prey_count) == (2, 2)
    assert sizes and max(sizes) <= 5


def test_certification_never_vouches_for_another_digraph():
    k, witness = competition_number(C4)
    assert certify_realization(C4, witness.digraph, k) == witness
    # 0 -> 5 makes 0 compete with 2, which C4 does not join to 0
    arcs = witness.digraph.arcs
    assert (0, 4) in arcs and (0, 5) not in arcs
    moved = Digraph.from_arcs(6, [(0, 5) if a == (0, 4) else a for a in arcs])
    for _ in range(2):
        with pytest.raises(RealizationError, match="graph mismatch"):
            certify_realization(C4, moved, k)


def test_competition_number_values():
    assert competition_number(Graph(4, (0,) * 4))[0] == 0
    assert competition_number(K3)[0] == 1
    assert competition_number(P3)[0] == 1
    assert competition_number(C4)[0] == 2
    assert competition_number(effective_cover_example_graph())[0] == 1


def test_competition_number_with_graph_isolates():
    # a graph that carries its own isolated vertex absorbs the added one
    g = Graph.from_edges(3, [(0, 1)])
    k, witness = competition_number(g)
    assert k == 0
    assert competition_graph(witness.digraph) == g


def test_primary_predator_index_values():
    assert primary_predator_index(Graph(4, (0,) * 4))[0] == 4
    assert primary_predator_index(K3)[0] == 3
    assert primary_predator_index(C4)[0] == 2
    assert primary_predator_index(effective_cover_example_graph())[0] == 4


def test_min_prey_values():
    assert primary_predator_index(K3)[1].prey_count == 1
    assert primary_predator_index(C4)[1].prey_count == 4
    assert primary_predator_index(Graph(3, (0, 0, 0)))[1].prey_count == 0


def test_max_predators_with_examples():
    assert max_predators_with(K2, 1)[0] == 2
    assert max_predators_with(K3, 1)[0] == 3
    assert max_predators_with(P3, 1)[0] == 2
    assert max_predators_with(C4, 1) is None


def test_oracle_examples():
    assert dag_oracle(K2, 1) == dag_oracle(K2, 1)
    assert dag_oracle(K2, 1).max_predators == 2
    assert dag_oracle(K3, 1).max_predators == 3
    assert dag_oracle(P3, 1).max_predators == 2
    assert dag_oracle(K2, 0).realizable is False


def test_oracle_cap():
    with pytest.raises(ValueError):
        dag_oracle(C4, 3, cap=6)


def test_oracle_matches_raw_enumeration():
    # the memoized oracle against a literal sweep of every placement
    for n in range(1, 4):
        for g in enumerate_small_graphs(n):
            for k in range(0, 5 - n):
                fast = dag_oracle(g, k)
                raw = raw_dag_oracle(g, k)
                assert fast.realizable == raw[0]
                assert fast.max_predators == raw[1]


def test_search_matches_oracle_small():
    for n in range(1, 4):
        for g in enumerate_small_graphs(n):
            for k in range(3):
                oracle = dag_oracle(g, k)
                best = max_predators_with(g, k)
                assert (best is not None) == oracle.realizable
                if oracle.realizable:
                    assert best[0] == oracle.max_predators


def test_search_matches_oracle_everywhere_the_oracle_reaches():
    for n in range(1, 6):
        for g in enumerate_small_graphs(n):
            for k in range(0, 7 - n):
                oracle = dag_oracle(g, k, cap=6)
                best = max_predators_with(g, k)
                assert (best is not None) == oracle.realizable
                if oracle.realizable:
                    assert best[0] == oracle.max_predators


def test_theorem_floors_all_graphs_up_to_six():
    # the floors hold on every isomorphism class, disconnected ones included
    for n in range(1, 7):
        for g in enumerate_small_graphs(n):
            theta = theta_e(g)
            k, _ = competition_number(g)
            p, witness = primary_predator_index(g)
            if n >= 2:
                assert p >= 2
            assert k >= theta - g.n + p
            assert witness.prey_count >= theta
            assert witness.prey_count == g.n + k - p
