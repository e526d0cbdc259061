"""Cross-checks against networkx, an implementation that shares no code
with the library: maximal cliques, chordality and its hole witnesses on
the n = 7 atlas and the golden sweep pool, and the built-in small-graph
enumeration against the networkx graph atlas."""

import json
import os

import pytest

from compnum.cliques import chordality, maximal_cliques
from compnum.io import parse_graph6
from compnum.smallgraphs import enumerate_small_graphs

nx = pytest.importorskip("networkx")

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "bench", "data")


def _corpus():
    """(graph6 line, library graph, networkx graph) for every graph of the
    n = 7 atlas and the golden sweep pool."""
    with open(os.path.join(DATA, "atlas7.g6"), encoding="ascii") as handle:
        lines = handle.read().split()
    with open(os.path.join(DATA, "golden.json"), encoding="ascii") as handle:
        lines += json.load(handle)["sweep_pool"]
    return [(line, parse_graph6(line), nx.from_graph6_bytes(line.encode()))
            for line in lines]


CORPUS = _corpus()


def _cycle_key(cycle) -> tuple[int, ...]:
    """A cycle in cycle order, rotated to start at its least vertex and
    walked towards the smaller of that vertex's two cycle neighbours."""
    k = cycle.index(min(cycle))
    cycle = list(cycle[k:]) + list(cycle[:k])
    if cycle[-1] < cycle[1]:
        cycle = cycle[:1] + cycle[:0:-1]
    return tuple(cycle)


def test_corpus_parses_alike():
    assert len(CORPUS) == 1044 + 300
    assert [line for line, graph, reference in CORPUS
            if graph.edges() != sorted(tuple(sorted(e))
                                       for e in reference.edges())] == []


def test_maximal_cliques_agree_with_find_cliques():
    assert [line for line, graph, reference in CORPUS
            if maximal_cliques(graph) != sorted(
                tuple(sorted(c)) for c in nx.find_cliques(reference))] == []


def test_chordality_agrees_with_is_chordal():
    assert [line for line, graph, reference in CORPUS
            if chordality(graph)[0] != nx.is_chordal(reference)] == []


def test_every_hole_is_a_chordless_cycle():
    wrong = []
    for line, graph, reference in CORPUS:
        chordal, hole = chordality(graph)
        if not chordal:
            cycles = {_cycle_key(c) for c in nx.chordless_cycles(reference)
                      if len(c) >= 4}
            if _cycle_key(hole) not in cycles:
                wrong.append(line)
    assert wrong == []


@pytest.mark.parametrize("n", range(7))
def test_enumeration_matches_the_graph_atlas(n):
    representatives = []
    for graph in enumerate_small_graphs(n):
        rep = nx.Graph()
        rep.add_nodes_from(range(n))
        rep.add_edges_from(graph.edges())
        representatives.append(rep)
    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]
    assert len(atlas) == len(representatives)
    for graph in atlas:
        matches = [rep for rep in representatives
                   if rep.number_of_edges() == graph.number_of_edges()
                   and nx.is_isomorphic(rep, graph)]
        assert len(matches) == 1
