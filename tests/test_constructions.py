import hashlib
import json
import re
from collections import Counter
from itertools import combinations

import pytest
from conftest import EXPECTED_SINKS, occupied_edges_by_scan

from compnum import constructions, realizer
from compnum.bounds import union_tail_bounds
from compnum.cliques import (chordality, every_vertex_on_occupied_edge,
                             maximal_cliques)
from compnum.constructions import (NotChordalError, chordal_realizer,
                                   hall_certificate, rebuild_star,
                                   simplicial_family_realizer,
                                   verify_effective_cover)
from compnum.ecc import make_cover, min_edge_clique_cover, theta_e
from compnum.fixtures import (effective_cover_example_cover,
                              effective_cover_example_digraph,
                              effective_cover_example_graph)
from compnum.graph import (Digraph, Graph, acyclic_labeling, add_isolated, bits,
                           competition_graph)
from compnum.io import parse_edge_list, serialize_graph6
from compnum.realizer import (RealizationError, certify_realization,
                              competition_number, primary_predator_index)
from compnum.smallgraphs import enumerate_small_graphs
from test_lower_bounds import atlas7, small_graphs, sweep_pool

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def _strip(graph):
    keep = [v for v in range(graph.n) if graph.rows[v]]
    index = {v: i for i, v in enumerate(keep)}
    rows = tuple(sum(1 << index[u] for u in bits(graph.rows[v])) for v in keep)
    return Graph(len(keep), rows)


# ---------------------------------------------------------------- chordal


def test_chordal_realizer_p3():
    realization, cover = chordal_realizer(P3)
    assert realization.k == 1 and realization.prey_count == 2
    assert realization.predator_count == 2
    assert set(cover) == {(0, 1), (1, 2)}
    assert competition_graph(realization.digraph) == add_isolated(P3, 1)


def test_chordal_realizer_k3():
    realization, cover = chordal_realizer(K3)
    assert realization.digraph.arcs == ((0, 3), (1, 3), (2, 3))
    assert realization.prey_count == 1 and realization.predator_count == 3


def test_chordal_realizer_star():
    realization, cover = chordal_realizer(STAR)
    assert theta_e(STAR) == 3
    assert realization.prey_count == 3 and realization.predator_count == 2
    assert primary_predator_index(STAR)[0] == 2


def test_chordal_realizer_requires_chordal_and_clean_input():
    with pytest.raises(NotChordalError):
        chordal_realizer(C4)
    with pytest.raises(ValueError):
        chordal_realizer(Graph.from_edges(3, [(0, 1)]))
    with pytest.raises(ValueError):
        chordal_realizer(Graph(3, (0, 0, 0)))


def test_chordal_realizer_exhaustive():
    # every chordal graph without isolated vertices realizes with one
    # isolate, exactly theta_e prey, and hence p = n + 1 - theta_e
    for n in range(2, 7):
        for g in enumerate_small_graphs(n):
            if g.edge_count == 0 or g.isolated_vertices():
                continue
            if not chordality(g)[0]:
                continue
            misses = realizer._ascent.cache_info().misses
            realization, cover = chordal_realizer(g)
            # one isolate is k(G) by the floor argument: no search is run
            assert realizer._ascent.cache_info().misses == misses
            assert realization.prey_count == theta_e(g)
            cert = verify_effective_cover(g, cover, realization.digraph)
            assert cert["valid"]
            assert primary_predator_index(g)[0] == g.n + 1 - theta_e(g)


GRAPH_SETS = pytest.mark.parametrize("graphs", [
    small_graphs, atlas7, sweep_pool], ids=["n<=6", "atlas7", "sweep-pool"])


@GRAPH_SETS
def test_chordal_cover_cliques_are_closed_later_neighbourhoods(graphs):
    # chordal_realizer's sink rule relies on this without checking it: in
    # its perfect elimination ordering each cover clique is the closed
    # later neighbourhood of its earliest vertex, and the first cover
    # clique holds the first vertex, which is simplicial
    cores = dict.fromkeys(core for g in graphs()
                          for core in [g.without_isolates()[0]]
                          if core.edge_count and chordality(core)[0])
    for core in cores:
        _, cover = chordal_realizer(core)
        order = chordality(core)[1]
        pos = {v: i for i, v in enumerate(order)}
        for clique in cover:
            head = min(clique, key=pos.get)
            later = {u for u in bits(core.rows[head]) if pos[u] > pos[head]}
            assert set(clique) == {head} | later, (core, clique)
        assert order[0] in cover[0], core
    assert len(cores) == {"small_graphs": 93, "atlas7": 392,
                          "sweep_pool": 29}[graphs.__name__]


@GRAPH_SETS
def test_certified_witnesses_feed_every_clique_the_builders_read(graphs):
    # rebuild_star and hall_certificate rely on these without checking
    # them: in a certified realization of a graph where every vertex of a
    # maximal clique lies on an edge that clique occupies, the ends of
    # some occupied edge of each clique share a prey, and in any certified
    # realization each minimum-cover clique feeds a prey with two members
    occupied_edge_graphs = 0
    for g in graphs():
        if not g.edge_count:
            continue
        cliques = [c for c in maximal_cliques(g) if len(c) >= 2]
        occupied = [occupied_edges_by_scan(g, c) for c in cliques]
        hypothesis = all(set(c) == {v for edge in edges for v in edge}
                         for c, edges in zip(cliques, occupied))
        occupied_edge_graphs += hypothesis
        masks = [sum(1 << v for v in c) for c in min_edge_clique_cover(g)]
        for witness in (competition_number(g)[1],
                        primary_predator_index(g)[1]):
            out, into = witness.digraph.out_rows, witness.digraph.in_rows
            if hypothesis:
                assert all(any(out[u] & out[v] for u, v in edges)
                           for edges in occupied), g
            assert all(any((into[w] & mask).bit_count() >= 2
                           for w in range(witness.digraph.n))
                       for mask in masks), g
    assert occupied_edge_graphs == {"small_graphs": 173, "atlas7": 655,
                                    "sweep_pool": 69}[graphs.__name__]


# ------------------------------------------------------------ rebuild star


def test_rebuild_star_c4():
    k, witness = competition_number(C4)
    rebuilt = rebuild_star(C4, witness.digraph)
    assert rebuilt.prey_count == 4 and rebuilt.predator_count == 2


def test_rebuild_star_bowtie():
    k, witness = competition_number(BOWTIE)
    rebuilt = rebuild_star(BOWTIE, witness.digraph)
    assert (BOWTIE.n, k, theta_e(BOWTIE)) == (5, 1, 2)
    assert rebuilt.prey_count == 2 and rebuilt.predator_count == 4
    assert primary_predator_index(BOWTIE)[0] == 4


def test_rebuild_star_k3_single_clique():
    k, witness = competition_number(K3)
    rebuilt = rebuild_star(K3, witness.digraph)
    assert rebuilt.prey_count == 1
    assert competition_graph(rebuilt.digraph) == add_isolated(K3, 1)


def test_rebuild_star_rejects_missing_occupied_vertex():
    octa = Graph.from_edges(6, [(u, v) for u, v in combinations(range(6), 2)
                                if (u, v) not in [(0, 1), (2, 3), (4, 5)]])
    ok, _ = every_vertex_on_occupied_edge(octa)
    assert not ok
    k, witness = competition_number(octa)
    with pytest.raises(ValueError):
        rebuild_star(octa, witness.digraph)


def test_rebuild_star_exhaustive_diamond_free():
    from compnum.cliques import is_diamond_free
    for n in range(2, 7):
        for g in enumerate_small_graphs(n):
            if g.edge_count == 0 or g.isolated_vertices():
                continue
            if not is_diamond_free(g)[0]:
                continue
            k, witness = competition_number(g)
            rebuilt = rebuild_star(g, witness.digraph)
            assert rebuilt.prey_count == theta_e(g)
            cover = min_edge_clique_cover(g)
            cert = verify_effective_cover(g, cover, rebuilt.digraph)
            assert cert["valid"]


# --------------------------------------------------- simplicial families


def test_simplicial_family_p3():
    cover = min_edge_clique_cover(P3)
    realization = simplicial_family_realizer(P3, cover, [0, 1])
    assert realization.k == 1 and realization.prey_count == 2


def test_simplicial_family_k3():
    cover = min_edge_clique_cover(K3)
    realization = simplicial_family_realizer(K3, cover, [0])
    assert realization.digraph.arcs == ((0, 3), (1, 3), (2, 3))


def test_simplicial_family_c4():
    cover = min_edge_clique_cover(C4)
    assert cover == ((0, 1), (0, 3), (1, 2), (2, 3))
    # three consecutive edges span a path whose endpoints are simplicial
    realization = simplicial_family_realizer(C4, cover, [0, 2, 3])
    assert realization.k == 2 and realization.prey_count == 4


@pytest.mark.parametrize("cover, family, message", [
    (min_edge_clique_cover(C4), [0, 1], "family must have"),
    (min_edge_clique_cover(C4), [0, 1, 9], "family indices out of range"),
    (make_cover(C4, [(0, 1), (1, 2), (2, 3)]), [0, 1, 2], "cover must be"),
    # an index that is not an int, a bool included
    (min_edge_clique_cover(C4), [0, 2.0, 3], "family indices must be ints"),
    (min_edge_clique_cover(C4), ["0", 2, 3], "family indices must be ints"),
    (min_edge_clique_cover(C4), [True, 2, 3], "family indices must be ints"),
], ids=["wrong-size", "out-of-range", "incomplete-cover", "index-a-float",
        "index-a-str", "index-a-bool"])
def test_simplicial_family_preconditions(cover, family, message):
    with pytest.raises(ValueError, match=message):
        simplicial_family_realizer(C4, cover, family)


def test_simplicial_family_rejects_simplicial_shortage():
    # any four edges of a 5-cycle span a path with just two simplicial
    # endpoints, one short of the three the construction needs
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    cover = min_edge_clique_cover(c5)
    k, _ = competition_number(c5)
    assert (theta_e(c5), k) == (5, 2)
    with pytest.raises(ValueError, match="simplicial"):
        simplicial_family_realizer(c5, cover, [0, 1, 2, 3])


BULL = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


# a central triangle whose three edges each lie in one more triangle: four
# maximal cliques, but the three outer ones cover every edge
SUN = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4),
                           (2, 4), (0, 5), (2, 5)])


@pytest.mark.parametrize("graph, cover, sinks, k, reason", [
    (P3, ((0, 1), (1, 2)), [2, 0], 0, "digraph contains a cycle: (0, 2)"),
    (P3, ((0, 1), (1, 2)), [3, 3], 1, "competition graph mismatch"),
    (P3, ((0, 1), (0, 1), (1, 2)), [3, 3, 4], 2,
     "prey count differs from cover size"),
    (SUN, ((0, 1, 2), (0, 1, 3), (1, 2, 4), (0, 2, 5)), [6, 7, 8, 9], 4,
     "cover is not a minimum cover of maximal cliques"),
], ids=["cyclic-sinks", "repeated-sink", "repeated-clique-and-sink",
        "cover-not-minimum"])
def test_builders_refuse_what_is_not_an_effective_cover(graph, cover, sinks,
                                                        k, reason):
    with pytest.raises(RealizationError, match="^test construction failed: "
                                               + re.escape(reason) + "$"):
        constructions._effective(graph, cover, sinks, k, "test")


# ------------------------------------------------------------ verification


def test_verify_effective_cover_worked_example():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    cert = verify_effective_cover(g, cover, d)
    assert cert["valid"] and cert["failure"] is None
    assert tuple(w for _, w in cert["sink_map"]) == EXPECTED_SINKS
    assert len({w for _, w in cert["sink_map"]}) == 6  # six distinct prey


def _verified_fixture():
    d = effective_cover_example_digraph()
    cert = verify_effective_cover(effective_cover_example_graph(),
                                  effective_cover_example_cover(), d)
    assert cert["valid"]
    # the test's own binding, which the call counts below do not see
    return d, acyclic_labeling(d)[1]


def _built(realization):
    return realization.digraph, realization.labeling


def test_verify_effective_cover_checks_the_digraph_once(monkeypatch):
    # and each builder, which certifies its digraph once.  The verifier and
    # the certifier both compare the competition graph's rows, built by
    # clique_rows from the digraph's in-rows (a tuple; the family builder
    # also calls it on a generator of masks, which is not counted), with
    # the graph's plus k isolates'
    calls = Counter()

    def counted(name, fn, counts=lambda *args: True):
        def wrapper(*args):
            calls[name] += counts(*args)
            return fn(*args)
        return wrapper

    for module in (constructions, realizer):
        monkeypatch.setattr(module, "clique_rows", counted(
            "competition graph", module.clique_rows,
            lambda n, masks: type(masks) is tuple))
        monkeypatch.setattr(module, "acyclic_labeling", counted(
            "acyclic_labeling", getattr(module, "acyclic_labeling")))
    for graph, build in (
            (effective_cover_example_graph(), _verified_fixture),
            (BULL, lambda: _built(chordal_realizer(BULL)[0])),
            (C4, lambda: _built(simplicial_family_realizer(
                C4, min_edge_clique_cover(C4), [0, 1, 2]))),
            (BOWTIE, lambda: _built(rebuild_star(BOWTIE)))):
        competition_number(graph)
        calls.clear()
        digraph, labeling = build()
        assert all(labeling[u] > labeling[v] for u, v in digraph.arcs)
        assert calls == {"competition graph": 1, "acyclic_labeling": 1}


def test_verify_effective_cover_non_minimum():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    padded = make_cover(g, cover + ((6, 7),))
    cert = verify_effective_cover(g, padded, d)
    assert not cert["valid"] and cert["failure"] == "cover not minimum"
    assert _failed(cert) == [
        "cover minimum", "prey count equals cover size", "sinks assigned"]


def test_verify_effective_cover_non_clique():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    bad = cover + ((0, 2),)
    cert = verify_effective_cover(g, bad, d)
    assert cert == {
        "valid": False,
        "failure": "cover contains a non-clique",
        "checks": {
            "cliques are cliques": False,
            "covers all edges": False,
            "cover minimum": False,
            "all cliques maximal": False,
            "isolate count equals competition number": True,
            "competition graph matches": True,
            "digraph is acyclic": True,
            "prey count equals cover size": False,
            "sinks assigned": False,
        },
        "sink_map": None,
    }


def test_verify_effective_cover_missing_arc():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    broken = Digraph.from_arcs(d.n, [a for a in d.arcs if a != (8, 6)])
    cert = verify_effective_cover(g, cover, broken)
    assert not cert["valid"] and cert["failure"] == "competition graph mismatch"


def test_verify_effective_cover_every_arc_matters():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    for drop in d.arcs:
        broken = Digraph.from_arcs(d.n, [a for a in d.arcs if a != drop])
        assert not verify_effective_cover(g, cover, broken)["valid"]


def test_verify_effective_cover_clique_mutations():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    shrunk = cover[:-1]
    cert = verify_effective_cover(g, shrunk, d)
    assert not cert["valid"]
    assert cert["failure"] == "cover does not cover all edges"
    assert _failed(cert) == [
        "covers all edges", "cover minimum", "prey count equals cover size"]
    swapped = cover[:-1] + ((1, 3),)
    cert = verify_effective_cover(g, swapped, d)
    assert not cert["valid"]
    assert _failed(cert) == [
        "covers all edges", "cover minimum", "all cliques maximal"]


# 2K2 plus one isolate is the competition graph of this digraph, but the
# digraph has the cycle 2 -> 3 -> 2.
TWO_K2 = Graph.from_edges(4, [(0, 3), (1, 2)])
CYCLIC = Digraph.from_arcs(5, [(0, 2), (1, 3), (2, 3), (3, 2)])


def test_verify_effective_cover_rejects_a_cycle():
    assert competition_graph(CYCLIC) == add_isolated(TWO_K2, 1)
    cover = make_cover(TWO_K2, [(0, 3), (1, 2)])
    cert = verify_effective_cover(TWO_K2, cover, CYCLIC)
    assert not cert["valid"] and cert["failure"] == "digraph contains a cycle"
    assert _failed(cert) == ["digraph is acyclic"]
    assert cert["sink_map"] is None
    assert acyclic_labeling(CYCLIC) == (False, (2, 3))


def _failed(cert) -> list[str]:
    return [name for name, ok in cert["checks"].items() if not ok]


# ------------------------------------------------------------------- hall


def test_hall_certificate_worked_example():
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    cert = hall_certificate(g, cover, d)
    sinks = [w for _, w in cert["matching"]]
    assert len(sinks) == 6 and len(set(sinks)) == 6
    for (i, w), members in zip(cert["matching"], cert["sets"]):
        assert w in members


def test_hall_certificate_k3_and_c4():
    k, witness = competition_number(K3)
    cert = hall_certificate(K3, min_edge_clique_cover(K3), witness.digraph)
    assert len(cert["matching"]) == 1
    assert cert["sets"][0] == (3,)
    k, witness = competition_number(C4)
    cert = hall_certificate(C4, min_edge_clique_cover(C4), witness.digraph)
    assert len(cert["matching"]) == 4


def test_hall_certificate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hall_certificate(C4, make_cover(C4, [(0, 1)]),
                         Digraph.from_arcs(4, ()))
    cover = min_edge_clique_cover(C4)
    with pytest.raises(ValueError):
        hall_certificate(C4, cover, Digraph.from_arcs(6, ()))


@pytest.mark.parametrize("cover", [
    ((0, 1),),
    # theta_e maximal cliques, but (0, 3) is left uncovered
    ((0, 1), (0, 1), (1, 2), (2, 3)),
    # every edge by maximal cliques, one more than theta_e
    ((0, 1), (0, 1), (0, 3), (1, 2), (2, 3)),
    # a vertex outside 0..n-1, or one that is not an int
    ((0, 9),),
    ((-1, 0),),
    ((0, 1), (1, 2.0), (2, 3), (0, 3)),
    ((0, 1), (True, 2), (2, 3), (0, 3)),
], ids=["one-clique", "misses-an-edge", "one-too-many", "vertex-too-large",
        "vertex-negative", "vertex-a-float", "vertex-a-bool"])
@pytest.mark.parametrize("use", [
    lambda cover: hall_certificate(C4, cover,
                                   competition_number(C4)[1].digraph),
    lambda cover: simplicial_family_realizer(C4, cover, [0, 2, 3]),
    lambda cover: union_tail_bounds(C4, cover),
], ids=["hall", "simplicial-family", "union-tail"])
def test_a_cover_is_checked_against_the_graph_where_it_is_used(cover, use):
    with pytest.raises(ValueError, match="^cover must be a minimum cover of "
                                         "maximal cliques$"):
        use(cover)


def test_hall_certificate_rejects_a_cycle():
    cover = make_cover(TWO_K2, [(0, 3), (1, 2)])
    with pytest.raises(ValueError, match="digraph contains a cycle"):
        hall_certificate(TWO_K2, cover, CYCLIC)


@pytest.mark.parametrize("use", [
    competition_graph,
    acyclic_labeling,
    lambda digraph: certify_realization(C4, digraph, 2),
    lambda digraph: rebuild_star(C4, digraph),
    lambda digraph: hall_certificate(C4, None, digraph),
    lambda digraph: verify_effective_cover(C4, min_edge_clique_cover(C4),
                                           digraph),
], ids=["competition-graph", "acyclic-labeling", "certify", "rebuild-star",
        "hall", "verify-effective"])
def test_a_graph_given_as_the_digraph_is_rejected_before_any_search(
        monkeypatch, use):
    # an arc list with no arcs parses as a Graph
    graph = parse_edge_list("6 0\n")
    assert type(graph) is Graph

    def exact_search(*args):
        raise AssertionError("exact search started")

    monkeypatch.setattr(constructions, "competition_number", exact_search)
    with pytest.raises(ValueError, match="^digraph must be a Digraph$"):
        use(graph)


@pytest.mark.parametrize("use", [
    competition_number,
    primary_predator_index,
    theta_e,
    chordality,
    maximal_cliques,
    lambda graph: add_isolated(graph, 1),
    serialize_graph6,
    lambda graph: verify_effective_cover(graph, [(0, 1)],
                                         Digraph.from_arcs(3, [(0, 2)])),
], ids=["knumber", "pindex", "theta", "chordality", "maximal-cliques",
        "add-isolated", "graph6", "verify-effective"])
def test_a_digraph_given_as_the_graph_is_rejected(use):
    with pytest.raises(ValueError, match="^graph must be a Graph$"):
        use(Digraph.from_arcs(3, [(0, 2), (1, 2)]))


def test_hall_certificate_never_fails_exhaustively():
    for n in range(2, 6):
        for g in enumerate_small_graphs(n):
            if g.edge_count == 0:
                continue
            cover = min_edge_clique_cover(g)
            for witness in (competition_number(g)[1],
                            primary_predator_index(g)[1]):
                cert = hall_certificate(g, cover, witness.digraph)
                assert len(cert["matching"]) == len(cover)


def test_verifier_records_and_star_rebuilds_are_pinned():
    # the hash was taken before the verifier compared adjacency rows
    # instead of building two graphs, and before rebuild_star read the
    # occupied edges from one listing in the clique layer
    reprs = []
    for g in small_graphs():
        if not g.edge_count:
            continue
        k_witness = competition_number(g)[1].digraph
        digraphs = (k_witness, primary_predator_index(g)[1].digraph,
                    Digraph.from_arcs(k_witness.n, k_witness.arcs[:-1]),
                    Digraph.from_arcs(k_witness.n + 1, k_witness.arcs),
                    Digraph.from_arcs(g.n - 1, ()))
        covers = (min_edge_clique_cover(g),
                  tuple(c for c in maximal_cliques(g) if len(c) >= 2))
        for cover in covers:
            for digraph in digraphs:
                record = verify_effective_cover(g, cover, digraph)
                reprs.append(json.dumps(record, sort_keys=True))
        core, _ = g.without_isolates()
        if every_vertex_on_occupied_edge(core)[0]:
            rebuilt = rebuild_star(core)
            reprs.append(repr((rebuilt.digraph.arcs, rebuilt.sink_map)))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == ("0bfe6a0634b07e14d69af74ef50d9515"
                      "0dd9064163140c60c574d941fba85afa")
