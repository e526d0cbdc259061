from collections import Counter
from itertools import combinations

import pytest
from conftest import EXPECTED_SINKS

from compnum import constructions, realizer
from compnum.bounds import union_tail_bounds
from compnum.cliques import chordality, every_vertex_on_occupied_edge
from compnum.constructions import (NotChordalError, chordal_realizer,
                                   hall_certificate, rebuild_star,
                                   simplicial_family_realizer,
                                   verify_effective_cover)
from compnum.ecc import make_cover, min_edge_clique_cover, theta_e
from compnum.fixtures import (effective_cover_example_cover,
                              effective_cover_example_digraph,
                              effective_cover_example_graph)
from compnum.graph import Digraph, Graph, add_isolated, bits, competition_graph
from compnum.realizer import (RealizationError, competition_number,
                              primary_predator_index)
from compnum.smallgraphs import enumerate_small_graphs

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
            realization, cover = chordal_realizer(g)
            assert realization.prey_count == theta_e(g)
            cert = verify_effective_cover(g, cover, realization.digraph)
            assert cert["valid"]
            assert primary_predator_index(g)[0] == g.n + 1 - theta_e(g)


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


def test_simplicial_family_preconditions():
    cover = min_edge_clique_cover(C4)
    with pytest.raises(ValueError):
        simplicial_family_realizer(C4, cover, [0, 1])      # wrong size
    with pytest.raises(ValueError):
        simplicial_family_realizer(C4, cover, [0, 1, 9])   # out of range
    incomplete = make_cover(C4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        simplicial_family_realizer(C4, incomplete, [0, 1, 2])


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


@pytest.mark.parametrize("build", [
    lambda: chordal_realizer(BULL),
    lambda: simplicial_family_realizer(C4, min_edge_clique_cover(C4), [0, 2, 3]),
], ids=["chordal", "simplicial-family"])
def test_builders_refuse_a_sink_map_other_than_their_own(monkeypatch, build):
    verify = constructions._verify

    def shifted(graph, cover, digraph):
        cert, labeling = verify(graph, cover, digraph)
        sinks = [w for _, w in cert["sink_map"]]
        rotated = [[i, w] for i, w in enumerate(sinks[1:] + sinks[:1])]
        return {**cert, "sink_map": rotated}, labeling

    monkeypatch.setattr(constructions, "_verify", shifted)
    with pytest.raises(RealizationError, match="construction failed"):
        build()


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
    cert, labeling = constructions._verify(effective_cover_example_graph(),
                                           effective_cover_example_cover(), d)
    assert cert["valid"]
    return d, labeling


def _built(realization):
    return realization.digraph, realization.labeling


def test_verify_effective_cover_checks_the_digraph_once(monkeypatch):
    # and each builder, whose verify step reuses the check's labeling
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (constructions, realizer):
        for name in ("competition_graph", "acyclic_labeling"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for graph, build in (
            (effective_cover_example_graph(), _verified_fixture),
            (BULL, lambda: _built(chordal_realizer(BULL)[0])),
            (C4, lambda: _built(simplicial_family_realizer(
                C4, min_edge_clique_cover(C4), [0, 1, 2])))):
        competition_number(graph)
        calls.clear()
        digraph, labeling = build()
        assert all(labeling[u] > labeling[v] for u, v in digraph.arcs)
        assert calls == {"competition_graph": 1, "acyclic_labeling": 1}


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
    cert, cycle = constructions._verify(TWO_K2, cover, CYCLIC)
    assert cert == verify_effective_cover(TWO_K2, cover, CYCLIC)
    assert not cert["valid"] and cert["failure"] == "digraph contains a cycle"
    assert _failed(cert) == ["digraph is acyclic"]
    assert cert["sink_map"] is None and cycle == (2, 3)


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
