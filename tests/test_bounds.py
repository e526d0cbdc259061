import hashlib
import json
from itertools import combinations

import pytest

from compnum.bounds import (bounds_report, clique_census, opsut_bound,
                            planar_formula_check, predator_bound,
                            union_tail_bounds)
from compnum.cliques import chordality, is_diamond_free
from compnum.constructions import hall_certificate
from compnum.ecc import min_edge_clique_cover, theta_e
from compnum.fixtures import effective_cover_example_graph
from compnum.graph import Graph
from compnum.realizer import competition_number, primary_predator_index
from compnum.smallgraphs import enumerate_small_graphs
from test_exact_search_pins import cycle, grid, rg
from test_lower_bounds import atlas7, small_graphs, sweep_pool

C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_opsut_bound_examples():
    assert opsut_bound(effective_cover_example_graph()) == -1
    assert opsut_bound(C4) == 2
    assert opsut_bound(K3) == 0


def test_predator_bound_examples():
    fig = effective_cover_example_graph()
    assert predator_bound(fig, 4) == 1 == competition_number(fig)[0]
    assert predator_bound(C4, 2) == 2 == competition_number(C4)[0]
    edgeless = Graph(5, (0,) * 5)
    assert predator_bound(edgeless, 5) == 0 == competition_number(edgeless)[0]


def scanned_union_tails(cover) -> tuple[int, ...]:
    """Test oracle: for each index k, the least union over every
    (t - k + 1)-subset of the t cover cliques, minus t, plus k."""
    t = len(cover)
    return tuple(min(len(set().union(*subset))
                     for subset in combinations(cover, t - k + 1)) - t + k
                 for k in range(1, t + 1))


def best_of(tail) -> tuple[int, int]:
    """The first index reaching the largest bound, with that bound."""
    return tail.index(max(tail)) + 1, max(tail)


def test_union_tail_bounds_c4():
    tail = union_tail_bounds(C4, min_edge_clique_cover(C4))
    assert tail == (1, 2, 2, 2)
    assert best_of(tail) == (2, 2)


def test_union_tail_k1_is_vertex_count_identity():
    for g in (C4, K3, BOWTIE, effective_cover_example_graph()):
        cover = min_edge_clique_cover(g)
        support = len({v for c in cover for v in c})
        assert union_tail_bounds(g, cover)[0] == support - len(cover) + 1


def test_union_tail_bounds_match_the_subset_scan_on_small_graphs():
    graphs = [g for g in small_graphs() + atlas7() + sweep_pool()
              if g.edge_count]
    assert len(graphs) == 1545
    for g in graphs:
        cover = min_edge_clique_cover(g)
        assert union_tail_bounds(g, cover) == scanned_union_tails(cover), g


@pytest.mark.parametrize("graph", [cycle(12), grid(3, 4), rg(16, .5, 53)],
                         ids=["C12", "grid-3-4", "rg-16-53"])
def test_union_tail_bounds_match_the_subset_scan_where_the_search_prunes(
        graph):
    cover = min_edge_clique_cover(graph)
    assert union_tail_bounds(graph, cover) == scanned_union_tails(cover)


def test_union_tail_never_exceeds_exact_p_on_effective_graphs():
    from compnum.cliques import every_vertex_on_occupied_edge
    for n in range(2, 6):
        for g in enumerate_small_graphs(n, connected_only=True):
            if g.edge_count == 0:
                continue
            chordal, _ = chordality(g)
            strong, _ = every_vertex_on_occupied_edge(g)
            if not (chordal or strong):
                continue
            cover = min_edge_clique_cover(g)
            p, _ = primary_predator_index(g)
            assert max(union_tail_bounds(g, cover)) <= p


def test_clique_census():
    assert clique_census(C4) == (4, 0, 0)
    assert clique_census(K4) == (0, 0, 1)
    assert clique_census(BOWTIE) == (0, 2, 0)
    k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    with pytest.raises(ValueError):
        clique_census(k5)


def test_planar_formula_examples():
    single = Graph(1, (0,))
    res = planar_formula_check(single, 1)
    assert (res["faces"], res["k_formula"], res["consistent"]) == (1, 0, True)
    res = planar_formula_check(C4, 2)
    assert (res["faces"], res["k_formula"], res["k_exact"]) == (2, 2, 2)
    assert res["consistent"]
    res = planar_formula_check(P4, 2)
    assert (res["faces"], res["k_formula"], res["k_exact"]) == (1, 1, 1)
    assert res["consistent"]


def test_planar_formula_rejections():
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        planar_formula_check(disconnected, 2)
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(ValueError):
        planar_formula_check(diamond, 2)
    k7ish = Graph.from_edges(7, [(u, v) for u in range(7)
                                 for v in range(u + 1, 7)])
    with pytest.raises(ValueError):
        planar_formula_check(k7ish, 2)


def test_bounds_report_worked_example():
    report = bounds_report(effective_cover_example_graph())
    assert (report["theta_e"], report["k"], report["p"]) == (6, 1, 4)
    assert report["opsut"] == -1 and report["predator_bound"] == 1
    assert report["census"] == [3, 1, 2]
    assert report["faces"] is None        # has a diamond, formula inapplicable
    assert report["opsut_usable"] == 0
    assert report["predator_bound_usable"] == 1
    assert report["union_tail_variant"] == "subset-min variant"


def test_bounds_report_union_tail_best_is_the_first_best_index():
    for n in range(2, 7):
        for g in enumerate_small_graphs(n):
            if g.edge_count == 0:
                continue
            tail = scanned_union_tails(min_edge_clique_cover(g))
            assert bounds_report(g)["union_tail_best"] == list(best_of(tail))


def test_bounds_report_planar_case():
    report = bounds_report(C4)
    assert report["census"] == [4, 0, 0]
    assert report["faces"] == 2 and report["planar_formula_k"] == 2
    assert report["planar_consistent"]
    assert report["occupied_equality"]


def test_census_sum_equals_theta_on_planar_diamond_free():
    from compnum.cliques import maximal_cliques
    for n in range(2, 7):
        for g in enumerate_small_graphs(n, connected_only=True):
            if g.edge_count == 0 or not is_diamond_free(g)[0]:
                continue
            if n >= 3 and g.edge_count > 3 * n - 6:
                continue
            if any(len(c) >= 5 for c in maximal_cliques(g)):
                continue  # a K5 slips past the edge-count planarity guard
            c2, c3, c4 = clique_census(g)
            assert c2 + c3 + c4 == theta_e(g)


def test_bound_ordering_invariants():
    for n in range(2, 6):
        for g in enumerate_small_graphs(n, connected_only=True):
            p, _ = primary_predator_index(g)
            k, _ = competition_number(g)
            assert predator_bound(g, p) >= opsut_bound(g)
            assert predator_bound(g, p) <= k


def test_report_records_are_pinned():
    graphs = [g for n in range(6) for g in enumerate_small_graphs(n)]
    graphs.append(effective_cover_example_graph())
    assert len(graphs) == 54
    rows = []
    for g in graphs:
        p, p_witness = primary_predator_index(g)
        _, k_witness = competition_number(g)
        try:
            planar = planar_formula_check(g, p)
        except ValueError as exc:
            planar = str(exc)
        cover = min_edge_clique_cover(g)
        rows.append([
            bounds_report(g), planar,
            hall_certificate(g, cover, k_witness.digraph),
            hall_certificate(g, cover, p_witness.digraph)])
    # The digest was cd1a1799... while opsut_usable read 2 on K0 and 1 on
    # K1; with both at 0 the records are otherwise the same.
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "7aa0d24e7efaf1e890b31267f51d073e42b2b6675c5667030b883f056ab4e768")


def test_usable_bounds_never_exceed_k():
    # Opsut's bound is 2 on K0 and 1 on K1, whose k is 0: it is a floor
    # only for graphs with an edge.
    for n in range(7):
        for g in enumerate_small_graphs(n):
            report = bounds_report(g)
            usable = [v for key, v in report.items() if key.endswith("_usable")]
            assert len(usable) == 2
            assert max(usable) <= report["k"], g
