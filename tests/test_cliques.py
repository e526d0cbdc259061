import hashlib
import random
from itertools import combinations, permutations

from conftest import (find_diamond_by_scan, find_hole_by_scan, mcs_order_by_scan,
                      occupied_edges_by_scan, random_graph)

from compnum.cliques import (_find_hole, _mcs_order, chordality,
                             every_clique_has_occupied_edge,
                             every_vertex_on_occupied_edge, is_diamond_free,
                             is_induced_cycle, maximal_cliques,
                             maximal_cliques_through, occupied_edges_by_clique,
                             simplicial_vertices,
                             verify_elimination_ordering)
from compnum.ecc import cover_checks, make_cover
from compnum.fixtures import effective_cover_example_graph
from compnum.graph import Graph
from compnum.smallgraphs import enumerate_small_graphs

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def test_maximal_cliques_basics():
    assert maximal_cliques(K3) == [(0, 1, 2)]
    assert maximal_cliques(DIAMOND) == [(0, 1, 2), (0, 1, 3)]


def test_maximal_cliques_worked_example():
    g = effective_cover_example_graph()
    assert maximal_cliques(g) == [
        (0, 1, 3, 8), (2, 3, 4), (3, 4, 5, 8), (5, 6), (6, 7), (7, 8)]


def test_maximal_cliques_isolated_vertex_is_singleton():
    g = Graph.from_edges(3, [(0, 1)])
    assert maximal_cliques(g) == [(0, 1), (2,)]


def test_maximal_cliques_through_a_vertex():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        w = rng.randrange(g.n)
        subset = [v for v in range(g.n) if v != w and rng.random() < 0.7]
        induced = sorted(subset + [w])
        index = {v: i for i, v in enumerate(induced)}
        sub = Graph.from_edges(len(induced), [(index[u], index[v])
                                              for u, v in g.edges()
                                              if u in index and v in index])
        expected = sorted(tuple(induced[i] for i in c)
                          for c in maximal_cliques(sub)
                          if index[w] in c and len(c) >= 2)
        found = maximal_cliques_through(g, w, sum(1 << v for v in subset))
        assert sorted(tuple(v for v in range(g.n) if (m >> v) & 1)
                      for m in found) == expected


def test_diamond_free():
    assert is_diamond_free(C4) == (True, None)
    flag, witness = is_diamond_free(DIAMOND)
    assert not flag and witness == (0, 1, 2, 3)
    flag, witness = is_diamond_free(effective_cover_example_graph())
    assert not flag
    # first quadruple that a brute ascending scan finds
    assert witness == (0, 3, 4, 8)


def test_diamond_free_matches_shared_edge_rule_exhaustively():
    for n in range(1, 6):
        for g in enumerate_small_graphs(n):
            free, witness = is_diamond_free(g)
            shared = any(
                sum(1 for c in maximal_cliques(g) if u in c and v in c) > 1
                for u, v in g.edges())
            assert free == (not shared)
            if not free:
                edges = sum(1 for a, b in combinations(witness, 2)
                            if g.has_edge(a, b))
                assert edges == 5


def test_diamond_witness_is_least_induced_diamond():
    # the witness is the first quadruple an ascending scan finds, at every n
    for n in range(1, 7):
        for g in enumerate_small_graphs(n):
            assert is_diamond_free(g) == find_diamond_by_scan(g)
    rng = random.Random(5)
    for n in (12, 20, 33, 40):
        for _ in range(3):
            g = random_graph(rng, n)
            assert is_diamond_free(g) == find_diamond_by_scan(g)
        for p in (0.05, 0.1):
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                     if rng.random() < p])
            assert is_diamond_free(g) == find_diamond_by_scan(g)


def occupied_edges(graph, clique):
    """The occupied edges of a maximal clique along the library's own path,
    the listing rebuild_star and both occupied-edge predicates read."""
    return dict(occupied_edges_by_clique(graph))[tuple(sorted(clique))]


def test_occupied_edges():
    assert occupied_edges(K3, (0, 1, 2)) == [(0, 1), (0, 2), (1, 2)]
    assert occupied_edges(DIAMOND, (0, 1, 2)) == [(0, 2), (1, 2)]
    for edge in [(0, 1), (1, 2), (2, 3)]:
        assert occupied_edges(C4, edge) == [edge]
    for g in (K3, DIAMOND, C4, P3):
        for c in maximal_cliques(g):
            assert occupied_edges(g, c) == occupied_edges_by_scan(g, c)


def test_occupied_union_covers_diamond_free_graphs():
    for n in range(2, 6):
        for g in enumerate_small_graphs(n):
            free, _ = is_diamond_free(g)
            collected = set()
            for c in maximal_cliques(g):
                if len(c) < 2:
                    continue
                occ = occupied_edges(g, c)
                assert set(occ) <= set(combinations(c, 2))
                collected.update(occ)
            if free:
                assert collected == set(g.edges())


def test_occupied_condition_predicates():
    assert every_clique_has_occupied_edge(K3)
    assert every_vertex_on_occupied_edge(DIAMOND) == (True, None)
    octa = Graph.from_edges(6, [(u, v) for u, v in combinations(range(6), 2)
                                if (u, v) not in [(0, 1), (2, 3), (4, 5)]])
    ok, witness = every_vertex_on_occupied_edge(octa)
    assert not ok and witness is not None


def test_chordality_p3():
    chordal, order = chordality(P3)
    assert chordal
    assert verify_elimination_ordering(P3, order)


def test_chordality_c4_hole():
    chordal, hole = chordality(C4)
    assert not chordal
    assert hole == (0, 1, 2, 3)
    assert is_induced_cycle(C4, hole)


def test_chordality_worked_example_has_hole():
    g = effective_cover_example_graph()
    chordal, hole = chordality(g)
    assert not chordal
    assert is_induced_cycle(g, hole)
    assert find_hole_by_scan(g) is not None


def test_chordality_agrees_with_hole_scan_exhaustively():
    for n in range(1, 7):
        for g in enumerate_small_graphs(n):
            chordal, witness = chordality(g)
            if find_hole_by_scan(g) is None:
                assert chordal
                assert verify_elimination_ordering(g, witness)
            else:
                assert not chordal
                assert is_induced_cycle(g, witness)


def test_chordality_random_larger_graphs():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, 9)
        chordal, witness = chordality(g)
        if chordal:
            assert verify_elimination_ordering(g, witness)
            assert find_hole_by_scan(g) is None
        else:
            assert is_induced_cycle(g, witness)


def test_mcs_order_matches_the_scan():
    for n in range(1, 7):
        for g in enumerate_small_graphs(n):
            assert _mcs_order(g) == mcs_order_by_scan(g)
    rng = random.Random(12)
    for _ in range(100):
        g = random_graph(rng, rng.randint(7, 30))
        assert _mcs_order(g) == mcs_order_by_scan(g)


def test_induced_cycle_matches_the_pair_scan():
    def by_pairs(g, cycle):
        m = len(cycle)
        return m >= 4 and len(set(cycle)) == m and all(
            g.has_edge(cycle[i], cycle[j]) == (j - i == 1 or (i, j) == (0, m - 1))
            for i, j in combinations(range(m), 2))

    for g in enumerate_small_graphs(5):
        for m in range(3, 6):
            for cycle in permutations(range(5), m):
                assert is_induced_cycle(g, cycle) == by_pairs(g, cycle)


def test_find_hole_beyond_twenty_vertices():
    # the ordering's failing pair (0; 1, 2) sits in a chordal K4 minus an
    # edge, so the hole must come from the search over all candidates
    edges = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3),
             (4, 5), (5, 6), (6, 7), (4, 7)]
    g = Graph.from_edges(25, edges)
    assert _find_hole(g, list(range(25))) == (4, 5, 6, 7)
    assert chordality(g) == (False, (4, 5, 6, 7))
    assert _find_hole(Graph.from_edges(25, edges[:5]), list(range(25))) is None


def test_simplicial_vertices():
    assert simplicial_vertices(K3) == (0, 1, 2)
    assert simplicial_vertices(C4) == ()
    assert simplicial_vertices(P3) == (0, 2)


def _pinned_graphs():
    """Every graph with n <= 6, then G(n, p) for n = 8..20 drawn from
    random.Random(31), three per n with p = .2, .35, .5."""
    for n in range(7):
        yield from enumerate_small_graphs(n)
    rng = random.Random(31)
    for n in range(8, 21):
        for p in (.2, .35, .5):
            yield Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                       if rng.random() < p])


def test_occupied_edges_and_chordality_are_pinned():
    # the hash was taken before the per-edge clique count replaced the
    # occupied-edge scan and one generator replaced the two elimination
    # ordering scans, and the chordality answers' hash, as (ok, witness)
    # pairs, before those pairs replaced the ordering and hole classes
    reprs = []
    for g in _pinned_graphs():
        cliques = [c for c in maximal_cliques(g) if len(c) >= 2]
        occupied = [occupied_edges_by_scan(g, c) for c in cliques]
        assert [occupied_edges(g, c) for c in cliques] == occupied
        assert every_clique_has_occupied_edge(g) == all(occupied)
        witness = next(((c, v) for c, occ in zip(cliques, occupied) for v in c
                        if not any(v in e for e in occ)), None)
        assert every_vertex_on_occupied_edge(g) == (witness is None, witness)
        for cover in (cliques, cliques[:-1], g.edges()):
            covers, maximal, _ = cover_checks(g, make_cover(g, cover))
            pairs = {e for c in cover for e in combinations(c, 2)}
            assert covers == (pairs == set(g.edges()))
            assert maximal == all(c in cliques for c in cover)
        reprs.append(repr(chordality(g)))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == ("1cf91d9b48f6c12337d0e6a42dfabea1"
                      "44bf2f6cf545e6e05b5a4d12373087e4")
