import random
from itertools import combinations
from pathlib import Path

import pytest
from conftest import naive_min_cover, naive_theta_e
from test_lower_bounds import atlas7, small_graphs, sweep_pool

from compnum.cliques import maximal_cliques_through
from compnum.ecc import (_CoverSolver, cover_checks, make_cover,
                         min_edge_clique_cover, theta_e)
from compnum.fixtures import effective_cover_example_graph
from compnum.graph import Graph, bits
from compnum.io import parse_graph6
from compnum.smallgraphs import enumerate_small_graphs

ATLAS7 = Path(__file__).resolve().parents[1] / "bench" / "data" / "atlas7.g6"

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


def test_complete_graphs_need_one_clique():
    for n in range(2, 7):
        kn = Graph.from_edges(n, [(u, v) for u in range(n)
                                  for v in range(u + 1, n)])
        cover = min_edge_clique_cover(kn)
        assert cover == (tuple(range(n)),)


def test_worked_example_cover():
    g = effective_cover_example_graph()
    cover = min_edge_clique_cover(g)
    assert theta_e(g) == 6
    assert set(cover) == {
        (7, 8), (6, 7), (5, 6), (3, 4, 5, 8), (2, 3, 4), (0, 1, 3, 8)}
    assert cover_checks(g, cover) == (True, True, True)


def test_small_theta_values():
    assert theta_e(Graph(4, (0,) * 4)) == 0
    assert theta_e(DIAMOND) == 2
    assert theta_e(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 3
    assert theta_e(C4) == 4
    assert min_edge_clique_cover(Graph(3, (0, 0, 0))) == ()


def test_theta_matches_naive_enumeration_exhaustively():
    for n in range(1, 7):
        for g in enumerate_small_graphs(n):
            assert theta_e(g) == naive_theta_e(g)
            assert min_edge_clique_cover(g) == naive_min_cover(g)


def test_cover_is_deterministic_and_lex_least():
    g = effective_cover_example_graph()
    a = min_edge_clique_cover(g)
    b = min_edge_clique_cover(Graph(g.n, g.rows))
    assert a == b
    assert list(a) == sorted(a)


def test_edge_deletion_decreases_theta_by_at_most_one():
    rng = random.Random(99)
    for _ in range(150):
        g = random_graph_with_edges(rng)
        u, v = rng.choice(g.edges())
        smaller = Graph.from_edges(
            g.n, [e for e in g.edges() if e != (u, v)])
        assert theta_e(smaller) >= theta_e(g) - 1


def test_edge_deletion_can_increase_theta():
    # deleting the shared edge of the diamond leaves a 4-cycle, so a
    # deletion can raise the cover number; only the decrease is bounded
    c4_like = Graph.from_edges(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    assert theta_e(DIAMOND) == 2
    assert theta_e(c4_like) == 4


def random_graph_with_edges(rng):
    from conftest import random_graph
    while True:
        g = random_graph(rng, rng.randint(2, 6))
        if g.edge_count:
            return g


def test_make_cover_rejects_non_clique():
    with pytest.raises(ValueError):
        make_cover(C4, [(0, 2)])
    # a repeated vertex pairs with itself, which is no edge
    with pytest.raises(ValueError, match=r"^\(0, 1, 1\) is not a clique$"):
        make_cover(K3, [[1, 0, 1]])
    with pytest.raises(ValueError, match="^empty clique in cover$"):
        make_cover(K3, [[]])


def test_output_covers_consist_of_maximal_cliques():
    for n in range(2, 6):
        for g in enumerate_small_graphs(n):
            cover = min_edge_clique_cover(g)
            assert make_cover(g, cover) == cover
            assert cover_checks(g, cover) == (True, True, True)


def fewest_covering(clique_edge_masks, mask: int) -> int:
    """Fewest of the edge masks whose union contains the mask, by trying
    every subset in order of size."""
    for t in range(len(clique_edge_masks) + 1):
        for subset in combinations(clique_edge_masks, t):
            union = 0
            for em in subset:
                union |= em
            if mask & ~union == 0:
                return t
    raise AssertionError("the masks do not cover the edge set")


def test_repeated_theta_asks_the_memoized_size_once(monkeypatch):
    g = effective_cover_example_graph()
    assert theta_e(g) == 6
    calls = []
    at_most = _CoverSolver.at_most

    def counting_at_most(self, uncovered, t):
        calls.append(t)
        return at_most(self, uncovered, t)

    monkeypatch.setattr(_CoverSolver, "at_most", counting_at_most)
    assert theta_e(g) == 6
    assert calls == [6]


def test_cover_questions_match_brute_force_in_any_order():
    # The solver keeps every bound it has shown, so an answer may depend on
    # the questions asked before it; each graph gets a fresh solver and its
    # questions in a shuffled order.
    rng = random.Random(17)
    for g6 in ATLAS7.read_text(encoding="ascii").split():
        solver = _CoverSolver(parse_graph6(g6).without_isolates()[0])
        masks = {solver.full_mask}
        masks.update(rng.getrandbits(len(solver.edges)) for _ in range(3))
        exact = {m: fewest_covering(solver.clique_edge_masks, m) for m in masks}
        questions = [(m, t) for m in masks for t in range(exact[m] + 2)]
        questions += [(m, None) for m in masks]
        rng.shuffle(questions)
        for m, t in questions:
            if t is None:
                assert solver.size(m) == exact[m], (g6, m)
            else:
                assert solver.at_most(m, t) == (exact[m] <= t), (g6, m, t)


@pytest.mark.parametrize("graphs", [small_graphs, atlas7, sweep_pool],
                         ids=["n<=6", "atlas7", "sweep-pool"])
def test_stars_are_the_one_incidence_table(graphs):
    # Each vertex's star holds exactly its edges in the solver's numbering;
    # a clique's edge mask read off the stars equals the one built pair by
    # pair from that numbering, for every maximal clique and for the
    # cliques through w on the prefix below w and on all other vertices;
    # and the cover comes back as vertex masks in canonical order.
    for graph in graphs():
        core, keep = graph.without_isolates()
        solver = _CoverSolver(core)
        index = {e: i for i, e in enumerate(solver.edges)}
        assert solver.stars == [
            sum(1 << i for i, e in enumerate(solver.edges) if v in e)
            for v in range(core.n)]
        cliques = list(solver.clique_masks)
        for w in range(core.n):
            for prefix in ((1 << w) - 1, core.vertex_mask & ~(1 << w)):
                cliques += maximal_cliques_through(core, w, prefix)
        for c in cliques:
            pairwise = sum(1 << index[pair]
                           for pair in combinations(bits(c), 2))
            assert solver.edge_mask_of(reversed(list(bits(c)))) == pairwise
        cover = solver.lex_min_cover(solver.full_mask)
        assert list(cover) == sorted(cover, key=solver.clique_masks.index)
        assert tuple(tuple(keep[v] for v in bits(c)) for c in cover) == (
            min_edge_clique_cover(graph))
