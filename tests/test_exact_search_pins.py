"""Pinned outputs and work counts of the exact search.

The pins were computed before the cover solver's edge numbering, the
competition-number ascent and the placement search's pruning were
reworked; each change must leave every answer and every witness
byte-identical.  The work counts are deterministic, so they gate the
search's cost without timing anything.
"""

import gc
import hashlib
import json
import random
from pathlib import Path

import pytest

from compnum import cliques, realizer
from compnum.cli import main
from compnum.cliques import maximal_clique_masks
from compnum.ecc import (_CoverSolver, cover_checks, cover_solver,
                         make_cover, min_edge_clique_cover, theta_e)
from compnum.graph import Graph, add_isolated, bits
from compnum.io import parse_graph6, serialize_graph6
from compnum.realizer import (_ascent, _Search, _search, _witnesses,
                              competition_number, max_predators_with,
                              primary_predator_index)
from compnum.smallgraphs import enumerate_small_graphs

ATLAS7 = Path(__file__).resolve().parents[1] / "bench" / "data" / "atlas7.g6"

# the caches that hold a query's walks and witnesses
QUERY_CACHES = (_search, _ascent)


def rg(n: int, p: float, seed: int) -> Graph:
    """G(n, p) drawn with random.Random(seed), one draw per pair u < v."""
    rnd = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n) if rnd.random() < p])


def prufer_tree(n: int, seed: int) -> Graph:
    """The labelled tree whose Pruefer sequence is drawn with
    random.Random(seed), as the benchmark builds it."""
    rnd = random.Random(seed)
    seq = [rnd.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(w for w in range(n) if degree[w] == 1))
    return Graph.from_edges(n, edges)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


K4_PLUS_3 = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C4_PLUS_3 = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 3)])

# (n, seed): sha256 of `pindex --json --witness` stdout, sha256 of the JSON
# of competition_number's witness arcs, and the minimum edge clique cover
# with each clique written as hex digits.
PINNED = {
    (12, 0): ("c6ed28fa46fbe87896a351102f6afd6a91460f27cf76331d5d0d36a15380d174",
              "e43771784b9456617f3d7b8bdc5bcfb77aa7e3689a11d742477cf8f632eeaabc",
              "034 0369 048 136 13b 2678 478 4ab 57 59"),
    (12, 4): ("e0c07cd17e1f535f4d8c503d157bc44591ff564d7172a1f52e97f1fbb8e1f68b",
              "55daba37b366f71b6d902c5ac8e8aa97dcea1fc7c08b01d840d6cf9986a00077",
              "012 0134 0135 014a 056 14ab 27b 359 48b 5689 568b 789"),
    (13, 4): ("a5bc317ec384f0e944923eb896b3e4fd3d79319bd467e2de299df921a3135495",
              "f6850bd4e82ec82e3bccf4011ed0500a1a2a53418e092f0a2f6818331b855fed",
              "013 014a 025 036c 129a 259b 467a 47b 48b 569c 58c 67c"),
    (13, 7): ("b589b5f435fb9ccbab9503bd95b2b290f5e9aa172e2da3d936f7423e31d9554c",
              "3f585373709363955352832a005e58271101faefd1c92004eb6ad4262c17e09a",
              "0124 019 026b 047 04c 0ab 125b 2358b 236b 34c 389 57a 5ac"),
    (14, 4): ("5221527102e9cb818e0da5b3d2f851854e38d53cb4c46a00d589942632d6b89a",
              "a594da2ba58883925a238b0ea6fd52308b4fadb2353e733b44d78b3122e8bb3b",
              "0123 023d 04c 056a 1239 128 239d 278 3bcd 469 46b 47bc 57b 58d 79a"),
    (14, 5): ("37eca9168c111e93777d28bdc90aceeccd51c280dc426ab576a88f2d5e0249f9",
              "8f674fa62c6e7288961e7b065bea202c1466e4faecb022c241cc1263ca0a2ebe",
              "078 07c 07d 126a 127 156a 16c 234a 349d 39b 3ab 3bc 45d 47c 568 68b"),
}


# seed: k, the most predators with k + 1 isolates, and sha256 of the JSON
# witness arcs of max_predators_with and of _witnesses' first plan at k + 1.
PINNED_ABOVE_K = {
    1: (3, 3, "9e22bdedce76f0bac9c28c126f8312761c399a9e6c0e85cd80e4686ffa16ec38",
        "5a4e2c901f5986e9f081f6196f3fbbd92f0827e671bc8f993dda3a6ae23959e1"),
    2: (3, 4, "414d95fe20443d07d01c668ab4c3f397804e5d5bc1bfddaaae1090212c8ca410",
        "70fc86becbb87aa255aa86d26d52346dd3daadde7bfccecec19f20922b97cb88"),
    3: (7, 3, "cde54be96b29ec3e8f82f690eed76f5c229d85ab94001c1592112815620edbe9",
        "66cd221367000efdc5146d8f57118e30016d3e770a66c19fa5b2da665c9ba02e"),
}


# sha256 of `pindex --json --witness` stdout on the benchmark's sparse
# graphs, where the placement search, not the cover solver, does the work.
PINNED_SPARSE = {
    "P400": (path(400),
             "68a2bd1fb64f97440e7185182637d75644b2679fde99a12d2d07ba20ea5f4a77"),
    "C400": (cycle(400),
             "fc91bf52c0f6a7aeb92b2d4bc802f96da11518e4eb666703a4efc556b92f3fc1"),
    "L100": (grid(2, 100),
             "c46c3ad58e0e594d597142762884260c3fc459eaa6dc751a1eccf6f3354353b0"),
    "K1_200": (star(200),
               "c9a35edc7df9fcdfc53b67984a1d3ba85309ee99e19cdb17277168078b5eff62"),
    "grid8x8": (grid(8, 8),
                "345335cdb2e4f5fc77e4d4cbec8de4000a45eb8781a0e28f1c631d207ec2501b"),
    "tree-60-0": (prufer_tree(60, 0),
                  "7b8a5b28d374269483ddcacbb95c616e98f76758897962314ae5fbc145cadb8f"),
}


def pindex_stdout(graph: Graph, tmp_path, capsys) -> str:
    path = tmp_path / "g.g6"
    path.write_text(serialize_graph6(graph) + "\n")
    assert main(["pindex", "--in", str(path), "--format", "g6",
                 "--json", "--witness"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n,seed", sorted(PINNED))
def test_pindex_stdout_is_pinned(n, seed, tmp_path, capsys):
    stdout = pindex_stdout(rg(n, .5, seed), tmp_path, capsys)
    assert sha256(stdout) == PINNED[n, seed][0]


@pytest.mark.parametrize("name", sorted(PINNED_SPARSE))
def test_sparse_pindex_stdout_is_pinned(name, tmp_path, capsys):
    graph, expected = PINNED_SPARSE[name]
    assert sha256(pindex_stdout(graph, tmp_path, capsys)) == expected


@pytest.mark.parametrize("n,seed", sorted(PINNED))
def test_competition_witness_is_pinned(n, seed):
    _, witness = competition_number(rg(n, .5, seed))
    assert sha256(json.dumps(witness.witness_arcs())) == PINNED[n, seed][1]


@pytest.mark.parametrize("n,seed", sorted(PINNED))
def test_min_edge_clique_cover_is_pinned(n, seed):
    cover = min_edge_clique_cover(rg(n, .5, seed))
    expected = tuple(tuple(int(c, 16) for c in word)
                     for word in PINNED[n, seed][2].split())
    assert cover == expected


@pytest.mark.parametrize("seed", sorted(PINNED_ABOVE_K))
def test_witnesses_above_the_competition_number_are_pinned(seed):
    graph = rg(12, .5, seed)
    k, predators, max_hash, feasible_hash = PINNED_ABOVE_K[seed]
    assert competition_number(graph)[0] == k
    p, witness = max_predators_with(graph, k + 1)
    assert p == predators
    assert sha256(json.dumps(witness.witness_arcs())) == max_hash
    witness = _witnesses(graph, k + 1)[0]
    assert sha256(json.dumps(witness.witness_arcs())) == feasible_hash


def test_graph_isolates_outnumbering_the_ascent_answer(tmp_path, capsys):
    # The graph's own isolates outnumber those its core needs, so k = 0
    # and the witness is walked with the graph's isolates as its budget.
    k, witness = competition_number(K4_PLUS_3)
    assert k == 0
    assert witness.witness_arcs() == [[0, 4], [1, 4], [2, 4], [3, 4]]
    assert sha256(pindex_stdout(K4_PLUS_3, tmp_path, capsys)) == (
        "7c59bd2450a53438943f4f96ebbc85232d8d43abefa912cf4e23eae14de2b75c")

    k, witness = competition_number(C4_PLUS_3)
    assert k == 0
    assert witness.witness_arcs() == [[0, 2], [0, 4], [1, 2], [1, 5],
                                      [2, 5], [2, 6], [3, 4], [3, 6]]

    k, witness = competition_number(add_isolated(rg(12, .5, 4), 4))
    assert k == 0
    assert sha256(json.dumps(witness.witness_arcs())) == (
        "d4c403c08c3fa4adab11a65dd20489618ab9fb8d511b9d01d5e89bceb0d4e21f")


def count_walks(monkeypatch) -> list:
    """The isolate budget of every placement walk from here on, with the
    walks of earlier queries forgotten."""
    for cached in QUERY_CACHES:
        cached.cache_clear()
    calls = []
    walk = _Search._walk

    def counting(self, budget):
        calls.append(budget)
        return walk(self, budget)

    monkeypatch.setattr(_Search, "_walk", counting)
    return calls


def cover_table_entries(graph: Graph) -> int:
    """Entries in every table of the graph's cover solver: the exact memo,
    the lower-bound table and the per-edge one.  It reads private attributes
    until the search exposes its work counters.  While the solver also kept
    a per-edge index dict, each count held one more entry per edge."""
    return sum(len(table) for table in vars(cover_solver(graph)).values()
               if isinstance(table, dict))


def test_cover_of_a_dense_graph_stays_small():
    # G(20, .6), drawn last when one random.Random(31) draws G(n, p) for
    # n = 8..20 and p = .2, .4, .6 in turn.  When theta_e had an exact
    # recursion of its own, the solver's tables held 5,090,526 entries
    # after theta_e and 7,226,453 after min_edge_clique_cover, and while it
    # also kept an upper-bound table, 26,589 after min_edge_clique_cover.
    # While it kept a per-edge index dict of the 124 edges, 11,740 and 26,550.
    rnd = random.Random(31)
    for n in range(8, 21):
        for p in (.2, .4, .6):
            graph = Graph.from_edges(n, [(u, v) for u in range(n)
                                         for v in range(u + 1, n)
                                         if rnd.random() < p])
    cover_solver.cache_clear()
    maximal = [tuple(bits(c)) for c in maximal_clique_masks(graph)]
    covers, _, minimum = cover_checks(graph, make_cover(graph, maximal))
    assert (len(maximal), covers, minimum) == (76, True, False)
    assert theta_e(graph) == 18
    assert cover_table_entries(graph) == 11_616
    assert len(min_edge_clique_cover(graph)) == 18
    assert cover_table_entries(graph) == 26_426


def test_ascent_searches_once_per_step_and_cover_memo_stays_small(monkeypatch):
    # rg(16, .5, 53) has theta_e = 18 and k = 5, so the ascent tries k = 4
    # (the floor 18 - 16 + 2, which its last two vertices do not refute)
    # and 5.  The walk at k = 5 is the witness's; no third search rebuilds
    # it.  Its exact cover memo held up to 200,000 entries before the walk
    # put threshold questions to the solver, and its tables 16,327 before
    # theta_e came from the threshold decision, 15,029 while the solver
    # also kept an upper-bound table, and 14,739 before the floor asked
    # about the stars of the vertices placed last; 14,747 while the solver
    # also kept a per-edge index dict of the 64 edges.
    cover_solver.cache_clear()
    calls = count_walks(monkeypatch)
    graph = rg(16, .5, 53)
    k = _ascent.__wrapped__(graph)[0]
    assert k == 5
    assert calls == [4, 5]
    assert cover_table_entries(graph) == 14_683


def test_threshold_answers_of_a_dense_query_match_exact_sizes(monkeypatch):
    # Every cover question the query puts to the solver, answered again
    # from a fresh solver's exact size.  An upper-bound table, since
    # deleted, decided 17 of this query's _bound calls and none on the
    # small graphs: sets whose cover was found above their lower bound and
    # asked again.  While the walks for k asked no theta_e goal, the query
    # asked 1,701 questions, while p built the k witness's plan again
    # when that plan had the fewest prey 1,737, before the floor asked
    # about the stars of the vertices placed last 1,702, and while each
    # walk asked whether all edges fit budget + n cliques before entering
    # its root 1,704.
    for cached in QUERY_CACHES + (cover_solver,):
        cached.cache_clear()
    graph = rg(16, .5, 53)
    asked = []
    at_most = _CoverSolver.at_most

    def recording(self, uncovered, t):
        answer = at_most(self, uncovered, t)
        asked.append((uncovered, t, answer))
        return answer

    monkeypatch.setattr(_CoverSolver, "at_most", recording)
    primary_predator_index(graph)
    monkeypatch.undo()
    fresh = _CoverSolver(graph.without_isolates()[0])
    assert len(asked) == 1_702
    for uncovered, t, answer in asked:
        assert answer == (fresh.size(uncovered) <= t), (uncovered, t)


@pytest.mark.parametrize("graph,isolates", [
    (K4_PLUS_3, 3), (add_isolated(rg(12, .5, 4), 4), 4)], ids=["K4+3", "rg12-4+4"])
def test_ascent_starts_from_the_bound_on_the_graph_itself(graph, isolates,
                                                          monkeypatch):
    # Opsut's bound on the graph is below 0 here and the graph has an
    # isolate, so k = 0 is the first step: one walk whose budget is the
    # graph's own isolates, and no step below it on the core.
    calls = count_walks(monkeypatch)
    assert _ascent.__wrapped__(graph)[0] == 0
    assert calls == [isolates]


def test_one_walk_per_budget_gives_the_k_and_the_p_witness(monkeypatch):
    # The walk's first plan is the k witness and its plan with the fewest
    # prey the p witness.  When the first plan has theta_e prey, none has
    # fewer, so both are the same plan, built and certified once.  The
    # ascent that finds k certifies both, so p then certifies nothing new.
    graphs = [g for n in range(7) for g in enumerate_small_graphs(n)]
    graphs += map(parse_graph6, ATLAS7.read_text(encoding="ascii").split())
    calls = count_walks(monkeypatch)
    certified = []
    certify = realizer.certify_realization

    def counting(*args):
        certified.append(args)
        return certify(*args)

    monkeypatch.setattr(realizer, "certify_realization", counting)
    shared = 0
    for graph in graphs:
        for cached in QUERY_CACHES:
            cached.cache_clear()
        calls.clear()
        k, first = competition_number(graph)
        assert len(calls) == len(set(calls))
        walked = list(calls)
        before = len(certified)
        p, witness = primary_predator_index(graph)
        assert len(certified) == before
        expected, expected_witness = max_predators_with(graph, k)
        assert calls == walked
        assert (witness is first) == (first.prey_count == theta_e(graph))
        shared += witness is first
        assert (p, witness.witness_arcs()) == (
            expected, expected_witness.witness_arcs())
    assert (len(graphs), shared) == (1253, 607)


def test_walks_leave_no_cyclic_garbage():
    # A walk's recursive closure must not keep its state alive until the
    # cyclic collector runs, however the walk ends: with no plan, stopped
    # by a theta_e-prey plan, or at its end with every plan above theta_e.
    # The totals pin which ending each walk took.
    shared = _Search(rg(12, .5, 4))
    endings = [(shared, 2, 12, None), (shared, 3, 12, (13, 12)),
               (_Search(rg(14, .5, 12)), 4, 15, (16, 16))]
    gc.collect()
    gc.disable()
    try:
        for search, budget, theta, totals in endings:
            found = search._walk(budget)
            assert search.solver.size(search.solver.full_mask) == theta
            assert (found and (found[0][0], found[1][0])) == totals
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [0, 3])
def test_edgeless_witnesses_are_pinned(n):
    graph = Graph(n, (0,) * n)
    k, witness = competition_number(graph)
    assert (k, witness.digraph.n, witness.witness_arcs()) == (0, n, [])
    for k in range(3):
        witness = _witnesses(graph, k)[0]
        assert (witness.k, witness.digraph.n, witness.witness_arcs()) == (k, n + k, [])
        assert (witness.prey_count, witness.predator_count) == (0, n + k)
        predators, witness = max_predators_with(graph, k)
        assert predators == n + k
        # theta_e = 0, so the witness is the one at 0 isolates; it was
        # (k, n + k, []) before k above theta_e was answered from theta_e
        assert (witness.k, witness.digraph.n, witness.witness_arcs()) == (0, n, [])


def test_core_queries_reuse_the_walks_made_for_the_graph(monkeypatch):
    # The sweep asks for k and p of a graph and then of its isolate-free
    # core; the core's walks are the graph's, shifted by its isolates.
    for cached in QUERY_CACHES:
        cached.cache_clear()
    graph = add_isolated(rg(12, .5, 1), 1)
    primary_predator_index(graph)
    calls = []
    walk = _Search._walk

    def counting(self, *args):
        calls.append(args)
        return walk(self, *args)

    monkeypatch.setattr(_Search, "_walk", counting)
    core, _ = graph.without_isolates()
    competition_number(core)
    primary_predator_index(core)
    assert calls == []


def pindex_work(graph: Graph, monkeypatch) -> dict[str, int]:
    """Calls of the cover solver's size, at_most and _bound, of
    Bron-Kerbosch and of the placement walk made by primary_predator_index
    on the graph, from empty caches; the greedy packings computed, one per
    _bound call on a mask without a lower bound; and the steps of
    realizer.bits, which the walk's vertex loop takes."""
    for cached in QUERY_CACHES + (cover_solver, maximal_clique_masks):
        cached.cache_clear()
    calls = {"size": 0, "at_most": 0, "bron_kerbosch": 0, "bound": 0,
             "packings": 0, "bits": 0, "walks": 0}
    size, at_most = _CoverSolver.size, _CoverSolver.at_most
    bound, bits_of = _CoverSolver._bound, realizer.bits
    bron_kerbosch, walk = cliques._bron_kerbosch, _Search._walk

    def counting_size(self, uncovered):
        calls["size"] += 1
        return size(self, uncovered)

    def counting_at_most(self, uncovered, t):
        calls["at_most"] += 1
        return at_most(self, uncovered, t)

    def counting_bron_kerbosch(*args):
        calls["bron_kerbosch"] += 1
        return bron_kerbosch(*args)

    def counting_bound(self, uncovered, t):
        calls["bound"] += 1
        calls["packings"] += uncovered not in self._lower
        return bound(self, uncovered, t)

    def counting_bits(mask):
        for b in bits_of(mask):
            calls["bits"] += 1
            yield b

    def counting_walk(self, budget):
        calls["walks"] += 1
        return walk(self, budget)

    monkeypatch.setattr(_CoverSolver, "size", counting_size)
    monkeypatch.setattr(_CoverSolver, "at_most", counting_at_most)
    monkeypatch.setattr(_CoverSolver, "_bound", counting_bound)
    monkeypatch.setattr(realizer, "bits", counting_bits)
    monkeypatch.setattr(cliques, "_bron_kerbosch", counting_bron_kerbosch)
    monkeypatch.setattr(_Search, "_walk", counting_walk)
    primary_predator_index(graph)
    monkeypatch.undo()
    return calls


def test_placement_search_work_counts(monkeypatch):
    # Children whose leftover cannot fit are skipped at the parent, and
    # each prefix's clique options come from its parent's.  Before that,
    # the tree took 67,399 size and 27,220 Bron-Kerbosch calls, and P400
    # 159,604 Bron-Kerbosch calls.  Before the walk put threshold questions
    # to the cover solver, the dense graphs' exact memos held 132,642 and
    # 274,859 entries, and before theta_e came from the threshold decision
    # their tables held 16,327 and 13,285.  While the solver also kept an
    # upper-bound table, their tables held 15,029 and 11,289 entries after
    # 17,970 and 13,194 _bound calls.  Before the floor asked about the
    # stars of the vertices placed last, the two took 18,049 and 13,203
    # _bound calls and held 14,739 and 11,280 entries, and while the solver
    # also kept a per-edge index dict (64 and 67 edges), 14,747 and 11,342.
    tree = pindex_work(prufer_tree(60, 0), monkeypatch)
    assert tree["size"] + tree["at_most"] < 5_000
    assert tree["bron_kerbosch"] < 1_500
    assert pindex_work(path(400), monkeypatch)["bron_kerbosch"] < 2_000
    for graph, bound, entries in ((rg(16, .5, 53), 18_057, 14_683),
                                  (rg(17, .5, 1), 13_274, 11_275)):
        assert pindex_work(graph, monkeypatch)["bound"] == bound
        assert cover_table_entries(graph) == entries


def test_predator_index_continues_the_competition_walk(monkeypatch):
    # rg(15, .5, 18) has k = 3, and its k witness has more than theta_e
    # prey.  The walk at k = 3 goes on from its first plan to the one with
    # the fewest prey; states it left before the first plan stay dead.
    # With a second walk at k = 3 for p, replaying the first one's dead
    # prefix, the query took 4 walks, 36,200 at_most calls and 35,305
    # realizer.bits steps.  Before the floor refuted k = 1 from the
    # vertices placed last, it walked k = 1 too: 3 walks, 18,311 at_most
    # calls and 22,714 steps.  While each walk asked a question of its own
    # before entering its root, the query took 18,004 at_most calls.
    work = pindex_work(rg(15, .5, 18), monkeypatch)
    assert (work["walks"], work["at_most"], work["bits"]) == (2, 18_002, 22_274)


@pytest.mark.parametrize("name,bound,packings,steps,questions", [
    ("tree-60-0", 871, 55, 1_688, 1_000), ("P400", 403, 3, 1_198, 1_605),
    ("C400", 803, 400, 1_200, 1_607), ("L100", 5_156, 101, 992, 1_003)])
def test_sparse_search_work_counts(name, bound, packings, steps, questions,
                                   monkeypatch):
    # A forced edge's child takes its packing from its parent, and the
    # walk leaves its vertex loop once no child can follow.  Before that,
    # the four graphs computed 867, 399, 797 and 5,149 packings, and the
    # tree took 32,619 realizer.bits steps; the _bound calls are the same.
    # p's witness is the k witness itself when the walk's first plan has
    # the fewest prey.  While p built that plan's digraph again, the four
    # took 1,690, 1,200, 1,204 and 1,192 steps and 1,059, 2,004, 2,007 and
    # 1,301 at_most calls.  Before the floor asked about the stars of the
    # vertices placed last, they took 868, 400, 798 and 5,150 _bound
    # calls, 53, 1, 398 and 99 packings and 999, 1,604, 1,606 and 1,002
    # at_most calls.  While each walk asked a question of its own before
    # entering its root, they took 1,001, 1,606, 1,608 and 1,004.
    work = pindex_work(PINNED_SPARSE[name][0], monkeypatch)
    assert (work["bound"], work["packings"], work["bits"],
            work["at_most"]) == (bound, packings, steps, questions)


def greedy_packing(solver: _CoverSolver, mask: int) -> int:
    """The solver's greedy packing of the edge set, recomputed: take the
    lowest-numbered edge, drop every edge that shares a maximal clique
    with it, and repeat."""
    count = 0
    while mask:
        e = (mask & -mask).bit_length() - 1
        for ci in solver.cliques_per_edge[e]:
            mask &= ~solver.clique_edge_masks[ci]
        count += 1
    return count


def test_forced_edges_pass_on_their_packing(monkeypatch):
    # A mask whose lower bound exists before its first _bound call, or
    # that _bound never saw, got that bound from a parent whose branching
    # edge lies in one maximal clique.  Such a bound must be the mask's own
    # packing, and every lower bound must hold against a fresh solver.
    graphs = [g for n in range(7) for g in enumerate_small_graphs(n)]
    graphs += map(parse_graph6, ATLAS7.read_text(encoding="ascii").split())
    graphs += [prufer_tree(60, seed) for seed in range(60)]
    bound = _CoverSolver._bound
    entered: set[int] = set()
    inherited: list[tuple[int, int]] = []

    def watching(self, uncovered, t):
        if uncovered not in entered:
            entered.add(uncovered)
            if uncovered in self._lower:
                inherited.append((uncovered, self._lower[uncovered]))
        return bound(self, uncovered, t)

    monkeypatch.setattr(_CoverSolver, "_bound", watching)
    passed_on = 0
    for graph in graphs:
        for cached in QUERY_CACHES + (cover_solver,):
            cached.cache_clear()
        entered.clear()
        inherited.clear()
        primary_predator_index(graph)
        core = graph.without_isolates()[0]
        solver = cover_solver(core)
        found = inherited + [(m, lo) for m, lo in solver._lower.items()
                             if m not in entered]
        fresh = _CoverSolver(core)
        for mask, lo in found:
            assert lo == greedy_packing(fresh, mask), (graph, mask)
        for mask, lo in solver._lower.items():
            assert lo <= fresh.size(mask), (graph, mask)
        passed_on += len(found)
    # 55,506 while p reused a k witness with theta_e prey, and 55,511
    # before the floor refuted budgets from the vertices placed last
    assert passed_on == 52_787
