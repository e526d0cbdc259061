"""Pinned outputs and work counts of the exact search.

The pins were computed before the cover solver's edge numbering and the
competition-number ascent were reworked; both changes must leave every
answer and every witness byte-identical.  The work counts are
deterministic, so they gate the search's cost without timing anything.
"""

import hashlib
import json
import random

import pytest

from compnum.cli import main
from compnum.ecc import cover_solver, min_edge_clique_cover
from compnum.graph import Graph, add_isolated
from compnum.io import serialize_graph6
from compnum.realizer import (_Search, _search, competition_number,
                              max_predators_with, primary_predator_index,
                              realizable_with)


def rg(n: int, p: float, seed: int) -> Graph:
    """G(n, p) drawn with random.Random(seed), one draw per pair u < v."""
    rnd = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n) if rnd.random() < p])


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
# witness arcs of max_predators_with and realizable_with at k + 1.
PINNED_ABOVE_K = {
    1: (3, 3, "9e22bdedce76f0bac9c28c126f8312761c399a9e6c0e85cd80e4686ffa16ec38",
        "5a4e2c901f5986e9f081f6196f3fbbd92f0827e671bc8f993dda3a6ae23959e1"),
    2: (3, 4, "414d95fe20443d07d01c668ab4c3f397804e5d5bc1bfddaaae1090212c8ca410",
        "70fc86becbb87aa255aa86d26d52346dd3daadde7bfccecec19f20922b97cb88"),
    3: (7, 3, "cde54be96b29ec3e8f82f690eed76f5c229d85ab94001c1592112815620edbe9",
        "66cd221367000efdc5146d8f57118e30016d3e770a66c19fa5b2da665c9ba02e"),
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


@pytest.mark.parametrize("n,seed", sorted(PINNED))
def test_competition_witness_is_pinned(n, seed):
    _, witness = competition_number(rg(n, .5, seed))
    assert sha256(json.dumps(witness.witness_arcs())) == PINNED[n, seed][1]


@pytest.mark.parametrize("n,seed", sorted(PINNED))
def test_min_edge_clique_cover_is_pinned(n, seed):
    cover = min_edge_clique_cover(rg(n, .5, seed))
    expected = tuple(tuple(int(c, 16) for c in word)
                     for word in PINNED[n, seed][2].split())
    assert cover.cliques == expected


@pytest.mark.parametrize("seed", sorted(PINNED_ABOVE_K))
def test_witnesses_above_the_competition_number_are_pinned(seed):
    graph = rg(12, .5, seed)
    k, predators, max_hash, feasible_hash = PINNED_ABOVE_K[seed]
    assert competition_number(graph)[0] == k
    p, witness = max_predators_with(graph, k + 1)
    assert p == predators
    assert sha256(json.dumps(witness.witness_arcs())) == max_hash
    witness = realizable_with(graph, k + 1)
    assert sha256(json.dumps(witness.witness_arcs())) == feasible_hash


def test_graph_isolates_outnumbering_the_ascent_answer(tmp_path, capsys):
    # The core's ascent stops at k0, but the graph's own isolates exceed
    # it, so the witness is built for a larger isolate budget than k0.
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


def test_ascent_searches_once_per_step_and_cover_memo_stays_small(monkeypatch):
    # rg(16, .5, 53) has theta_e = 18 and k = 5, so the ascent tries k0 = 4
    # (the floor 18 - 16 + 2) and 5.  The plan found at k0 = 5 is the witness's plan; no third
    # search rebuilds it.  The memo bound reads a private attribute until
    # the search exposes its work counters.
    calls = []
    feasible = _Search.feasible

    def counting(self, k):
        calls.append(k)
        return feasible(self, k)

    monkeypatch.setattr(_Search, "feasible", counting)
    graph = rg(16, .5, 53)
    k, _ = competition_number.__wrapped__(graph)
    assert k == 5
    assert calls == [4, 5]
    assert len(cover_solver(graph)._size_memo) < 200_000


@pytest.mark.parametrize("n", [0, 3])
def test_edgeless_witnesses_are_pinned(n):
    graph = Graph(n, (0,) * n)
    k, witness = competition_number(graph)
    assert (k, witness.digraph.n, witness.witness_arcs()) == (0, n, [])
    for k in range(3):
        witness = realizable_with(graph, k)
        assert (witness.k, witness.digraph.n, witness.witness_arcs()) == (k, n + k, [])
        assert (witness.prey_count, witness.predator_count) == (0, n + k)
        predators, witness = max_predators_with(graph, k)
        assert predators == n + k
        assert (witness.k, witness.digraph.n, witness.witness_arcs()) == (k, n + k, [])


def test_core_queries_reuse_the_walks_made_for_the_graph(monkeypatch):
    # The sweep asks for k and p of a graph and then of its isolate-free
    # core; the core's walks are the graph's, shifted by its isolates.
    for cached in (_search, competition_number, primary_predator_index):
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
