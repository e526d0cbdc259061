"""The library's state per query: one cover solver per edge set, built on
the isolate-free core, and per-graph caches that hold a query's graph and
its core only.  The cover pins were taken before covers were solved on the
core and must stay byte-identical."""

import gc
import hashlib
import importlib
import json
import pkgutil
import random
from itertools import combinations

import pytest

import compnum
from compnum import ALL_CHECKS, constructions, realizer
from compnum.ecc import _CoverSolver, min_edge_clique_cover, theta_e
from compnum.graph import Graph
from compnum.io import parse_graph6, serialize_graph6
from compnum.realizer import primary_predator_index
from compnum.smallgraphs import enumerate_small_graphs
from compnum.sweep import graph_record
from test_exact_search_pins import ATLAS7, rg


def library_caches() -> list:
    """Every functools cache in the compnum modules, found as
    bench/check.py's clear_caches finds them, so that a cache added later
    is held to the bound below without being listed here."""
    modules = [compnum] + [importlib.import_module(f"compnum.{info.name}")
                           for info in pkgutil.iter_modules(compnum.__path__)
                           if info.name != "__main__"]
    found = []
    for module in modules:
        for obj in vars(module).values():
            inner = list(vars(obj).values()) if isinstance(obj, type) else []
            for item in [obj] + inner:
                if (callable(getattr(item, "cache_clear", None))
                        and item not in found):
                    found.append(item)
    return found


CACHES = library_caches()

# a query's graph and its isolate-free core
QUERY_GRAPHS = 2


def with_isolates_between(n: int, p: float, seed: int) -> Graph:
    """G(n - m, p) on n - m of the n vertices, seeded; the m others, drawn
    anywhere among them, are isolated."""
    rnd = random.Random(seed)
    m = rnd.randrange(1, n // 2 + 1)
    places = sorted(rnd.sample(range(n), n - m))
    return Graph.from_edges(n, [(places[u], places[v])
                                for u, v in combinations(range(n - m), 2)
                                if rnd.random() < p])


def labelled_graphs(n: int):
    """Every graph on the vertices 0..n-1."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def cover_digest(graphs) -> str:
    rows = [[serialize_graph6(g), theta_e(g), min_edge_clique_cover(g)]
            for g in graphs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_covers_of_every_graph_up_to_six_vertices_are_pinned():
    graphs = (g for n in range(7) for g in labelled_graphs(n))
    assert cover_digest(graphs) == (
        "c56e895cf571ede629b2b959184a132d6ea4a81150e361c269566d811db1ea6a")


def test_covers_with_isolates_between_other_vertices_are_pinned():
    graphs = [with_isolates_between(n, p, seed) for n in range(8, 13)
              for p in (.3, .5, .7) for seed in range(20)]
    assert all(g.isolated_vertices() for g in graphs)
    # in most of them an isolate comes before a vertex with an edge
    keeps = [g.without_isolates()[1] for g in graphs]
    assert sum(keep != tuple(range(len(keep))) for keep in keeps) > 250
    assert cover_digest(graphs) == (
        "aa61a3bba3d313ff5079d66b3a3ab81ddce93fb6c786faf1bcad48bed55ba32f")


def test_an_isolate_free_graph_is_its_own_core():
    graph = rg(9, .5, 3)
    assert not graph.isolated_vertices()
    core, keep = graph.without_isolates()
    assert core is graph and keep == tuple(range(graph.n))


@pytest.fixture
def built_solvers(monkeypatch):
    """The graphs a _CoverSolver is built on, from empty caches."""
    for cached in CACHES:
        cached.cache_clear()
    built = []
    init = _CoverSolver.__init__

    def counting(self, graph):
        built.append(graph)
        init(self, graph)

    monkeypatch.setattr(_CoverSolver, "__init__", counting)
    return built


GRAPH_WITH_ISOLATES = with_isolates_between(11, .5, 4)


def test_pindex_builds_one_solver_for_a_graph_with_isolates(built_solvers):
    graph = GRAPH_WITH_ISOLATES
    assert graph.isolated_vertices()
    primary_predator_index(graph)
    assert built_solvers == [graph.without_isolates()[0]]


def test_sweep_record_builds_one_solver_for_a_graph_with_isolates(built_solvers):
    graph = GRAPH_WITH_ISOLATES
    assert graph_record((graph, ALL_CHECKS))["error"] is None
    assert built_solvers == [graph.without_isolates()[0]]


@pytest.mark.parametrize("source,calls,distinct", [
    ("n6", 460, 455), ("atlas7", 2_923, 2_917)])
def test_sweep_records_certify_each_witness_once(source, calls, distinct,
                                                 monkeypatch):
    # The competition number's and the predator index's witnesses come
    # from one walk, and the ascent certifies each once; when they are one
    # plan, that plan is certified once.  The Hall check and the star
    # rebuild take k's witness as it stands, and the Hall check matches
    # p's witness without certifying it again.  Every effective-cover
    # build is certified too.  On n = 6: 944 calls before certification
    # was cached, 832 while p built that plan's digraph again, 693 while
    # both looked k's witness up again, (410, 367) while the 93 chordal
    # builds were checked by the verifier's own table, and 503 while the
    # Hall check certified p's witness again; 3,518 on the atlas then.
    seen = []
    certify = realizer.certify_realization

    def counting(*args):
        seen.append(args)
        return certify(*args)

    monkeypatch.setattr(realizer, "certify_realization", counting)
    monkeypatch.setattr(constructions, "certify_realization", counting)
    graphs = (enumerate_small_graphs(6) if source == "n6" else
              map(parse_graph6, ATLAS7.read_text(encoding="ascii").split()))
    for cached in CACHES:
        cached.cache_clear()
    for graph in graphs:
        assert graph_record((graph, ALL_CHECKS))["error"] is None
    assert (len(seen), len(set(seen))) == (calls, distinct)


def test_caches_hold_one_query_only():
    for seed in range(20):
        primary_predator_index(rg(10, .5, seed))
    # certification kept a k and a p witness per graph while it was cached
    assert sorted(cached.__name__ for cached in CACHES) == [
        "_ascent", "_search", "cover_solver", "edge_clique_counts",
        "maximal_clique_masks"]
    for cached in CACHES:
        assert cached.cache_info().currsize <= QUERY_GRAPHS, cached.__name__
    gc.collect()
    alive = sum(isinstance(obj, _CoverSolver) for obj in gc.get_objects())
    assert alive <= QUERY_GRAPHS
