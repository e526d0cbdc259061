"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings.
"""

import random
import time
from itertools import permutations, product

from conftest import EXPECTED_SINKS, dag_oracle

from compnum.cliques import chordality, is_diamond_free
from compnum.constructions import (chordal_realizer, rebuild_star,
                                   verify_effective_cover)
from compnum.bounds import planar_formula_check
from compnum.ecc import min_edge_clique_cover, theta_e
from compnum.fixtures import (effective_cover_example_cover,
                              effective_cover_example_digraph,
                              effective_cover_example_graph)
from compnum.graph import Graph, add_isolated, competition_graph
from compnum.io import (parse_edge_list, parse_graph6, serialize_edge_list,
                        serialize_graph6)
from compnum.realizer import (competition_number, max_predators_with,
                              primary_predator_index)
from compnum.smallgraphs import enumerate_small_graphs
from compnum.sweep import sweep


def _verdict(num, name, ok, elapsed, extra=""):
    state = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {num} ({name}): {state} [{elapsed:.2f}s]{tail}")
    return ok


def test_criterion_1_worked_example():
    start = time.time()
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    ok = theta_e(g) == 6
    ok &= competition_number(g)[0] == 1
    ok &= competition_graph(d) == add_isolated(g, 1)
    cert = verify_effective_cover(g, cover, d)
    ok &= cert["valid"]
    ok &= tuple(w for _, w in cert["sink_map"]) == EXPECTED_SINKS
    ok &= primary_predator_index(g)[0] == 4
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    assert _verdict(1, "worked example exact values", ok, elapsed,
                    "theta=6 k=1 p=4 sinks=v7,v6,v5,v3,v2,v0")


def test_criterion_2_oracle_equivalence():
    start = time.time()
    instances = 0
    mismatches = []
    for n in range(1, 5):
        for g in enumerate_small_graphs(n):
            for k in range(3):
                oracle = dag_oracle(g, k, cap=6)
                best = max_predators_with(g, k)
                instances += 1
                if (best is not None) != oracle.realizable:
                    mismatches.append((serialize_graph6(g), k, "decision"))
                elif oracle.realizable and best[0] != oracle.max_predators:
                    mismatches.append((serialize_graph6(g), k, "predators"))
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 300.0
    assert _verdict(2, "oracle equivalence n<=4 k<=2", ok, elapsed,
                    f"{instances} instances, {len(mismatches)} mismatches")


def test_criterion_3_theorem_sweep():
    start = time.time()
    graphs = []
    for n in range(1, 7):
        graphs.extend(enumerate_small_graphs(n, connected_only=True))
    report = sweep(graphs, checks=("floors",), threads=1)
    violations = report["summary"]["violations"]
    elapsed = time.time() - start
    ok = not violations and elapsed < 1800.0
    n6 = sum(1 for g in graphs if g.n == 6)
    assert _verdict(3, "theorem sweep connected n<=6", ok, elapsed,
                    f"{len(graphs)} graphs ({n6} with n=6), "
                    f"{len(violations)} violations")


def test_criterion_4_effective_cover_equality():
    start = time.time()
    checked = 0
    failures = []
    for n in range(2, 7):
        for g in enumerate_small_graphs(n, connected_only=True):
            if g.edge_count == 0:
                continue
            chordal, _ = chordality(g)
            diamond_free, _ = is_diamond_free(g)
            if not (chordal or diamond_free):
                continue
            checked += 1
            k, k_witness = competition_number(g)
            p, _ = primary_predator_index(g)
            if k != theta_e(g) - g.n + p:
                failures.append((serialize_graph6(g), "equality"))
            if chordal:
                realization, cover = chordal_realizer(g)
                cert = verify_effective_cover(g, cover, realization.digraph)
                if not cert["valid"]:
                    failures.append((serialize_graph6(g), "chordal build"))
            if diamond_free:
                rebuilt = rebuild_star(g, k_witness)
                cover = min_edge_clique_cover(g)
                cert = verify_effective_cover(g, cover, rebuilt.digraph)
                if not cert["valid"]:
                    failures.append((serialize_graph6(g), "star rebuild"))
    elapsed = time.time() - start
    ok = not failures
    assert _verdict(4, "effective-cover equality", ok, elapsed,
                    f"{checked} graphs, {len(failures)} failures")


def _prufer_decode(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ready = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = ready.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            import bisect
            bisect.insort(ready, v)
    u, v = [x for x in range(n) if degree[x] == 1]
    edges.append((min(u, v), max(u, v)))
    return edges


def _trees_up_to_iso(n):
    if n == 1:
        return [Graph(1, (0,))]
    seen = set()
    reps = []
    for seq in product(range(n), repeat=n - 2):
        edges = frozenset(_prufer_decode(list(seq), n))
        if edges in seen:
            continue
        reps.append(Graph.from_edges(n, sorted(edges)))
        for perm in permutations(range(n)):
            seen.add(frozenset((min(perm[u], perm[v]), max(perm[u], perm[v]))
                               for u, v in edges))
    return reps


_HAND_BUILT = [
    ("triangle", 3, [(0, 1), (0, 2), (1, 2)]),
    ("paw", 4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    ("bull", 5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),
    ("bowtie", 5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    ("house", 5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (2, 4)]),
    ("c4 plus pendant", 5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]),
    ("net", 6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]),
    ("triangles with bridge", 6,
     [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]),
    ("triangle sharing c4", 6,
     [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]),
    ("c6 plus pendant", 7,
     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6)]),
]


def test_criterion_5_plane_graph_formula():
    start = time.time()
    cases = []
    for n in range(4, 9):
        cases.append((f"cycle {n}",
                      Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])))
    tree_count = 0
    for n in range(1, 8):
        for tree in _trees_up_to_iso(n):
            tree_count += 1
            cases.append((f"tree n={n}", tree))
    for name, n, edges in _HAND_BUILT:
        cases.append((name, Graph.from_edges(n, edges)))
    failures = []
    for name, g in cases:
        free, _ = is_diamond_free(g)
        if not (g.is_connected() and free):
            failures.append((name, "not a valid case"))
            continue
        k, _ = competition_number(g)
        p, _ = primary_predator_index(g)
        if g.n + k > 10:
            failures.append((name, "search size"))
            continue
        result = planar_formula_check(g, p)
        if (result["k_formula"] != k
                or result["theta_from_census"] != theta_e(g)):
            failures.append((name, "formula"))
    elapsed = time.time() - start
    ok = not failures and tree_count == 25
    assert _verdict(5, "plane-graph formula", ok, elapsed,
                    f"{len(cases)} cases ({tree_count} trees, "
                    f"{len(_HAND_BUILT)} hand-built), failures={failures}")


def test_criterion_6_conjecture_probe():
    start = time.time()
    graphs = []
    for n in range(1, 7):
        graphs.extend(enumerate_small_graphs(n))
    report = sweep(graphs, checks=("conjecture",), threads=1)
    tally = report["summary"]["conjecture"]
    elapsed = time.time() - start
    errors = [r for r in report["records"] if r["error"]]
    for counterexample in tally["counterexamples"]:
        print("CONJECTURE COUNTEREXAMPLE:", counterexample)
    ok = not errors and tally["checked"] == len(graphs)
    assert _verdict(6, "conjecture probe (reported, not asserted)", ok,
                    elapsed,
                    f"equality {tally['equal']}/{tally['checked']}, "
                    f"counterexamples={len(tally['counterexamples'])}")


def test_criterion_7_format_round_trips():
    start = time.time()
    rng = random.Random(123456)
    failures = 0
    for _ in range(10_000):
        n = rng.randint(0, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        if parse_graph6(serialize_graph6(g)) != g:
            failures += 1
        if parse_edge_list(serialize_edge_list(g)) != g:
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0
    assert _verdict(7, "format round-trips", ok, elapsed,
                    "10000 graphs x 2 formats")
