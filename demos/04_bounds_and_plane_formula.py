"""Lower bounds and the diamond-free plane-graph formula.

Usage: python demos/04_bounds_and_plane_formula.py
"""

import json

from compnum import (Graph, bounds_report, clique_census, competition_number,
                     min_edge_clique_cover, opsut_bound, planar_formula_check,
                     predator_bound, primary_predator_index, union_tail_bounds)
from compnum.fixtures import effective_cover_example_graph

print("=" * 64)
print("1. The predator-index bound sharpens the classical one")
print("=" * 64)

g = effective_cover_example_graph()
p, _ = primary_predator_index(g)
k, _ = competition_number(g)
print("classical floor theta_e - n + 2 =", opsut_bound(g))
print("predator bound theta_e - n + p =", predator_bound(g, p), "= k =", k)

print()
print("=" * 64)
print("2. Union-tail bounds need only the cover")
print("=" * 64)

c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
cover = min_edge_clique_cover(c4)
# no digraph is needed; the cover is checked against the graph it covers
tail = union_tail_bounds(c4, cover)
for i, bound in enumerate(tail, 1):
    print(f"  k={i}: bound {bound}")
# the best index is the first that reaches the largest bound
print("best:", (tail.index(max(tail)) + 1, max(tail)), " exact p:",
      primary_predator_index(c4)[0])

print()
print("=" * 64)
print("3. Clique census and the face-count formula")
print("=" * 64)

cases = {
    "C4": c4,
    "bowtie": Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    "house": Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (2, 4)]),
}
for name, graph in cases.items():
    p, _ = primary_predator_index(graph)
    result = planar_formula_check(graph, p)
    print(f"{name:<8} census {clique_census(graph)} faces {result['faces']} "
          f"formula k {result['k_formula']} exact k {result['k_exact']} "
          f"consistent {result['consistent']}")

print()
print("=" * 64)
print("4. The full bounds report as JSON")
print("=" * 64)

print(json.dumps(bounds_report(cases["house"]),
                 indent=2, sort_keys=True))
