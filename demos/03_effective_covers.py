"""Effective competition covers: the worked example and the three builders.

Usage: python demos/03_effective_covers.py
"""

from compnum import (chordal_realizer, competition_number, hall_certificate,
                     min_edge_clique_cover, rebuild_star,
                     simplicial_family_realizer, theta_e,
                     verify_effective_cover, Graph)
from compnum.fixtures import (effective_cover_example_cover,
                              effective_cover_example_digraph,
                              effective_cover_example_graph)

print("=" * 64)
print("1. A nine-vertex graph with an effective competition cover")
print("=" * 64)

g = effective_cover_example_graph()
d = effective_cover_example_digraph()
cover = effective_cover_example_cover()
name = [f"v{(v + 1) % 10}" for v in range(d.n)]   # v1..v9, then the isolate v0
print("theta_e:", theta_e(g), " k:", competition_number(g)[0])
cert = verify_effective_cover(g, cover, d)
print("certificate valid:", cert["valid"])
for i, w in cert["sink_map"]:
    clique = "{" + ",".join(name[v] for v in cover[i]) + "}"
    print(f"  clique {clique:<18} -> sink {name[w]}")

hall = hall_certificate(g, cover, d)
print("Hall matching (clique index -> prey):", hall["matching"])

print()
print("=" * 64)
print("2. Chordal graphs: one isolate, theta_e prey")
print("=" * 64)

bull = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
realization, ordered = chordal_realizer(bull)
print("cover in construction order:", ordered)
print("arcs:", realization.digraph.arcs)
print("prey:", realization.prey_count, " predators:", realization.predator_count)

print()
print("=" * 64)
print("3. Occupied-edge graphs: rewiring any realization")
print("=" * 64)

c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
k, witness = competition_number(c5)
print("C5: k =", k, "and the first witness has", witness.prey_count, "prey")
rebuilt = rebuild_star(c5, witness.digraph)
print("after the rebuild:", rebuilt.prey_count, "prey =", theta_e(c5),
      "= theta_e, sinks", [w for _, w in rebuilt.sink_map])

print()
print("=" * 64)
print("4. Simplicial-vertex families")
print("=" * 64)

c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
cover4 = min_edge_clique_cover(c4)
print("C4 cover:", cover4)
realization = simplicial_family_realizer(c4, cover4, [0, 2, 3])
print("family of three consecutive edges gives arcs:", realization.digraph.arcs)
print("isolates:", realization.k, " prey:", realization.prey_count)
