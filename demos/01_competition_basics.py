"""Competition graphs from digraphs, acyclic labelings, and text formats.

Usage: python demos/01_competition_basics.py
"""

from compnum import (Digraph, Graph, acyclic_labeling, add_isolated,
                     competition_graph, parse_edge_list, parse_graph6,
                     serialize_edge_list, serialize_graph6)

print("=" * 64)
print("1. Competition graph of a digraph")
print("=" * 64)

# three predators feeding on a shared prey, plus a chain
d = Digraph.from_arcs(5, [(1, 0), (2, 0), (3, 0), (3, 2), (4, 2)])
g = competition_graph(d)
print("arcs:", d.arcs)
print("competition edges:", g.edges())
print("vertex 0 is shared prey of 1,2,3 -> triangle {1,2,3}:",
      g.is_clique([1, 2, 3]))

print()
print("=" * 64)
print("2. Acyclic labelings and cycle witnesses")
print("=" * 64)

acyclic, labels = acyclic_labeling(d)
print("labels (vertex -> 1..n):", labels)
print("every arc descends:", all(labels[u] > labels[v] for u, v in d.arcs))

looped = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
print("a 3-cycle yields a witness instead:", acyclic_labeling(looped))

print()
print("=" * 64)
print("3. graph6 and edge-list round trips")
print("=" * 64)

house = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (2, 4)])
encoded = serialize_graph6(house)
print("graph6:", encoded)
print("round trip ok:", parse_graph6(encoded) == house)
text = serialize_edge_list(house)
print("edge list:\n" + text, end="")
print("round trip ok:", parse_edge_list(text) == house)

print()
print("adding two isolates:", add_isolated(house, 2).isolated_vertices())
