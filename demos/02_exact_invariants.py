"""Exact competition numbers, predator indices and minimum covers.

Usage: python demos/02_exact_invariants.py
"""

from compnum import (Graph, add_isolated, competition_graph,
                     competition_number, max_predators_with,
                     min_edge_clique_cover, primary_predator_index,
                     theta_e)

ZOO = {
    "triangle": Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
    "path P4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    "star K1,3": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "cycle C4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "diamond": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
    "bowtie": Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    "K3,3": Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]),
}

print(f"{'graph':<10} {'theta_e':>7} {'k':>3} {'p':>3} {'min prey':>8}")
print("-" * 36)
for name, graph in ZOO.items():
    k, witness = competition_number(graph)
    p, p_witness = primary_predator_index(graph)
    print(f"{name:<10} {theta_e(graph):>7} {k:>3} {p:>3} "
          f"{p_witness.prey_count:>8}")

print()
print("Every witness is verified: its competition graph is recomputed and")
print("compared against the target before it is ever returned.")
k, witness = competition_number(ZOO["cycle C4"])
print("C4 witness arcs:", witness.digraph.arcs)
print("recheck:", competition_graph(witness.digraph) == add_isolated(ZOO["cycle C4"], k))

print()
print("Minimum cover of the bowtie:",
      min_edge_clique_cover(ZOO["bowtie"]))

print()
print("Max predators is also available away from the optimum k: the")
print("triangle realizes with 2 isolates too, wasting one of them.")
print("  k=1:", max_predators_with(ZOO["triangle"], 1)[0], "predators")
print("  k=2:", max_predators_with(ZOO["triangle"], 2)[0], "predators")
