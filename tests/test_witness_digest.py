"""One digest of every witness the exact search gives on the small graphs.

For every graph with n <= 6, every graph of the n = 7 atlas and every
graph of the golden sweep pool, the digest covers k and the arcs and
labels of its witness, p and the arcs of its witness, the first-plan
witness of ``_witnesses`` at k + 1, and the count and witness of
``max_predators_with`` at k + 1.  A change to the search's order or
pruning that moves any of these witnesses changes the digest.
"""

import hashlib
import json

from compnum.io import serialize_graph6
from compnum.realizer import (_witnesses, competition_number,
                              max_predators_with, primary_predator_index)
from test_lower_bounds import atlas7, small_graphs, sweep_pool


def witness_record(graph) -> list:
    k, k_witness = competition_number(graph)
    p, p_witness = primary_predator_index(graph)
    above = _witnesses(graph, k + 1)[0]
    predators, above_best = max_predators_with(graph, k + 1)
    return [serialize_graph6(graph), k, k_witness.witness_arcs(),
            list(k_witness.labeling), p, p_witness.witness_arcs(),
            above.witness_arcs(), predators, above_best.witness_arcs()]


def test_small_graph_witnesses_are_pinned():
    graphs = small_graphs() + atlas7() + sweep_pool()
    digest = hashlib.sha256()
    for graph in graphs:
        digest.update(json.dumps(witness_record(graph)).encode() + b"\n")
    assert len(graphs) == 1553
    assert digest.hexdigest() == (
        "3b275b62d91613740944dea32824a11898bd206e674ee3d0a9f30afcf5ddde51")
