"""A worked nine-vertex instance with an effective competition cover.

The graph has 16 edges and exactly six maximal cliques, its competition
number is one, and the accompanying digraph below points each cover clique
at its own sink, so the cover is effective.  The paper's vertices v1..v9
sit at indices 0..8; the digraph appends the added isolate v0 at index 9.
"""

from __future__ import annotations

from .graph import Digraph, Graph

_EDGES = [
    (8, 7), (7, 6), (6, 5), (8, 5), (8, 4), (8, 3), (5, 4), (5, 3),
    (4, 3), (4, 2), (3, 2), (8, 1), (8, 0), (3, 1), (3, 0), (1, 0),
]

_ARCS = [
    (8, 6), (7, 6),                     # {v9,v8} feeds v7
    (7, 5), (6, 5),                     # {v8,v7} feeds v6
    (6, 4), (5, 4),                     # {v7,v6} feeds v5
    (8, 2), (5, 2), (4, 2), (3, 2),     # {v9,v6,v5,v4} feeds v3
    (4, 1), (3, 1), (2, 1),             # {v5,v4,v3} feeds v2
    (8, 9), (3, 9), (1, 9), (0, 9),     # {v9,v4,v2,v1} feeds v0
]

_COVER = (
    (7, 8),
    (6, 7),
    (5, 6),
    (3, 4, 5, 8),
    (2, 3, 4),
    (0, 1, 3, 8),
)


def effective_cover_example_graph() -> Graph:
    return Graph.from_edges(9, _EDGES)


def effective_cover_example_digraph() -> Digraph:
    return Digraph.from_arcs(10, _ARCS)


def effective_cover_example_cover() -> tuple[tuple[int, ...], ...]:
    return _COVER
