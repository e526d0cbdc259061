"""Exhaustive enumeration of small graphs, one per isomorphism class.

The canonical form of a graph is the lexicographically least adjacency
bitstring over all vertex permutations, the bitstring reading the upper
triangle pairs (0,1), (0,2), ..., (0,n-1), (1,2), ... left to right.  Bit
weights are chosen so that integer order on masks equals lexicographic
order on bitstrings; enumeration then walks masks in ascending order and
each mask not yet claimed by an earlier orbit is its orbit's canonical
representative.  Built-in enumeration stops at six vertices; larger sweeps
consume an external graph6 stream instead.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .graph import Graph, bits

MAX_BUILTIN_N = 6


def _pair_weights(n: int) -> dict[tuple[int, int], int]:
    pairs = list(combinations(range(n), 2))
    nbits = len(pairs)
    return {p: 1 << (nbits - 1 - i) for i, p in enumerate(pairs)}


def _permutation_tables(n: int):
    """For each vertex permutation, a table whose entry b is the weight of
    the image of the pair of weight 2**b; a mask's image is the sum of the
    entries at its set bits."""
    weights = _pair_weights(n)
    either = {**weights, **{(v, u): w for (u, v), w in weights.items()}}
    low_first = list(weights)[::-1]
    for perm in permutations(range(n)):
        yield [either[perm[u], perm[v]] for u, v in low_first]


def graph_from_mask(n: int, mask: int) -> Graph:
    weights = _pair_weights(n)
    return Graph.from_edges(n, [p for p, w in weights.items() if mask & w])


def enumerate_small_graphs(n: int, connected_only: bool = False):
    """Yield one canonical representative per isomorphism class of graphs
    on n vertices, in ascending canonical order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_BUILTIN_N:
        raise ValueError(
            f"built-in enumeration is capped at {MAX_BUILTIN_N} vertices; "
            f"feed a graph6 stream for larger sweeps")
    if n == 0:
        yield Graph(0, ())
        return
    tables = list(_permutation_tables(n))
    seen = bytearray(1 << len(tables[0]))
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        on = list(bits(mask))
        for t in tables:
            seen[sum(map(t.__getitem__, on))] = 1
        graph = graph_from_mask(n, mask)
        if connected_only and not graph.is_connected():
            continue
        yield graph
