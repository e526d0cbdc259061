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

import sys
from array import array
from itertools import combinations, permutations

from .graph import Graph, bits

MAX_BUILTIN_N = 6


def _pair_weights(n: int) -> dict[tuple[int, int], int]:
    pairs = list(combinations(range(n), 2))
    nbits = len(pairs)
    return {p: 1 << (nbits - 1 - i) for i, p in enumerate(pairs)}


def _image_lanes(n: int) -> tuple[list[int], int]:
    """Per pair bit b, one int that packs, in a 16-bit lane per vertex
    permutation, the weight of the image of the pair of weight 2**b, and
    the number of permutations.  A mask's images under every permutation
    are the lanes of the sum of its bits' ints: an image is below 2**15
    for n <= 6, so no lane carries into the next."""
    weights = _pair_weights(n)
    either = {**weights, **{(v, u): w for (u, v), w in weights.items()}}
    perms = list(permutations(range(n)))
    lanes = [int.from_bytes(array("H", [either[p[u], p[v]] for p in perms])
                            .tobytes(), sys.byteorder)
             for u, v in reversed(weights)]
    return lanes, len(perms)


def graph_from_mask(n: int, mask: int) -> Graph:
    weights = _pair_weights(n)
    return Graph.from_edges(n, [p for p, w in weights.items() if mask & w])


def enumerate_small_graphs(n: int):
    """Yield one canonical representative per isomorphism class of graphs
    on n vertices, in ascending canonical order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_BUILTIN_N:
        raise ValueError(
            f"built-in enumeration is capped at {MAX_BUILTIN_N} vertices; "
            f"feed a graph6 stream for larger sweeps")
    lanes, perms = _image_lanes(n)
    seen = bytearray(1 << len(lanes))
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        images = sum(lanes[b] for b in bits(mask))
        for image in set(array("H", images.to_bytes(2 * perms,
                                                     sys.byteorder))):
            seen[image] = 1
        yield graph_from_mask(n, mask)
