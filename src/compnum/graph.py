"""Core graph and digraph types.

Undirected graphs store one adjacency bitmask per vertex, so neighbourhood,
clique and subset tests are single integer operations.  Vertices are dense
indices 0..n-1.  All values are immutable after construction and safe
to share across threads or processes.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from itertools import combinations


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(members) -> int:
    """Bitmask with the bit of every member set."""
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def _ints(values) -> bool:
    """Whether ``values`` is a tuple of ints, bools excluded."""
    return type(values) is tuple and all(type(v) is int for v in values)


# per-graph cache size: a query touches its graph and that graph's core only
QUERY_GRAPHS = 2


class Frozen:
    """Base of the immutable value types.  A subclass names its
    constructor's parameters, in order, in ``_fields`` and stores their
    values with ``_freeze``, which also keeps them as the tuple ``_key``.
    Equality (same class, equal fields), the hash, the repr, pickling and
    copying go through that tuple, and no attribute can be assigned or
    deleted.  ``cached_property`` writes its values straight into the
    instance ``__dict__``."""

    _fields: tuple[str, ...] = ()

    def _freeze(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values), _key=values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt, and so validated, from the fields alone
        return type(self), self._key


class Graph(Frozen):
    """Simple undirected graph on vertices 0..n-1."""

    _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        self._freeze(n, rows)
        check_count(self.n, "n", "vertex count")
        if not _ints(self.rows):
            raise ValueError("rows must be a tuple of ints")
        if len(self.rows) != self.n:
            raise ValueError("adjacency rows do not match vertex count")
        for v, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"adjacency bit out of range in row {v}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(self.n):
            for v in bits(self.rows[u]):
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at {u},{v}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (rows[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    # -- basic queries -----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.rows[u]) if u < v]

    @cached_property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.rows[v] == 0)

    def without_isolates(self) -> tuple["Graph", tuple[int, ...]]:
        """The subgraph on the non-isolated vertices in ascending order (the
        graph itself if none is isolated) and each one's original index."""
        return self._core or (self, tuple(range(self.n)))

    @cached_property
    def _core(self) -> tuple["Graph", tuple[int, ...]] | None:
        # built once; None when no vertex is isolated, so no graph keeps itself
        keep = tuple(v for v in range(self.n) if self.rows[v])
        if len(keep) == self.n:
            return None
        index = {v: i for i, v in enumerate(keep)}
        rows = tuple(sum(1 << index[u] for u in bits(self.rows[v])) for v in keep)
        return Graph(len(keep), rows), keep

    def is_clique(self, members) -> bool:
        return all(self.has_edge(u, v) for u, v in combinations(members, 2))

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= self.rows[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == self.vertex_mask


class Digraph(Frozen):
    """Simple directed graph: no self-arcs, no parallel arcs."""

    _fields = ("n", "arcs")

    def __init__(self, n: int, arcs: tuple[tuple[int, int], ...]):
        self._freeze(n, arcs)
        check_count(self.n, "n", "vertex count")
        if type(self.arcs) is not tuple or not all(
                _ints(arc) and len(arc) == 2 for arc in self.arcs):
            raise ValueError("arcs must be a tuple of int pairs")
        for u, v in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
        if any(a >= b for a, b in zip(self.arcs, self.arcs[1:])):
            raise ValueError("arcs must strictly increase; use Digraph.from_arcs")

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Digraph":
        return cls(n, tuple(sorted(set(map(tuple, arcs)))))

    @cached_property
    def in_rows(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for u, v in self.arcs:
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def out_rows(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for u, v in self.arcs:
            rows[u] |= 1 << v
        return tuple(rows)


def check_graph(graph) -> None:
    """Raise ValueError unless ``graph`` is a Graph."""
    if not isinstance(graph, Graph):
        raise ValueError("graph must be a Graph")


def check_digraph(digraph) -> None:
    """Raise ValueError unless ``digraph`` is a Digraph."""
    if not isinstance(digraph, Digraph):
        raise ValueError("digraph must be a Digraph")


def check_count(value, name: str, noun: str) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) >= 0."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int")
    if value < 0:
        raise ValueError(f"{noun} must be nonnegative")


def acyclic_labeling(digraph: Digraph) -> tuple[bool, tuple[int, ...]]:
    """``(True, labels)``, labels[v] being vertex v's label, a bijection
    onto 1..n that strictly decreases along every arc; or ``(False,
    cycle)``, a directed cycle: consecutive vertices are arcs, and so is
    (last, first).

    Labels are assigned 1, 2, ... by repeatedly taking the smallest-index
    remaining vertex with no out-arc into the remaining set, so the result
    is deterministic.  Those vertices wait in the min-heap ``ready``, which
    a vertex enters when its last remaining out-neighbour is labeled.  A
    cycle is a result, not an error.
    """
    check_digraph(digraph)
    n = digraph.n
    out_degree = [row.bit_count() for row in digraph.out_rows]
    ready = [v for v in range(n) if out_degree[v] == 0]  # ascending: a heap
    labels = [0] * n
    for next_label in range(1, n + 1):
        if not ready:
            return _extract_cycle(digraph, labels)
        pick = heapq.heappop(ready)
        labels[pick] = next_label
        for u in bits(digraph.in_rows[pick]):
            out_degree[u] -= 1
            if out_degree[u] == 0:
                heapq.heappush(ready, u)
    return True, tuple(labels)


def _extract_cycle(digraph: Digraph, labels) -> tuple[bool, tuple[int, ...]]:
    # every unlabeled vertex has an out-arc to another unlabeled one, so
    # following smallest such out-neighbours must revisit a vertex
    remaining = mask_of(v for v in range(digraph.n) if not labels[v])
    start = next(bits(remaining))
    path = [start]
    index = {start: 0}
    v = start
    while True:
        v = next(bits(digraph.out_rows[v] & remaining))
        if v in index:
            cycle = path[index[v]:]
            # rotate so the smallest vertex comes first
            k = cycle.index(min(cycle))
            return False, tuple(cycle[k:] + cycle[:k])
        index[v] = len(path)
        path.append(v)


def clique_rows(n: int, masks) -> tuple[int, ...]:
    """Adjacency rows on n vertices spanned by a family of vertex masks:
    each mask is made a clique, and no other pair is adjacent."""
    rows = [0] * n
    for mask in masks:
        for u in bits(mask):
            rows[u] |= mask ^ (1 << u)
    return tuple(rows)


def competition_graph(digraph: Digraph) -> Graph:
    """Graph on V(D) with an edge xy whenever x and y share an out-neighbour."""
    check_digraph(digraph)
    return Graph(digraph.n, clique_rows(digraph.n, digraph.in_rows))


def add_isolated(graph: Graph, k: int) -> Graph:
    """Return the graph together with k extra isolated vertices appended."""
    check_graph(graph)
    check_count(k, "k", "isolate count")
    if k == 0:
        return graph
    return Graph(graph.n + k, graph.rows + (0,) * k)
