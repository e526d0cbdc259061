"""Shared independent oracles for the test suite.

Everything here is deliberately naive: pair scans, full DFS, subset
enumeration.  These functions never share code with the library paths they
check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from compnum.graph import Digraph, Graph, add_isolated, bits

# The sinks the worked example's digraph gives its cover cliques in order:
# the paper's v7, v6, v5, v3, v2 and the added isolate v0.
EXPECTED_SINKS = (6, 5, 4, 2, 1, 9)


def brute_competition_graph(digraph: Digraph) -> Graph:
    """Pair scan over all vertex pairs and potential common out-neighbours."""
    arcs = set(digraph.arcs)
    edges = []
    for x, y in combinations(range(digraph.n), 2):
        if any((x, z) in arcs and (y, z) in arcs for z in range(digraph.n)):
            edges.append((x, y))
    return Graph.from_edges(digraph.n, edges)


def has_directed_cycle(digraph: Digraph) -> bool:
    color = [0] * digraph.n

    def visit(v) -> bool:
        color[v] = 1
        for w in bits(digraph.out_rows[v]):
            if color[w] == 1 or (color[w] == 0 and visit(w)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in range(digraph.n))


def acyclic_labeling_by_scan(digraph: Digraph):
    """Labels 1, 2, ... by scanning for the smallest-index remaining vertex
    with no out-arc into the remaining set; at a stall, the cycle found by
    walking smallest remaining out-neighbours from the smallest remaining
    vertex, rotated to start at its smallest vertex."""
    n = digraph.n
    out = [set(bits(digraph.out_rows[v])) for v in range(n)]
    remaining = set(range(n))
    labels = [0] * n
    for label in range(1, n + 1):
        pick = next((v for v in sorted(remaining) if not out[v] & remaining),
                    None)
        if pick is None:
            path = [min(remaining)]
            while True:
                v = min(out[path[-1]] & remaining)
                if v in path:
                    cycle = path[path.index(v):]
                    k = cycle.index(min(cycle))
                    return False, tuple(cycle[k:] + cycle[:k])
                path.append(v)
        labels[pick] = label
        remaining.discard(pick)
    return True, tuple(labels)


def mcs_order_by_scan(graph: Graph) -> list[int]:
    """Maximum cardinality search by a full scan per step: number vertices
    n down to 1, each time the smallest-index unnumbered vertex with the
    most numbered neighbours; the elimination order reads positions 1..n."""
    weight = [0] * graph.n
    unnumbered = set(range(graph.n))
    order = [0] * graph.n
    for pos in range(graph.n - 1, -1, -1):
        pick = min(unnumbered, key=lambda v: (-weight[v], v))
        order[pos] = pick
        unnumbered.discard(pick)
        for u in bits(graph.rows[pick]):
            weight[u] += 1
    return order


def find_diamond_by_scan(graph: Graph):
    """First induced diamond in ascending quadruple order.

    Returns (True, None) or (False, quad), like ``is_diamond_free``.
    """
    for quad in combinations(range(graph.n), 4):
        edges = sum(1 for u, v in combinations(quad, 2) if graph.has_edge(u, v))
        if edges == 5:
            return False, quad
    return True, None


def find_hole_by_scan(graph: Graph):
    """Exhaustive induced-cycle search; None when the graph is chordal."""
    for size in range(4, graph.n + 1):
        for sub in combinations(range(graph.n), size):
            degs = [sum(1 for u in sub if u != v and graph.has_edge(u, v))
                    for v in sub]
            if all(d == 2 for d in degs) and _connected_subset(graph, sub):
                return sub
    return None


def _connected_subset(graph: Graph, sub) -> bool:
    sub = set(sub)
    seen = {next(iter(sub))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in bits(graph.rows[v]):
            if u in sub and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == sub


def occupied_edges_by_scan(graph: Graph, clique) -> list[tuple[int, int]]:
    """Pairs of the maximal clique that no other maximal clique contains,
    found by testing every pair against every other clique (the cliques
    themselves come from ``maximal_cliques``)."""
    from compnum.cliques import maximal_cliques

    members = tuple(sorted(clique))
    others = [set(c) for c in maximal_cliques(graph) if c != members]
    return [(u, v) for u, v in combinations(members, 2)
            if not any(u in c and v in c for c in others)]


def adjacency_mask_by_scan(graph: Graph, perm=None) -> int:
    """The adjacency bitstring of the graph relabelled by ``perm`` (vertex v
    becomes perm[v]; the identity when omitted), read as a binary number:
    one bit per pair (0,1), (0,2), ..., (n-2,n-1) in that order, the first
    pair most significant."""
    perm = perm or range(graph.n)
    image = {frozenset((perm[u], perm[v])) for u, v in graph.edges()}
    digits = "".join("1" if frozenset(pair) in image else "0"
                     for pair in combinations(range(graph.n), 2))
    return int(digits or "0", 2)


def canonical_mask_by_scan(graph: Graph) -> int:
    """Least adjacency mask over every vertex permutation; n! work."""
    return min(adjacency_mask_by_scan(graph, perm)
               for perm in permutations(range(graph.n)))


def naive_min_cover(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """First minimum-size set of maximal cliques covering every edge.

    Maximal cliques of size >= 2 come from a subset scan, listed in
    lexicographic order; subsets of them are tried by increasing size in
    combinations order, so among minimum covers the one returned is least
    in clique-index order.  Exponential; for tiny graphs only.
    """
    def is_clique(sub) -> bool:
        return all(graph.has_edge(u, v) for u, v in combinations(sub, 2))

    cliques = sorted(
        sub for size in range(2, graph.n + 1)
        for sub in combinations(range(graph.n), size)
        if is_clique(sub) and not any(is_clique(sub + (v,))
                                      for v in range(graph.n) if v not in sub))
    edges = set(graph.edges())
    for size in range(len(cliques) + 1):
        for combo in combinations(cliques, size):
            if {pair for c in combo for pair in combinations(c, 2)} == edges:
                return combo
    raise RuntimeError("maximal cliques fail to cover the graph")


def naive_theta_e(graph: Graph) -> int:
    """Edge clique cover number by subset enumeration."""
    return len(naive_min_cover(graph))


@dataclass(frozen=True)
class OracleResult:
    realizable: bool
    max_predators: int | None


def dag_oracle(graph: Graph, k: int, cap: int = 6) -> OracleResult:
    """Independent check by sweeping every labeled acyclic digraph.

    Recursion over topological placements: vertices are laid down one at a
    time and each chooses any in-neighbour set among the already placed
    vertices that is a clique of the target graph (including the empty set
    and singletons, and isolates may send or receive arcs).  Memoization on
    (placed set, covered edges) collapses the walk without changing the
    decision or the maximum predator count.
    """
    total = graph.n + k
    if total > cap:
        raise ValueError(f"oracle capped at {cap} vertices, got {total}")
    target = add_isolated(graph, k)
    full = (1 << total) - 1
    edges = target.edges()
    edge_index = {e: i for i, e in enumerate(edges)}
    full_edges = (1 << len(edges)) - 1

    options = [(0, 0)]
    for size in range(1, total + 1):
        for sub in combinations(range(total), size):
            if size >= 2 and not target.is_clique(sub):
                continue
            mask = 0
            for v in sub:
                mask |= 1 << v
            em = 0
            for u, v in combinations(sub, 2):
                em |= 1 << edge_index[(u, v)]
            options.append((mask, em))

    memo: dict[tuple[int, int], int | None] = {}

    def best(placed: int, covered: int) -> int | None:
        if placed == full:
            return 0 if covered == full_edges else None
        key = (placed, covered)
        if key in memo:
            return memo[key]
        out: int | None = None
        for w in bits(full & ~placed):
            wbit = 1 << w
            for mask, em in options:
                if mask & ~placed:
                    continue
                sub = best(placed | wbit, covered | em)
                if sub is None:
                    continue
                cand = sub + (1 if mask == 0 else 0)
                if out is None or cand > out:
                    out = cand
        memo[key] = out
        return out

    res = best(0, 0)
    return OracleResult(res is not None, res)


def raw_dag_oracle(graph: Graph, k: int):
    """Unmemoized sweep of every (ordering, in-neighbourhood) choice.

    Exponential; only for tiny instances.  Returns (realizable,
    max_predators) like dag_oracle.
    """
    target = add_isolated(graph, k)
    total = target.n
    edges = set(target.edges())
    options = [frozenset()]
    for size in range(1, total + 1):
        for sub in combinations(range(total), size):
            if size < 2 or all(target.has_edge(u, v)
                               for u, v in combinations(sub, 2)):
                options.append(frozenset(sub))

    best = [None]

    def rec(placed: tuple, covered: frozenset, predators: int):
        if len(placed) == total:
            if covered == edges:
                if best[0] is None or predators > best[0]:
                    best[0] = predators
            return
        for w in range(total):
            if w in placed:
                continue
            for group in options:
                if not group <= set(placed):
                    continue
                extra = {(min(u, v), max(u, v))
                         for u, v in combinations(sorted(group), 2)}
                rec(placed + (w,), covered | frozenset(extra),
                    predators + (1 if not group else 0))

    rec((), frozenset(), 0)
    return best[0] is not None, best[0]


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if rng.random() < rng.random()]
    return Graph.from_edges(n, edges)


def random_digraph(rng: random.Random, n: int, p: float = 0.3) -> Digraph:
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return Digraph.from_arcs(n, arcs)
