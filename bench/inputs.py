"""Seeded inputs for the benchmark: graph families and their file formats.

Every generator is a pure function of its arguments, so the same seed
always yields the same graph.  Graphs are (n, edges) pairs with u < v.
"""

from __future__ import annotations

import random


def rg(n: int, p: float, seed: int):
    """G(n, p) drawn with random.Random(seed), one draw per pair u < v in
    lexicographic order."""
    rnd = random.Random(seed)
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)
               if rnd.random() < p]


def prufer_tree(n: int, seed: int):
    """The labelled tree whose Pruefer sequence is drawn with
    random.Random(seed)."""
    rnd = random.Random(seed)
    seq = [rnd.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return n, sorted(edges)


def path(n: int):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n: int):
    return n, sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def grid(rows: int, cols: int):
    def at(r, c):
        return r * cols + c
    edges = [(at(r, c), at(r, c + 1))
             for r in range(rows) for c in range(cols - 1)]
    edges += [(at(r, c), at(r + 1, c))
              for r in range(rows - 1) for c in range(cols)]
    return rows * cols, sorted(edges)


def star(leaves: int):
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def circulant(n: int, jumps):
    edges = {(min(i, (i + j) % n), max(i, (i + j) % n))
             for i in range(n) for j in jumps}
    return n, sorted(edges)


def hypercube(d: int):
    n = 1 << d
    return n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d)
               if u < u ^ (1 << b)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, sorted((min(e), max(e)) for e in outer + spokes + inner)


def graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 258047): upper triangle, column by column."""
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    present = set(edges)
    flags = [(u, v) in present for v in range(n) for u in range(v)]
    flags += [False] * (-len(flags) % 6)
    body = "".join(
        chr(63 + sum(bit << (5 - i) for i, bit in enumerate(flags[j:j + 6])))
        for j in range(0, len(flags), 6))
    return head + body


def edge_list(n: int, edges) -> str:
    """The "n m" header followed by one "u v" line per edge."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])

