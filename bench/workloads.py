"""The benchmark's workloads: which ops one run makes, built from its seed.

An op is one `python -m compnum ...` process on one generated input file.
A run's op list is a pure function of the workload, the seed, the time
budget and the golden file.  The golden file holds each candidate graph's
answers and the time it took at the seed commit; those times size the list
to the budget and stratify the seeded draws, so every seed gets the same
cost profile with different graphs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from inputs import (circulant, cycle, edge_list, graph6, grid, hypercube,
                    path, petersen, prufer_tree, rg, star)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "data", "golden.json")
ATLAS_PATH = os.path.join(HERE, "data", "atlas7.g6")

# Per-op deadline.  Above the slowest op that passes at the seed commit
# (golden keeps dense graphs that took at most DENSE_CAP_S there) and
# below the 28 s that HARD_TAIL takes, so HARD_TAIL is a counted failure.
DEADLINE_S = 10.0
DENSE_CAP_S = 3.0
HARD_TAIL = "rg-17-1"
# dense-exact draws graphs that took at most this long at the seed commit,
# so that many ops of like cost surround op_p50_ms and op_tail_ms; the
# fixed ops carry the tail above it.
DENSE_DRAW_S = 1.0

# sparse-large's fixed graphs.  P1200 and C1200 exhaust the recursion
# limit at the seed commit; they are kept so the crash shows as failures.
STRUCTURED = {
    "P400": path(400), "C400": cycle(400), "L100": grid(2, 100),
    "grid8x8": grid(8, 8), "K1_200": star(200),
    "C30_12": circulant(30, (1, 2)), "Q4": hypercube(4),
    "petersen": petersen(), "grid3x3": grid(3, 3), "grid3x4": grid(3, 4),
    **{f"C{n}": cycle(n) for n in range(8, 13)},
    "P1200": path(1200), "C1200": cycle(1200),
}
TREE_SIZES = (100, 60)
BIG_TREES = 1         # 100-vertex trees in each sparse-large run

SWEEP_THREADS = "2"
ATLAS_CHUNKS = 4      # each round splits the shuffled atlas into this many ops
G89_PER_ROUND = 40    # seeded G(8..9, 1/2) graphs in each round's extra op


@dataclass
class Op:
    """One CLI process: its arguments, the files it reads, what it must
    answer, and for a query the (n, edges) graph it asks about."""

    id: str
    kind: str
    argv: list[str]
    files: dict[str, str]
    n: int
    m: int
    expect: dict
    graph: tuple | None = None


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="ascii") as handle:
        return json.load(handle)


def load_atlas(path: str = ATLAS_PATH) -> list[str]:
    """The 1,044 graphs on 7 vertices, one graph6 line each."""
    with open(path, encoding="ascii") as handle:
        lines = handle.read().split()
    if len(lines) != 1044 or len(set(lines)) != 1044 or \
            any(line[0] != chr(63 + 7) for line in lines):
        raise ValueError(f"{path}: expected 1044 distinct graphs on "
                         "7 vertices")
    return lines


def graph_of(op_id: str):
    """The (n, edges) graph an op id names: rg-<n>-<seed>,
    tree-<n>-<seed> or a STRUCTURED name."""
    family, *args = op_id.split("-")
    if family == "rg":
        return rg(int(args[0]), 0.5, int(args[1]))
    if family == "tree":
        return prufer_tree(int(args[0]), int(args[1]))
    return STRUCTURED[op_id]


def pool(golden: dict, prefix: str) -> list[str]:
    """Drawable query ids with a prefix, cheapest first at the seed commit."""
    queries = golden["queries"]
    ids = [i for i, q in queries.items() if i.startswith(prefix)
           and "excluded" not in q and i != HARD_TAIL]
    return sorted(ids, key=lambda i: (queries[i]["seed_time_s"], i))


def systematic(items: list, count: int, rnd: random.Random) -> list:
    """`count` picks spread evenly over `items` from one seeded offset, so
    each stratum of a cost-sorted pool is drawn once per pass."""
    offset = rnd.random()
    return [items[int((i + offset) * len(items) / count)]
            for i in range(count)]


def _mean_time(golden: dict, ids) -> float:
    ids = list(ids)
    return sum(golden["queries"][i]["seed_time_s"] for i in ids) / len(ids)


def dense_exact(golden, rnd, budget):
    # The most memory-hungry graph in golden is in every run, so
    # peak_rss_mb reads the same op whatever the seed draws.
    queries = golden["queries"]
    graphs = pool(golden, "rg-")
    heaviest = max(graphs, key=lambda i: (queries[i]["seed_rss_mb"], i))
    graphs = [i for i in graphs if i != heaviest
              and queries[i]["seed_time_s"] <= DENSE_DRAW_S]
    left = budget - DEADLINE_S - queries[heaviest]["seed_time_s"]
    count = max(10, round(left / _mean_time(golden, graphs)))
    ids = [HARD_TAIL, heaviest] + systematic(graphs, count, rnd)
    rnd.shuffle(ids)
    return [("pindex", i) for i in ids]


def sparse_large(golden, rnd, budget):
    # BIG_TREES big trees, then small ones to fill the budget: the small
    # trees form the cluster in which both op_p50_ms and op_tail_ms fall.
    big, small = (pool(golden, f"tree-{n}-") for n in TREE_SIZES)
    left = (budget - _mean_time(golden, STRUCTURED) * len(STRUCTURED)
            - _mean_time(golden, big) * BIG_TREES)
    count = max(1, round(left / _mean_time(golden, small)))
    ids = (list(STRUCTURED) + systematic(big, BIG_TREES, rnd)
           + systematic(small, count, rnd))
    rnd.shuffle(ids)
    return [(rnd.choice(("knumber", "pindex")), i) for i in ids]


def sweep_small(golden, rnd, budget):
    atlas = load_atlas()
    extra = sorted(golden["sweep_pool"])
    rounds = max(2, round(budget / golden["sweep_round_s"]))
    specs = []
    for _ in range(rounds):
        lines = atlas[:]
        rnd.shuffle(lines)
        part = [("n6", None), ("g89", rnd.sample(extra, G89_PER_ROUND))]
        part += [("atlas7", lines[j::ATLAS_CHUNKS])
                 for j in range(ATLAS_CHUNKS)]
        rnd.shuffle(part)
        specs += part
    return specs


WORKLOADS = {"dense-exact": dense_exact, "sparse-large": sparse_large,
             "sweep-small": sweep_small}


def query_op(golden: dict, index: int, command: str, op_id: str) -> Op:
    n, edges = graph_of(op_id)
    stem = f"op{index:03d}"
    if n <= 62:
        name, fmt, text = f"{stem}.g6", "g6", graph6(n, edges) + "\n"
    else:
        name, fmt, text = f"{stem}.edges", "edges", edge_list(n, edges)
    argv = [command, "--in", name, "--format", fmt, "--json", "--witness"]
    return Op(op_id, "query", argv, {name: text}, n, len(edges),
              golden["queries"][op_id], graph=(n, edges))


def sweep_op(golden: dict, index: int, label: str, stream) -> Op:
    stem = f"op{index:03d}"
    argv = ["sweep", "--threads", SWEEP_THREADS,
            "--out", f"{stem}.report.json"]
    files = {}
    if stream is None:
        argv += ["--n", "6"]
        stream = golden["n6_order"]
    else:
        files[f"{stem}.g6"] = "\n".join(stream) + "\n"
        argv += ["--in", f"{stem}.g6"]
    records = [golden["sweep_records"][g] for g in stream]
    return Op(label, "sweep", argv, files, len(stream),
              sum(r["edges"] for r in records), {"records": records})


def build(workload: str, seed: int, budget: float, golden: dict) -> list[Op]:
    """The op list of one run."""
    rnd = random.Random(seed)
    specs = WORKLOADS[workload](golden, rnd, budget)
    if workload == "sweep-small":
        return [sweep_op(golden, i, label, stream)
                for i, (label, stream) in enumerate(specs)]
    return [query_op(golden, i, command, op_id)
            for i, (command, op_id) in enumerate(specs)]
