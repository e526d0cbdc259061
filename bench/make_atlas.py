"""Write data/atlas7.g6: every graph on 7 vertices, one per isomorphism
class, taken from networkx.graph_atlas_g().

Run once with networkx installed:  python3 bench/make_atlas.py
The benchmark itself reads only the checked-in file.
"""

from __future__ import annotations

import os
import sys

import networkx

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from inputs import graph6  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                   "atlas7.g6")


def main() -> int:
    graphs = [g for g in networkx.graph_atlas_g() if g.number_of_nodes() == 7]
    by_degrees = {}
    for g in graphs:
        key = tuple(sorted(d for _, d in g.degree()))
        if any(networkx.is_isomorphic(g, h) for h in by_degrees.get(key, ())):
            raise SystemExit("two atlas graphs are isomorphic")
        by_degrees.setdefault(key, []).append(g)
    lines = [graph6(7, sorted((min(u, v), max(u, v)) for u, v in g.edges()))
             for g in graphs]
    if len(lines) != 1044 or len(set(lines)) != 1044:
        raise SystemExit(f"expected 1044 distinct graphs, got "
                         f"{len(set(lines))}")
    with open(OUT, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} graphs to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
