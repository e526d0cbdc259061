"""One traced op: each compnum layer's public functions, called in pipeline
order with a span around every call, then the op's CLI output through
compnum.cli.main.

    python3 bench/traced_op.py SPEC RESULT

SPEC is a JSON file {"id", "kind", "argv"}; RESULT receives {"exit",
"stdout", "spans"}.  Layers run in order (io, cliques, ecc, realizer, then
the graph core and certification on the witnesses), and the library caches
answers per graph, so each span is its layer's added cost over the layers
before it.  Spans stay in memory until the op ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check import clear_caches  # noqa: E402


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans of one op: name, start, end, parent span, op id."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.root = self._open("op", None)
        self.last = self.root

    def _open(self, name: str, parent) -> dict:
        span = {"op": self.op_id, "id": len(self.spans), "parent": parent,
                "name": name, "start": time.perf_counter()}
        self.spans.append(span)
        return span

    def call(self, name: str, fn, *args, rss: bool = False):
        """fn(*args) inside a span; the span dict is `self.last`."""
        span = self._open(name, self.root["id"])
        before = maxrss_mb() if rss else 0.0
        try:
            return fn(*args)
        finally:
            span["end"] = time.perf_counter()
            if rss:
                span["rss_mb"] = maxrss_mb() - before
            self.last = span

    def close(self) -> list[dict]:
        self.root["end"] = time.perf_counter()
        return self.spans


def strip_isolates(graph):
    from compnum.graph import Graph

    keep = [v for v in range(graph.n) if graph.rows[v]]
    index = {v: i for i, v in enumerate(keep)}
    return Graph.from_edges(len(keep), [(index[u], index[v])
                                        for u, v in graph.edges()])


def layers(tr: Tracer, graph) -> None:
    """The query pipeline on one graph, from cliques to certification."""
    from compnum.cliques import chordality, is_diamond_free, maximal_cliques
    from compnum.ecc import min_edge_clique_cover, theta_e
    from compnum.graph import acyclic_labeling, competition_graph
    from compnum.realizer import (certify_realization, competition_number,
                                  primary_predator_index)

    cliques = tr.call("cliques.maximal", maximal_cliques, graph)
    tr.last["count"] = len(cliques)
    tr.call("cliques.chordality", chordality, graph)
    tr.call("cliques.diamond", is_diamond_free, graph)
    theta = tr.call("ecc.theta", theta_e, graph, rss=True)
    tr.call("ecc.cover", min_edge_clique_cover, graph, rss=True)
    k, k_witness = tr.call("realizer.knumber", competition_number, graph,
                           rss=True)
    knumber_span = tr.last
    _, p_witness = tr.call("realizer.pindex", primary_predator_index, graph,
                           rss=True)
    # k-ascent steps: competition_number tries every k0 from the floor
    # max(1, theta_e - n + 2) of the isolate-free core up to k(core).
    core = strip_isolates(graph)
    steps = 0
    if core.edge_count:
        k_core = k if core.n == graph.n else competition_number(core)[0]
        steps = k_core - max(1, theta - core.n + 2) + 1
    knumber_span["ascent_steps"] = steps
    for witness in (k_witness, p_witness):
        tr.call("realizer.certify", certify_realization, graph,
                witness.digraph, witness.k)
        tr.call("graph.competition_graph", competition_graph, witness.digraph)
        tr.call("graph.acyclic_labeling", acyclic_labeling, witness.digraph)


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def query_layers(tr: Tracer, argv: list[str]) -> None:
    from compnum.io import parse_edge_list, parse_graph6

    with open(flag(argv, "--in"), encoding="ascii") as handle:
        text = handle.read()
    parse = parse_graph6 if flag(argv, "--format") == "g6" else parse_edge_list
    layers(tr, tr.call("io.parse", parse, text))


def sweep_layers(tr: Tracer, argv: list[str]) -> None:
    from compnum.io import parse_graph6_lines
    from compnum.smallgraphs import enumerate_small_graphs
    from compnum.sweep import ALL_CHECKS, graph_record, sweep

    if "--n" in argv:
        n = int(flag(argv, "--n"))
        graphs = tr.call("smallgraphs.enumerate",
                         lambda: list(enumerate_small_graphs(n)))
    else:
        with open(flag(argv, "--in"), encoding="ascii") as handle:
            graphs = tr.call("io.parse", parse_graph6_lines, handle.read())
    for graph in graphs:
        layers(tr, graph)
    # With the layers above warm, graph_record costs what the sweep adds on
    # top of them: constructions, bounds and the record itself.
    tr.call("sweep.record_rest",
            lambda: [graph_record((g, ALL_CHECKS)) for g in graphs])
    workers = int(flag(argv, "--threads"))
    clear_caches()
    cpu = children_cpu_s()
    tr.call("sweep.parallel", sweep, graphs, ALL_CHECKS, workers)
    tr.last["child_cpu_s"] = children_cpu_s() - cpu
    tr.last["workers"] = workers
    clear_caches()
    tr.call("sweep.serial", sweep, graphs, ALL_CHECKS, 1)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="ascii") as handle:
        spec = json.load(handle)
    tr = Tracer(spec["id"])
    argv = spec["argv"]

    def load_cli():
        import compnum.cli

        compnum.cli.build_parser()
        return compnum.cli

    cli = tr.call("cli.import", load_cli)
    stdout = io.StringIO()
    try:
        (query_layers if spec["kind"] == "query" else sweep_layers)(tr, argv)
        with contextlib.redirect_stdout(stdout):
            code = tr.call("cli.main", cli.main, argv)
    except Exception as exc:  # an uncaught error exits 1, as the CLI would
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump({"exit": code, "stdout": stdout.getvalue(),
                   "spans": tr.close()}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
