"""Command-line interface.

Outputs are byte-identical across runs for identical inputs and flags:
JSON is emitted with sorted keys and no timestamps, and every underlying
computation is deterministic.  Exit codes: 0 all checks pass, 2 a theorem
check failed (a library bug either way, so it must surface, as one error
line), 3 the sweep found a counterexample to the concluding equality
(reported as a finding, not a failure), 1 for usage errors, a file that
cannot be read or written, a failed verification, a dead sweep worker or a
closed stdout.  Each subcommand's parser holds its handler as the ``run``
default.  Each command imports the library modules it calls, so a process
loads only the modules of its own command.
"""

import argparse
import contextlib
import json
import os
import sys

from . import ALL_CHECKS


def _open(path: str):
    return (contextlib.nullcontext(sys.stdin) if path == "-"
            else open(path, "r", encoding="ascii"))


def _read(path: str) -> str:
    with _open(path) as handle:
        return handle.read()


def _load_graph(path: str, fmt: str):
    from .graph import Graph
    from .io import parse_edge_list, parse_graph6
    text = _read(path)
    if fmt == "g6":
        return parse_graph6(text)
    value = parse_edge_list(text)
    if not isinstance(value, Graph):
        raise ValueError("expected an undirected edge list, found arcs")
    return value


def _load_digraph(path: str, fmt: str):
    from .graph import Digraph
    from .io import parse_edge_list
    if fmt == "g6":
        raise ValueError("graph6 encodes undirected graphs; use the arc-list "
                         "format for digraph input")
    value = parse_edge_list(_read(path))
    if not isinstance(value, Digraph):
        if value.edge_count == 0:  # no edge lines: the arc-less digraph
            return Digraph(value.n, ())
        raise ValueError("expected an arc list (lines 'u > v')")
    return value


def _load_cover(graph, path: str):
    from .ecc import make_cover
    data = json.loads(_read(path))
    if not isinstance(data, dict) or not isinstance(data.get("cliques"), list):
        raise ValueError(f"{path}: cover JSON needs a 'cliques' list")
    return make_cover(graph, data["cliques"])


def _emit(payload, as_json: bool, text: str | None = None) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True)
          if as_json or text is None else text)


def _add_input_flags(sub, formats=("g6", "edges", "arcs")) -> None:
    sub.add_argument("--in", dest="infile", required=True,
                     help="input file, or - for stdin")
    sub.add_argument("--format", choices=formats, default="edges")
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compnum",
        description="Exact competition numbers, predator indices, edge "
                    "clique covers, effective-cover certificates, bounds "
                    "and exhaustive sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compete", help="competition graph of a digraph")
    sub.set_defaults(run=_cmd_compete)
    _add_input_flags(sub)

    for name, help_text, run in (
            ("theta", "edge clique cover number", _cmd_theta),
            ("knumber", "competition number with witness", _cmd_knumber),
            ("pindex", "primary predator index with witness", _cmd_knumber),
            ("cover", "minimum edge clique cover", _cmd_cover)):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(run=run)
        _add_input_flags(sub, formats=("g6", "edges"))
        sub.add_argument("--witness", action="store_true")

    sub = subs.add_parser("realize", help="decide realizability with k isolates")
    sub.set_defaults(run=_cmd_realize)
    _add_input_flags(sub, formats=("g6", "edges"))
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--witness", action="store_true")

    sub = subs.add_parser("chordal-build",
                          help="effective cover construction for chordal input")
    sub.set_defaults(run=_cmd_chordal_build)
    _add_input_flags(sub, formats=("g6", "edges"))

    sub = subs.add_parser("rebuild-star",
                          help="rewire a realization to exactly theta_e prey")
    sub.set_defaults(run=_cmd_rebuild_star)
    _add_input_flags(sub, formats=("g6", "edges"))
    sub.add_argument("--digraph", help="optional arc-list realization; "
                                       "computed exactly when omitted")

    sub = subs.add_parser("verify-effective",
                          help="verify an effective competition cover triple")
    sub.set_defaults(run=_cmd_verify_effective)
    sub.add_argument("--graph", required=True)
    sub.add_argument("--format", choices=("g6", "edges"), default="edges")
    sub.add_argument("--cover", required=True, help="cover JSON file")
    sub.add_argument("--digraph", required=True, help="arc-list digraph file")
    sub.add_argument("--json", action="store_true")

    sub = subs.add_parser("hall-cert",
                          help="saturating prey matching for a cover")
    sub.set_defaults(run=_cmd_hall_cert)
    sub.add_argument("--graph", required=True)
    sub.add_argument("--format", choices=("g6", "edges"), default="edges")
    sub.add_argument("--cover", help="cover JSON; minimum cover when omitted")
    sub.add_argument("--digraph", help="arc-list digraph; exact witness "
                                       "when omitted")
    sub.add_argument("--json", action="store_true")

    sub = subs.add_parser("bounds", help="all bounds for a graph")
    sub.set_defaults(run=_cmd_bounds)
    _add_input_flags(sub, formats=("g6", "edges"))

    sub = subs.add_parser("planar-check",
                          help="face-count formula for connected diamond-free "
                               "plane graphs")
    sub.set_defaults(run=_cmd_planar_check)
    _add_input_flags(sub, formats=("g6", "edges"))

    sub = subs.add_parser("sweep", help="exhaustive theorem sweep")
    sub.set_defaults(run=_cmd_sweep)
    sub.add_argument("--n", type=int, help="enumerate all graphs on n vertices")
    sub.add_argument("--in", dest="infile",
                     help="graph6 stream instead of built-in enumeration")
    sub.add_argument("--connected", action="store_true")
    sub.add_argument("--checks", default="all",
                     choices=("all",) + ALL_CHECKS)
    sub.add_argument("--out", help="write the full JSON report here")
    sub.add_argument("--threads", type=int, default=None)
    return parser


def _cmd_compete(args) -> int:
    from .graph import competition_graph
    from .io import serialize_edge_list, serialize_graph6
    digraph = _load_digraph(args.infile, args.format)
    graph = competition_graph(digraph)
    payload = {"n": graph.n, "edges": [[u, v] for u, v in graph.edges()],
               "graph6": serialize_graph6(graph)}
    _emit(payload, args.json, serialize_edge_list(graph).rstrip("\n"))
    return 0


def _cmd_theta(args) -> int:
    from .ecc import min_edge_clique_cover, theta_e
    graph = _load_graph(args.infile, args.format)
    payload = {"theta_e": theta_e(graph)}
    if args.witness:
        payload["cliques"] = [list(c) for c in min_edge_clique_cover(graph)]
    _emit(payload, args.json, f"theta_e = {payload['theta_e']}")
    return 0


def _cmd_cover(args) -> int:
    from .ecc import min_edge_clique_cover
    graph = _load_graph(args.infile, args.format)
    cover = min_edge_clique_cover(graph)
    _emit(_cover_payload(cover), args.json,
          "\n".join(" ".join(map(str, c)) for c in cover) or "(empty)")
    return 0


def _cmd_knumber(args) -> int:
    from .realizer import primary_predator_index
    graph = _load_graph(args.infile, args.format)
    p, witness = primary_predator_index(graph)
    payload = {"k": witness.k, "p": p, "prey": witness.prey_count}
    if args.witness:
        payload["witness_arcs"] = witness.witness_arcs()
    key = "k" if args.command == "knumber" else "p"
    _emit(payload, args.json, f"{key} = {payload[key]}")
    return 0


def _cmd_realize(args) -> int:
    from .realizer import max_predators_with
    graph = _load_graph(args.infile, args.format)
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    result = max_predators_with(graph, args.k)
    if result is None:
        _emit({"realizable": False, "k": args.k}, args.json,
              f"not realizable with {args.k} isolates")
        return 0
    predators, witness = result
    payload = {"realizable": True, "k": args.k, "max_predators": predators,
               "prey": witness.prey_count}
    if args.witness:
        payload["witness_arcs"] = witness.witness_arcs()
    _emit(payload, args.json,
          f"realizable with {args.k} isolates; max predators {predators}")
    return 0


def _cover_payload(cover) -> dict:
    """A minimum cover of maximal cliques, as the cover JSON."""
    return {"theta_e": len(cover), "cliques": [list(c) for c in cover],
            "maximal": True}


def _realization_payload(realization, cover=None) -> dict:
    payload = {
        "k": realization.k,
        "prey": realization.prey_count,
        "predators": realization.predator_count,
        "witness_arcs": realization.witness_arcs(),
        "sink_map": [[i, w] for i, w in realization.sink_map],
    }
    if cover is not None:
        payload["cover"] = _cover_payload(cover)
    return payload


def _cmd_chordal_build(args) -> int:
    from .constructions import chordal_realizer
    graph = _load_graph(args.infile, args.format)
    realization, cover = chordal_realizer(graph)
    _emit(_realization_payload(realization, cover), args.json)
    return 0


def _cmd_rebuild_star(args) -> int:
    from .constructions import rebuild_star
    graph = _load_graph(args.infile, args.format)
    digraph = _load_digraph(args.digraph, "arcs") if args.digraph else None
    _emit(_realization_payload(rebuild_star(graph, digraph)), args.json)
    return 0


def _cmd_verify_effective(args) -> int:
    from .constructions import verify_effective_cover
    graph = _load_graph(args.graph, args.format)
    cover = _load_cover(graph, args.cover)
    digraph = _load_digraph(args.digraph, "arcs")
    cert = verify_effective_cover(graph, cover, digraph)
    _emit(cert, args.json,
          "valid" if cert["valid"] else f"invalid: {cert['failure']}")
    return 0 if cert["valid"] else 1


def _cmd_hall_cert(args) -> int:
    from .constructions import hall_certificate
    graph = _load_graph(args.graph, args.format)
    cover = _load_cover(graph, args.cover) if args.cover else None
    digraph = _load_digraph(args.digraph, "arcs") if args.digraph else None
    _emit(hall_certificate(graph, cover, digraph), args.json)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import bounds_report
    graph = _load_graph(args.infile, args.format)
    _emit(bounds_report(graph), args.json)
    return 0


def _cmd_planar_check(args) -> int:
    from .bounds import planar_formula_check
    graph = _load_graph(args.infile, args.format)
    result = planar_formula_check(graph)
    _emit(result, args.json)
    return 0 if result["consistent"] else 2


def _write_report(records, checks, path: str) -> dict:
    """Stream the report to path and return its summary.  An absent path
    or a regular file (through any symlink) gets a temporary file beside it,
    moved over it once the report is complete, so that on any error it keeps
    its bytes or stays absent; any other path, such as a pipe or a device,
    is written directly, having no earlier bytes to keep."""
    from .sweep import write_report
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="ascii") as handle:
            return write_report(records, checks, handle)
    target = os.path.realpath(path)
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(temp, "w", encoding="ascii")
    except OSError as exc:  # name the path asked for, not the temporary
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            summary = write_report(records, checks, handle)
        try:
            os.replace(temp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.remove(temp)
        raise
    return summary


def _cmd_sweep(args) -> int:
    from .io import parse_graph6_lines
    from .sweep import chunked, stream_records, summarize
    if (args.n is None) == (args.infile is None):
        raise ValueError("give exactly one of --n or --in")
    if args.infile is None:
        from .smallgraphs import enumerate_small_graphs
        chunks = list(chunked(enumerate_small_graphs(args.n)))
    else:  # read once, before the fork: one string per chunk of lines
        with _open(args.infile) as handle:
            chunks = ["".join(lines) for lines in chunked(handle)]

    def load(chunk):
        graphs = chunk if args.infile is None else parse_graph6_lines(chunk)
        return ([g for g in graphs if g.is_connected()] if args.connected
                else graphs)

    checks = ALL_CHECKS if args.checks == "all" else (args.checks,)
    records = stream_records(chunks, load, checks, threads=args.threads)
    try:
        summary = (_write_report(records, checks, args.out) if args.out
                   else summarize(records, checks))
    finally:
        records.close()  # kills and reaps the workers if it ended early
    print(json.dumps(summary, indent=2, sort_keys=True))
    if summary["violations"]:
        return 2
    return 3 if summary.get("conjecture", {}).get("counterexamples") else 0


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse's usage errors exit 2, which
            if exc.code:           # here means a failed theorem check
                return 1
            raise  # --help
        finally:
            sys.stdout.flush()  # argparse exits right after printing --help
        code = args.run(args)
        sys.stdout.flush()
        return code
    except (ValueError, RecursionError) as exc:  # RecursionError: a limit
        print(f"error: {exc}", file=sys.stderr)  # of the input, not a bug
        return 1
    except RuntimeError as exc:  # a failed self-check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader has gone; devnull takes what the exit flushes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # missing input, unwritable --out, dead worker
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
