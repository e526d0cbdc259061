"""Batch theorem checking over graph streams.

Every record carries the exact invariants for one graph (theta_e, k, p,
prey, bounds) and the outcome of each selected check.  Theorem checks must
pass on every graph; the concluding-equality probe k = theta_e - n + p is
only tallied, and any counterexample is reported verbatim in the summary
instead of failing the sweep.

The sweep may fan out across forked processes (`--threads` caps their
count, this one included).  This process holds the stream as a list of
chunks of CHUNK items, read once before any fork, and they go out
round-robin: chunk 0 to this process, chunk i to child i, and so on.  Each
process loads (parses) the graphs of its own chunks; a child sends each
chunk's records as one marshal blob over its own pipe, whose capacity
bounds how far it runs ahead.  Records come back in stream order, one
chunk at a time, so parallel and serial runs match exactly.  Beyond the
stream's items (for ``--in``, its graph6 text) no process holds a loaded
graph or a record past the chunk in hand.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii as _quoted

from . import ALL_CHECKS
from .bounds import opsut_bound, planar_formula_check, predator_bound
from .cliques import chordality, every_vertex_on_occupied_edge, is_diamond_free
from .constructions import (chordal_realizer, hall_certificate, hall_matching,
                            rebuild_star)
from .ecc import min_edge_clique_cover, theta_e
from .io import serialize_graph6
from .realizer import competition_number, primary_predator_index


def graph_record(args) -> dict:
    """Compute one graph's record from a (graph, checks) job."""
    graph, checks = args
    record: dict = {
        "graph6": serialize_graph6(graph),
        "n": graph.n,
        "edges": graph.edge_count,
        "checks": {},
        "error": None,
    }
    try:
        theta = theta_e(graph)
        k, k_witness = competition_number(graph)
        p, p_witness = primary_predator_index(graph)
        record.update(theta_e=theta, k=k, p=p, prey=p_witness.prey_count)
        core, _ = graph.without_isolates()
        chordal, _ = chordality(core)
        diamond_free, _ = is_diamond_free(graph)
        record.update(chordal=chordal, diamond_free=diamond_free)
        out = record["checks"]

        if "floors" in checks:
            if graph.n >= 2:
                out["p_ge_2"] = p >= 2
            out["k_ge_theta_minus_n_plus_p"] = k >= theta - graph.n + p
            out["prey_ge_theta"] = p_witness.prey_count >= theta
            if graph.n >= 2:
                out["predator_bound_ge_opsut"] = (
                    predator_bound(graph, p) >= opsut_bound(graph))
            if graph.edge_count > 0:
                cover = min_edge_clique_cover(graph)
                hall_certificate(graph, cover)  # with k's witness
                # a distinct p witness is certified and the cover checked
                if p_witness is not k_witness:
                    hall_matching(cover, p_witness.digraph)
                out["hall_certificate"] = True

        # the core's theta_e is the graph's: isolates lie on no edge
        if "effective" in checks and core.edge_count > 0:
            kc, _ = competition_number(core)
            pc, pc_witness = primary_predator_index(core)
            if chordal:
                realization, _ = chordal_realizer(core)
                out["chordal_construction"] = realization.prey_count == theta
            strong, _ = every_vertex_on_occupied_edge(core)
            if strong:
                rebuilt = rebuild_star(core)
                out["star_rebuild"] = rebuilt.prey_count == theta
            if chordal or strong:
                out["effective_equality"] = kc == theta - core.n + pc
                out["prey_equals_theta"] = pc_witness.prey_count == theta

        if "planar" in checks:
            try:
                result = planar_formula_check(graph)
            except ValueError:
                pass
            else:
                out["planar_formula"] = result["consistent"]

        if "conjecture" in checks:
            record["conjecture_equal"] = k == theta - graph.n + p
    except Exception as exc:  # verification failures become diagnostics
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _worker_count(threads: int | None, chunks: int) -> int:
    """Processes for a sweep, this one included: ``--threads`` (else one per
    CPU), never more than the stream's chunks or the CPUs, and one where the
    platform cannot fork."""
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return max(1, min(cpus if threads is None else threads, chunks, cpus))


CHUNK = 16  # stream items a process loads, computes and sends at a time


def chunked(items):
    """The items in lists of CHUNK, the last one shorter."""
    items = iter(items)
    while chunk := list(islice(items, CHUNK)):
        yield chunk


def _send(pipe, value) -> None:
    # length-prefixed: marshal.loads on one read is many times faster than
    # marshal.load on a file, which reads each field through the file
    blob = marshal.dumps(value)
    pipe.write(len(blob).to_bytes(8, "little") + blob)
    pipe.flush()


def _send_records(jobs, fd: int) -> None:
    """Send one marshal blob per chunk of jobs, its records.  A chunk that
    fails to load sends its ValueError's message instead, last."""
    with open(fd, "wb") as pipe:
        try:
            for chunk in jobs:
                _send(pipe, [graph_record(job) for job in chunk])
        except ValueError as exc:  # graph_record turns its own into records
            _send(pipe, str(exc))


def _receive(pipe):
    """The next blob a child sent; the ValueError it reports is raised."""
    try:
        blob = marshal.loads(pipe.read(int.from_bytes(pipe.read(8), "little")))
    except (EOFError, ValueError, TypeError):
        raise ChildProcessError("a sweep worker process died before "
                                "sending its records") from None
    if isinstance(blob, str):
        raise ValueError(blob)
    return blob


def _fan_out(chunks, load, checks, workers: int):
    """Yield the records in stream order: this process computes chunks 0,
    workers, 2 * workers, ...; forked child i computes chunks i, i +
    workers, ... and writes them to its own pipe, read here one blob at a
    time; a child that dies before it has written them all is an error.  A
    child leaves by ``os._exit``, so it flushes no buffer it inherited and
    runs no exit hook."""
    children = []  # (pid, read end) of each child not yet reaped
    try:
        for i in range(1, workers):
            sys.stdout.flush()  # so that no child holds a copy of either
            sys.stderr.flush()
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    _send_records(([(graph, checks) for graph in load(chunk)]
                                   for chunk in chunks[i::workers]), write)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)  # so that the child's death reads as EOF here
            children.append((pid, open(read, "rb")))
        for c, chunk in enumerate(chunks):
            if c % workers == 0:
                for graph in load(chunk):
                    yield graph_record((graph, checks))
            else:
                yield from _receive(children[c % workers - 1][1])
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL: its records are read or not wanted
            os.waitpid(pid, 0)


def stream_records(chunks, load, checks=ALL_CHECKS, threads=None):
    """An iterator over the records of a stream, in stream order.  ``chunks``
    is the stream as a list, cut by ``chunked`` before any process is
    forked; ``load`` makes the graphs of one chunk, in the process that
    computes them.  Closing the iterator, or its end, kills and reaps every
    child."""
    if threads is not None and type(threads) is not int:
        raise ValueError("threads must be an int or None")
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    checks = tuple(checks)
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return _fan_out(chunks, load, checks, _worker_count(threads, len(chunks)))


def summarize(records, checks) -> dict:
    """The summary of a record stream, read in one pass: counters, the
    violations and the concluding-equality counterexamples."""
    totals: dict[str, dict[str, int]] = {}
    summary: dict = {"graphs": 0, "violations": []}
    conjecture = {"checked": 0, "equal": 0, "counterexamples": []}
    for record in records:
        summary["graphs"] += 1
        for name, ok in record["checks"].items():
            tally = totals.setdefault(name, {"passed": 0, "total": 0})
            tally["passed"] += 1 if ok else 0
            tally["total"] += 1
        # records that raised an error or failed a theorem check
        if record.get("error") or not all(record["checks"].values()):
            summary["violations"].append(record["graph6"])
        conjecture["checked"] += "conjecture_equal" in record
        conjecture["equal"] += 1 if record.get("conjecture_equal") else 0
        if record.get("conjecture_equal") is False:
            conjecture["counterexamples"].append(record)
    summary["checks"] = dict(sorted(totals.items()))
    if "conjecture" in checks:
        summary["conjecture"] = conjecture
    return summary


def _indented(value, indent: str) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` writes, each
    line after the first indented by ``indent``.  json's indenting encoder
    is pure Python, so a report's own types (None, bools, ints, strs, lists
    and dicts with str keys) are written here, and any other goes to it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind, inner = type(value), indent + "  "
    if kind is int:
        return repr(value)
    if kind is str:
        return _quoted(value)
    if kind is list:
        if not value:
            return "[]"
        items = (inner + _indented(item, inner) for item in value)
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        items = (f"{inner}{_quoted(key)}: {_indented(item, inner)}"
                 for key, item in sorted(value.items()))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + indent)


def write_report(records, checks, handle) -> dict:
    """Write the report of a record stream to handle, each record as it
    arrives, in the text ``json.dump(report, handle, indent=2,
    sort_keys=True)`` writes for the report ``sweep`` returns, then a
    newline; return its summary.  Nothing is written before the first
    record, so no forked worker inherits a filled buffer."""
    def written():
        opening = '{\n  "records": ['
        for record in records:
            handle.write(opening + "\n    " + _indented(record, "    "))
            opening = ","
            yield record
        handle.write("\n  ]" if opening == "," else opening + "]")

    summary = summarize(written(), checks)
    handle.write(',\n  "summary": ' + _indented(summary, "  ") + "\n}\n")
    return summary


def sweep(graphs, checks=ALL_CHECKS, threads: int | None = None) -> dict:
    """Run the selected checks over a graph stream, as the report
    {records, summary} that ``compnum sweep --out`` writes."""
    checks = tuple(checks)
    records = list(stream_records(list(chunked(graphs)), list, checks,
                                  threads))
    return {"records": records, "summary": summarize(records, checks)}
