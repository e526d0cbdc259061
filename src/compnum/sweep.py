"""Batch theorem checking over graph streams.

Every record carries the exact invariants for one graph (theta_e, k, p,
prey, bounds) and the outcome of each selected check.  Theorem checks must
pass on every graph; the concluding-equality probe k = theta_e - n + p is
only tallied, and any counterexample is reported verbatim in the summary
instead of failing the sweep.

The sweep may fan out across forked processes (`--threads` caps their
count, this one included), each computing one interleaved slice of the
stream.  A child sends its slice's records back as one marshal blob over
its own pipe; records are merged in stream order, so parallel and serial
runs match exactly.
"""

from __future__ import annotations

import marshal
import os
import sys

from . import ALL_CHECKS
from .bounds import opsut_bound, planar_formula_check, predator_bound
from .cliques import chordality, every_vertex_on_occupied_edge, is_diamond_free
from .constructions import chordal_realizer, hall_certificate, rebuild_star
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
                # one witness when the first plan has the fewest prey
                if p_witness is not k_witness:
                    hall_certificate(graph, cover, p_witness.digraph)
                out["hall_certificate"] = True

        if "effective" in checks and core.edge_count > 0:
            kc, _ = competition_number(core)
            pc, pc_witness = primary_predator_index(core)
            if chordal:
                realization, _ = chordal_realizer(core)
                out["chordal_construction"] = (
                    realization.prey_count == theta_e(core))
            strong, _ = every_vertex_on_occupied_edge(core)
            if strong:
                rebuilt = rebuild_star(core)
                out["star_rebuild"] = rebuilt.prey_count == theta_e(core)
            if chordal or strong:
                out["effective_equality"] = kc == theta_e(core) - core.n + pc
                out["prey_equals_theta"] = pc_witness.prey_count == theta_e(core)

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


def _worker_count(threads: int | None, jobs: int) -> int:
    """Processes for a sweep, this one included: ``--threads`` (else one per
    CPU), never more than the jobs or the CPUs, and one where the platform
    cannot fork."""
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return max(1, min(cpus if threads is None else threads, jobs, cpus))


def _send_records(jobs, fd: int) -> None:
    with open(fd, "wb") as pipe:
        marshal.dump([graph_record(job) for job in jobs], pipe)


def _fan_out(jobs, workers: int) -> list[dict]:
    """The records in stream order: this process computes jobs[0::workers],
    forked child i computes jobs[i::workers] and writes them to its own
    pipe as one marshal blob, read here to EOF; a child that dies before it
    has written them all is an error.  A child leaves by ``os._exit``, so
    it flushes no buffer it inherited and runs no exit hook."""
    records: list = [None] * len(jobs)
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
                    _send_records(jobs[i::workers], write)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)  # so that the child's death reads as EOF here
            children.append((pid, open(read, "rb")))
        records[0::workers] = [graph_record(job) for job in jobs[0::workers]]
        for i, (_, pipe) in enumerate(children, 1):
            try:  # graph_record turns its own errors into records
                records[i::workers] = marshal.loads(pipe.read())
            except (EOFError, ValueError):
                raise ChildProcessError("a sweep worker process died before "
                                        "sending its records") from None
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL: its records are read or not wanted
            os.waitpid(pid, 0)
    return records


def sweep(graphs, checks=ALL_CHECKS, threads: int | None = None) -> dict:
    """Run the selected checks over a graph stream, as the report
    {records, summary} that ``compnum sweep --out`` writes."""
    if threads is not None and type(threads) is not int:
        raise ValueError("threads must be an int or None")
    checks = tuple(checks)
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    jobs = [(graph, checks) for graph in graphs]
    records = _fan_out(jobs, _worker_count(threads, len(jobs)))

    check_totals: dict[str, list[int]] = {}
    for record in records:
        for name, ok in record["checks"].items():
            passed, total = check_totals.setdefault(name, [0, 0])
            check_totals[name] = [passed + (1 if ok else 0), total + 1]
    summary: dict = {
        "graphs": len(records),
        "checks": {name: {"passed": v[0], "total": v[1]}
                   for name, v in sorted(check_totals.items())},
        # records that raised an error or failed a theorem check
        "violations": [r["graph6"] for r in records
                       if r.get("error") or not all(r["checks"].values())],
    }
    if "conjecture" in checks:
        counterexamples = [r for r in records
                           if r.get("conjecture_equal") is False]
        summary["conjecture"] = {
            "checked": sum(1 for r in records if "conjecture_equal" in r),
            "equal": sum(1 for r in records if r.get("conjecture_equal")),
            "counterexamples": counterexamples,
        }
    return {"records": records, "summary": summary}

