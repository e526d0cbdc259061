"""Batch theorem checking over graph streams.

Every record carries the exact invariants for one graph (theta_e, k, p,
prey, bounds) and the outcome of each selected check.  Theorem checks must
pass on every graph; the concluding-equality probe k = theta_e - n + p is
only tallied, and any counterexample is reported verbatim in the summary
instead of failing the sweep.

The sweep may fan out across processes (`--threads` caps their count, this
one included), each computing one interleaved slice of the stream; records
are merged in stream order, so parallel and serial runs match exactly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass

from . import ALL_CHECKS
from .bounds import opsut_bound, planar_formula_check, predator_bound
from .cliques import (chordality, EliminationOrdering,
                      every_vertex_on_occupied_edge, is_diamond_free)
from .constructions import chordal_realizer, hall_certificate, rebuild_star
from .ecc import min_edge_clique_cover, theta_e
from .io import serialize_graph6
from .realizer import competition_number, primary_predator_index


@dataclass(frozen=True)
class SweepReport:
    records: tuple[dict, ...]
    summary: dict

    def to_json(self) -> str:
        return json.dumps({"records": list(self.records),
                           "summary": self.summary}, indent=2, sort_keys=True)

    @property
    def violations(self) -> list[dict]:
        return [r for r in self.records if _violates(r)]

    @property
    def counterexamples(self) -> list[dict]:
        return self.summary.get("conjecture", {}).get("counterexamples", [])


def _violates(record: dict) -> bool:
    """Whether a record failed a theorem check or raised an error."""
    return bool(record.get("error")) or not all(record["checks"].values())


def graph_record(args) -> dict:
    """Worker: compute one graph's record.  Top level for picklability."""
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
        chordal = isinstance(chordality(core), EliminationOrdering)
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
                hall_certificate(graph, cover, k_witness.digraph)
                hall_certificate(graph, cover, p_witness.digraph)
                out["hall_certificate"] = True

        if "effective" in checks and core.edge_count > 0:
            kc, kc_witness = competition_number(core)
            pc, pc_witness = primary_predator_index(core)
            equality = kc == theta_e(core) - core.n + pc
            if chordal:
                realization, _ = chordal_realizer(core)
                out["chordal_construction"] = (
                    realization.prey_count == theta_e(core))
                out["effective_equality"] = equality
            strong, _ = every_vertex_on_occupied_edge(core)
            if strong:
                rebuilt = rebuild_star(core, kc_witness)
                out["star_rebuild"] = rebuilt.prey_count == theta_e(core)
                out["effective_equality"] = equality
            if chordal or strong:
                out["prey_equals_theta"] = pc_witness.prey_count == theta_e(core)

        if "planar" in checks:
            try:
                result = planar_formula_check(graph, p)
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
    CPU), never more than the jobs or the CPUs, and at least one."""
    cpus = os.cpu_count() or 1
    return max(1, min(cpus if threads is None else threads, jobs, cpus))


def _send_records(jobs, conn) -> None:
    conn.send([graph_record(job) for job in jobs])


def _fan_out(jobs, workers: int) -> list[dict]:
    """The records in stream order: this process computes jobs[0::workers],
    child i computes and sends jobs[i::workers]; a dead child is an error."""
    records: list = [None] * len(jobs)
    children = []
    try:
        for i in range(1, workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_records,
                                            args=(jobs[i::workers], send))
            child.start()
            send.close()  # so that the child's death reads as EOF here
            children.append((child, recv))
        records[0::workers] = [graph_record(job) for job in jobs[0::workers]]
        for i, (_, recv) in enumerate(children, 1):
            records[i::workers] = recv.recv()
    except EOFError:  # graph_record turns its own errors into records
        raise ChildProcessError("a sweep worker process died before sending "
                                "its records") from None
    finally:
        for child, recv in children:
            child.terminate()  # its records are read, or no longer wanted
            child.join()
            recv.close()
    return records


def sweep(graphs, checks=ALL_CHECKS, threads: int | None = None) -> SweepReport:
    """Run the selected checks over a graph stream and merge the records."""
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
        "violations": [r["graph6"] for r in records if _violates(r)],
    }
    if "conjecture" in checks:
        counterexamples = [r for r in records
                           if r.get("conjecture_equal") is False]
        summary["conjecture"] = {
            "checked": sum(1 for r in records if "conjecture_equal" in r),
            "equal": sum(1 for r in records if r.get("conjecture_equal")),
            "counterexamples": counterexamples,
        }
    return SweepReport(tuple(records), summary)

