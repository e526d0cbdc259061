"""Write data/golden.json: the answers every benchmark op must give.

    python3 bench/make_golden.py        # from the root of a source checkout

Run once, at the commit whose answers are trusted.  For each candidate
query graph it records theta_e, k, p, prey, the exit code, the sha256 of
stdout, and the wall time and peak RSS of one CLI run; for the sweeps it
records every graph's sweep record.  Every witness is re-certified before
it is written.

Dense candidates that take longer than DENSE_CAP_S are kept out of the
draw and listed as excluded (a time of DENSE_CAP_S + 1 means it was
stopped there), so that the deadline sits well above every op that
passes.  P1200 and C1200 crash the CLI with RecursionError; their
answers are computed in-process with a deep stack, and golden keeps exit 0,
so the benchmark counts the crash as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys

import run  # sets up sys.path for the modules below
from check import certify_witness, clear_caches, deep, expected_sweep, sha256
from inputs import graph6, rg
from workloads import (ATLAS_CHUNKS, DEADLINE_S, DENSE_CAP_S, G89_PER_ROUND,
                       GOLDEN_PATH, HARD_TAIL, STRUCTURED, TREE_SIZES,
                       graph_of, load_atlas, query_op, sweep_op)

DENSE_N = range(14, 19)
DENSE_SEEDS = range(60)
TREE_SEEDS = range(60)
G89_SEEDS = range(150)
HARD_TAIL_LIMIT_S = 120.0


def cli_answer(argv: list[str]):
    """Exit code and stdout of the CLI, run in this process."""
    from compnum.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = deep(main, argv)
    return code, out.getvalue()


def query_golden(op_id: str, work: str) -> dict:
    op = query_op({"queries": {op_id: {}}}, 0, "pindex", op_id)
    run.write_inputs(op, work)
    drawn = op_id.startswith("rg-") and op_id != HARD_TAIL
    limit = (HARD_TAIL_LIMIT_S if op_id == HARD_TAIL
             else DENSE_CAP_S + 1 if drawn else DEADLINE_S)
    outcome = run.run_process([sys.executable, "-m", "compnum", *op.argv],
                              work, os.path.join(work, "op.out"), limit)
    entry = {"seed_time_s": round(outcome.wall_s, 4),
             "seed_rss_mb": round(outcome.rss_mb, 1),
             "seed_exit": outcome.exit_code}
    if drawn and outcome.wall_s > DENSE_CAP_S:
        return dict(entry, excluded=f"over the {DENSE_CAP_S:g} s cap")
    if outcome.timed_out:
        raise SystemExit(f"{op_id}: over the {limit:g} s limit")
    if outcome.exit_code == 0:
        code, stdout = 0, run.read(os.path.join(work, "op.out"))
    else:
        old = os.getcwd()
        os.chdir(work)
        try:
            code, stdout = cli_answer(op.argv)
        finally:
            os.chdir(old)
            clear_caches()
    if code != 0:
        raise SystemExit(f"{op_id}: no answer (exit {code})")
    from compnum.ecc import theta_e
    from compnum.graph import Graph

    payload = json.loads(stdout)
    n, edges = graph_of(op_id)
    prey = certify_witness((n, edges), payload["witness_arcs"], payload["k"])
    if prey != payload["prey"]:
        raise SystemExit(f"{op_id}: witness has {prey} prey")
    theta = deep(theta_e, Graph.from_edges(n, edges))
    clear_caches()
    return dict(entry, exit=0, theta_e=theta, k=payload["k"], p=payload["p"],
                prey=payload["prey"], stdout_sha256=sha256(stdout))


def sweep_records(stream, work: str) -> list[dict]:
    """Every record of one sweep (of n = 6 when stream is None), checked
    against the summary oracle."""
    argv = ["sweep", "--threads", "2", "--out", "golden.report.json"]
    if stream is None:
        argv += ["--n", "6"]
    else:
        with open(os.path.join(work, "golden.g6"), "w", encoding="ascii") as h:
            h.write("\n".join(stream) + "\n")
        argv += ["--in", "golden.g6"]
    outcome = run.run_process([sys.executable, "-m", "compnum", *argv], work,
                              os.path.join(work, "op.out"), 600)
    report = json.loads(run.read(os.path.join(work, "golden.report.json")))
    records = report["records"]
    if expected_sweep(records) != (outcome.exit_code,
                                   run.read(os.path.join(work, "op.out"))):
        raise SystemExit("sweep summary oracle disagrees with the CLI")
    return records


def round_seconds(golden: dict, work: str) -> float:
    """Median wall time of one sweep-small round, over three rounds."""
    import random

    from workloads import sweep_small

    times = []
    for seed in range(3):
        # A round is the first ATLAS_CHUNKS + 2 ops of any op list.
        specs = sweep_small(dict(golden, sweep_round_s=1.0),
                            random.Random(seed), 0)
        total = 0.0
        for label, stream in specs[:ATLAS_CHUNKS + 2]:
            op = sweep_op(golden, 0, label, stream)
            run.write_inputs(op, work)
            total += run.run_process(
                [sys.executable, "-m", "compnum", *op.argv], work,
                os.path.join(work, "op.out"), 600).wall_s
        times.append(total)
    return statistics.median(times)


def write(golden: dict) -> None:
    """One entry per line, so that a change to one answer is one diff line."""
    lines = ["{"]
    sections = sorted(golden.items())
    for i, (section, value) in enumerate(sections):
        end = "," if i < len(sections) - 1 else ""
        if isinstance(value, dict):
            items = sorted(value.items())
            lines.append(f"{json.dumps(section)}: {{")
            lines += [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      + ("," if j < len(items) - 1 else "")
                      for j, (k, v) in enumerate(items)]
            lines.append("}" + end)
        else:
            lines.append(f"{json.dumps(section)}: {json.dumps(value)}{end}")
    lines.append("}")
    with open(GOLDEN_PATH, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def main() -> int:
    sys.path.insert(0, run.SRC)
    work = os.path.join(run.ROOT, ".bench_work", "golden")
    os.makedirs(work, exist_ok=True)
    ids = [f"rg-{n}-{s}" for n in DENSE_N for s in DENSE_SEEDS]
    ids += [f"tree-{n}-{s}" for n in TREE_SIZES for s in TREE_SEEDS]
    ids += list(STRUCTURED)
    queries = {}
    for op_id in ids:
        queries[op_id] = query_golden(op_id, work)
        print(op_id, queries[op_id], flush=True)

    records = {}
    n6 = sweep_records(None, work)
    atlas = sweep_records(load_atlas(), work)
    pool = sorted({graph6(*rg(n, 0.5, s)) for n in (8, 9) for s in G89_SEEDS})
    extra = sweep_records(pool, work)
    for record in n6 + atlas + extra:
        records[record["graph6"]] = record
    golden = {"queries": queries, "n6_order": [r["graph6"] for r in n6],
              "sweep_pool": pool, "sweep_records": records}
    if len(pool) < G89_PER_ROUND:
        raise SystemExit("sweep pool smaller than one round's draw")
    golden["sweep_round_s"] = round(round_seconds(golden, work), 4)
    write(golden)
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
