"""End-to-end benchmark of the compnum CLI.

    python3 bench/run.py --workload dense-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the CLI is imported from ./src.
Each op is one `python -m compnum ...` process on one generated input,
started only after the previous one has ended (a closed loop with one
client).  Ops are checked against bench/data/golden.json; a failed op is
charged the deadline.  One JSON record per op goes to stdout, and the last
line is the result: the end-to-end metrics with --trace 0, or, with
--trace 1, the per-layer metrics of a separate run in which every op is
run plainly and then again through bench/traced_op.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from check import Verdict, check_query, check_sweep  # noqa: E402
from workloads import DEADLINE_S, WORKLOADS, build, load_golden  # noqa: E402

SETUP_STARTS = 15
UNITS = {"setup_s": "s", "solve_s": "s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("COMPNUM_THREADS", None)
    return env


def run_process(cmd, cwd: str, stdout_path: str, deadline: float) -> Outcome:
    """Run cmd to completion or to the deadline, whichever comes first,
    through bench/launch.py, which times it and reads its peak RSS."""
    launcher = [sys.executable, "-S", os.path.join(HERE, "launch.py"),
                str(deadline), stdout_path, *cmd]
    done = subprocess.run(launcher, cwd=cwd, env=child_env(), check=True,
                          stdout=subprocess.PIPE, timeout=deadline + 60)
    return Outcome(**json.loads(done.stdout))


def measure_setup(work: str) -> float:
    """Median wall time of a CLI start that does no work: interpreter,
    `import compnum`, parser built.  The first start is not counted."""
    cmd = [sys.executable, "-m", "compnum", "--help"]
    out = os.path.join(work, "setup.out")
    times = []
    for _ in range(SETUP_STARTS + 1):
        outcome = run_process(cmd, work, out, DEADLINE_S)
        if outcome.exit_code != 0:
            raise SystemExit("compnum does not start; is ./src a compnum "
                             "source tree?")
        times.append(outcome.wall_s)
    return statistics.median(times[1:])


def write_inputs(op, work: str) -> None:
    for name, text in op.files.items():
        with open(os.path.join(work, name), "w", encoding="ascii") as handle:
            handle.write(text)


def read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read()
    except OSError:
        return None


def judge(op, exit_code: int, stdout: str, work: str) -> Verdict:
    if op.kind == "query":
        return check_query(op, exit_code, stdout)
    report = os.path.join(work, op.argv[op.argv.index("--out") + 1])
    text = read(report)
    if text is not None:
        os.remove(report)
    return check_sweep(op, exit_code, stdout, text)


def result_record(op, outcome: Outcome, verdict: Verdict) -> dict:
    if outcome.timed_out:
        verdict = Verdict(f"deadline {DEADLINE_S:g} s")
    return {"op": op.id, "kind": op.kind, "n": op.n, "m": op.m,
            "time_s": round(outcome.wall_s, 6),
            "rss_mb": round(outcome.rss_mb, 3), "exit": outcome.exit_code,
            "ok": verdict.reason is None, "reason": verdict.reason,
            "wrong": verdict.wrong, "stdout_changed": verdict.changed,
            "timed_out": outcome.timed_out}


def run_plain(op, work: str) -> dict:
    stdout_path = os.path.join(work, "op.out")
    outcome = run_process([sys.executable, "-m", "compnum", *op.argv],
                          work, stdout_path, DEADLINE_S)
    verdict = Verdict()
    if not outcome.timed_out:
        verdict = judge(op, outcome.exit_code, read(stdout_path) or "", work)
    return result_record(op, outcome, verdict)


def run_traced(op, index: int, work: str) -> tuple[dict, list]:
    spec_path = os.path.join(work, "trace.spec.json")
    result_path = os.path.join(work, "trace.result.json")
    with open(spec_path, "w", encoding="ascii") as handle:
        json.dump({"id": f"{index}:{op.id}", "kind": op.kind,
                   "argv": op.argv}, handle)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "traced_op.py"),
           spec_path, result_path]
    outcome = run_process(cmd, work, os.path.join(work, "trace.out"),
                          DEADLINE_S)
    traced = json.loads(read(result_path) or "null")
    verdict, spans = Verdict("traced op left no result"), []
    if traced is not None and not outcome.timed_out:
        spans = traced["spans"]
        outcome.exit_code = traced["exit"]
        verdict = judge(op, traced["exit"], traced["stdout"], work)
    return result_record(op, outcome, verdict), spans


def charged(record: dict) -> float:
    return record["time_s"] if record["ok"] else DEADLINE_S


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, by nearest
    rank, as (value, percentile); failed ops are passed in as inf and rank
    above every success.  With fewer than 11 ops, the slowest op."""
    ranked = sorted(times)
    rank = len(ranked) - 10 if len(ranked) > 10 else len(ranked)
    return ranked[rank - 1], 100.0 * rank / len(ranked)


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, dict]:
    ranked = [r["time_s"] if r["ok"] else float("inf") for r in records]
    p50 = statistics.median(ranked)
    value, pct = tail(ranked)
    survivors = [r["rss_mb"] for r in records if not r["timed_out"]]
    metrics = {
        "setup_s": setup_s,
        "solve_s": sum(charged(r) for r in records),
        "op_p50_ms": 1000 * min(p50, DEADLINE_S),
        "op_tail_ms": 1000 * min(value, DEADLINE_S),
        "peak_rss_mb": max(survivors, default=0.0),
    }
    notes = {"ops": len(records),
             "failed": sum(1 for r in records if not r["ok"]),
             "tail_percentile": round(pct, 2),
             "setup_samples": SETUP_STARTS,
             "deadline_s": DEADLINE_S}
    return metrics, notes


LAYER_TIMES = (
    "cli.import_s", "io.parse_s", "graph.competition_graph_s",
    "graph.acyclic_labeling_s", "cliques.maximal_s", "cliques.chordality_s",
    "cliques.diamond_s", "ecc.theta_s", "ecc.cover_s", "realizer.knumber_s",
    "realizer.pindex_s", "realizer.certify_s", "smallgraphs.enumerate_s",
    "sweep.serial_s", "sweep.parallel_s", "sweep.record_rest_s")
LAYER_UNITS = dict.fromkeys(LAYER_TIMES, "s") | {
    "cliques.maximal_count": "count", "ecc.rss_mb": "MB",
    "realizer.rss_mb": "MB", "realizer.ascent_steps": "count",
    "sweep.speedup": "ratio", "sweep.idle_frac": "ratio",
    "cli.stdout_changed": "count", "trace.overhead_frac": "ratio"}
RSS_OF = {"ecc.theta": "ecc.rss_mb", "ecc.cover": "ecc.rss_mb",
          "realizer.knumber": "realizer.rss_mb",
          "realizer.pindex": "realizer.rss_mb"}
COUNT_OF = {"cliques.maximal": ("count", "cliques.maximal_count"),
            "realizer.knumber": ("ascent_steps", "realizer.ascent_steps")}


def per_layer(plain: list[dict], traced: list[dict], spans: list) -> dict:
    """Per-layer numbers over all traced ops of a run.

    Times are summed span durations; rss_mb is the largest ru_maxrss
    growth over one span; counts are summed.  The clique enumeration inside
    the realizer search is part of realizer.knumber_s, since the program
    has no spans of its own yet.
    """
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    cpu = worker_s = 0.0
    for span in spans:
        name, seconds = span["name"], span["end"] - span["start"]
        if name + "_s" in out:
            out[name + "_s"] += seconds
        if name in RSS_OF:
            out[RSS_OF[name]] = max(out[RSS_OF[name]], span["rss_mb"])
        if name in COUNT_OF:
            attr, metric = COUNT_OF[name]
            out[metric] += span[attr]
        if name == "sweep.parallel":
            cpu += span["child_cpu_s"]
            worker_s += span["workers"] * seconds
    if out["sweep.parallel_s"]:
        out["sweep.speedup"] = out["sweep.serial_s"] / out["sweep.parallel_s"]
        out["sweep.idle_frac"] = 1 - cpu / worker_s
    out["cli.stdout_changed"] = sum(r["stdout_changed"] for r in traced)
    pairs = [(p, t) for p, t in zip(plain, traced) if p["ok"] and t["ok"]]
    base = sum(p["time_s"] for p, _ in pairs)
    if base:
        traced_s = sum(t["time_s"] for _, t in pairs)
        out["trace.overhead_frac"] = traced_s / base - 1
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "compnum", "__init__.py")):
        print(f"error: no compnum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    golden = load_golden()
    setup_s = None if args.trace else measure_setup(work)
    budget = args.seconds / 2 if args.trace else args.seconds
    ops = build(args.workload, args.seed, budget, golden)
    plain, traced, spans = [], [], []
    for index, op in enumerate(ops):
        write_inputs(op, work)
        plain.append(run_plain(op, work))
        print(json.dumps(plain[-1]), flush=True)
        if args.trace:
            record, op_spans = run_traced(op, index, work)
            traced.append(record)
            spans += op_spans
            print(json.dumps(dict(record, traced=True)), flush=True)

    records = plain + traced
    if args.trace:
        with open(os.path.join(work, "spans.json"), "w") as handle:
            json.dump(spans, handle)
        values = per_layer(plain, traced, spans)
        units = LAYER_UNITS
    else:
        values, notes = end_to_end(plain, setup_s)
        units = UNITS
        print(json.dumps({"notes": notes}), flush=True)
    print(json.dumps({
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
