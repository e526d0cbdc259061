"""Tests of the benchmark harness itself: the percentile rule, the deadline
charge, the output checker and failure accounting.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from check import check_query  # noqa: E402
from workloads import (  # noqa: E402
    DEADLINE_S, build, load_atlas, load_golden, query_op)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def cli_stdout(op, work) -> str:
    from compnum.cli import main

    run.write_inputs(op, work)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out):
            assert main(op.argv) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


def record(time_s, ok=True, timed_out=False, rss_mb=20.0):
    return {"time_s": time_s, "ok": ok, "timed_out": timed_out,
            "rss_mb": rss_mb}


@pytest.mark.parametrize("count", [11, 12, 37, 100, 250])
def test_tail_leaves_ten_ops_beyond_it(count):
    times = [float(i) for i in range(count)]
    value, percentile = run.tail(times)
    assert sum(1 for t in times if t > value) == 10
    assert percentile == pytest.approx(100 * (count - 10) / count)


def test_tail_of_few_ops_is_the_slowest():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_failed_op_is_charged_the_deadline_and_ranks_last():
    records = [record(0.1 * (i + 1)) for i in range(20)]
    records.append(record(0.05, ok=False))
    records.append(record(DEADLINE_S, ok=False, timed_out=True, rss_mb=900))
    metrics, notes = run.end_to_end(records, setup_s=0.1)
    assert metrics["solve_s"] == pytest.approx(
        sum(0.1 * (i + 1) for i in range(20)) + 2 * DEADLINE_S)
    # 22 ops: rank 12 holds the tail, with the two failures above it.
    assert metrics["op_tail_ms"] == pytest.approx(1000 * 1.2)
    assert metrics["peak_rss_mb"] == 20.0   # the killed op is left out
    assert notes["failed"] == 2


def test_checker_accepts_golden_and_rejects_tampering(golden, tmp_path):
    op = query_op(golden, 0, "pindex", "C8")
    stdout = cli_stdout(op, str(tmp_path))
    assert check_query(op, 0, stdout) == (None, False, False)

    payload = json.loads(stdout)
    tail, head = payload["witness_arcs"][0]
    payload["witness_arcs"][0] = [tail, (head + 1) % (op.n + payload["k"])]
    reason, wrong, changed = check_query(op, 0, json.dumps(payload))
    assert reason.startswith("witness rejected") and wrong and changed

    payload = json.loads(stdout)
    payload["k"] += 1
    reason, wrong, _ = check_query(op, 0, json.dumps(payload))
    assert reason == f"k = {payload['k']}, expected {payload['k'] - 1}"
    assert wrong


def test_crashing_op_is_one_failure_not_a_benchmark_crash(golden, tmp_path):
    op = query_op(golden, 0, "knumber", "P1200")
    run.write_inputs(op, str(tmp_path))
    result = run.run_plain(op, str(tmp_path))
    assert not result["ok"] and not result["timed_out"]
    assert result["exit"] == 1 and result["reason"] == "exit 1, expected 0"
    assert not result["wrong"]
    metrics, notes = run.end_to_end([result], setup_s=0.1)
    assert notes["failed"] == 1 and metrics["solve_s"] == DEADLINE_S


def test_sweep_op_passes_its_check(golden, tmp_path):
    op = build("sweep-small", 5, 0, golden)[0]
    run.write_inputs(op, str(tmp_path))
    result = run.run_plain(op, str(tmp_path))
    assert result["ok"], result["reason"]


def test_inputs_are_a_function_of_the_seed(golden):
    def files(seed):
        return [op.files for op in build("sparse-large", seed, 30, golden)]

    assert files(3) == files(3)
    assert files(3) != files(4)


def test_atlas_holds_every_graph_on_seven_vertices():
    lines = load_atlas()
    assert len(lines) == len(set(lines)) == 1044
