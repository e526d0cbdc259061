"""The benchmark's golden answers, replayed in process: every golden sweep
record and the stdout of the 60-vertex tree queries and of the dense
queries must stay byte-identical.  `bench/data/golden.json` is only read."""

import json
from pathlib import Path

import pytest

from compnum import ALL_CHECKS
from compnum.io import parse_graph6
from compnum.sweep import graph_record
from test_exact_search_pins import pindex_stdout, prufer_tree, rg, sha256

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "data" / "golden.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_every_golden_sweep_record_is_reproduced(golden):
    records = golden["sweep_records"]
    assert len(records) == 1500
    differ = [g6 for g6, record in records.items()
              if graph_record((parse_graph6(g6), ALL_CHECKS)) != record]
    assert differ == []


def test_tree_query_stdout_matches_golden(golden, tmp_path, capsys):
    trees = {op_id: query for op_id, query in golden["queries"].items()
             if op_id.startswith("tree-60-")}
    assert len(trees) == 60
    differ = [op_id for op_id, query in trees.items()
              if sha256(pindex_stdout(prufer_tree(60, int(op_id.split("-")[2])),
                                      tmp_path, capsys)) != query["stdout_sha256"]]
    assert differ == []


def test_dense_query_stdout_matches_golden(golden, tmp_path, capsys):
    # every G(n, 1/2) query that took at most 1 s at the seed commit, plus
    # rg(17, .5, 1), whose infeasible ascent steps are the slowest of them
    dense = {op_id: query for op_id, query in golden["queries"].items()
             if op_id.startswith("rg-") and "excluded" not in query
             and (query["seed_time_s"] <= 1 or op_id == "rg-17-1")}
    assert len(dense) == 171
    differ = []
    for op_id, query in dense.items():
        n, seed = map(int, op_id.split("-")[1:])
        stdout = pindex_stdout(rg(n, .5, seed), tmp_path, capsys)
        if sha256(stdout) != query["stdout_sha256"]:
            differ.append(op_id)
    assert differ == []
