"""The benchmark's golden answers, replayed in process: every golden sweep
record and the stdout of the 60-vertex tree queries must stay
byte-identical.  `bench/data/golden.json` is only read."""

import json
from pathlib import Path

import pytest

from compnum import ALL_CHECKS
from compnum.io import parse_graph6
from compnum.sweep import graph_record
from test_exact_search_pins import pindex_stdout, prufer_tree, sha256

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
