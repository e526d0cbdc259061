import hashlib
import importlib
import io
import json
import multiprocessing
import os
import signal
import sys

import pytest

from compnum.cli import main
from compnum.constructions import verify_effective_cover
from compnum.fixtures import (effective_cover_example_cover,
                              effective_cover_example_digraph,
                              effective_cover_example_graph)
from compnum.graph import Digraph, Graph
from compnum.io import serialize_edge_list, serialize_graph6
from compnum.realizer import RealizationError
from compnum.smallgraphs import enumerate_small_graphs
from compnum.sweep import _worker_count, sweep


@pytest.fixture
def fixture_files(tmp_path):
    g = effective_cover_example_graph()
    d = effective_cover_example_digraph()
    cover = effective_cover_example_cover()
    paths = {
        "g6": tmp_path / "g.g6",
        "edges": tmp_path / "g.edges",
        "arcs": tmp_path / "d.arcs",
        "cover": tmp_path / "cover.json",
    }
    paths["g6"].write_text(serialize_graph6(g) + "\n")
    paths["edges"].write_text(serialize_edge_list(g))
    paths["arcs"].write_text(serialize_edge_list(d))
    paths["cover"].write_text(json.dumps(
        {"theta_e": len(cover), "cliques": [list(c) for c in cover],
         "maximal": True}))
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sweep_serial_equals_parallel():
    graphs = list(enumerate_small_graphs(4))
    serial = sweep(graphs, threads=1)
    parallel = sweep(graphs, threads=2)
    assert serial["records"] == parallel["records"]
    assert serial["summary"] == parallel["summary"]


def test_worker_count_is_clamped_to_jobs_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_count(5000, 100) == 4
    assert _worker_count(5000, 3) == 3
    assert _worker_count(None, 100) == 4
    assert _worker_count(0, 100) == 1
    assert _worker_count(2, 0) == 1


def test_sweep_asks_for_no_more_processes_than_jobs(monkeypatch):
    # a stand-in process runs its slice in this process when started
    started = []

    class RecordingProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    graphs = list(enumerate_small_graphs(3))
    report = sweep(graphs, threads=5000)
    # this process computes a slice too, so it counts as one of them
    assert len(started) + 1 == len(graphs)
    assert report["records"] == sweep(graphs, threads=1)["records"]


STREAM = [g for n in range(1, 6) for g in enumerate_small_graphs(n)]


@pytest.mark.parametrize("size", [1, 2, 3, 35])
def test_sweep_fan_out_equals_serial_record_for_record(monkeypatch, size):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    graphs = STREAM[-size:]
    assert (sweep(graphs, threads=2)["records"]
            == sweep(graphs, threads=1)["records"])


def test_cli_sweep_reports_the_same_bytes_with_one_or_two_threads(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"report{threads}.json"
        code, out = run_cli(capsys, "sweep", "--n", "6", "--threads", threads,
                            "--out", str(path))
        outputs.append((code, out, path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["graphs"] == 156


def test_cli_sweep_fails_when_a_worker_dies(capsys, monkeypatch):
    # stand-in children die before they send, so their pipe ends read EOF
    children = []

    class DeadChild:
        def __init__(self, target, args):
            self.calls = []
            children.append(self)

        def start(self):
            self.calls.append("start")

        def terminate(self):
            self.calls.append("terminate")

        def join(self):
            self.calls.append("join")

    class ClosedEnd:
        def recv(self):
            raise EOFError

        def close(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", DeadChild)
    monkeypatch.setattr(multiprocessing, "Pipe",
                        lambda duplex: (ClosedEnd(), ClosedEnd()))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code = main(["sweep", "--n", "4", "--threads", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: a sweep worker process died before "
                            "sending its records\n")
    assert [c.calls for c in children] == [["start", "terminate", "join"]] * 3


def test_sweep_reads_a_real_dead_worker_as_an_error(monkeypatch):
    # one real child, which exits at once without sending: the parent must
    # see the pipe close, not wait for ever
    def die(jobs, conn):
        os._exit(1)

    def hang(signum, frame):
        raise TimeoutError("the sweep waited on a dead worker")

    monkeypatch.setattr(importlib.import_module("compnum.sweep"),
                        "_send_records", die)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError):
            sweep(list(enumerate_small_graphs(4)), threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sweep_small_n4_clean():
    report = sweep(enumerate_small_graphs(4, True), threads=1)
    assert not report["summary"]["violations"]
    assert report["summary"]["conjecture"]["counterexamples"] == []
    assert report["summary"]["graphs"] == 6


FAILED = {"graph6": "@", "error": None, "checks": {"p_ge_2": False}}
UNEQUAL = {"graph6": "@", "error": None, "checks": {"p_ge_2": True},
           "conjecture_equal": False}


@pytest.mark.parametrize("record,code,summary", [
    (FAILED, 2, {"checks": {"p_ge_2": {"passed": 0, "total": 1}},
                 "conjecture": {"checked": 0, "counterexamples": [],
                                "equal": 0},
                 "graphs": 1, "violations": ["@"]}),
    (UNEQUAL, 3, {"checks": {"p_ge_2": {"passed": 1, "total": 1}},
                  "conjecture": {"checked": 1, "counterexamples": [UNEQUAL],
                                 "equal": 0},
                  "graphs": 1, "violations": []}),
], ids=["violation", "counterexample"])
def test_cli_sweep_exit_code_reads_the_summary(capsys, monkeypatch, record,
                                               code, summary):
    # compnum.sweep is the function; the module is only in sys.modules
    monkeypatch.setattr(sys.modules["compnum.sweep"], "graph_record",
                        lambda job: record)
    assert run_cli(capsys, "sweep", "--n", "1", "--threads", "1") == (
        code, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def test_sweep_turns_a_raised_error_into_a_violation(capsys, monkeypatch):
    def fail(graph):
        raise RealizationError("no witness")

    monkeypatch.setattr(sys.modules["compnum.sweep"], "competition_number",
                        fail)
    report = sweep(enumerate_small_graphs(2), threads=1)
    assert report["records"] == [
        {"graph6": g6, "n": 2, "edges": edges, "checks": {},
         "error": "RealizationError: no witness"}
        for g6, edges in (("A?", 0), ("A_", 1))]
    assert report["summary"]["violations"] == ["A?", "A_"]
    code = main(["sweep", "--n", "2", "--threads", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out == json.dumps(report["summary"], indent=2,
                                      sort_keys=True) + "\n"


def test_sweep_rejects_an_unknown_check():
    with pytest.raises(ValueError, match=r"^unknown checks: \['nope'\]$"):
        sweep(enumerate_small_graphs(2), ["nope"])


@pytest.mark.parametrize("argv,error", [
    (["sweep", "--n", "3", "--in", "{g6}"], "give exactly one of --n or --in"),
    (["sweep"], "give exactly one of --n or --in"),
    (["realize", "--in", "{edges}", "--k", "-1"], "--k must be nonnegative"),
    (["knumber", "--in", "{arcs}"],
     "expected an undirected edge list, found arcs"),
    (["rebuild-star", "--in", "{edges}", "--digraph", "{edges}"],
     "expected an arc list (lines 'u > v')"),
], ids=["n-and-in", "neither", "negative-k", "arcs-as-graph",
        "edges-as-digraph"])
def test_cli_usage_errors_exit_1_with_one_error_line(capsys, fixture_files,
                                                     argv, error):
    names = {name: str(path) for name, path in fixture_files.items()}
    code = main([arg.format(**names) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {error}\n")


def test_cli_reads_stdin_and_keeps_connected_graphs(capsys, monkeypatch):
    stream = "".join(serialize_graph6(g) + "\n"
                     for g in enumerate_small_graphs(3))
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    code, out = run_cli(capsys, "sweep", "--in", "-", "--connected",
                        "--threads", "1")
    assert code == 0 and json.loads(out)["graphs"] == 2
    assert (code, out) == run_cli(capsys, "sweep", "--n", "3", "--connected",
                                  "--threads", "1")
    monkeypatch.setattr(sys, "stdin", io.StringIO("4 4\n0 1\n1 2\n2 3\n0 3\n"))
    assert run_cli(capsys, "theta", "--in", "-") == (0, "theta_e = 4\n")

def test_cli_compete(capsys, fixture_files):
    code, out = run_cli(capsys, "compete", "--in", str(fixture_files["arcs"]),
                        "--format", "arcs", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10 and len(payload["edges"]) == 16


def test_cli_compete_rejects_undirected_formats(capsys, fixture_files):
    code, _ = run_cli(capsys, "compete", "--in", str(fixture_files["g6"]),
                      "--format", "g6")
    assert code == 1


def test_cli_theta_knumber_pindex(capsys, fixture_files):
    code, out = run_cli(capsys, "theta", "--in", str(fixture_files["g6"]),
                        "--format", "g6", "--json")
    assert code == 0 and json.loads(out)["theta_e"] == 6
    code, out = run_cli(capsys, "knumber", "--in", str(fixture_files["edges"]),
                        "--json", "--witness")
    payload = json.loads(out)
    assert code == 0 and payload["k"] == 1 and payload["p"] == 4
    assert payload["prey"] == 6 and payload["witness_arcs"]
    code, out = run_cli(capsys, "pindex", "--in", str(fixture_files["edges"]),
                        "--json")
    assert code == 0 and json.loads(out)["p"] == 4
    code, out = run_cli(capsys, "knumber", "--in", str(fixture_files["edges"]))
    assert code == 0 and out == "k = 1\n"
    code, out = run_cli(capsys, "pindex", "--in", str(fixture_files["edges"]))
    assert code == 0 and out == "p = 4\n"


def test_cli_cover_and_realize(capsys, fixture_files):
    code, out = run_cli(capsys, "cover", "--in", str(fixture_files["edges"]),
                        "--json")
    payload = json.loads(out)
    assert code == 0 and payload["theta_e"] == 6 and payload["maximal"]
    code, out = run_cli(capsys, "realize", "--in", str(fixture_files["edges"]),
                        "--k", "0", "--json")
    assert code == 0 and json.loads(out) == {"realizable": False, "k": 0}
    code, out = run_cli(capsys, "realize", "--in", str(fixture_files["edges"]),
                        "--k", "1", "--json", "--witness")
    payload = json.loads(out)
    assert payload["realizable"] and payload["max_predators"] == 4


def test_cli_realize_with_many_isolates_is_pinned(capsys, tmp_path):
    # 100,000 isolates all become ready at once in the acyclic labeling
    path = tmp_path / "k3.edges"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out = run_cli(capsys, "realize", "--in", str(path), "--k", "100000",
                        "--json", "--witness")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e521f06e486c953718e131100496f84e7291181517257ae0c84e3eb8a5cdc020")


def test_cli_constructions(capsys, tmp_path):
    star = serialize_edge_list(
        __import__("compnum").Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    path = tmp_path / "star.edges"
    path.write_text(star)
    code, out = run_cli(capsys, "chordal-build", "--in", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["k"] == 1 and payload["prey"] == 3
    c4 = serialize_edge_list(
        __import__("compnum").Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    path = tmp_path / "c4.edges"
    path.write_text(c4)
    code, out = run_cli(capsys, "rebuild-star", "--in", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["prey"] == 4 and payload["predators"] == 2


@pytest.mark.parametrize("command", ["rebuild-star", "hall-cert"])
@pytest.mark.parametrize("arcs,error", [
    # 0 > 4, 1 > 4 gives only the edge 01, not the path 0-1-2-3
    ("5 2\n0 > 4\n1 > 4\n", "competition graph mismatch"),
    ("3 2\n0 > 2\n1 > 2\n", "digraph has 3 vertices, fewer than the graph's 4"),
], ids=["mismatch", "too-few-vertices"])
def test_cli_rebuild_star_rejects_a_digraph_that_does_not_realize(
        capsys, tmp_path, command, arcs, error):
    graph = tmp_path / "p4.edges"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n")
    digraph = tmp_path / "d.arcs"
    digraph.write_text(arcs)
    flag = "--in" if command == "rebuild-star" else "--graph"
    code = main([command, flag, str(graph), "--digraph", str(digraph)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_cli_verify_effective(capsys, fixture_files):
    code, out = run_cli(capsys, "verify-effective",
                        "--graph", str(fixture_files["edges"]),
                        "--cover", str(fixture_files["cover"]),
                        "--digraph", str(fixture_files["arcs"]), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["valid"]
    assert payload["sink_map"] == [[0, 6], [1, 5], [2, 4], [3, 2], [4, 1], [5, 9]]


def test_cli_verify_effective_invalid_exits_nonzero(capsys, fixture_files, tmp_path):
    bad = {"cliques": [[0, 1], [0, 3]]}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out = run_cli(capsys, "verify-effective",
                        "--graph", str(fixture_files["edges"]),
                        "--cover", str(bad_path),
                        "--digraph", str(fixture_files["arcs"]), "--json")
    assert code == 1 and not json.loads(out)["valid"]


@pytest.mark.parametrize("cliques", [
    [["a", "b"]], [0], [[-1, 0]], [[True, 2], [0, 1], [0, 2]], [[0, 3]], 5,
], ids=["strings", "bare-int", "negative", "bool", "out-of-range", "not-a-list"])
def test_cli_rejects_malformed_cover_json(capsys, tmp_path, cliques):
    # K3 with the realization 0, 1, 2 -> 3
    paths = {"graph": tmp_path / "k3.edges", "cover": tmp_path / "cover.json",
             "digraph": tmp_path / "d.arcs"}
    paths["graph"].write_text("3 3\n0 1\n0 2\n1 2\n")
    paths["cover"].write_text(json.dumps({"cliques": cliques}))
    paths["digraph"].write_text("4 3\n0 > 3\n1 > 3\n2 > 3\n")
    for command in ("verify-effective", "hall-cert"):
        code = main([command] + [f"--{name}={path}"
                                 for name, path in paths.items()])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
    if isinstance(cliques, list):
        assert repr(cliques[0]) in captured.err
        graph = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        digraph = Digraph.from_arcs(4, [(0, 3), (1, 3), (2, 3)])
        cert = verify_effective_cover(graph, cliques, digraph)
        assert cert["checks"]["cliques are cliques"] is False
        assert cert["failure"] == "cover contains a non-clique"


@pytest.mark.parametrize("argv", [
    ["theta", "--in", "{tmp}/nope.g6"],
    ["verify-effective", "--graph", "{edges}", "--cover", "{tmp}/nope.json",
     "--digraph", "{arcs}"],
    ["sweep", "--n", "3", "--threads", "1", "--out", "{tmp}/no-dir/x.json"],
], ids=["missing-input", "missing-cover", "unwritable-out"])
def test_cli_file_errors_exit_1_without_traceback(capsys, fixture_files,
                                                  tmp_path, argv):
    names = {"tmp": tmp_path, "edges": fixture_files["edges"],
             "arcs": fixture_files["arcs"]}
    code = main([arg.format(**names) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    return str(path)


def test_cli_failed_self_check_exits_2_with_one_error_line(
        capsys, monkeypatch, c4_file):
    import compnum.bounds
    exact = compnum.bounds.competition_number

    def off_by_one(graph):
        k, witness = exact(graph)
        return k + 1, witness

    # every C4 clique owns an occupied edge, so bounds asserts k = theta-n+p
    monkeypatch.setattr(compnum.bounds, "competition_number", off_by_one)
    code = main(["bounds", "--in", c4_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "library bug" in captured.err


def test_cli_lets_a_recursion_error_propagate(monkeypatch, c4_file):
    import compnum.bounds

    def too_deep(graph):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(compnum.bounds, "competition_number", too_deep)
    with pytest.raises(RecursionError):
        main(["bounds", "--in", c4_file])


@pytest.fixture
def cyclic_files(tmp_path):
    # 2K2 with the cover of its two edges and a digraph whose competition
    # graph is 2K2 plus one isolate but which has the cycle 2 -> 3 -> 2.
    paths = {"graph": tmp_path / "g.edges", "cover": tmp_path / "cover.json",
             "digraph": tmp_path / "d.arcs"}
    paths["graph"].write_text("4 2\n0 3\n1 2\n")
    paths["cover"].write_text(json.dumps({"cliques": [[0, 3], [1, 2]]}))
    paths["digraph"].write_text("5 4\n0 > 2\n3 > 2\n1 > 3\n2 > 3\n")
    return paths


def test_cli_verify_effective_rejects_a_cycle(capsys, cyclic_files):
    code, out = run_cli(capsys, "verify-effective",
                        "--graph", str(cyclic_files["graph"]),
                        "--cover", str(cyclic_files["cover"]),
                        "--digraph", str(cyclic_files["digraph"]))
    assert code == 1 and out == "invalid: digraph contains a cycle\n"


def test_cli_hall_cert_rejects_a_cycle(capsys, cyclic_files):
    code = main(["hall-cert", "--graph", str(cyclic_files["graph"]),
                 "--cover", str(cyclic_files["cover"]),
                 "--digraph", str(cyclic_files["digraph"])])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_hall_and_bounds(capsys, fixture_files):
    code, out = run_cli(capsys, "hall-cert",
                        "--graph", str(fixture_files["edges"]),
                        "--cover", str(fixture_files["cover"]),
                        "--digraph", str(fixture_files["arcs"]), "--json")
    payload = json.loads(out)
    assert code == 0 and len(payload["matching"]) == 6
    code, out = run_cli(capsys, "bounds", "--in", str(fixture_files["edges"]),
                        "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["opsut"] == -1 and payload["predator_bound"] == 1


def test_cli_planar_check(capsys, tmp_path):
    c4 = serialize_edge_list(
        __import__("compnum").Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    path = tmp_path / "c4.edges"
    path.write_text(c4)
    code, out = run_cli(capsys, "planar-check", "--in", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["consistent"]
    assert payload["faces"] == 2 and payload["k_formula"] == 2


def test_cli_sweep(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "sweep", "--n", "4", "--connected",
                        "--checks", "all", "--out", str(out_path),
                        "--threads", "1")
    assert code == 0
    summary = json.loads(out)
    assert summary["graphs"] == 6 and summary["violations"] == []
    report = json.loads(out_path.read_text())
    assert len(report["records"]) == 6


def test_cli_sweep_graph6_stream(capsys, tmp_path):
    lines = [serialize_graph6(g)
             for g in enumerate_small_graphs(3, connected_only=True)]
    path = tmp_path / "stream.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(capsys, "sweep", "--in", str(path),
                        "--checks", "floors", "--threads", "1")
    assert code == 0
    assert json.loads(out)["graphs"] == 2


def test_cli_outputs_are_reproducible(capsys, fixture_files):
    first = run_cli(capsys, "knumber", "--in", str(fixture_files["edges"]),
                    "--json", "--witness")
    second = run_cli(capsys, "knumber", "--in", str(fixture_files["edges"]),
                     "--json", "--witness")
    assert first == second
    first = run_cli(capsys, "bounds", "--in", str(fixture_files["edges"]), "--json")
    second = run_cli(capsys, "bounds", "--in", str(fixture_files["edges"]), "--json")
    assert first == second


