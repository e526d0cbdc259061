import argparse
import builtins
import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import time

import pytest

from compnum.cli import build_parser, main
from compnum.constructions import rebuild_star, verify_effective_cover
from compnum.cliques import maximal_clique_masks
from compnum.ecc import theta_e
from compnum.fixtures import (effective_cover_example_cover,
                              effective_cover_example_digraph,
                              effective_cover_example_graph)
from compnum.graph import Digraph, Graph, bits
from compnum.io import parse_edge_list, serialize_edge_list, serialize_graph6
from compnum.realizer import RealizationError, _ascent, _witnesses
from compnum.smallgraphs import enumerate_small_graphs
from compnum.sweep import CHUNK, _worker_count, sweep
from test_exact_search_pins import C4_PLUS_3, K4_PLUS_3, rg

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


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
    monkeypatch.delattr(os, "fork")
    assert _worker_count(5000, 100) == 1


def forked_children(monkeypatch, child=None) -> list[int]:
    """The pid of every child os.fork makes from here on; a child runs
    ``child`` first when it is given."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid == 0 and child is not None:
            child()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


STREAM = [g for n in range(1, 6) for g in enumerate_small_graphs(n)]


@pytest.mark.parametrize("threads, cpus", [(5000, 64), (3, 64), (5000, 2)])
@pytest.mark.parametrize("size, chunks", [(1, 1), (CHUNK, 1), (CHUNK + 1, 2),
                                          (3 * CHUNK + 1, 4)])
def test_sweep_asks_for_no_more_processes_than_jobs(monkeypatch, threads,
                                                    cpus, size, chunks):
    pids = forked_children(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    graphs = STREAM[:size]
    report = sweep(graphs, threads=threads)
    # this process computes its chunks too, so it counts as one of them
    assert len(pids) == min(threads, cpus, chunks) - 1
    assert_no_child_left()
    assert report["records"] == sweep(graphs, threads=1)["records"]


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
    # real children that die as soon as they are forked, before they write
    pids = forked_children(monkeypatch, child=lambda: os._exit(1))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code = main(["sweep", "--n", "5", "--threads", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: a sweep worker process died before "
                            "sending its records\n")
    assert len(pids) == 2  # one child per chunk the sweep does not compute
    assert_no_child_left()


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block outlasts seconds."""
    def hang(signum, frame):
        raise TimeoutError("the sweep waited on a dead or stuck worker")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sweep_reads_a_real_dead_worker_as_an_error(monkeypatch):
    # one real child, which exits at once without sending: the parent must
    # see the pipe close, not wait for ever
    def die(jobs, fd):
        os._exit(1)

    monkeypatch.setattr(importlib.import_module("compnum.sweep"),
                        "_send_records", die)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with deadline(60), pytest.raises(ChildProcessError):
        sweep(list(enumerate_small_graphs(5)), threads=2)
    assert_no_child_left()


def test_sweep_kills_and_reaps_a_child_it_no_longer_waits_for(monkeypatch):
    # the first child dies at once; the second stalls past the deadline
    # without sending, so the sweep must kill it, not wait, and reap both
    pids = forked_children(monkeypatch)

    def die_or_stall(jobs, fd):
        if len(pids) == 2:
            time.sleep(120)  # past the deadline below
        os._exit(1)

    monkeypatch.setattr(importlib.import_module("compnum.sweep"),
                        "_send_records", die_or_stall)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with deadline(60), pytest.raises(ChildProcessError):
        sweep(list(enumerate_small_graphs(5)), threads=3)
    assert len(pids) == 2
    assert_no_child_left()


def test_cli_sweep_stdout_and_report_bytes_match_with_a_forked_child(
        tmp_path):
    # stdout is a pipe, so block-buffered: a child that flushed a buffer it
    # inherited or went on to print would add bytes
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"report{threads}.json"
        # two CPUs, so that --threads 2 forks one child on any machine
        done = subprocess.run(
            [sys.executable, "-c", "import os, runpy; "
             "os.cpu_count = lambda: 2; "
             "runpy.run_module('compnum', run_name='__main__')",
             "sweep", "--n", "5", "--threads", threads, "--out", str(path)],
            env=env, capture_output=True, timeout=120)
        outputs.append((done.returncode, done.stdout, done.stderr,
                        path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == b""
    assert json.loads(outputs[0][1])["graphs"] == 34


DIED = "error: a sweep worker process died before sending its records\n"


@pytest.mark.parametrize("before", [None, b"an earlier report\n"],
                         ids=["absent", "existing"])
@pytest.mark.parametrize("bad_line, err", [
    (None, DIED),
    (3, "error: truncated graph6 bit payload\n"),  # in this process's chunk
    (20, "error: truncated graph6 bit payload\n"),  # in the child's chunk
], ids=["dead-worker", "malformed-here", "malformed-in-child"])
def test_cli_sweep_that_fails_leaves_out_as_it_was(capsys, monkeypatch,
                                                   tmp_path, before, bad_line,
                                                   err):
    lines = [serialize_graph6(g) for g in STREAM[:40]]
    if bad_line is None:  # real children that die as soon as they are forked
        forked_children(monkeypatch, child=lambda: os._exit(1))
    else:
        lines[bad_line] = "A"
    (tmp_path / "in.g6").write_text("\n".join(lines) + "\n")
    path = tmp_path / "report.json"
    if before is not None:
        path.write_bytes(before)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = main(["sweep", "--in", str(tmp_path / "in.g6"), "--threads", "2",
                 "--out", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", err)
    assert sorted(os.listdir(tmp_path)) == (
        ["in.g6"] if before is None else ["in.g6", "report.json"])
    assert before is None or path.read_bytes() == before
    assert_no_child_left()


def test_cli_sweep_out_errors_name_the_path_given(capsys, tmp_path):
    # the report goes to a temporary file first; errors still name --out
    for out, code in [(tmp_path / "no-dir" / "x.json", errno.ENOENT),
                      (tmp_path, errno.EISDIR)]:
        assert main(["sweep", "--n", "3", "--threads", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n")
    assert os.listdir(tmp_path) == []


def test_cli_sweep_reads_and_writes_pipes_and_fifos(capsys, monkeypatch,
                                                   tmp_path):
    # a pipe or FIFO reads once, so --in reads it whole before the fork, and
    # --out writes it directly, as it has no bytes to keep or replace
    stream = "".join(serialize_graph6(g) + "\n" for g in STREAM[:40])
    (tmp_path / "in.g6").write_text(stream)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def run(source, out):
        return run_cli(capsys, "sweep", "--in", source, "--threads", "2",
                       "--out", out)

    want = run(str(tmp_path / "in.g6"), str(tmp_path / "want.json"))
    report = (tmp_path / "want.json").read_bytes()
    read, write = os.pipe()
    os.write(write, stream.encode())
    os.close(write)
    assert run(f"/dev/fd/{read}", str(tmp_path / "a.json")) == want
    os.close(read)
    os.mkfifo(tmp_path / "in.fifo")
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"',
                               tmp_path / "in.g6", tmp_path / "in.fifo"])
    assert run(str(tmp_path / "in.fifo"), str(tmp_path / "b.json")) == want
    assert writer.wait(timeout=60) == 0
    assert (tmp_path / "a.json").read_bytes() == report
    assert (tmp_path / "b.json").read_bytes() == report
    read, write = os.pipe()
    assert run(str(tmp_path / "in.g6"), f"/dev/fd/{write}") == want
    os.close(write)
    with open(read, "rb") as pipe:
        assert pipe.read() == report
    os.mkfifo(tmp_path / "out.fifo")
    reader = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"',
                               tmp_path / "out.fifo", tmp_path / "c.json"])
    assert run(str(tmp_path / "in.g6"), str(tmp_path / "out.fifo")) == want
    assert reader.wait(timeout=60) == 0
    assert (tmp_path / "c.json").read_bytes() == report
    assert stat.S_ISFIFO(os.stat(tmp_path / "out.fifo").st_mode)
    assert sorted(os.listdir(tmp_path)) == [
        "a.json", "b.json", "c.json", "in.fifo", "in.g6", "out.fifo",
        "want.json"]
    assert_no_child_left()


def test_cli_sweep_opens_its_input_once(capsys, monkeypatch, tmp_path):
    # the sweep reads --in before the fork, so no process opens it again
    path = tmp_path / "in.g6"
    path.write_text("".join(serialize_graph6(g) + "\n" for g in STREAM[:40]))
    opened = []

    def counting_open(file, *args, **kwargs):
        if file == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    pids = forked_children(monkeypatch)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out = run_cli(capsys, "sweep", "--in", str(path), "--threads", "2")
    assert (code, json.loads(out)["graphs"]) == (0, 40)
    assert len(pids) == 1 and len(opened) == 1
    assert_no_child_left()


def test_cli_sweep_out_through_a_symlink_replaces_the_file_it_names(
        capsys, tmp_path):
    (tmp_path / "report.json").write_text("an earlier report\n")
    (tmp_path / "link.json").symlink_to("report.json")
    assert main(["sweep", "--n", "3", "--threads", "1",
                 "--out", str(tmp_path / "link.json")]) == 0
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads((tmp_path / "report.json").read_text())[
        "summary"]["graphs"] == 4


POOL = [g for n in range(7) for g in enumerate_small_graphs(n)]


@pytest.mark.parametrize("connected", [False, True],
                         ids=["all", "connected"])
@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                  2 * CHUNK * 3 + 5])
def test_cli_sweep_matches_the_library_across_chunk_boundaries(
        capsys, monkeypatch, tmp_path, size, connected):
    graphs = POOL[len(POOL) - size:]  # graphs on 6 vertices and fewer
    stream = "".join(serialize_graph6(g) + "\n" for g in graphs)
    (tmp_path / "in.g6").write_text(stream)
    report = sweep([g for g in graphs if g.is_connected() or not connected],
                   threads=1)
    summary = report["summary"]
    code = (2 if summary["violations"] else
            3 if summary["conjecture"]["counterexamples"] else 0)
    want = (code, json.dumps(summary, indent=2, sort_keys=True) + "\n",
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for threads, source in [("1", "in.g6"), ("2", "in.g6"), ("3", "in.g6"),
                            ("3", "-")]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
        out = tmp_path / f"report{threads}{source}.json"
        argv = ["sweep", "--in", str(tmp_path / source) if source != "-"
                else "-", "--threads", threads, "--out", str(out)]
        code, stdout = run_cli(capsys, *argv, *["--connected"] * connected)
        assert (code, stdout, out.read_text()) == want, (threads, source)
    assert_no_child_left()


def test_cli_sweep_writes_each_chunk_before_computing_the_next(
        capsys, monkeypatch, tmp_path):
    # the records computed but not yet written never exceed one chunk
    computed, written = [0], [0]

    def record(job):
        computed[0] += 1
        return {"graph6": serialize_graph6(job[0]), "checks": {},
                "error": None}

    def counting_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            write = handle.write

            def counted(text):
                written[0] += text.count('"graph6"')
                assert computed[0] - written[0] <= CHUNK
                return write(text)

            handle.write = counted
        return handle

    real_open = builtins.open
    monkeypatch.setattr(sys.modules["compnum.sweep"], "graph_record", record)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, _ = run_cli(capsys, "sweep", "--n", "6", "--threads", "1",
                      "--out", str(tmp_path / "report.json"))
    assert code == 0 and computed == written == [156]


def test_sweep_small_n4_clean():
    report = sweep(filter(Graph.is_connected, enumerate_small_graphs(4)),
                   threads=1)
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


@pytest.mark.parametrize("kwargs,error", [
    ({"checks": ["nope"]}, r"unknown checks: \['nope'\]"),
    ({"threads": 1.5}, "threads must be an int or None"),
    ({"threads": True}, "threads must be an int or None"),
    ({"threads": 0}, "threads must be at least 1"),
    ({"threads": -2}, "threads must be at least 1"),
], ids=["unknown-check", "float-threads", "bool-threads", "zero-threads",
        "negative-threads"])
def test_sweep_rejects_a_bad_argument(kwargs, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        sweep(enumerate_small_graphs(2), **kwargs)


@pytest.mark.parametrize("argv,error", [
    (["sweep", "--n", "3", "--in", "{g6}"], "give exactly one of --n or --in"),
    (["sweep"], "give exactly one of --n or --in"),
    (["realize", "--in", "{edges}", "--k", "-1"], "--k must be nonnegative"),
    (["sweep", "--n", "3", "--threads", "0"], "threads must be at least 1"),
    (["sweep", "--n", "3", "--threads", "-2"], "threads must be at least 1"),
    (["knumber", "--in", "{arcs}"],
     "expected an undirected edge list, found arcs"),
    (["rebuild-star", "--in", "{edges}", "--digraph", "{edges}"],
     "expected an arc list (lines 'u > v')"),
], ids=["n-and-in", "neither", "negative-k", "zero-threads",
        "negative-threads", "arcs-as-graph", "edges-as-digraph"])
def test_cli_usage_errors_exit_1_with_one_error_line(capsys, fixture_files,
                                                     argv, error):
    names = {name: str(path) for name, path in fixture_files.items()}
    code = main([arg.format(**names) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {error}\n")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,out", [
    (["compete", "--in", "{e3}"], "3 0\n"),
    (["compete", "--in", "{e3}", "--json"],
     _json_text({"edges": [], "graph6": "B?", "n": 3})),
    (["verify-effective", "--graph", "{e3}", "--cover", "{cover}",
      "--digraph", "{e3}"], "valid\n"),
    (["rebuild-star", "--in", "{e3}", "--digraph", "{e3}"],
     _json_text({"k": 0, "predators": 3, "prey": 0, "sink_map": [],
                 "witness_arcs": []})),
    (["hall-cert", "--graph", "{e3}", "--digraph", "{e3}"],
     _json_text({"matching": [], "sets": []})),
], ids=["compete", "compete-json", "verify-effective", "rebuild-star",
        "hall-cert"])
def test_cli_reads_an_edge_list_with_no_edges_as_the_arcless_digraph(
        capsys, tmp_path, argv, out):
    # "3 0" has no line to tell arcs from edges; read as a digraph it is
    # Digraph(3, ()), as the library takes it
    names = {"e3": tmp_path / "e3.edges", "cover": tmp_path / "cover.json"}
    names["e3"].write_text("3 0\n")
    names["cover"].write_text(json.dumps({"cliques": []}))
    assert run_cli(capsys, *[arg.format(**names) for arg in argv]) == (0, out)


@pytest.mark.parametrize("argv,error", [
    (["knumber"], "compnum knumber: error: the following arguments are "
     "required: --in"),
    (["knumber", "--in", "{edges}", "--format", "arcs"],
     "compnum knumber: error: argument --format: invalid choice: 'arcs'"),
    (["realize", "--in", "{edges}", "--k", "x"],
     "compnum realize: error: argument --k: invalid int value: 'x'"),
    ([], "compnum: error: the following arguments are required: command"),
], ids=["missing-in", "arcs-format", "k-not-int", "no-command"])
def test_cli_argparse_errors_exit_1_with_argparse_text(capsys, fixture_files,
                                                       argv, error):
    # exit 2 means a failed theorem check, so argparse's own 2 becomes 1
    names = {name: str(path) for name, path in fixture_files.items()}
    code = main([arg.format(**names) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("usage: compnum")
    assert captured.err.splitlines()[-1].startswith(error)


def test_every_subcommand_parser_holds_its_handler():
    (subs,) = [action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    assert subs.choices
    for name, sub in subs.choices.items():
        assert callable(sub.get_default("run")), name


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


def test_cli_realize_past_theta_e_prints_the_library_answer(capsys,
                                                             tmp_path):
    # From K = theta_e on, the library answers from the witness at
    # theta_e and adds the further isolates as predators; the bytes are
    # those of the walk at K itself.
    path = tmp_path / "g.edges"
    graphs = [g for n in range(6) for g in enumerate_small_graphs(n)]
    for graph in graphs + [K4_PLUS_3, C4_PLUS_3]:
        path.write_text(serialize_edge_list(graph))
        theta = theta_e(graph)
        for k in range(theta, theta + 4):
            witness = _witnesses(graph, k)[1]
            expected = {"realizable": True, "k": k,
                        "max_predators": witness.predator_count,
                        "prey": witness.prey_count,
                        "witness_arcs": witness.witness_arcs()}
            assert run_cli(capsys, "realize", "--in", str(path), "--k",
                           str(k), "--json", "--witness") == (
                0, json.dumps(expected, indent=2, sort_keys=True) + "\n")


def test_cli_realize_builds_no_digraph_past_theta_e_isolates(
        capsys, monkeypatch, tmp_path):
    # P3 has theta_e = 2, so no witness needs more than 3 + 2 vertices,
    # whatever the budget
    path = tmp_path / "p3.edges"
    path.write_text("3 2\n0 1\n1 2\n")
    sizes = []
    init = Digraph.__init__

    def recording(self, n, arcs):
        sizes.append(n)
        init(self, n, arcs)

    monkeypatch.setattr(Digraph, "__init__", recording)
    code, out = run_cli(capsys, "realize", "--in", str(path), "--k", "100000",
                        "--json", "--witness")
    assert code == 0 and json.loads(out)["max_predators"] == 100_001
    assert sizes and max(sizes) <= 5


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


@pytest.mark.parametrize("command", ["rebuild-star", "hall-cert",
                                     "rebuild_star"])
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
    if command == "rebuild_star":  # the library call, which certifies alike
        with pytest.raises(ValueError) as caught:
            rebuild_star(parse_edge_list(graph.read_text()),
                         parse_edge_list(arcs))
        assert str(caught.value) == error
        return
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


def test_cli_recursion_error_exits_1_with_one_error_line(
        capsys, monkeypatch, c4_file):
    # an input too deep for Python's recursion limit is a limit of the
    # input, not a failed self-check, so it exits 1, not 2
    import compnum.bounds

    def too_deep(graph):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(compnum.bounds, "competition_number", too_deep)
    code = main(["bounds", "--in", c4_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: maximum recursion depth exceeded\n"


def test_cli_on_a_path_too_deep_exits_1_without_traceback(tmp_path):
    # P1200's forced edges make the cover solver recurse once per edge,
    # past Python's default recursion limit
    graph = tmp_path / "P1200.edges"
    graph.write_text(serialize_edge_list(
        Graph.from_edges(1200, [(i, i + 1) for i in range(1199)])))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "compnum", "knumber", "--in", str(graph)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


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


def test_cli_planar_check_rejects_input_before_the_exact_search(
        capsys, tmp_path):
    # the exact search on rg(15, .5, 16) takes seconds, each input check
    # none: planar-check and rebuild-star reject it plus a disjoint edge,
    # hall-cert rejects its 27 maximal cliques as a cover (theta_e 12), and
    # verify-effective rejects them with a 3-vertex digraph, whose isolate
    # count, -12, lies below k's floor
    graph = rg(15, .5, 16)
    disjoint = tmp_path / "disjoint.edges"
    disjoint.write_text(serialize_edge_list(Graph.from_edges(
        17, list(graph.edges()) + [(15, 16)])))
    plain = tmp_path / "g.edges"
    plain.write_text(serialize_edge_list(graph))
    cliques = [list(bits(c)) for c in maximal_clique_masks(graph)]
    assert len(cliques) == 27
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"cliques": cliques}))
    small = tmp_path / "d.arcs"
    small.write_text(serialize_edge_list(Digraph.from_arcs(3, [(0, 2),
                                                               (1, 2)])))
    checks = {"cliques are cliques": True, "covers all edges": True,
              "cover minimum": False, "all cliques maximal": True,
              "isolate count equals competition number": False,
              "competition graph matches": False, "digraph is acyclic": True,
              "prey count equals cover size": False, "sinks assigned": False}
    record = json.dumps({"checks": checks, "failure": "cover not minimum",
                         "sink_map": None, "valid": False},
                        indent=2, sort_keys=True)
    for argv, out, error in [
            (["planar-check", "--in", str(disjoint)], "",
             "graph must be connected"),
            (["rebuild-star", "--in", str(disjoint)], "",
             "vertex 0 of maximal clique (0, 1, 4, 9, 12) lies on no edge "
             "occupied by it"),
            (["hall-cert", "--graph", str(plain), "--cover", str(cover)], "",
             "cover must be a minimum cover of maximal cliques"),
            (["verify-effective", "--graph", str(plain), "--cover", str(cover),
              "--digraph", str(small), "--json"], record + "\n", None)]:
        misses = _ascent.cache_info().misses
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, out, f"error: {error}\n" if error else ""), argv[0]
        assert _ascent.cache_info().misses == misses, argv[0]


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
             for g in filter(Graph.is_connected, enumerate_small_graphs(3))]
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


