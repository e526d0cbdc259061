"""The package namespace, the CLI help texts, the modules each CLI
command loads and the library's explicit self-checks."""

import ast
import builtins
import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import compnum
from compnum.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

HOMES = {
    "bounds": ("bounds_report", "clique_census", "opsut_bound",
               "planar_formula_check", "predator_bound", "union_tail_bounds"),
    "cliques": ("chordality", "every_clique_has_occupied_edge",
                "every_vertex_on_occupied_edge", "is_diamond_free",
                "maximal_cliques", "simplicial_vertices"),
    "constructions": ("NotChordalError", "chordal_realizer",
                      "hall_certificate", "rebuild_star",
                      "simplicial_family_realizer", "verify_effective_cover"),
    "ecc": ("make_cover", "min_edge_clique_cover", "theta_e"),
    "graph": ("Digraph", "Graph", "acyclic_labeling", "add_isolated",
              "competition_graph"),
    "io": ("FormatError", "parse_edge_list", "parse_graph6",
           "parse_graph6_lines", "serialize_edge_list", "serialize_graph6"),
    "realizer": ("Realization", "RealizationError", "competition_number",
                 "max_predators_with", "primary_predator_index"),
    "smallgraphs": ("enumerate_small_graphs",),
    "sweep": ("sweep",),
}

# sha256 of `compnum [COMMAND] --help` at 80 columns
HELP_SHA256 = {
    "": "1b91a08e36e2b81363136b0a00b1bef5eb0b06d3a479a16772532b59f72bed8a",
    "compete": "fa7b2af16f927ea5fa88eadf58ab00b1ac4ce1b0df28be3f80b7a1e0c9ca4305",
    "theta": "611e88659f6eaf15337d2d0214bc8cf36348db26696f0d8c433206f294d9d682",
    "knumber": "e0163da5d176e8f08d5db29061835c846c1b8497d5211b7c5062dd0a9f50a221",
    "pindex": "3d69e31fa80714d1d90d5d0866103bab12ff055709efccaf67eba2ac1903e228",
    "cover": "4554f2a49e04dda1faaec103558a56630dfe6c2a95f220f4c0191e807159070a",
    "realize": "7eba88358e1efd3efa048c02987ec6a17da72d528761cb867f47748977d3435c",
    "chordal-build":
        "416cc38f9b12a9b6497c1c65f4f01d015c5e6b3cef01e1bfc35c49f61c279946",
    "rebuild-star":
        "7c17690ae9d2a5b79116a7c2f4e449d873200581e51f79c6f6c20ac11c2d7fd7",
    "verify-effective":
        "2e5b76d72f067df02b077fc98c3093abfb4aeedd7b7656e7391959bc311b830c",
    "hall-cert":
        "3af515394c56731685444b46f597a3960b7f6a0ad37c51a8e4c3d45ef1c602b0",
    "bounds": "3d3bd5ff9a219a62cf5f66e95a17a03433f624c1d74d4598fe07ddfddd7e63ff",
    "planar-check":
        "2b2e57fea325a24e95476b40c9d73b92cdc1aef30de31273f026ef72c65b90e7",
    "sweep": "d03c8572b3e236bc50a85c8b43d67fa68023024e9da9dcbf1feb29d24122bef5",
}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_all_is_unchanged():
    assert sorted(compnum.__all__) == sorted(
        name for names in HOMES.values() for name in names)


def test_every_public_name_has_a_caller_outside_tests():
    # a name only the tests call is a test oracle and belongs in tests/
    paths = [path for path in glob.glob(os.path.join(SRC, "compnum", "*.py"))
             if os.path.basename(path) != "__init__.py"]
    for folder in ("demos", "bench"):
        paths += glob.glob(os.path.join(ROOT, folder, "*.py"))
    lines = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            lines += handle.read().splitlines()
    uncalled = [name for name in compnum.__all__
                if not any(re.search(rf"\b{name}\b", line)
                           and not re.match(rf"\s*(def|class) {name}\b", line)
                           for line in lines)]
    assert uncalled == []


def test_every_library_definition_is_used_by_the_library_or_a_demo():
    # a function, class or method that only its own body or the tests
    # reach is dead code or a test oracle; dunders are called by Python
    definitions, uses = [], []
    paths = sorted(glob.glob(os.path.join(SRC, "compnum", "*.py")))
    for path in paths + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        uses += [(path, node.lineno,
                  node.id if isinstance(node, ast.Name) else node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))]
        if path not in paths:
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            definitions += [(path, item) for item in [node, *members]
                            if isinstance(item, (ast.FunctionDef, ast.ClassDef))
                            and not item.name.startswith("__")]
    unused = [f"{os.path.basename(path)}:{item.name}"
              for path, item in definitions
              if not any(name == item.name and not (
                  where == path and item.lineno <= line <= item.end_lineno)
                  for where, line, name in uses)]
    assert unused == []


def test_library_makes_no_assert_statements():
    # python -O strips assert statements, and with them any self-check
    # made by one; the library raises instead
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "compnum", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exception_the_library_defines_is_public():
    # an exception class outside compnum.__all__ would exist only to steer
    # control flow; the library stops by returning instead
    classes = []
    for path in sorted(glob.glob(os.path.join(SRC, "compnum", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        classes += [(f"{os.path.basename(path)}:{node.name}", node.name,
                     {base.id for base in node.bases
                      if isinstance(base, ast.Name)})
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)]
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, Exception)}
    for _ in classes:  # each pass reaches one more level of subclasses
        errors |= {name for _, name, bases in classes if bases & errors}
    assert [where for where, name, _ in classes
            if name in errors and name not in compnum.__all__] == []


def test_every_public_name_is_its_home_module_attribute():
    for home, names in HOMES.items():
        module = importlib.import_module(f"compnum.{home}")
        for name in names:
            assert getattr(compnum, name) is getattr(module, name), name


def test_sweep_stays_the_function_and_star_binds_every_name():
    done = run_python("""
        import types
        import compnum.sweep
        import compnum.sweep as m
        from compnum import sweep
        from compnum.sweep import ALL_CHECKS, sweep as fn
        assert sweep is fn and m is fn and compnum.sweep is fn
        assert not isinstance(sweep, types.ModuleType)
        assert ALL_CHECKS == ("floors", "effective", "planar", "conjecture")
        names = {}
        exec("from compnum import *", names)
        missing = sorted(set(compnum.__all__) - set(names))
        assert not missing, missing
        print("ok")
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.parametrize("command", sorted(HELP_SHA256),
                         ids=lambda command: command or "compnum")
def test_help_text_is_unchanged(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main(([command] if command else []) + ["--help"])
    assert exit_.value.code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == HELP_SHA256[command]


QUERY_MODULES = ["compnum", "compnum.cli", "compnum.cliques", "compnum.ecc",
                 "compnum.graph", "compnum.io", "compnum.realizer"]
ALL_MODULES = sorted(QUERY_MODULES + ["compnum.bounds", "compnum.constructions",
                                      "compnum.smallgraphs", "compnum.sweep"])


@pytest.mark.parametrize("argv, modules", [
    (["--help"], ["compnum", "compnum.cli"]),
    (["pindex", "--in", "K4.g6", "--format", "g6"], QUERY_MODULES),
    (["theta", "--in", "K4.g6", "--format", "g6"],
     ["compnum", "compnum.cli", "compnum.cliques", "compnum.ecc",
      "compnum.graph", "compnum.io"]),
    (["sweep", "--n", "3", "--threads", "1"], ALL_MODULES),
    (["sweep", "--in", "K4.g6", "--threads", "1"],
     [name for name in ALL_MODULES if name != "compnum.smallgraphs"]),
], ids=["help", "pindex", "theta", "sweep", "sweep-in"])
def test_cli_loads_only_its_commands_modules(tmp_path, argv, modules):
    assert [name for name in loaded_modules(tmp_path, argv)
            if name.split(".")[0] == "compnum"] == modules


# dataclasses alone pulls in inspect, ast, dis and tokenize, which every
# query process would load again
@pytest.mark.parametrize("argv", [
    ["pindex", "--in", "K4.g6", "--format", "g6"],
    ["theta", "--in", "K4.g6", "--format", "g6"],
    ["sweep", "--in", "K4.g6", "--threads", "1"],
], ids=["pindex", "theta", "sweep-in"])
def test_queries_load_no_dataclasses_or_inspect(tmp_path, argv):
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert heavy.isdisjoint(loaded_modules(tmp_path, argv))


def test_forking_sweep_loads_no_multiprocessing(tmp_path):
    # the child is forked bare, without what multiprocessing pulls in
    # n = 5 has 34 graphs, so three chunks: one of them goes to a child
    modules = loaded_modules(tmp_path, ["sweep", "--n", "5", "--threads", "2"],
                             forks=1)
    assert [name for name in modules
            if name.split(".")[0] == "compnum"] == ALL_MODULES
    assert {"multiprocessing", "pickle", "socket", "selectors",
            "subprocess"}.isdisjoint(modules)


def loaded_modules(tmp_path, argv, forks: int = 0) -> list[str]:
    """The sorted names in sys.modules after a fresh process with two CPUs
    runs the CLI with argv in a directory holding K4.g6 and forks ``forks``
    children."""
    (tmp_path / "K4.g6").write_text("C~\n")
    done = run_python("""
        import json, os, sys
        os.chdir(sys.argv[1])
        os.cpu_count = lambda: 2
        fork, forks = os.fork, []

        def counting():
            forks.append(fork())
            return forks[-1]

        os.fork = counting
        from compnum.cli import main
        try:
            code = main(sys.argv[2:])
        except SystemExit as exc:
            code = exc.code
        assert code == 0, code
        print(json.dumps([len(forks), sorted(sys.modules)]))
    """, str(tmp_path), *argv)
    assert done.returncode == 0, done.stderr
    forked, modules = json.loads(done.stdout.splitlines()[-1])
    assert forked == forks
    return modules


THETA_K4 = ["theta", "--in", "K4.g6", "--format", "g6"]


@pytest.mark.parametrize("unbuffered, argv, code", [
    pytest.param("1", THETA_K4, 1, id="unbuffered"),
    pytest.param("", THETA_K4, 1, id="buffered"),
    # argparse itself swallows the failed write of an unbuffered --help
    pytest.param("1", ["--help"], 0, id="help-unbuffered"),
    pytest.param("", ["--help"], 1, id="help-buffered"),
])
def test_closed_stdout_pipe_exits_1_without_traceback(tmp_path, unbuffered,
                                                      argv, code):
    (tmp_path / "K4.g6").write_text("C~\n")
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from compnum.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            cwd=tmp_path, env=env, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert "Traceback" not in done.stderr and "Exception" not in done.stderr
