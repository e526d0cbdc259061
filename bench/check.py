"""Checks of an op's output against the golden answers.

An op fails on an exit code or an answer that differs from golden, and
on a witness that `certify_realization` rejects; the last two are wrong
answers.  A byte difference in the stdout of an op that exits as golden
does not fail it: it is counted as `stdout_changed`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from typing import NamedTuple


class Verdict(NamedTuple):
    reason: str | None = None   # why the op failed; None when it passed
    wrong: bool = False         # it answered, and the answer is wrong
    changed: bool = False       # its stdout differs from the golden bytes


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def deep(fn, *args):
    """Call fn in a thread with a large stack and recursion limit, so that
    re-checking a long path or cycle does not hit the default limit."""
    result = {}

    def target():
        try:
            result["value"] = fn(*args)
        except BaseException as exc:  # handed to the caller below
            result["error"] = exc

    old_limit, old_size = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(200_000)
    threading.stack_size(512 << 20)
    try:
        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_size)
        sys.setrecursionlimit(old_limit)
    if "error" in result:
        raise result["error"]
    return result["value"]


def clear_caches() -> None:
    """Empty every functools cache in the loaded compnum modules, so that
    no answer is reused from an earlier graph or an earlier phase."""
    for name, module in list(sys.modules.items()):
        if name != "compnum" and not name.startswith("compnum."):
            continue
        for obj in list(vars(module).values()):
            inner = list(vars(obj).values()) if isinstance(obj, type) else []
            for item in [obj] + inner:
                if callable(getattr(item, "cache_clear", None)):
                    item.cache_clear()


def certify_witness(graph, arcs, k: int) -> int:
    """Re-check a witness with the library's own certifier; the prey count
    of the certified realization."""
    from compnum.graph import Digraph, Graph
    from compnum.realizer import certify_realization

    n, edges = graph
    digraph = Digraph.from_arcs(n + k, [tuple(arc) for arc in arcs])
    try:
        return deep(certify_realization, Graph.from_edges(n, edges),
                    digraph, k).prey_count
    finally:
        clear_caches()


def check_query(op, exit_code: int, stdout: str) -> Verdict:
    """The verdict on a knumber/pindex op."""
    want = op.expect
    if exit_code != want["exit"]:
        return Verdict(f"exit {exit_code}, expected {want['exit']}")
    changed = sha256(stdout) != want["stdout_sha256"]
    try:
        got = json.loads(stdout)
    except ValueError:
        return Verdict("stdout is not JSON", True, changed)
    for key in ("k", "p", "prey"):
        if got.get(key) != want[key]:
            return Verdict(f"{key} = {got.get(key)}, expected {want[key]}",
                           True, changed)
    try:
        prey = certify_witness(op.graph, got["witness_arcs"], got["k"])
    except Exception as exc:  # any rejection of the witness fails the op
        return Verdict(f"witness rejected: {type(exc).__name__}: {exc}",
                       True, changed)
    if prey != want["prey"]:
        return Verdict(f"witness has {prey} prey, expected {want['prey']}",
                       True, changed)
    return Verdict(changed=changed)


def sweep_summary(records: list[dict]) -> dict:
    """The summary `compnum sweep` prints with every check on, rebuilt from
    golden records; an oracle for the expected stdout."""
    totals: dict[str, list[int]] = {}
    for record in records:
        for name, ok in record["checks"].items():
            passed, total = totals.get(name, (0, 0))
            totals[name] = [passed + bool(ok), total + 1]
    bad = [r["graph6"] for r in records
           if r["error"] or not all(r["checks"].values())]
    return {
        "graphs": len(records),
        "checks": {name: {"passed": p, "total": t}
                   for name, (p, t) in sorted(totals.items())},
        "violations": bad,
        "conjecture": {
            "checked": sum(1 for r in records if "conjecture_equal" in r),
            "equal": sum(1 for r in records if r.get("conjecture_equal")),
            "counterexamples": [r for r in records
                                if r.get("conjecture_equal") is False],
        },
    }


def expected_sweep(records: list[dict]) -> tuple[int, str]:
    """Exit code and stdout the sweep must give on these golden records."""
    summary = sweep_summary(records)
    code = 2 if summary["violations"] else (
        3 if summary["conjecture"]["counterexamples"] else 0)
    return code, json.dumps(summary, indent=2, sort_keys=True) + "\n"


def check_sweep(op, exit_code: int, stdout: str,
                report_text: str | None) -> Verdict:
    """The verdict on a sweep op, from its stdout and its --out report."""
    want = op.expect["records"]
    want_code, want_stdout = expected_sweep(want)
    changed = exit_code == want_code and stdout != want_stdout
    exit_reason = f"exit {exit_code}, expected {want_code}"
    try:
        got = json.loads(report_text)["records"]
    except (TypeError, ValueError, KeyError):
        if exit_code != want_code:
            return Verdict(exit_reason)
        return Verdict("no readable report", True, changed)
    if len(got) != len(want):
        return Verdict(f"{len(got)} records, expected {len(want)}",
                       True, changed)
    for g, w in zip(got, want):
        wrong = [key for key in w if g.get(key) != w[key]]
        if wrong:
            return Verdict(f"{w['graph6']}: {', '.join(wrong)} differ",
                           True, changed)
    if exit_code != want_code:
        return Verdict(exit_reason)
    return Verdict(changed=changed)
