"""Exhaustive small-graph sweeps and the concluding-equality probe.

Usage: python demos/05_exhaustive_sweep.py [max_n]

Checks every theorem over every isomorphism class up to max_n vertices
(default 5; 6 covers 156 classes and still runs in seconds) and tallies
how often k = theta_e - n + p holds.  A counterexample would be printed
verbatim, never asserted away.
"""

import sys

from compnum import enumerate_small_graphs, sweep

max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5

graphs = []
for n in range(1, max_n + 1):
    graphs.extend(enumerate_small_graphs(n))
print(f"{len(graphs)} isomorphism classes up to {max_n} vertices")

report = sweep(graphs, checks=("floors", "effective", "planar", "conjecture"))

print()
print(f"{'check':<28} {'passed':>8} {'total':>8}")
print("-" * 46)
summary = report["summary"]
for name, counts in summary["checks"].items():
    print(f"{name:<28} {counts['passed']:>8} {counts['total']:>8}")

print()
print("violations:", len(summary["violations"]))
tally = summary["conjecture"]
print(f"equality k = theta_e - n + p: {tally['equal']}/{tally['checked']}")
if tally["counterexamples"]:
    print("counterexamples (full witness data):")
    for record in tally["counterexamples"]:
        print(" ", record)
else:
    print("no counterexample up to this size")

print()
print("records are deterministic; a slice of the n =", max_n, "rows:")
for record in report["records"][-3:]:
    print(f"  {record['graph6']:<10} n={record['n']} theta={record['theta_e']} "
          f"k={record['k']} p={record['p']} prey={record['prey']}")
