"""Exact computation for competition graphs of acyclic digraphs.

Competition numbers, primary predator indices and minimum edge clique
covers by exact search; effective competition covers built from the
chordal, occupied-edge and simplicial-family constructions and verified
end to end; classical and predator-index lower bounds plus the
diamond-free plane-graph formula; exhaustive small-graph sweeps with a
conjecture probe.  Public names load their submodules on first use.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

ALL_CHECKS = ("floors", "effective", "planar", "conjecture")

_HOMES = {
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
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = getattr(module, name)
    return value


class _Package(types.ModuleType):
    # Importing a submodule binds it on the package; a module bound over
    # a public name is ignored, so compnum.sweep stays the function.
    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
