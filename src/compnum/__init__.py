"""Exact computation for competition graphs of acyclic digraphs.

Competition numbers, primary predator indices and minimum edge clique
covers by exact search; effective competition covers built from the
chordal, occupied-edge and simplicial-family constructions and verified
end to end; classical and predator-index lower bounds plus the
diamond-free plane-graph formula; exhaustive small-graph sweeps with a
conjecture probe.
"""

from .bounds import (BoundsReport, best_union_tail, bounds_report,
                     clique_census, opsut_bound, planar_formula_check,
                     predator_bound, union_tail_bound)
from .cliques import (EliminationOrdering, Hole, chordality,
                      every_clique_has_occupied_edge,
                      every_vertex_on_occupied_edge, is_diamond_free,
                      maximal_cliques, occupied_edges, simplicial_vertices)
from .constructions import (EffectiveCoverCertificate, HallCertificate,
                            NotChordalError, chordal_realizer,
                            hall_certificate, rebuild_star,
                            simplicial_family_realizer,
                            verify_effective_cover)
from .ecc import (CliqueCover, expand_to_maximal, make_cover,
                  min_edge_clique_cover, theta_e)
from .graph import (AcyclicLabeling, Digraph, DirectedCycle, Graph,
                    acyclic_labeling, add_isolated, competition_graph)
from .io import (FormatError, parse_edge_list, parse_graph6,
                 parse_graph6_lines, serialize_edge_list, serialize_graph6)
from .realizer import (Realization, RealizationError, competition_number,
                       max_predators_with, min_prey_count,
                       primary_predator_index, realizable_with)
from .smallgraphs import canonical_graph, enumerate_small_graphs
from .sweep import SweepReport, sweep, sweep_small

__version__ = "0.1.0"

__all__ = [
    "AcyclicLabeling", "BoundsReport", "CliqueCover", "Digraph",
    "DirectedCycle", "EffectiveCoverCertificate", "EliminationOrdering",
    "FormatError", "Graph", "HallCertificate", "Hole", "NotChordalError",
    "Realization", "RealizationError", "SweepReport",
    "acyclic_labeling", "add_isolated", "best_union_tail", "bounds_report",
    "canonical_graph", "chordal_realizer", "chordality", "clique_census",
    "competition_graph", "competition_number",
    "enumerate_small_graphs", "every_clique_has_occupied_edge",
    "every_vertex_on_occupied_edge", "expand_to_maximal", "hall_certificate",
    "is_diamond_free", "make_cover", "max_predators_with", "maximal_cliques",
    "min_edge_clique_cover", "min_prey_count", "occupied_edges",
    "opsut_bound", "parse_edge_list", "parse_graph6", "parse_graph6_lines",
    "planar_formula_check", "predator_bound", "primary_predator_index",
    "realizable_with", "rebuild_star", "serialize_edge_list",
    "serialize_graph6", "simplicial_family_realizer", "simplicial_vertices",
    "sweep", "sweep_small", "theta_e", "union_tail_bound",
    "verify_effective_cover",
]
