"""The immutable value types `Graph`, `Digraph` and `Realization`: their
constructors and validation messages, equality, hash, repr, refusal of
attribute assignment and deletion, pickling and copying, and the cached
properties."""

import copy
import pickle

import pytest

from compnum.graph import Digraph, Graph, add_isolated
from compnum.realizer import (Realization, competition_number,
                              max_predators_with)
from compnum.smallgraphs import enumerate_small_graphs

P3_PLUS_ISOLATE = Graph(4, (2, 5, 2, 0))
FORK = Digraph(3, ((0, 2), (1, 2)))


def p3_witness() -> Realization:
    return competition_number(Graph.from_edges(3, [(0, 1), (1, 2)]))[1]


def values():
    return [P3_PLUS_ISOLATE, FORK, p3_witness(),
            Realization(FORK, 0, (3, 2, 1), 1, 2, ((0, 2),))]


def test_constructors_take_fields_by_position_and_by_name():
    assert Graph(n=4, rows=(2, 5, 2, 0)) == P3_PLUS_ISOLATE
    assert Digraph(n=3, arcs=((0, 2), (1, 2))) == FORK
    assert Graph.from_edges(4, [(1, 0), (2, 1)]) == P3_PLUS_ISOLATE
    assert Digraph.from_arcs(3, [[1, 2], (0, 2), (1, 2)]) == FORK
    witness = Realization(FORK, 0, (3, 2, 1), 1, 2)
    assert witness.sink_map is None
    assert (witness.digraph, witness.k, witness.labeling, witness.prey_count,
            witness.predator_count) == (FORK, 0, (3, 2, 1), 1, 2)
    assert Realization(digraph=FORK, k=0, labeling=(3, 2, 1), prey_count=1,
                       predator_count=2, sink_map=None) == witness
    assert witness.witness_arcs() == [[0, 2], [1, 2]]


def test_equality_is_same_class_and_equal_fields():
    assert Graph(2, (2, 1)) == Graph(2, (2, 1))
    assert Graph(2, (2, 1)) != Graph(2, (0, 0))
    assert Graph(3, (0, 0, 0)) != Graph(2, (0, 0))
    assert FORK != Digraph(3, ((0, 2),))
    # equal field tuples in another class, or a bare tuple, are not equal
    assert Graph(0, ()) != Digraph(0, ())
    assert Digraph(0, ()) != Graph(0, ())
    assert Graph(0, ()) != (0, ())
    assert Graph.__eq__(Graph(0, ()), (0, ())) is NotImplemented
    witness = p3_witness()
    assert witness == p3_witness()
    assert witness != Realization(witness.digraph, witness.k, witness.labeling,
                                  witness.prey_count, witness.predator_count,
                                  ())


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(P3_PLUS_ISOLATE) == hash((4, (2, 5, 2, 0)))
    assert hash(FORK) == hash((3, ((0, 2), (1, 2))))
    witness = p3_witness()
    assert hash(witness) == hash((witness.digraph, 1, (3, 4, 2, 1), 2, 2, None))
    assert len({Graph(2, (2, 1)), Graph(2, (2, 1)), Graph(2, (0, 0))}) == 2


def test_repr_names_every_field():
    assert repr(P3_PLUS_ISOLATE) == "Graph(n=4, rows=(2, 5, 2, 0))"
    assert repr(FORK) == "Digraph(n=3, arcs=((0, 2), (1, 2)))"
    assert repr(p3_witness()) == (
        "Realization(digraph=Digraph(n=4, arcs=((0, 2), (1, 2), (1, 3), "
        "(2, 3))), k=1, labeling=(3, 4, 2, 1), prey_count=2, "
        "predator_count=2, sink_map=None)")
    assert repr(Realization(FORK, 0, (3, 2, 1), 1, 2, ((0, 2),))) == (
        "Realization(digraph=Digraph(n=3, arcs=((0, 2), (1, 2))), k=0, "
        "labeling=(3, 2, 1), prey_count=1, predator_count=2, "
        "sink_map=((0, 2),))")


@pytest.mark.parametrize("name", ["n", "rows", "edge_count", "extra"])
def test_graph_refuses_assignment_and_deletion(name):
    graph = Graph(4, (2, 5, 2, 0))
    graph.edge_count  # a computed cached property is refused too
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(graph, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(graph, name)
    assert graph == P3_PLUS_ISOLATE and graph.edge_count == 2


@pytest.mark.parametrize("value, name", [
    (FORK, "arcs"), (FORK, "in_rows"), (p3_witness(), "k"),
    (p3_witness(), "sink_map"),
])
def test_digraph_and_realization_refuse_assignment_and_deletion(value, name):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)


def cached(value):
    if isinstance(value, Graph):
        return value.edge_count, value._core, value.without_isolates()
    if isinstance(value, Digraph):
        return value.in_rows, value.out_rows
    return cached(value.digraph)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_pickle_round_trips(protocol, warm):
    for value in values():
        if warm:
            cached(value)
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)
        assert cached(back) == cached(value)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
def test_copy_round_trips(copier):
    for value in values():
        back = copier(value)
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert cached(back) == cached(value)


def test_cached_property_values():
    graph = Graph(4, (2, 5, 2, 0))
    assert graph.edge_count == 2
    core = Graph(3, (2, 5, 2))
    assert graph._core == (core, (0, 1, 2))
    assert graph.without_isolates() == (core, (0, 1, 2))
    assert graph._core is graph._core
    assert core._core is None
    assert core.without_isolates() == (core, (0, 1, 2))
    assert core.without_isolates()[0] is core
    digraph = Digraph(3, ((0, 2), (1, 2)))
    assert digraph.in_rows == (0, 0, 3)
    assert digraph.out_rows == (4, 4, 0)
    assert digraph.in_rows is digraph.in_rows
    assert digraph.out_rows is digraph.out_rows


@pytest.mark.parametrize("make, message", [
    (lambda: Graph(-1, ()), "vertex count must be nonnegative"),
    # fields of the wrong type fail here, not later in a query
    (lambda: Graph(True, (0,)), "n must be an int"),
    (lambda: Graph(2.0, (0, 0)), "n must be an int"),
    (lambda: Graph(3, [6, 5, 3]), "rows must be a tuple of ints"),
    (lambda: Graph(2, (0.0, 0)), "rows must be a tuple of ints"),
    (lambda: Graph(1, (False,)), "rows must be a tuple of ints"),
    (lambda: Digraph(True, ()), "n must be an int"),
    # count arguments are ints, as Graph's n is
    (lambda: add_isolated(Graph(1, (0,)), True), "k must be an int"),
    (lambda: add_isolated(Graph(1, (0,)), 1.5), "k must be an int"),
    (lambda: Digraph(3, [(0, 2), (1, 2)]), "arcs must be a tuple of int pairs"),
    (lambda: Digraph(3, ([0, 2],)), "arcs must be a tuple of int pairs"),
    (lambda: Digraph(3, ((0, 1, 2),)), "arcs must be a tuple of int pairs"),
    (lambda: Digraph(3, ((0, 2.0),)), "arcs must be a tuple of int pairs"),
    (lambda: Digraph(3, ((0, True),)), "arcs must be a tuple of int pairs"),
    (lambda: Graph(2, (2,)), "adjacency rows do not match vertex count"),
    (lambda: Graph(2, (4, 0)), "adjacency bit out of range in row 0"),
    (lambda: Graph(2, (0, 2)), "self-loop at vertex 1"),
    (lambda: Graph(2, (2, 0)), "adjacency not symmetric at 0,1"),
    (lambda: Graph.from_edges(2, [(0, 2)]), r"edge \(0,2\) out of range"),
    (lambda: Graph.from_edges(2, [(1, 1)]), "self-loop at vertex 1"),
    (lambda: Graph.from_edges(2, [(0, 1), (1, 0)]), r"duplicate edge \(1,0\)"),
    (lambda: Digraph(-1, ()), "vertex count must be nonnegative"),
    (lambda: Digraph(2, ((0, 2),)), r"arc \(0,2\) out of range"),
    (lambda: Digraph(2, ((-1, 0),)), r"arc \(-1,0\) out of range"),
    (lambda: Digraph(2, ((1, 1),)), "self-arc at vertex 1"),
    (lambda: Digraph(3, ((1, 2), (0, 2))),
     "arcs must strictly increase; use Digraph.from_arcs"),
    (lambda: Digraph(3, ((0, 2), (0, 2))),
     "arcs must strictly increase; use Digraph.from_arcs"),
    # a count that is negative goes first: its fields are not looked at
    (lambda: Graph(-1, [0]), "vertex count must be nonnegative"),
    (lambda: Digraph(-1, [(0, 1)]), "vertex count must be nonnegative"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


# every count argument, as (call, argument name, what it counts)
COUNT_SITES = {
    "Graph": (lambda v: Graph(v, ()), "n", "vertex count"),
    "Digraph": (lambda v: Digraph(v, ()), "n", "vertex count"),
    "add_isolated": (lambda v: add_isolated(Graph(1, (0,)), v),
                     "k", "isolate count"),
    "max_predators_with": (lambda v: max_predators_with(Graph(1, (0,)), v),
                           "k", "isolate count"),
    "enumerate_small_graphs": (lambda v: next(enumerate_small_graphs(v)),
                               "n", "vertex count"),
}


@pytest.mark.parametrize("value", [True, 1.5, -1],
                         ids=["bool", "float", "negative"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_arguments_share_one_check(site, value):
    call, name, noun = COUNT_SITES[site]
    message = (f"{noun} must be nonnegative" if type(value) is int
               else f"{name} must be an int")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)
