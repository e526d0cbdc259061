import random

import pytest
from conftest import random_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from compnum.fixtures import effective_cover_example_digraph, effective_cover_example_graph
from compnum.graph import Digraph, Graph
from compnum.io import (FormatError, _decode_g6_size, _encode_g6_size,
                        parse_edge_list, parse_graph6, serialize_edge_list,
                        serialize_graph6)


def test_graph6_smallest_cases():
    assert parse_graph6("A_") == Graph.from_edges(2, [(0, 1)])
    assert parse_graph6("Bw") == Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert serialize_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert serialize_graph6(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"


def test_graph6_known_encodings():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert serialize_graph6(c4) == "Cl"
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert serialize_graph6(k4) == "C~"
    assert parse_graph6("?") == Graph(0, ())


def test_graph6_header_roundtrip():
    g = effective_cover_example_graph()
    encoded = ">>graph6<<" + serialize_graph6(g)
    assert encoded.startswith(">>graph6<<")
    assert parse_graph6(encoded) == Graph(g.n, g.rows)


def test_graph6_worked_example_roundtrip():
    g = effective_cover_example_graph()
    assert parse_graph6(serialize_graph6(g)) == Graph(g.n, g.rows)


def test_graph6_errors():
    with pytest.raises(FormatError, match="malformed header"):
        parse_graph6(">>sparse6<<A_")
    with pytest.raises(FormatError, match="truncated graph6 bit payload"):
        parse_graph6("B")
    # ">" is below the range; a control character would be stripped
    with pytest.raises(FormatError,
                       match="graph6 character out of range: '>'"):
        parse_graph6("A>")
    with pytest.raises(FormatError, match="trailing data"):
        parse_graph6("A_w")
    with pytest.raises(FormatError, match="nonzero padding bits"):
        parse_graph6("A" + chr(63 + 1))


def test_graph6_long_size_field():
    g = Graph(70, (0,) * 70)
    assert parse_graph6(serialize_graph6(g)) == g


def test_graph6_size_field_forms_and_errors():
    for n in (0, 62, 63, 4096, 258047, 258048, 2 ** 36 - 1):
        field = _encode_g6_size(n)
        assert len(field) == (1 if n <= 62 else 4 if n <= 258047 else 8)
        assert _decode_g6_size(field + "?") == (n, len(field))
    for data, message in (("~", "truncated"), ("~??", "truncated"),
                          ("~~?????", "truncated"), ("~" + chr(127) + "??",
                                                     "out of range"),
                          ("~~????" + chr(62) + "?", "out of range"),
                          (chr(127), "out of range")):
        with pytest.raises(FormatError, match=message):
            _decode_g6_size(data)


def test_edge_list_basics():
    assert parse_edge_list("2 1\n0 1\n") == Graph.from_edges(2, [(0, 1)])
    assert parse_edge_list("3 0\n") == Graph(3, (0, 0, 0))
    d = parse_edge_list("3 2\n0 > 1\n2 > 1\n")
    assert isinstance(d, Digraph) and d.arcs == ((0, 1), (2, 1))


def test_edge_list_worked_example_digraph():
    d = effective_cover_example_digraph()
    text = serialize_edge_list(d)
    parsed = parse_edge_list(text)
    assert isinstance(parsed, Digraph)
    assert parsed.n == 10 and len(parsed.arcs) == 17
    assert parsed == Digraph(d.n, d.arcs)


def test_edge_list_errors():
    with pytest.raises(FormatError):
        parse_edge_list("2 1\n0 2\n")
    with pytest.raises(FormatError):
        parse_edge_list("3 2\n0 1\n1 0\n")
    with pytest.raises(FormatError):
        parse_edge_list("2 1\n1 1\n")
    with pytest.raises(FormatError):
        parse_edge_list("2 2\n0 1\n")
    with pytest.raises(FormatError):
        parse_edge_list("nope\n")


@pytest.mark.parametrize("function,argument,message", [
    (parse_graph6, "", "empty graph6 string"),
    (parse_edge_list, "\n", "empty edge list"),
    (parse_edge_list, "a b\n", "malformed header line: 'a b'"),
    (parse_edge_list, "-1 0\n", "negative counts in header"),
    (parse_edge_list, "3 1\n0 > 1 > 2\n", "malformed arc line"),
    (parse_edge_list, "3 1\n0 1 2\n", "malformed edge line"),
    (parse_edge_list, "2 1\n0 x\n", "malformed line: '0 x'"),
    (parse_edge_list, "2 2\n0 > 1\n0 > 1\n", "duplicate arc"),
    (_encode_g6_size, -1, "vertex count must be nonnegative"),
    (_encode_g6_size, 2 ** 36, "graph too large for graph6"),
])
def test_malformed_input_is_rejected_with_its_message(function, argument,
                                                      message):
    with pytest.raises(ValueError, match=message):
        function(argument)


def test_roundtrip_seeded_sample():
    rng = random.Random(2024)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 7))
        assert parse_graph6(serialize_graph6(g)) == g
        assert parse_edge_list(serialize_edge_list(g)) == g


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(0, 2**36 - 1))
def test_roundtrip_hypothesis(n, seed):
    g = random_graph(random.Random(seed), n)
    assert parse_graph6(serialize_graph6(g)) == g
    assert parse_edge_list(serialize_edge_list(g)) == g
