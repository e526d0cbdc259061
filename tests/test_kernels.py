"""The small-graph kernels on the sweep's record path, each checked against
a plain reference: ``bits``, ``acyclic_labeling``, the value types' hash,
cached fields and one-pass arc check, the graph6 codec and the report
writer's JSON."""

import copy
import inspect
import json
import pickle
import random
import time

import pytest
from conftest import random_digraph

from compnum.graph import Digraph, Graph, acyclic_labeling, bits
from compnum.io import parse_graph6, serialize_graph6
from compnum.realizer import Realization, competition_number
from compnum.sweep import _indented


def bits_by_scan(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_bits_matches_a_scan_below_the_table_width_and_above_it():
    for mask in range(1 << 10):
        assert list(bits(mask)) == bits_by_scan(mask)
    rng = random.Random(43)
    for _ in range(300):
        mask = rng.getrandbits(rng.randint(10, 1300))
        assert list(bits(mask)) == bits_by_scan(mask)


def test_bits_of_a_wide_mask_pulls_only_what_its_consumer_uses():
    mask = (1 << 1200) - 1
    stream = bits(mask)
    assert inspect.isgenerator(stream)
    assert [next(stream) for _ in range(3)] == [0, 1, 2]
    # paused at bit 2, the generator has cleared bits 0 and 1 and no more
    assert stream.gi_frame.f_locals["mask"] == mask >> 2 << 2


def acyclic_labeling_by_scan(digraph: Digraph):
    """The docstring's rule as a plain scan: label 1, 2, ... the smallest
    remaining vertex with no out-arc into the remaining set; at a stall,
    the cycle reached by following smallest remaining out-neighbours from
    the smallest remaining vertex, rotated to start at its smallest
    vertex."""
    n = digraph.n
    out = [set(bits_by_scan(row)) for row in digraph.out_rows]
    remaining = set(range(n))
    labels = [0] * n
    for label in range(1, n + 1):
        pick = next((v for v in sorted(remaining) if not out[v] & remaining), None)
        if pick is None:
            path = [min(remaining)]
            while True:
                v = min(out[path[-1]] & remaining)
                if v in path:
                    cycle = path[path.index(v):]
                    k = cycle.index(min(cycle))
                    return False, tuple(cycle[k:] + cycle[:k])
                path.append(v)
        labels[pick] = label
        remaining.remove(pick)
    return True, tuple(labels)


def test_acyclic_labeling_matches_a_scan_on_seeded_digraphs():
    rng = random.Random(44)
    acyclic = cyclic = 0
    for _ in range(400):
        n = rng.choice((rng.randint(1, 20), rng.randint(20, 600)))
        if rng.random() < 0.5:
            # arcs down a shuffled order, so many vertices tie as ready
            rank = list(range(n))
            rng.shuffle(rank)
            arcs = {(u, v) for u, v in (rng.sample(range(n), 2)
                                        for _ in range(2 * n) if n >= 2)
                    if rank[u] > rank[v]}
            digraph = Digraph.from_arcs(n, arcs)
        else:
            digraph = random_digraph(rng, min(n, 25), p=rng.choice((.05, .15)))
        expected = acyclic_labeling_by_scan(digraph)
        assert acyclic_labeling(digraph) == expected
        acyclic += expected[0]
        cyclic += not expected[0]
    assert acyclic > 150 and cyclic > 50


def test_acyclic_labeling_of_many_arcless_vertices_is_not_quadratic():
    # a bitmask of ready vertices took 5.5 s on this input, a heap 0.17 s (2 vCPUs)
    n = 300_000
    digraph = Digraph(n, ())
    start = time.perf_counter()
    assert acyclic_labeling(digraph) == (True, tuple(range(1, n + 1)))
    assert time.perf_counter() - start < 2


def warm(value):
    """Read every cached field and the hash, as the library's caches do."""
    hash(value)
    if isinstance(value, Graph):
        value.edge_count, value.without_isolates()
    return value


def witness() -> Realization:
    """A new object equal to P4's competition witness."""
    found = competition_number(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))[1]
    return Realization(*found._key)


@pytest.mark.parametrize("make", [
    lambda: Graph(5, (2, 5, 2, 0, 0)), lambda: Digraph(3, ((0, 2), (1, 2))),
    witness], ids=["graph", "digraph", "realization"])
def test_hash_and_lazy_fields_stay_out_of_equality_repr_pickles_and_copies(make):
    cold, hot = make(), warm(make())
    assert "_hash" in hot.__dict__ and "_hash" not in cold.__dict__
    assert hot == cold and cold == hot and repr(hot) == repr(cold)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(hot, protocol) == pickle.dumps(cold, protocol)
    for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        back = copier(hot)
        assert back == hot and back is not hot
        assert back.__dict__.keys() == cold.__dict__.keys()
    assert hash(hot) == hash(hot._key) == hash(cold)


def digraph_fault_by_passes(n, arcs):
    """The arc checks one after another: types, then the first arc out of
    range or a self-arc, then the order."""
    if type(arcs) is not tuple or not all(
            type(arc) is tuple and len(arc) == 2
            and all(type(v) is int for v in arc) for arc in arcs):
        return "arcs must be a tuple of int pairs"
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            return f"arc ({u},{v}) out of range"
        if u == v:
            return f"self-arc at vertex {u}"
    if any(a >= b for a, b in zip(arcs, arcs[1:])):
        return "arcs must strictly increase; use Digraph.from_arcs"
    return None


def test_digraph_checks_its_arcs_in_one_pass_with_the_same_messages():
    rng = random.Random(45)
    odd = [(1,), (1, 2, 3), [0, 1], 5, (True, 1), (1.0, 2), ("a", 0)]
    faults = set()
    for _ in range(4000):
        n = rng.randint(0, 5)
        arcs = [(rng.randint(-1, 5), rng.randint(-1, 5))
                for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.6:  # distinct and ascending, so order rarely fails
            arcs = sorted(set(arcs))
        if rng.random() < 0.2:
            arcs.insert(rng.randint(0, len(arcs)), rng.choice(odd))
        arcs = tuple(arcs) if rng.random() < 0.97 else list(arcs)
        expected = digraph_fault_by_passes(n, arcs)
        faults.add(expected)
        if expected is None:
            digraph = Digraph(n, arcs)
            assert digraph.in_rows == tuple(
                sum(1 << u for u, w in arcs if w == v) for v in range(n))
            assert digraph.out_rows == tuple(
                sum(1 << w for u, w in arcs if u == v) for v in range(n))
        else:
            with pytest.raises(ValueError) as raised:
                Digraph(n, arcs)
            assert str(raised.value) == expected
    assert len(faults) > 20


def graph6_by_pairs(graph: Graph) -> str:
    """graph6 written pair by pair, (0,1), (0,2), (1,2), ..., for n < 63."""
    stream = "".join("1" if graph.rows[j] >> i & 1 else "0"
                     for j in range(1, graph.n) for i in range(j))
    stream += "0" * (-len(stream) % 6)
    return chr(graph.n + 63) + "".join(chr(int(stream[i:i + 6], 2) + 63)
                                       for i in range(0, len(stream), 6))


def test_graph6_codec_matches_the_pairwise_format():
    rng = random.Random(46)
    for _ in range(400):
        n = rng.choice((rng.randint(0, 10), rng.randint(10, 62)))
        p = rng.random()
        graph = Graph.from_edges(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n) if rng.random() < p])
        text = graph6_by_pairs(graph)
        assert serialize_graph6(graph) == text
        assert parse_graph6(text) == graph


def test_report_json_is_the_json_modules_text():
    rng = random.Random(47)

    def value(depth):
        roll = rng.random()
        if depth > 3 or roll < .4:
            return rng.choice([None, True, False, 0, -7, 10 ** 30, "", "a\"b\\",
                               "\n\té\U0001f600", 1.5, float("inf")])
        if roll < .7:
            return [value(depth + 1) for _ in range(rng.randint(0, 3))]
        if roll < .95:
            return {rng.choice(("x", "é", "\n", "")) + str(i): value(depth + 1)
                    for i in range(rng.randint(0, 3))}
        return {1: "an int key", None: [True]}

    def outcome(write, item, indent):
        try:
            return write(item, indent)
        except TypeError:  # keys of mixed types cannot be sorted
            return TypeError

    def by_json(item, indent):
        return json.dumps(item, indent=2, sort_keys=True).replace(
            "\n", "\n" + indent)

    for _ in range(3000):
        item, indent = value(0), rng.choice(("", "  ", "    "))
        assert outcome(_indented, item, indent) == outcome(by_json, item, indent)
