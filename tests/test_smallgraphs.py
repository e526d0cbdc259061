import random

import pytest
from conftest import adjacency_mask_by_scan, canonical_mask_by_scan

from compnum.graph import Graph
from compnum.smallgraphs import enumerate_small_graphs, graph_from_mask

KNOWN_COUNTS = {1: (1, 1), 2: (2, 1), 3: (4, 2), 4: (11, 6),
                5: (34, 21), 6: (156, 112)}


@pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
def test_class_counts(n):
    total, connected = KNOWN_COUNTS[n]
    assert sum(1 for _ in enumerate_small_graphs(n)) == total
    assert sum(1 for g in enumerate_small_graphs(n)
               if g.is_connected()) == connected


def test_representatives_are_canonical_and_ordered():
    for n in range(1, 6):
        masks = [adjacency_mask_by_scan(g) for g in enumerate_small_graphs(n)]
        assert masks == sorted(masks)
        for g, m in zip(enumerate_small_graphs(n), masks):
            assert canonical_mask_by_scan(g) == m


def test_canonical_graph_invariant_under_relabeling():
    # a graph and any relabelling of it share the one representative
    # enumeration yields for their class
    representatives = {n: {adjacency_mask_by_scan(g)
                           for g in enumerate_small_graphs(n)}
                       for n in range(1, 7)}
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        mask = rng.getrandbits(n * (n - 1) // 2)
        g = graph_from_mask(n, mask)
        relabeled = Graph.from_edges(
            n, [(min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in g.edges()])
        canonical = canonical_mask_by_scan(g)
        assert canonical == canonical_mask_by_scan(relabeled)
        assert canonical in representatives[n]


def test_enumeration_cap():
    with pytest.raises(ValueError, match="capped at 6 vertices"):
        list(enumerate_small_graphs(7))
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        list(enumerate_small_graphs(-1))
    for n in (2.0, True):
        with pytest.raises(ValueError, match="^n must be an int$"):
            list(enumerate_small_graphs(n))


def test_zero_and_one_vertex():
    assert [g.n for g in enumerate_small_graphs(0)] == [0]
    assert [g.n for g in enumerate_small_graphs(1)] == [1]
