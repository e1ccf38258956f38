"""Tests for BFS-based PLL on unit-weight graphs."""

import hashlib
import random
import time
from array import array

import pytest

from repro.graph import from_edge_list, random_graph
from repro.graph.generators import cal, gplus, social_network
from repro.labeling import build_pruned_landmark_labels
from repro.labeling.pll_unweighted import (
    build_bfs_labels,
    build_labels_auto,
    graph_is_unit_weight,
)
from repro.paths.dijkstra import dijkstra
from repro.types import INFINITY


@pytest.fixture(scope="module")
def unit_graph():
    g = random_graph(50, 3.0, rng=random.Random(9))
    g.set_unit_weights()
    return g


class TestDetection:
    def test_unit_weight_detected(self, unit_graph):
        assert graph_is_unit_weight(unit_graph)

    def test_weighted_rejected(self):
        g = from_edge_list(2, [(0, 1, 2.0)])
        assert not graph_is_unit_weight(g)
        with pytest.raises(ValueError):
            build_bfs_labels(g)

    def test_gplus_analogue_is_unit(self):
        assert graph_is_unit_weight(gplus(scale=0.05))


class TestCorrectness:
    def test_distances_match_dijkstra(self, unit_graph):
        labels = build_bfs_labels(unit_graph)
        for s in range(0, 50, 7):
            dist = dijkstra(unit_graph, s)
            for t in range(50):
                assert labels.distance(s, t) == dist.get(t, INFINITY)

    def test_distances_match_dijkstra_pll(self, unit_graph):
        bfs = build_bfs_labels(unit_graph)
        dij = build_pruned_landmark_labels(unit_graph)
        for s in range(0, 50, 5):
            for t in range(50):
                assert bfs.distance(s, t) == dij.distance(s, t)

    def test_paths_walkable(self, unit_graph):
        labels = build_bfs_labels(unit_graph)
        rng = random.Random(10)
        for _ in range(20):
            s, t = rng.randrange(50), rng.randrange(50)
            cost, path = labels.path(s, t)
            if cost != INFINITY:
                assert len(path) == int(cost) + 1
                for a, b in zip(path, path[1:]):
                    assert unit_graph.has_edge(a, b)

    def test_disconnected(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        labels = build_bfs_labels(g)
        assert labels.distance(0, 2) == INFINITY


class TestAutoSelection:
    def test_auto_uses_bfs_for_unit(self, unit_graph):
        auto = build_labels_auto(unit_graph)
        explicit = build_bfs_labels(unit_graph)
        for v in range(unit_graph.num_vertices):
            assert auto.lin(v) == explicit.lin(v)

    def test_auto_falls_back_for_weighted(self):
        g = from_edge_list(3, [(0, 1, 2.5), (1, 2, 1.0)])
        labels = build_labels_auto(g)
        assert labels.distance(0, 2) == 3.5

    def test_empty_graph_handled(self):
        from repro.graph import Graph

        labels = build_labels_auto(Graph(3))
        assert labels.distance(0, 1) == INFINITY


class TestPerformance:
    def test_bfs_not_slower_than_dijkstra_pll(self):
        g = social_network(250, attach=6, seed=4)
        t0 = time.perf_counter()
        build_bfs_labels(g)
        bfs_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        build_pruned_landmark_labels(g)
        dij_time = time.perf_counter() - t0
        assert bfs_time < dij_time * 1.5  # generous: just not pathological


def _label_digest(labels) -> str:
    """SHA-256 over the order and both sides' four label buffers."""
    h = hashlib.sha256()
    h.update(array("q", labels.order).tobytes())
    for side in (labels.lin_side(), labels.lout_side()):
        h.update(array("q", side.offsets).tobytes())
        h.update(array("q", side.hub_ranks).tobytes())
        h.update(array("d", side.dists).tobytes())
        h.update(array("q", side.parents).tobytes())
    return h.hexdigest()


#: digests of the label buffers the builders produced before the dense
#: per-root pruning array replaced the per-search dict (identical
#: rank/dist/parent runs are the contract of that change)
CAL_DIGEST = "ca2ea82858d61557179a9727f3c7bdb51cf824ac09138b760ca49df76ec2d747"
GPLUS_DIGEST = "46ec495072cce739c9b1ffccd2d64a68058da1075cd40c917e0e4ff686d39f68"


class TestLabelDigest:
    @pytest.mark.parametrize("builder", [build_pruned_landmark_labels,
                                         build_labels_auto])
    def test_weighted_graph_labels_unchanged(self, builder):
        assert _label_digest(builder(cal(scale=0.25))) == CAL_DIGEST

    @pytest.mark.parametrize("builder", [build_bfs_labels,
                                         build_pruned_landmark_labels,
                                         build_labels_auto])
    def test_unit_weight_graph_labels_unchanged(self, builder):
        assert _label_digest(builder(gplus(scale=0.2))) == GPLUS_DIGEST
