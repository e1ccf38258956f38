"""Tests for the NN oracles: FindNN (Alg. 3), FindNEN (Alg. 4), Dijkstra NN."""

import random

import pytest

from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph, vertex
from repro.labeling import build_packed_inverted_indexes, build_pruned_landmark_labels
from repro.nn import DijkstraNNFinder, EstimatedNNFinder, PackedLabelNNFinder
from repro.paths.dijkstra import dijkstra
from repro.types import INFINITY


@pytest.fixture(scope="module")
def fig1_setup():
    g = paper_figure1_graph()
    labels = build_pruned_landmark_labels(g)
    inverted = build_packed_inverted_indexes(g, labels)
    return g, labels, inverted


@pytest.fixture(scope="module")
def random_setup():
    g = random_graph(60, 3.0, rng=random.Random(21))
    assign_uniform_categories(g, 3, 12, random.Random(22))
    labels = build_pruned_landmark_labels(g)
    inverted = build_packed_inverted_indexes(g, labels)
    return g, labels, inverted


def enumerate_all(finder, source, category):
    out = []
    x = 1
    while True:
        res = finder.find(source, category, x)
        if res is None:
            return out
        out.append(res)
        x += 1


class TestLabelNN:
    def test_example4_nearest_of_s_in_ma(self, fig1_setup):
        g, labels, inverted = fig1_setup
        finder = PackedLabelNNFinder(labels, inverted)
        ma = g.category_id("MA")
        assert finder.find(vertex("s"), ma, 1) == (vertex("a"), 8.0)

    def test_example5_second_nearest_of_s_in_ma(self, fig1_setup):
        g, labels, inverted = fig1_setup
        finder = PackedLabelNNFinder(labels, inverted)
        ma = g.category_id("MA")
        finder.find(vertex("s"), ma, 1)
        assert finder.find(vertex("s"), ma, 2) == (vertex("c"), 10.0)
        assert finder.find(vertex("s"), ma, 3) is None

    def test_matches_dijkstra_knn_everywhere(self, random_setup):
        g, labels, inverted = random_setup
        finder = PackedLabelNNFinder(labels, inverted)
        for source in range(0, g.num_vertices, 9):
            for cid in range(g.num_categories):
                dist = dijkstra(g, source)
                expected = sorted(
                    (dist[m], m) for m in g.members(cid) if m in dist
                )
                got = enumerate_all(finder, source, cid)
                assert [d for _, d in got] == pytest.approx(
                    [d for d, _ in expected]
                )
                assert {v for v, _ in got} == {m for _, m in expected}

    def test_nl_cache_hits_not_counted(self, random_setup):
        g, labels, inverted = random_setup
        finder = PackedLabelNNFinder(labels, inverted)
        finder.find(0, 0, 3)
        queries_after_first = finder.queries
        finder.find(0, 0, 1)
        finder.find(0, 0, 2)
        finder.find(0, 0, 3)
        assert finder.queries == queries_after_first

    def test_duplicate_members_through_two_hubs_skipped(self, random_setup):
        g, labels, inverted = random_setup
        finder = PackedLabelNNFinder(labels, inverted)
        for source in range(0, g.num_vertices, 7):
            got = enumerate_all(finder, source, 1)
            members = [v for v, _ in got]
            assert len(members) == len(set(members)), "no member may repeat"

    def test_source_in_category_is_own_nearest(self, random_setup):
        g, labels, inverted = random_setup
        finder = PackedLabelNNFinder(labels, inverted)
        member = next(iter(g.members(0)))
        assert finder.find(member, 0, 1) == (member, 0.0)

    def test_distance_delegates_to_labels(self, random_setup):
        g, labels, inverted = random_setup
        finder = PackedLabelNNFinder(labels, inverted)
        assert finder.distance(3, 9) == labels.distance(3, 9)

    def test_empty_category(self, random_setup):
        g, labels, inverted = random_setup
        cid = g.add_category("empty")
        finder = PackedLabelNNFinder(labels, build_packed_inverted_indexes(g, labels))
        assert finder.find(0, cid, 1) is None


class TestDijkstraNN:
    @pytest.mark.parametrize("mode", ["restart", "resume"])
    def test_matches_label_nn(self, random_setup, mode):
        g, labels, inverted = random_setup
        label_finder = PackedLabelNNFinder(labels, inverted)
        dij_finder = DijkstraNNFinder(g, mode=mode)
        for source in (0, 13, 27):
            for cid in range(g.num_categories):
                a = enumerate_all(label_finder, source, cid)
                b = enumerate_all(dij_finder, source, cid)
                assert [d for _, d in a] == pytest.approx([d for _, d in b])

    def test_restart_recounts_each_new_x(self, random_setup):
        g, _, _ = random_setup
        finder = DijkstraNNFinder(g, mode="restart")
        finder.find(0, 0, 1)
        finder.find(0, 0, 2)
        assert finder.queries == 2
        finder.find(0, 0, 1)  # memo hit
        assert finder.queries == 2

    def test_resume_counts_only_new_work(self, random_setup):
        g, _, _ = random_setup
        finder = DijkstraNNFinder(g, mode="resume")
        finder.find(0, 0, 3)
        q = finder.queries
        finder.find(0, 0, 2)
        assert finder.queries == q

    def test_invalid_mode(self, random_setup):
        with pytest.raises(ValueError):
            DijkstraNNFinder(random_setup[0], mode="bogus")


class TestEstimatedNN:
    def test_order_is_by_leg_plus_estimate(self, random_setup):
        g, labels, inverted = random_setup
        target = 5
        base = PackedLabelNNFinder(labels, inverted)
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, target))
        for source in (0, 11, 23):
            for cid in range(g.num_categories):
                got = []
                x = 1
                while True:
                    res = est.find(source, cid, x)
                    if res is None:
                        break
                    got.append(res)
                    x += 1
                estimates = [e for _, _, e in got]
                assert estimates == sorted(estimates)
                expected = sorted(
                    labels.distance(source, m) + labels.distance(m, target)
                    for m in g.members(cid)
                    if labels.distance(source, m) != INFINITY
                    and labels.distance(m, target) != INFINITY
                )
                assert estimates == pytest.approx(expected)

    def test_members_unreachable_to_target_dropped(self, fig1_setup):
        g, labels, inverted = fig1_setup
        base = PackedLabelNNFinder(labels, inverted)
        # target f: no vertex reaches f except e (and f itself); MA members
        # a and c must both be dropped when estimating towards f... a reaches
        # f via e, c cannot (c -> b -> s -> a -> e -> f exists). Use a graph
        # fact: everything reaching e reaches f, so check with target s:
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, vertex("s")))
        ma = g.category_id("MA")
        got = []
        x = 1
        while True:
            res = est.find(vertex("s"), ma, x)
            if res is None:
                break
            got.append(res)
            x += 1
        assert [v for v, _, _ in got]  # both malls can reach s
        assert all(e != INFINITY for _, _, e in got)

    def test_enl_cache_stable(self, random_setup):
        g, labels, inverted = random_setup
        base = PackedLabelNNFinder(labels, inverted)
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, 3))
        first = est.find(0, 0, 2)
        again = est.find(0, 0, 2)
        assert first == again

    def test_example6_first_estimated_neighbor(self, fig1_setup):
        """Example 6: the 1st nearest *estimated* neighbor of s in MA is c
        (10 + 7 = 17 beats a's 8 + 12 = 20)."""
        g, labels, inverted = fig1_setup
        base = PackedLabelNNFinder(labels, inverted)
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, vertex("t")))
        ma = g.category_id("MA")
        first = est.find(vertex("s"), ma, 1)
        assert first[0] == vertex("c")
        assert first[2] == 17.0
        second = est.find(vertex("s"), ma, 2)
        assert second[0] == vertex("a")
        assert second[2] == 20.0
