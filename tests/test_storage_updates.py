"""Tests for disk-resident label storage (SK-DB) and dynamic updates."""

import random

import pytest

from repro import KOSREngine
from repro.exceptions import IndexStorageError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling import (
    CategoryShardStore,
    DiskLabelRepository,
    add_vertex_to_category,
    build_packed_inverted_indexes,
    build_pruned_landmark_labels,
    remove_vertex_from_category,
)
from repro.labeling.packed_inverted import build_packed_inverted_index
from repro.labeling.storage import CategoryShard
from repro.labeling.updates import rebuild_after_structure_update, update_edge
from repro.nn.label_nn import DiskViewNNFinder, PackedLabelNNFinder


@pytest.fixture
def setup(tmp_path):
    g = random_graph(30, 3.0, rng=random.Random(1))
    assign_uniform_categories(g, 3, 6, random.Random(2))
    labels = build_pruned_landmark_labels(g)
    inverted = build_packed_inverted_indexes(g, labels)
    store = CategoryShardStore(tmp_path)
    store.write_all(g, labels, inverted)
    return g, labels, inverted, store


class TestShardStore:
    def test_category_shard_round_trip(self, setup):
        g, labels, inverted, store = setup
        payload = store.read_category(0)
        assert payload["members"] == sorted(g.members(0))
        shard = CategoryShard(payload)
        assert shard.inverted.as_lists() == inverted[0].as_lists()
        for v in g.members(0):
            ranks, dists, parents = shard.lin[v]
            assert [(r, d, None if p == -1 else p)
                    for r, d, p in zip(ranks, dists, parents)] == labels.lin(v)

    def test_vertex_file_round_trip(self, setup):
        g, labels, _, store = setup
        payload = store.read_vertices()
        assert payload["order"].tolist() == labels.order
        offsets, ranks, dists, parents = payload["lin"]
        assert offsets.tolist() == labels.lin_side().offsets
        assert dists.tolist() == labels.lin_side().dists

    def test_old_shard_version_rejected(self, setup, tmp_path):
        import pickle

        _, _, _, store = setup
        payload = store.read_category(0)
        payload["version"] = CategoryShardStore.VERSION - 1
        path = store.root / "category_0.pkl"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(IndexStorageError, match="version"):
            store.read_category(0)

    def test_missing_shard_raises(self, setup):
        _, _, _, store = setup
        with pytest.raises(IndexStorageError):
            store.read_category(99)

    def test_total_bytes_positive(self, setup):
        assert setup[3].total_bytes() > 0


class TestDiskRepository:
    def test_seek_accounting(self, setup):
        g, _, _, store = setup
        repo = DiskLabelRepository(store)
        repo.load_for_query([0, 1, 2], 0, 5)
        # the paper's |C| + 4 disk seeks
        assert repo.seeks == 3 + 4

    def test_view_distances_match_labels(self, setup):
        g, labels, _, store = setup
        repo = DiskLabelRepository(store)
        view = repo.load_for_query([0, 1], 3, 7)
        member = next(iter(g.members(0)))
        assert view.distance(member, 7) == labels.distance(member, 7)

    def test_view_missing_vertex_raises(self, setup):
        g, _, _, store = setup
        repo = DiskLabelRepository(store)
        view = repo.load_for_query([0], 0, 1)
        outsider = next(
            v for v in range(g.num_vertices)
            if v not in g.members(0) and v not in (0, 1)
        )
        with pytest.raises(IndexStorageError):
            view.lout(outsider)
        # the finder's per-source Lout read goes through the same check
        with pytest.raises(IndexStorageError):
            DiskViewNNFinder(view).find(outsider, 0, 1)

    def test_findnn_over_view_matches_memory(self, setup):
        g, labels, inverted, store = setup
        repo = DiskLabelRepository(store)
        view = repo.load_for_query([0, 1, 2], 0, 5)
        disk_finder = DiskViewNNFinder(view)
        mem_finder = PackedLabelNNFinder(labels, inverted)
        for x in range(1, g.category_size(1) + 2):
            assert disk_finder.find(0, 1, x) == mem_finder.find(0, 1, x)


class TestCategoryUpdates:
    def test_insert_then_query_sees_vertex(self, setup):
        g, labels, inverted, _ = setup
        outsider = next(v for v in range(g.num_vertices) if v not in g.members(0))
        add_vertex_to_category(g, labels, inverted, outsider, 0)
        assert outsider in g.members(0)
        fresh = build_packed_inverted_index(g, labels, 0)
        assert fresh.as_lists() == inverted[0].as_lists()

    def test_remove_then_index_consistent(self, setup):
        g, labels, inverted, _ = setup
        member = next(iter(g.members(0)))
        remove_vertex_from_category(g, labels, inverted, member, 0)
        assert member not in g.members(0)
        fresh = build_packed_inverted_index(g, labels, 0)
        assert fresh.as_lists() == inverted[0].as_lists()

    def test_insert_idempotent(self, setup):
        g, labels, inverted, _ = setup
        member = next(iter(g.members(0)))
        before = inverted[0].as_lists()
        add_vertex_to_category(g, labels, inverted, member, 0)
        assert inverted[0].as_lists() == before

    def test_remove_absent_is_noop(self, setup):
        g, labels, inverted, _ = setup
        outsider = next(v for v in range(g.num_vertices) if v not in g.members(1))
        before = inverted[1].as_lists()
        remove_vertex_from_category(g, labels, inverted, outsider, 1)
        assert inverted[1].as_lists() == before

    def test_nn_results_after_insert(self, setup):
        g, labels, inverted, _ = setup
        outsider = next(v for v in range(g.num_vertices) if v not in g.members(2))
        add_vertex_to_category(g, labels, inverted, outsider, 2)
        finder = PackedLabelNNFinder(labels, inverted)
        found = set()
        x = 1
        while True:
            res = finder.find(0, 2, x)
            if res is None:
                break
            found.add(res[0])
            x += 1
        reachable = {m for m in g.members(2) if labels.distance(0, m) != float("inf")}
        assert found == reachable


class TestStructureUpdates:
    def test_edge_insert_changes_distances(self, setup):
        g, labels, _, _ = setup
        # Add a zero-cost shortcut and rebuild; distance must not increase.
        before = labels.distance(0, 5)
        labels2, inverted2 = update_edge(g, 0, 5, 0.0)
        assert labels2.distance(0, 5) == 0.0
        assert 0 in dict(g.neighbors_in(5))

    def test_edge_delete(self, setup):
        g, _, _, _ = setup
        u, v, w = next(iter(g.edges()))
        labels2, _ = update_edge(g, u, v, None)
        assert not g.has_edge(u, v)
        from repro.paths.dijkstra import dijkstra_distance

        assert labels2.distance(u, v) == dijkstra_distance(g, u, v)

    def test_rebuild_matches_fresh_build(self, setup):
        g, _, _, _ = setup
        labels2, inverted2 = rebuild_after_structure_update(g)
        fresh_labels = build_pruned_landmark_labels(g)
        for s in range(0, g.num_vertices, 7):
            for t in range(g.num_vertices):
                assert labels2.distance(s, t) == fresh_labels.distance(s, t)

    def test_rebuild_emits_packed_indexes_for_packed_backend(self, setup):
        from repro.labeling.packed import PackedLabelIndex
        from repro.labeling.packed_inverted import PackedInvertedIndex

        g, labels, _, _ = setup
        labels2, inverted2 = update_edge(g, 0, 5, 0.0)
        assert isinstance(labels2, PackedLabelIndex)
        assert all(isinstance(il, PackedInvertedIndex)
                   for il in inverted2.values())
        assert labels2.distance(0, 5) == 0.0
        # same distances as a second rebuild of the same graph
        labels3, _ = rebuild_after_structure_update(g)
        for s in range(0, g.num_vertices, 7):
            for t in range(g.num_vertices):
                assert labels2.distance(s, t) == labels3.distance(s, t)
