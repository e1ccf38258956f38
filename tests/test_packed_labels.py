"""Tests for the packed label index: distances, paths, entries, files."""

import random

import pytest

from repro.exceptions import IndexStorageError
from repro.graph import grid_graph, random_graph
from repro.graph.paper import paper_figure1_graph
from repro.labeling import PackedLabelIndex, build_pruned_landmark_labels
from repro.labeling.packed import NO_PARENT, _PackedSide
from repro.paths.dijkstra import dijkstra
from repro.types import INFINITY


@pytest.fixture(scope="module")
def case():
    """(graph, packed labels, all-pairs Dijkstra distances)."""
    g = random_graph(45, 3.0, rng=random.Random(33))
    dist = {s: dijkstra(g, s) for s in g.vertices()}
    return g, build_pruned_landmark_labels(g), dist


def _true(dist, s, t):
    return dist[s].get(t, INFINITY)


class TestParity:
    """The packed index against Dijkstra and its own raw buffers."""

    def test_distances_identical(self, case):
        g, packed, dist = case
        for s in range(0, g.num_vertices, 4):
            for t in range(g.num_vertices):
                assert packed.distance(s, t) == pytest.approx(_true(dist, s, t))

    def test_distance_with_hub_identical(self, case):
        g, packed, _ = case
        for s in range(0, g.num_vertices, 7):
            for t in range(0, g.num_vertices, 3):
                d, hub = packed.distance_with_hub(s, t)
                assert d == packed.distance(s, t)
                if s == t or d == INFINITY:
                    assert hub is None
                    continue
                out = {r: dd for r, dd, _ in packed.lout(s)}
                ins = {r: dd for r, dd, _ in packed.lin(t)}
                assert out[hub] + ins[hub] == d

    def test_paths_identical(self, case):
        g, packed, dist = case
        rng = random.Random(34)
        for _ in range(30):
            s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            d, path = packed.path(s, t)
            if d == INFINITY:
                assert path == []
                continue
            assert path[0] == s and path[-1] == t
            cost = sum(dict(g.neighbors_out(u))[v] for u, v in zip(path, path[1:]))
            assert cost == pytest.approx(d) == pytest.approx(_true(dist, s, t))

    def test_entries_round_trip(self, case):
        """Every entry's distance is the true hub distance; the parent is
        None exactly on the hub's own entry."""
        g, packed, dist = case
        for v in range(g.num_vertices):
            for rank, d, parent in packed.lin(v):
                hub = packed.hub_vertex(rank)
                assert d == pytest.approx(_true(dist, hub, v))
                assert (parent is None) == (hub == v)
            for rank, d, parent in packed.lout(v):
                hub = packed.hub_vertex(rank)
                assert d == pytest.approx(_true(dist, v, hub))
                assert (parent is None) == (hub == v)

    def test_to_index_full_unpack(self, case):
        """Unpacking every label and re-flattening it rebuilds the buffers."""
        g, packed, _ = case
        for side, entries in ((packed.lin_side(), packed.lin),
                              (packed.lout_side(), packed.lout)):
            runs = [entries(v) for v in range(g.num_vertices)]
            rebuilt = _PackedSide.from_runs(
                [[r for r, _, _ in run] for run in runs],
                [[d for _, d, _ in run] for run in runs],
                [[NO_PARENT if p is None else p for _, _, p in run]
                 for run in runs])
            for name in _PackedSide.__slots__:
                assert getattr(rebuilt, name) == getattr(side, name)

    def test_stats_match(self, case):
        g, packed, _ = case
        n = g.num_vertices
        lin = sum(len(packed.lin(v)) for v in range(n))
        lout = sum(len(packed.lout(v)) for v in range(n))
        assert packed.size_entries() == lin + lout
        assert packed.average_label_sizes() == pytest.approx((lin / n, lout / n))

    def test_unreachable(self):
        from repro.graph import from_edge_list

        g = from_edge_list(3, [(0, 1, 1.0)])
        packed = build_pruned_landmark_labels(g)
        assert packed.distance(1, 0) == INFINITY
        assert packed.path(1, 0) == (INFINITY, [])


class TestSerialization:
    def test_save_load_round_trip(self, case, tmp_path):
        g, packed, _ = case
        path = tmp_path / "labels.bin"
        written = packed.save(path)
        assert written == path.stat().st_size
        loaded = PackedLabelIndex.load(path)
        assert loaded.order == packed.order
        for v in range(g.num_vertices):
            assert loaded.lin(v) == packed.lin(v)
            assert loaded.lout(v) == packed.lout(v)

    def test_file_size_matches_layout(self, case, tmp_path):
        """Header, section table, then 8 bytes per buffer element."""
        g, packed, _ = case
        written = packed.save(tmp_path / "labels.bin")
        elements = len(packed.order) + sum(
            len(getattr(side, name)) for side in (packed.lin_side(),
                                                  packed.lout_side())
            for name in _PackedSide.__slots__)
        assert written == 48 + 16 * 9 + 8 * elements

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(IndexStorageError):
            PackedLabelIndex.load(path)

    def test_packed_memory_accounting(self, case):
        _, packed, _ = case
        assert packed.nbytes > 0

    def test_fig1_round_trip(self, tmp_path):
        g = paper_figure1_graph()
        packed = build_pruned_landmark_labels(g)
        path = tmp_path / "fig1.bin"
        packed.save(path)
        loaded = PackedLabelIndex.load(path)
        for s in g.vertices():
            for t in g.vertices():
                assert loaded.distance(s, t) == packed.distance(s, t)
