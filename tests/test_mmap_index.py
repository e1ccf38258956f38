"""The single-file packed index: format, zero-copy views, shared fleets.

Covers the RPLI v2 on-disk format (fixed layout, offset-indexed — no
per-entry decode on load), the read-only mmap attachment path
(:mod:`repro.labeling.mmap_index`), hardened load error paths
(truncated/corrupted files fail with the offending path and byte
offset), resident-vs-serialized memory accounting, copy-on-write
materialization under updates, and the sharded build-once/attach-many
worker fleet.
"""

import os
import pickle
import random
import struct

import pytest

from repro import KOSREngine, QueryOptions, make_query
from repro.exceptions import IndexBuildError, IndexStorageError, QueryError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.mmap_index import (
    MmapIndexFile,
    MmapInvertedIndex,
    MmapLabelIndex,
)
from repro.labeling.packed import PackedLabelIndex, write_index_file
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_index,
)
from repro.labeling.storage import CategoryShard, CategoryShardStore


def _graph(seed: int, n: int = 36, cats: int = 4, size: int = 6):
    g = random_graph(n, avg_out_degree=2.7, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A built packed engine plus its saved single-file index."""
    g = _graph(7)
    engine = KOSREngine.build(g)
    path = tmp_path_factory.mktemp("idx") / "index.rpli"
    written = engine.save_index(path)
    return g, engine, path, written


# ---------------------------------------------------------------------------
# Format round-trips (both readers over both writers)
# ---------------------------------------------------------------------------
class TestFormatRoundTrip:
    def test_write_size_matches_file(self, built):
        _, _, path, written = built
        assert written == os.path.getsize(path)

    def test_packed_loader_reads_engine_save(self, built):
        """The eager loader decodes a file written with inverted sections."""
        g, engine, path, _ = built
        loaded = PackedLabelIndex.load(path)
        assert list(loaded.order) == list(engine.labels.order)
        for v in (0, 1, g.num_vertices - 1):
            assert loaded.lin(v) == engine.labels.lin(v)
            assert loaded.lout(v) == engine.labels.lout(v)

    def test_mmap_reader_opens_labels_only_save(self, built, tmp_path):
        """`PackedLabelIndex.save` output opens through the mmap reader."""
        g, engine, _, _ = built
        path = tmp_path / "labels_only.rpli"
        engine.labels.save(path)
        f = MmapIndexFile.open(path)
        try:
            assert not f.has_inverted
            assert f.num_vertices == g.num_vertices
            assert f.category_ids() == []
            assert list(f.labels.order) == list(engine.labels.order)
        finally:
            f.close()

    def test_mmap_views_match_builder(self, built):
        g, engine, path, _ = built
        f = MmapIndexFile.open(path)
        try:
            assert f.has_inverted
            assert f.size_bytes == os.path.getsize(path)
            assert sorted(f.category_ids()) == sorted(engine.inverted)
            for cid, il in engine.inverted.items():
                view = f.inverted_view(cid)
                assert isinstance(view, MmapInvertedIndex)
                assert view.total_entries == il.total_entries
                assert view.num_hubs == il.num_hubs
                assert view.as_lists() == il.as_lists()
        finally:
            f.close()

    def test_missing_category_view_raises(self, built):
        _, _, path, _ = built
        f = MmapIndexFile.open(path)
        try:
            with pytest.raises(IndexStorageError):
                f.inverted_view(999)
        finally:
            f.close()

    def test_shard_store_interop(self, built, tmp_path):
        """SK-DB shards written from mmap views read back identically."""
        g, engine, path, _ = built
        f = MmapIndexFile.open(path)
        try:
            inverted = {cid: f.inverted_view(cid) for cid in f.category_ids()}
            store = CategoryShardStore(tmp_path / "shards")
            store.write_all(g, f.labels, inverted)
        finally:
            f.close()
        reread = CategoryShardStore(tmp_path / "shards")
        vertices = reread.read_vertices()
        assert vertices["order"].tolist() == list(engine.labels.order)
        for cid, il in engine.inverted.items():
            shard = CategoryShard(reread.read_category(cid))
            assert shard.inverted.as_lists() == il.as_lists()
            for v, run in shard.lout.items():
                assert list(zip(*run)) == [
                    (r, d, -1 if p is None else p)
                    for r, d, p in engine.labels.lout(v)]


# ---------------------------------------------------------------------------
# Hardened load error paths (satellite: corrupted files)
# ---------------------------------------------------------------------------
class TestCorruptFiles:
    def _save(self, tmp_path, name="base.rpli"):
        g = _graph(13, n=18, cats=2, size=4)
        engine = KOSREngine.build(g)
        path = tmp_path / name
        engine.save_index(path)
        return path

    def _assert_storage_error(self, path, excinfo):
        message = str(excinfo.value)
        assert str(path) in message
        assert "byte offset" in message

    @pytest.mark.parametrize("reader",
                             [PackedLabelIndex.load, MmapIndexFile.open])
    def test_truncated_header(self, tmp_path, reader):
        path = tmp_path / "short.rpli"
        path.write_bytes(b"RPLI\x02\x00")
        with pytest.raises(IndexStorageError) as excinfo:
            reader(path)
        self._assert_storage_error(path, excinfo)
        assert "truncated header" in str(excinfo.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpli"
        path.write_bytes(b"")
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    @pytest.mark.parametrize("reader",
                             [PackedLabelIndex.load, MmapIndexFile.open])
    def test_wrong_magic(self, tmp_path, reader):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            reader(path)
        self._assert_storage_error(path, excinfo)
        assert "(byte offset 0)" in str(excinfo.value)

    def test_future_version(self, tmp_path):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)
        assert "unsupported index version 99" in str(excinfo.value)

    def test_corrupt_offsets_table(self, tmp_path):
        """A section offset pointing past EOF names the table entry."""
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        # Entry 0 of the section table lives right after the header.
        struct.pack_into("<Q", data, 48, len(data) + 4096)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)
        assert "(byte offset 48)" in str(excinfo.value)

    def test_misaligned_section_offset(self, tmp_path):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        off = struct.unpack_from("<Q", data, 48)[0]
        struct.pack_into("<Q", data, 48, off + 3)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    def test_truncated_payload(self, tmp_path):
        path = self._save(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    def test_truncated_section_table(self, tmp_path):
        path = self._save(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:52])
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        path = self._save(tmp_path)
        other = _graph(99, n=30, cats=2, size=4)
        with pytest.raises(IndexStorageError) as excinfo:
            KOSREngine.from_index_file(other, path)
        assert "vertices" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Zero-copy attachment semantics
# ---------------------------------------------------------------------------
class TestAttachedEngine:
    def test_attach_is_mmap_backed(self, built):
        g, _, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        assert isinstance(engine.labels, MmapLabelIndex)
        assert engine.labels.is_mmap
        for il in engine.inverted.values():
            assert il.is_mmap

    def test_overlay_mutation_requires_materialize(self, built):
        g, _, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        view = next(iter(engine.inverted.values()))
        with pytest.raises(IndexBuildError):
            view.overlay_insert(0, 0, 0.0, 1)
        with pytest.raises(IndexBuildError):
            view.overlay_remove(0, 0, 0.0, 1)
        materialized = view.materialize()
        assert isinstance(materialized, PackedInvertedIndex)
        assert not getattr(materialized, "is_mmap", False)
        assert materialized.as_lists() == view.as_lists()

    def test_category_update_materializes_only_that_category(self, built):
        g, _, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        cid = 0
        v = next(v for v in range(g.num_vertices) if not g.has_category(v, cid))
        engine.add_vertex_to_category(v, cid)
        assert not getattr(engine.inverted[cid], "is_mmap", False)
        for other in engine.inverted:
            if other != cid:
                assert engine.inverted[other].is_mmap
        fresh = build_packed_inverted_index(g, engine.labels, cid)
        assert engine.inverted[cid].as_lists() == fresh.as_lists()

    def test_queries_identical_after_partial_decode(self, built):
        """Interleaved queries on builder vs attachment stay identical."""
        g, builder, path, _ = built
        attached = KOSREngine.from_index_file(g, path)
        rng = random.Random(3)
        for _ in range(10):
            s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), rng.choice((1, 2)))
            q = make_query(g, s, t, cats, k=3)
            for method in ("SK", "PK", "KPNE"):
                a = attached.run(q, QueryOptions(method=method))
                b = builder.run(q, QueryOptions(method=method))
                assert a.witnesses == b.witnesses
                assert a.costs == pytest.approx(b.costs)
                assert a.stats.nn_queries == b.stats.nn_queries
                assert a.stats.examined_routes == b.stats.examined_routes

    def test_save_index_requires_packed_backend(self, tmp_path):
        """Saving needs built indexes; there is no other representation."""
        g = _graph(21, n=16, cats=2, size=4)
        with pytest.raises(QueryError):
            KOSREngine(g).save_index(tmp_path / "unused.rpli")
        with pytest.raises(TypeError, match="backend"):
            KOSREngine.build(g, backend="object")


# ---------------------------------------------------------------------------
# Memory accounting (satellite: resident vs serialized)
# ---------------------------------------------------------------------------
class TestMemoryAccounting:
    def test_packed_resident_exceeds_serialized(self, built):
        """List-of-boxed-floats resident footprint dwarfs the flat file."""
        _, engine, _, _ = built
        labels = engine.labels
        assert labels.nbytes_serialized > 0
        assert labels.nbytes_resident > labels.nbytes_serialized
        assert labels.nbytes == labels.nbytes_resident
        for il in engine.inverted.values():
            assert il.nbytes_resident > il.nbytes_serialized > 0

    def test_mmap_resident_is_tiny(self, built):
        g, _, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        labels = engine.labels
        # memoryview slices into the file: resident cost is bookkeeping,
        # not data.
        assert labels.nbytes_resident < labels.nbytes_serialized / 4
        mem = engine.index_memory()
        assert mem["shared"] is True
        assert "backend" not in mem
        assert mem["inverted_shared"] == mem["inverted_categories"]
        assert mem["index_file_bytes"] == os.path.getsize(path)
        assert mem["total_resident"] < mem["total_serialized"]

    def test_builder_index_memory_not_shared(self, built):
        _, engine, _, _ = built
        mem = engine.index_memory()
        assert mem["shared"] is False
        assert mem["inverted_shared"] == 0
        assert mem["total_resident"] > mem["total_serialized"]

    def test_decode_grows_resident_only(self, built):
        g, _, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        before = engine.index_memory()["total_resident"]
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)
        engine.run(q, QueryOptions(method="SK"))
        after = engine.index_memory()
        assert after["total_resident"] >= before
        assert after["shared"] is True  # decode never flips to private


# ---------------------------------------------------------------------------
# Sharded fleet: build once in the parent, attach in every worker
# ---------------------------------------------------------------------------
class TestMmapFleet:
    @pytest.fixture(scope="class")
    def workload(self):
        g = _graph(31)
        engine = KOSREngine.build(g)
        rng = random.Random(17)
        queries = []
        for _ in range(10):
            s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            queries.append((s, t, cats))
        expected = [engine.run(make_query(g, s, t, cats, k=3),
                               QueryOptions(method="SK"))
                    for s, t, cats in queries]
        return g, engine, queries, expected

    def _check_fleet(self, service, g, queries, expected):
        for (s, t, cats), want in zip(queries, expected):
            got = service.run(service.make_query(s, t, cats, k=3))
            assert got.witnesses == want.witnesses
            assert got.costs == pytest.approx(want.costs)
            assert got.stats.nn_queries == want.stats.nn_queries

    def test_parent_built_temp_index_fleet(self, workload):
        from repro.shard import ShardedQueryService

        g, _, queries, expected = workload
        service = ShardedQueryService(g, 2, mmap_index=True)
        try:
            temp_path = service.index_path
            assert temp_path is not None and os.path.exists(temp_path)
            self._check_fleet(service, g, queries, expected)
            mem = service.index_memory()
            assert mem["shared"] is True
            assert mem["num_shards"] == 2
            assert len(mem["shards"]) == 2
            for shard in mem["shards"]:
                assert shard["shared"] is True
                assert shard["rss_bytes"] >= 0
        finally:
            service.close()
        assert not os.path.exists(temp_path)  # parent unlinks its temp file

    def test_attach_fleet_to_prebuilt_file(self, workload):
        from repro.shard import ShardedQueryService

        g, engine, queries, expected = workload
        import tempfile

        fd, path = tempfile.mkstemp(suffix=".rpli")
        os.close(fd)
        try:
            engine.save_index(path)
            service = ShardedQueryService(g, 2, index_path=path)
            try:
                self._check_fleet(service, g, queries, expected)
            finally:
                service.close()
            assert os.path.exists(path)  # caller-owned file survives close
        finally:
            os.unlink(path)

    def test_fleet_updates_materialize_and_stay_correct(self, workload):
        from repro.shard import ShardedQueryService

        g0, _, _, _ = workload
        # Private graph copy: updates here must not leak into `workload`.
        g = _graph(31)
        service = ShardedQueryService(g, 2, mmap_index=True)
        try:
            cid = 0
            v = next(v for v in range(g.num_vertices)
                     if not g.has_category(v, cid))
            service.add_vertex_to_category(v, cid)
            reference = KOSREngine.build(g)
            q = service.make_query(0, g.num_vertices - 1, [0, 1], k=3)
            got = service.run(q)
            want = reference.run(q, QueryOptions(method="SK"))
            assert got.witnesses == want.witnesses
            assert got.costs == pytest.approx(want.costs)
            assert got.stats.nn_queries == want.stats.nn_queries
        finally:
            service.close()
        assert g0.num_vertices == g.num_vertices

    def test_mismatched_graph_rejected(self, workload, tmp_path):
        from repro.shard import ShardedQueryService

        g, engine, _, _ = workload
        path = tmp_path / "fleet.rpli"
        engine.save_index(path)
        other = _graph(99, n=12, cats=2, size=3)
        with pytest.raises(QueryError):
            ShardedQueryService(other, 2, index_path=str(path))

    def test_mmap_index_requires_packed_backend(self, workload):
        from repro.shard import ShardedQueryService

        g, _, _, _ = workload
        with pytest.raises(TypeError, match="backend"):
            ShardedQueryService(g, 2, mmap_index=True, backend="object")


# ---------------------------------------------------------------------------
# Pipe framing (satellite: pinned pickle protocol)
# ---------------------------------------------------------------------------
class TestPipeFraming:
    def test_protocol_is_highest(self):
        from repro.shard.worker import PIPE_PICKLE_PROTOCOL

        assert PIPE_PICKLE_PROTOCOL == pickle.HIGHEST_PROTOCOL

    def test_round_trip_over_real_pipe(self):
        import multiprocessing as mp

        from repro.shard.worker import pipe_recv, pipe_send

        a, b = mp.Pipe()
        payload = {"rows": [[float(i), i] for i in range(100)], "ok": True}
        pipe_send(a, payload)
        assert pipe_recv(b) == payload
        a.close()
        b.close()
