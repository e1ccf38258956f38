"""The query service layer: planner registry, session cache, batches.

Covers the contracts the engine facade now rests on:

* the planner resolves every method to a registered executor with
  declared needs and rejects unknown names;
* the epoch-versioned session cache reuses finders / dest kernels within
  an epoch and drops everything when updates or compaction move it;
* SK-DB error paths (no attached store, missing shard on disk) surface
  the right exceptions on both the cold and warm paths;
* ``strict_budget`` interacts correctly with both guard kinds, including
  ``time_budget_s`` deadlines;
* an interleaved update/batch fuzz pins warm execution to fresh
  single-query engines — bit-identical results and counters — right
  through ``update_edge`` and ``compact``.
"""

import json
import random

import pytest

from repro import (
    BudgetExceededError,
    KOSREngine,
    QueryOptions,
    QueryService,
    make_query,
)
from repro.exceptions import IndexStorageError, QueryError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.service import executor_specs, resolve_plan
from repro.service.cache import SessionCache

from test_backend_parity import assert_same_outcome


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture(scope="module")
def engine():
    return KOSREngine.build(_graph(13))


class TestPlanner:
    def test_every_method_has_an_executor(self):
        from repro.core.engine import METHODS

        specs = executor_specs()
        assert set(specs) == set(METHODS)

    def test_declared_needs(self):
        specs = executor_specs()
        assert specs["SK"].needs_finder and not specs["SK"].needs_disk
        assert specs["SK-DB"].needs_disk and not specs["SK-DB"].needs_finder
        assert specs["GSP-CH"].needs_ch
        assert not specs["GSP"].needs_finder

    def test_unknown_method_rejected(self):
        with pytest.raises(QueryError, match="unknown method"):
            resolve_plan("NOPE")

    def test_unknown_backend_rejected(self):
        """There is one index representation: no index-backend axis."""
        with pytest.raises(TypeError, match="backend"):
            resolve_plan("SK", backend="packed")

    def test_unknown_nn_backend_rejected_only_for_finder_methods(self):
        with pytest.raises(QueryError, match="unknown NN backend"):
            resolve_plan("SK", nn_backend="psychic")
        # GSP ignores the oracle axis (historical engine behaviour)
        assert resolve_plan("GSP", nn_backend="psychic").method == "GSP"

    def test_plans_are_value_objects(self):
        assert resolve_plan("SK") == resolve_plan("SK")
        assert resolve_plan("SK") != resolve_plan("PK")

    def test_engine_run_rejects_unknown_method(self, engine):
        q = make_query(engine.graph, 0, 1, [0], k=1)
        with pytest.raises(QueryError, match="unknown method"):
            engine.run(q, QueryOptions(method="NOPE"))


class TestSessionCache:
    def test_finder_and_dest_kernel_reused_within_epoch(self, engine):
        service = QueryService(engine)
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)
        service.run(q, QueryOptions(method="SK"))
        service.run(q, QueryOptions(method="SK"))
        stats = service.session.stats
        assert stats.finder_misses == 1
        assert stats.finder_hits >= 1
        assert stats.dest_kernel_misses == 1
        assert stats.dest_kernel_hits >= 1

    def test_epoch_moves_on_every_update_kind(self):
        engine = KOSREngine.build(_graph(17))
        seen = {engine.index_epoch}

        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert engine.index_epoch not in seen
        seen.add(engine.index_epoch)

        engine.remove_vertex_from_category(outsider, 0)
        assert engine.index_epoch not in seen
        seen.add(engine.index_epoch)

        engine.compact()
        assert engine.index_epoch not in seen
        seen.add(engine.index_epoch)

        engine.update_edge(0, engine.graph.num_vertices - 1, 1.5)
        assert engine.index_epoch not in seen

    def test_epoch_sees_updates_behind_the_engines_back(self):
        """Direct labeling-layer mutations still move the epoch."""
        from repro.labeling.updates import add_vertex_to_category

        engine = KOSREngine.build(_graph(19))
        before = engine.index_epoch
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        add_vertex_to_category(engine.graph, engine.labels, engine.inverted,
                               outsider, 0)
        assert engine.index_epoch > before

    def test_category_update_invalidates_only_that_category(self):
        """A membership update drops the touched category's cursors only:
        the shared finder object (and other categories' streams) survive."""
        engine = KOSREngine.build(_graph(23))
        session = SessionCache(engine)
        view = session.finder_view()
        assert session.finder_view()._shared is view._shared  # warm reuse
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert session.validate() is True  # something dropped
        assert session.finder_view()._shared is view._shared  # finder kept
        assert session.stats.invalidations == 0
        assert session.stats.partial_invalidations == 1
        assert session.validate() is False  # stable again

    def test_edge_update_still_drops_everything(self):
        """A structure update moves epoch_base: wholesale invalidation."""
        engine = KOSREngine.build(_graph(23))
        session = SessionCache(engine)
        view = session.finder_view()
        u, v, w = next(iter(engine.graph.edges()))
        engine.update_edge(u, v, w * 2)
        assert session.validate() is True
        assert session.finder_view()._shared is not view._shared  # dropped
        assert session.stats.invalidations == 1
        assert session.validate() is False

    def test_lazy_query_time_patch_does_not_move_epoch(self):
        """Folding overlay deltas into buffers mid-query is physical only."""
        engine = KOSREngine.build(_graph(27))
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        epoch = engine.index_epoch
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1], k=3)
        engine.service.run(q, QueryOptions(method="SK"))  # cursors patch dirty runs
        assert engine.index_epoch == epoch

    def test_batch_result_shape(self, engine):
        g = engine.graph
        queries = [make_query(g, s, 30, [0, 1], k=2) for s in (0, 1, 2)]
        queries.append(make_query(g, 0, 31, [1, 2], k=2))
        batch = engine.service.run_batch(queries, QueryOptions(method="SK"))
        assert len(batch) == 4
        assert batch.num_groups == 2
        assert batch.unfinished == 0
        assert [r.query for r in batch] == queries  # input order kept
        assert batch.queries_per_second > 0


class TestCacheRetention:
    """Per-category invalidation: untouched categories stay warm.

    The satellite contract: after updating category A, category B's warm
    entries survive (asserted through ``SessionCache.hit_rates()`` /
    stats counters) and A's cursors are the only ones dropped — while
    answers and ``QueryStats`` on both categories stay bit-identical to
    fresh engines.
    """

    def _warm_two_categories(self):
        g = _graph(31)
        engine = KOSREngine.build(g)
        service = engine.service
        qa = make_query(g, 0, g.num_vertices - 1, [0], k=2)
        qb = make_query(g, 1, g.num_vertices - 1, [1], k=2)
        service.run(qa, QueryOptions(method="SK"))
        service.run(qb, QueryOptions(method="SK"))
        return engine, service, qa, qb

    def test_update_a_keeps_b_warm(self):
        engine, service, qa, qb = self._warm_two_categories()
        session = service.session
        cursors = session._label_finder._cursors
        assert (0, 0) in cursors and (1, 1) in cursors
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert session.validate() is True
        # A's cursor is the only thing dropped; B's stream survives.
        assert (0, 0) not in cursors
        assert (1, 1) in cursors
        assert session.stats.cursors_invalidated == 1
        assert session.stats.partial_invalidations == 1
        assert session.stats.invalidations == 0

    def test_b_hits_warm_after_a_update_with_cold_parity(self):
        engine, service, qa, qb = self._warm_two_categories()
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        before = service.session.stats.as_dict()
        warm_b = service.run(qb, QueryOptions(method="SK"))
        after = service.session.stats.as_dict()
        # The finder lookup was a hit: B was served from retained state.
        assert after["finder_hits"] == before["finder_hits"] + 1
        assert after["finder_misses"] == before["finder_misses"]
        assert service.session.hit_rates()["finder"] > 0.0
        # ... and both categories still answer exactly like fresh engines.
        fresh = KOSREngine.build(engine.graph.copy())
        assert_same_outcome(warm_b, fresh.run(qb, QueryOptions(method="SK")))
        assert_same_outcome(service.run(qa, QueryOptions(method="SK")),
                            fresh.run(qa, QueryOptions(method="SK")))

    def test_dest_kernels_and_ch_survive_category_updates(self):
        engine, service, qa, qb = self._warm_two_categories()
        session = service.session
        kernels_before = dict(session._dest_kernels)
        service.run(make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                               [0], k=1),
                    QueryOptions(method="GSP-CH"))
        ch_before = session._ch
        assert kernels_before and ch_before is not None
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 1))
        engine.add_vertex_to_category(outsider, 1)
        session.validate()
        # Labels and topology are untouched by membership changes.
        assert dict(session._dest_kernels) == kernels_before
        assert session._ch is ch_before


class TestCachePolicy:
    """LRU eviction caps on dest kernels and warm finder cursors.

    Eviction is a memory policy only: capped sessions must keep
    returning bit-identical results and counters to cold engines (the
    regenerated kernels/cursors are deterministic), while the new
    ``*_evictions`` counters surface the churn.
    """

    def _shared_target_workload(self, g, rng, targets=5, per_target=2):
        queries = []
        for _ in range(targets):
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            for _ in range(per_target):
                queries.append(
                    make_query(g, rng.randrange(g.num_vertices), t, cats, k=2))
        return queries

    def test_dest_kernels_capped_with_lru_eviction(self):
        engine = KOSREngine.build(_graph(71))
        service = QueryService(engine, max_dest_kernels=2)
        rng = random.Random(5)
        queries = self._shared_target_workload(engine.graph, rng, targets=5)
        service.run_batch(queries, QueryOptions(method="SK"))
        session = service.session
        assert len(session._dest_kernels) <= 2
        assert session.stats.dest_kernel_evictions >= 3

    def test_lru_keeps_recently_used_kernel(self):
        engine = KOSREngine.build(_graph(73))
        session = SessionCache(engine, max_dest_kernels=2)
        session.dest_kernel(10)
        session.dest_kernel(11)
        session.dest_kernel(10)          # refresh 10's recency
        session.dest_kernel(12)          # evicts 11, not 10
        assert 10 in session._dest_kernels and 12 in session._dest_kernels
        assert 11 not in session._dest_kernels
        assert session.stats.dest_kernel_evictions == 1

    def test_finder_cursors_capped(self):
        engine = KOSREngine.build(_graph(77))
        service = QueryService(engine, max_finders=3)
        rng = random.Random(7)
        queries = self._shared_target_workload(engine.graph, rng, targets=6)
        service.run_batch(queries, QueryOptions(method="SK"))
        session = service.session
        # Cursors are trimmed at the *next* query's view creation (never
        # mid-enumeration), so the cap holds at every query boundary.
        session._trim_cursors()
        assert len(session._label_finder._cursors) <= 3
        assert session.stats.cursor_evictions > 0

    @pytest.mark.parametrize("caps", [dict(max_dest_kernels=1),
                                      dict(max_finders=2),
                                      dict(max_dest_kernels=1, max_finders=1)])
    def test_capped_sessions_stay_cold_equivalent(self, caps):
        """Eviction must never change results or counters."""
        g = _graph(79)
        engine = KOSREngine.build(g)
        service = QueryService(engine, **caps)
        rng = random.Random(11)
        queries = self._shared_target_workload(g, rng, targets=4,
                                               per_target=3)
        for method in ("SK", "PK"):
            batch = service.run_batch(queries, QueryOptions(method=method))
            for q, warm in zip(queries, batch):
                cold = KOSREngine.build(g).run(q, QueryOptions(method=method))
                assert_same_outcome(warm, cold)

    def test_invalid_caps_rejected(self):
        engine = KOSREngine.build(_graph(83))
        with pytest.raises(ValueError):
            SessionCache(engine, max_dest_kernels=0)
        with pytest.raises(ValueError):
            SessionCache(engine, max_finders=0)

    def test_hit_rates_helper(self):
        engine = KOSREngine.build(_graph(87))
        service = QueryService(engine)
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)
        service.run(q, QueryOptions(method="SK"))
        service.run(q, QueryOptions(method="SK"))
        rates = service.session.stats.hit_rates()
        assert rates["finder"] == 0.5
        assert rates["dest_kernel"] == 0.5
        assert rates["disk_view"] == 0.0


class TestSkDbErrorPaths:
    def test_query_before_attach_disk_store(self, engine):
        q = make_query(engine.graph, 0, 10, [0], k=1)
        with pytest.raises(QueryError, match="attach_disk_store"):
            engine.run(q, QueryOptions(method="SK-DB"))
        with pytest.raises(QueryError, match="attach_disk_store"):
            QueryService(engine).run(q, QueryOptions(method="SK-DB"))

    def test_missing_category_shard(self, tmp_path):
        engine = KOSREngine.build(_graph(33))
        engine.attach_disk_store(tmp_path)
        (tmp_path / "category_1.pkl").unlink()
        q = make_query(engine.graph, 0, 10, [1], k=1)
        with pytest.raises(IndexStorageError, match="missing category shard"):
            engine.run(q, QueryOptions(method="SK-DB"))
        with pytest.raises(IndexStorageError, match="missing category shard"):
            QueryService(engine).run(q, QueryOptions(method="SK-DB"))

    def test_missing_vertex_label_file(self, tmp_path):
        engine = KOSREngine.build(_graph(35))
        engine.attach_disk_store(tmp_path)
        (tmp_path / "vertices.pkl").unlink()
        q = make_query(engine.graph, 0, 10, [0], k=1)
        with pytest.raises(IndexStorageError, match="missing vertex label"):
            QueryService(engine).run(q, QueryOptions(method="SK-DB"))

    def test_reattach_resets_warm_disk_state(self, tmp_path):
        engine = KOSREngine.build(_graph(37))
        engine.attach_disk_store(tmp_path / "a")
        service = QueryService(engine)
        q = make_query(engine.graph, 0, 10, [0, 1], k=2)
        first = service.run(q, QueryOptions(method="SK-DB"))
        engine.attach_disk_store(tmp_path / "b")  # new store object
        second = service.run(q, QueryOptions(method="SK-DB"))
        assert_same_outcome(first, second)
        assert service.session.stats.disk_view_misses == 2


class TestStrictBudget:
    """``strict_budget`` escalates *either* guard into an exception."""

    def test_examined_route_budget(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        with pytest.raises(BudgetExceededError):
            engine.run(q, QueryOptions(method="KPNE", budget=1, strict_budget=True))

    def test_time_budget_deadline(self, engine):
        """An already-expired deadline trips strict mode (satellite case)."""
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        with pytest.raises(BudgetExceededError):
            engine.run(q, QueryOptions(method="SK", time_budget_s=0.0,
                                       strict_budget=True))

    def test_deadline_without_strict_reports_inf(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        result = engine.run(q, QueryOptions(method="SK", time_budget_s=0.0))
        assert not result.stats.completed

    def test_generous_guards_complete(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1], k=2)
        result = engine.run(q, QueryOptions(method="SK", budget=10_000,
                                            time_budget_s=30.0,
                                            strict_budget=True))
        assert result.stats.completed

    def test_strict_budget_on_service_path(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        with pytest.raises(BudgetExceededError):
            QueryService(engine).run(q, QueryOptions(method="KPNE", budget=1,
                                                     strict_budget=True))


class TestInterleavedUpdateFuzz:
    """run_batch interleaved with updates == fresh single-query engines.

    A randomized schedule of batches, category inserts/removals, edge
    updates, and compactions; after every batch each result is replayed
    on a cold engine built from the current graph.  Bit-identical
    witnesses, costs, and counters prove the epoch invalidation never
    serves stale warm state (and never over-serves: counters would drift
    if NL hits leaked across an epoch).
    """

    METHODS = ("SK", "PK")

    def _random_batch(self, g, rng, size=6):
        queries = []
        t = rng.randrange(g.num_vertices)
        cats = rng.sample(range(g.num_categories), 2)
        for _ in range(size):
            # half the batch shares (target, cats); the rest is scattered
            if rng.random() < 0.5:
                queries.append(
                    make_query(g, rng.randrange(g.num_vertices), t, cats, k=3))
            else:
                queries.append(make_query(
                    g, rng.randrange(g.num_vertices),
                    rng.randrange(g.num_vertices),
                    rng.sample(range(g.num_categories), 2), k=3))
        return queries

    @pytest.mark.parametrize("seed", [101, 202])
    def test_fuzz(self, seed):
        rng = random.Random(seed)
        g = _graph(seed, n=36, cats=4, size=6)
        engine = KOSREngine.build(g)
        service = engine.service
        method_cycle = 0
        for step in range(10):
            op = rng.random()
            if op < 0.30:
                v = rng.randrange(g.num_vertices)
                cid = rng.randrange(g.num_categories)
                if g.has_category(v, cid) and g.category_size(cid) > 2:
                    engine.remove_vertex_from_category(v, cid)
                else:
                    engine.add_vertex_to_category(v, cid)
            elif op < 0.40:
                u, v = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
                if u != v:
                    engine.update_edge(u, v, rng.uniform(0.5, 3.0))
            elif op < 0.50:
                engine.compact()
            method = self.METHODS[method_cycle % len(self.METHODS)]
            method_cycle += 1
            queries = self._random_batch(g, rng)
            batch = service.run_batch(queries, QueryOptions(method=method))
            for q, warm in zip(queries, batch):
                cold = KOSREngine.build(g).run(q, QueryOptions(method=method))
                assert_same_outcome(warm, cold)


class TestCliBatchHelpers:
    def test_workload_parsing_accepts_list_and_wrapper(self, tmp_path):
        from repro.cli import _load_workload_records

        records = [{"source": 0, "target": 1, "categories": [0]}]
        p = tmp_path / "wl.json"
        p.write_text(json.dumps(records))
        assert _load_workload_records(str(p)) == records
        p.write_text(json.dumps({"queries": records}))
        assert _load_workload_records(str(p)) == records

    def test_workload_parsing_rejects_garbage(self, tmp_path):
        from repro.cli import _load_workload_records

        p = tmp_path / "wl.json"
        p.write_text("not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            _load_workload_records(str(p))
        p.write_text(json.dumps([{"source": 0}]))
        with pytest.raises(SystemExit, match="source/target/categories"):
            _load_workload_records(str(p))
        p.write_text(json.dumps([]))
        with pytest.raises(SystemExit, match="non-empty"):
            _load_workload_records(str(p))
