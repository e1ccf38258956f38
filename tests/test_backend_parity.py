"""Reference parity: the packed query stack against independent oracles.

The packed index rewrites every query hot path (merge joins, FindNN
cursors, FindNEN, the dis(v, t) kernel), so this suite pins it to a
reference finder that simply sorts each category by label distance
(``tests/reference_finder.py``): identical witnesses, costs, all eight
search counters and per-level examined routes for every method, on
build and mmap-attached engines, on the cold and service paths, and
after dynamic updates (where a freshly built engine is a second oracle).
Restored routes are checked as real graph paths, and the packed inverted
index is checked structurally against a plain regrouping of ``Lin``.
"""

import random
from itertools import groupby

import pytest

from reference_finder import ReferenceEngine
from repro import KOSREngine, QueryOptions, make_query
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.packed_inverted import build_packed_inverted_index
from repro.labeling.pll_unweighted import build_labels_auto

#: methods that exercise the NN-oracle stack (GSP/GSP-CH are graph-only)
PAIR_METHODS = ("KPNE", "PK", "SK", "SK-NODOM")

#: the QueryStats counters that must stay bit-identical across paths
COUNTERS = ("examined_routes", "generated_routes", "nn_queries",
            "dominated_routes", "reconsidered_routes", "max_queue_size",
            "results_found", "completed")

SK = QueryOptions(method="SK")


def assert_same_outcome(a, b):
    """Results and every search counter identical between two runs."""
    assert a.witnesses == b.witnesses
    assert a.costs == b.costs
    for field in COUNTERS:
        assert getattr(a.stats, field) == getattr(b.stats, field), field
    assert a.stats.per_level_examined == b.stats.per_level_examined


def assert_valid_routes(g, result):
    """Every restored route is a real path through its witness, in order,
    whose edge weights sum to the result's cost."""
    for item in result.results:
        route = item.route.vertices
        assert route[0] == item.witness.vertices[0]
        assert route[-1] == item.witness.vertices[-1]
        weights = [dict(g.neighbors_out(u))[v] for u, v in zip(route, route[1:])]
        assert sum(weights) == pytest.approx(item.cost)
        assert item.route.cost == pytest.approx(item.cost)
        # consecutive duplicates (one vertex covering two adjacent
        # categories) contribute no edges
        stops = [w for w, _ in groupby(item.witness.vertices)]
        it = iter(route)
        assert all(w in it for w in stops)


def reference_for(g):
    """A reference engine over freshly built labels of ``g``."""
    return ReferenceEngine(g, build_labels_auto(g))


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture(scope="module",
                params=[(11, "build"), (23, "build"), (57, "build"),
                        (11, "mmap"), (57, "mmap")],
                ids=lambda p: f"seed{p[0]}-{p[1]}")
def engines(request, tmp_path_factory):
    """(graph, engine under test, reference engine) triples.

    The ``mmap`` variants run the whole suite against an engine attached
    read-only to a saved index file, so every parity assertion (results
    AND counters, bit-identical) also pins the zero-copy path.
    """
    seed, mode = request.param
    g = _graph(seed)
    packed = KOSREngine.build(g)
    if mode == "mmap":
        path = tmp_path_factory.mktemp("idx") / f"parity_{seed}.rpli"
        packed.save_index(path)
        packed = KOSREngine.from_index_file(g, path)
    return g, packed, reference_for(g)


class TestQueryParity:
    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_witnesses_costs_counters_identical(self, engines, method):
        g, packed, ref = engines
        rng = random.Random(5)
        opts = QueryOptions(method=method)
        for _ in range(6):
            s = rng.randrange(g.num_vertices)
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            q = make_query(g, s, t, cats, k=4)
            assert_same_outcome(packed.run(q, opts), ref.run(q, opts))

    def test_parity_with_profile_enabled(self, engines):
        """Profiling must not change answers or counters."""
        g, packed, ref = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        base = ref.run(q, SK)
        for engine in (packed, ref):
            profiled = engine.run(q, SK.replace(profile=True))
            assert_same_outcome(profiled, base)

    def test_gsp_unaffected_by_backend(self, engines):
        g, packed, ref = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=1)
        gsp = QueryOptions(method="GSP")
        assert packed.run(q, gsp).costs == ref.run(q, gsp).costs
        assert packed.run(q, gsp).costs == pytest.approx(
            packed.run(q, SK).costs)

    def test_route_restoration_identical(self, engines):
        g, packed, ref = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)
        opts = SK.replace(restore_routes=True)
        a = packed.run(q, opts)
        b = ref.run(q, opts)
        assert_same_outcome(a, b)
        for ra, rb in zip(a.results, b.results):
            assert ra.route.vertices == rb.route.vertices
        assert_valid_routes(g, a)

    def test_sk_db_from_packed_engine(self, engines, tmp_path):
        """SK-DB over the packed disk shards answers exactly like SK,
        cold and warm, on witnesses, costs and every counter."""
        g, packed, _ = engines
        packed.attach_disk_store(tmp_path)
        rng = random.Random(19)
        db = QueryOptions(method="SK-DB")
        for _ in range(6):
            cats = rng.sample(range(g.num_categories), 3)
            q = make_query(g, rng.randrange(g.num_vertices),
                           rng.randrange(g.num_vertices), cats, k=3)
            sk = packed.run(q, SK)
            assert_same_outcome(packed.run(q, db), sk)
            assert_same_outcome(packed.service.run(q, db), sk)

    def test_dij_backend_matches_label_on_packed_engine(self, engines):
        g, packed, _ = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        dij = QueryOptions(method="PK", nn_backend="dij-restart")
        assert packed.run(q, dij).costs == pytest.approx(
            packed.run(q, QueryOptions(method="PK")).costs)


def _regrouped_lin(g, labels, cid):
    """``IL(cid)`` as plain hub -> sorted ``(dist, member)`` lists."""
    lists = {}
    for m in g.members(cid):
        for rank, dist, _ in labels.lin(m):
            lists.setdefault(labels.hub_vertex(rank), []).append((dist, m))
    return {hub: sorted(entries) for hub, entries in lists.items()}


class TestPackedInvertedParity:
    @pytest.fixture(scope="class")
    def case(self):
        g = _graph(91)
        return g, build_labels_auto(g)

    def test_hub_lists_identical(self, case):
        g, labels = case
        for cid in range(g.num_categories):
            expected = _regrouped_lin(g, labels, cid)
            packed = build_packed_inverted_index(g, labels, cid)
            assert set(packed.slices) == set(expected)
            for hub, entries in expected.items():
                assert packed.hub_list(hub) == entries
            assert packed.as_lists() == expected

    def test_statistics_identical(self, case):
        g, labels = case
        for cid in range(g.num_categories):
            expected = _regrouped_lin(g, labels, cid)
            packed = build_packed_inverted_index(g, labels, cid)
            total = sum(len(e) for e in expected.values())
            assert packed.total_entries == total
            assert packed.num_hubs == len(expected)
            assert packed.average_list_length() == pytest.approx(
                total / len(expected))

    def test_runs_sorted_and_consistent(self, case):
        g, labels = case
        packed = build_packed_inverted_index(g, labels, 0)
        for hub, (lo, hi) in packed.slices.items():
            assert 0 <= lo < hi <= len(packed.members)
            run = list(zip(packed.dists[lo:hi], packed.members[lo:hi]))
            assert run == sorted(run)
        # rank-keyed view mirrors the vertex-keyed one
        assert sorted(packed.rank_slices.values()) == sorted(packed.slices.values())

    def test_unknown_hub_is_empty(self, case):
        g, labels = case
        packed = build_packed_inverted_index(g, labels, 0)
        assert packed.hub_slice(10 ** 9) == (0, 0)
        assert packed.hub_list(10 ** 9) == []


class TestServicePathParity:
    """The warm batch/service path answers like fresh single-query engines.

    The session cache shares FindNN streams and ``dis(·, t)`` memos
    across a batch, so these tests are the contract that warm reuse is
    observably transparent: for every method, results *and* every
    QueryStats counter from ``run_batch`` equal those of a cold
    ``engine.run`` on a freshly built engine and of the reference engine
    (the cold-equivalent accounting described in ``repro.service.cache``).
    """

    def _workload(self, g, rng, n_targets=3, per_target=3, k=3):
        queries = []
        for _ in range(n_targets):
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            for _ in range(per_target):
                queries.append(
                    make_query(g, rng.randrange(g.num_vertices), t, cats, k=k))
        return queries

    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_batch_matches_fresh_engines(self, engines, method):
        g, packed, ref = engines
        opts = QueryOptions(method=method)
        queries = self._workload(g, random.Random(29))
        batch = packed.service.run_batch(queries, opts)
        assert len(batch) == len(queries)
        for q, warm in zip(queries, batch):
            assert_same_outcome(warm, KOSREngine.build(g).run(q, opts))
            assert_same_outcome(warm, ref.run(q, opts))

    def test_batch_sk_db_matches_fresh_engines(self, engines, tmp_path):
        g, packed, _ = engines
        packed.attach_disk_store(tmp_path)
        db = QueryOptions(method="SK-DB")
        queries = self._workload(g, random.Random(31), n_targets=2)
        batch = packed.service.run_batch(queries, db)
        for q, warm in zip(queries, batch):
            fresh = KOSREngine.build(g)
            fresh._store = packed._store
            assert_same_outcome(warm, fresh.run(q, db))

    def test_gsp_via_service(self, engines):
        g, packed, _ = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=1)
        for method in ("GSP", "GSP-CH"):
            opts = QueryOptions(method=method)
            warm = packed.service.run(q, opts)
            cold = packed.run(q, opts)
            assert warm.costs == pytest.approx(cold.costs)

    def test_repeated_warm_queries_report_cold_counters(self, engines):
        """The Nth identical warm query books the same counters as the 1st."""
        g, packed, ref = engines
        q = make_query(g, 1, g.num_vertices - 2, [0, 1], k=4)
        cold = ref.run(q, SK)
        service = packed.service
        for _ in range(3):
            assert_same_outcome(service.run(q, SK), cold)

    def test_profile_mode_on_the_service_path(self, engines):
        g, packed, ref = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        opts = SK.replace(profile=True)
        warm = packed.service.run(q, opts)
        assert_same_outcome(warm, packed.run(q, opts))
        assert_same_outcome(warm, ref.run(q, opts))

    def test_batch_restores_routes(self, engines):
        g, packed, ref = engines
        queries = [make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)]
        opts = SK.replace(restore_routes=True)
        batch = packed.service.run_batch(queries, opts)
        cold = ref.run(queries[0], opts)
        assert_same_outcome(batch.results[0], cold)
        for warm_item, cold_item in zip(batch.results[0].results, cold.results):
            assert warm_item.route.vertices == cold_item.route.vertices
        assert_valid_routes(g, batch.results[0])

    def test_threaded_batch_matches_sequential(self, engines):
        g, packed, _ = engines
        queries = self._workload(g, random.Random(37))
        sequential = packed.service.run_batch(queries, SK)
        from repro.service import QueryService

        threaded = QueryService(packed).run_batch(queries, SK, max_workers=2)
        for a, b in zip(sequential, threaded):
            assert_same_outcome(a, b)
        # threaded cache stats aggregate the per-worker sessions
        assert threaded.cache_stats["finder_misses"] >= 1
        assert threaded.cache_stats["finder_hits"] >= 1

    def test_threaded_batch_with_dirty_overlays(self):
        """Pending overlay deltas are folded before workers spawn.

        Lazy cursor-time patching mutates the shared packed buffers, so
        a threaded batch over a dirty index must pre-patch (and still
        answer exactly like fresh engines).
        """
        from repro.service import QueryService

        g = _graph(41)
        engine = KOSREngine.build(g)
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert engine.inverted[0].dirty
        rng = random.Random(43)
        queries = [make_query(g, rng.randrange(g.num_vertices), t, [0, 1], k=3)
                   for t in rng.sample(range(g.num_vertices), 4)
                   for _ in range(2)]
        threaded = QueryService(engine).run_batch(queries, SK, max_workers=3)
        assert not engine.inverted[0].dirty  # folded up front
        ref = reference_for(g)
        for q, warm in zip(queries, threaded):
            assert_same_outcome(warm, KOSREngine.build(g).run(q, SK))
            assert_same_outcome(warm, ref.run(q, SK))

    def test_dij_backends_stay_cold_on_service_path(self, engines):
        """Dijkstra comparators are rebuilt per query even when warm."""
        g, packed, _ = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)
        dij = QueryOptions(method="PK", nn_backend="dij-restart")
        cold = packed.run(q, dij)
        service = packed.service
        for _ in range(2):
            assert_same_outcome(service.run(q, dij), cold)


class TestPostUpdateParity:
    """The engine stays bit-identical to its oracles *after* updates.

    Category updates land in the delta overlays; the reference engine
    shares the graph, so it reads the updated memberships directly.  A
    freshly built engine over the updated graph is the second oracle.
    """

    def _twin_engines(self, seed=77):
        g = _graph(seed)
        return g, KOSREngine.build(g), reference_for(g)

    def _assert_parity(self, g, packed, ref, rng, rounds=6):
        fresh = KOSREngine.build(g)
        for _ in range(rounds):
            s = rng.randrange(g.num_vertices)
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            for method in ("SK", "PK"):
                opts = QueryOptions(method=method)
                q = make_query(g, s, t, cats, k=3)
                a = packed.run(q, opts)
                assert_same_outcome(a, ref.run(q, opts))
                assert_same_outcome(a, fresh.run(q, opts))

    def test_parity_after_category_insert_and_remove(self):
        g, packed, ref = self._twin_engines()
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        packed.add_vertex_to_category(outsider, 0)
        assert g.has_category(outsider, 0)
        self._assert_parity(g, packed, ref, random.Random(3))

        member = sorted(g.members(1))[0]
        packed.remove_vertex_from_category(member, 1)
        self._assert_parity(g, packed, ref, random.Random(4))

        # Table IX statistics match a fresh build of every category.
        for cid in range(g.num_categories):
            fresh = build_packed_inverted_index(g, packed.labels, cid)
            assert packed.inverted[cid].total_entries == fresh.total_entries
            assert packed.inverted[cid].num_hubs == fresh.num_hubs

    def test_parity_after_edge_update_stays_packed(self):
        from repro.labeling.packed import PackedLabelIndex

        g, packed, _ = self._twin_engines(78)
        packed.update_edge(0, g.num_vertices - 1, 0.75)
        assert isinstance(packed.labels, PackedLabelIndex)
        self._assert_parity(g, packed, reference_for(g), random.Random(5))

    def test_compact_preserves_results(self):
        g, packed, ref = self._twin_engines(79)
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        packed.add_vertex_to_category(outsider, 0)
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        before = packed.run(q, SK)
        packed.compact()
        after = packed.run(q, SK)
        assert_same_outcome(before, after)
        assert_same_outcome(after, ref.run(q, SK))
        assert not packed.inverted[0].dirty

    def test_updates_detach_stale_disk_store(self, tmp_path):
        """SK-DB must not silently serve pre-update shards."""
        from repro.exceptions import QueryError

        g, packed, _ = self._twin_engines(83)
        packed.attach_disk_store(tmp_path)
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        packed.add_vertex_to_category(outsider, 0)
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)
        db = QueryOptions(method="SK-DB")
        with pytest.raises(QueryError, match="attach_disk_store"):
            packed.run(q, db)
        # re-attaching refreshes the shards with the updated indexes
        packed.attach_disk_store(tmp_path)
        assert_same_outcome(packed.run(q, db), packed.run(q, SK))

    def test_overlay_ratio_survives_edge_update(self):
        g = _graph(85)
        engine = KOSREngine.build(g, overlay_ratio=0.5)
        assert all(il.overlay_ratio == 0.5 for il in engine.inverted.values())
        engine.update_edge(0, g.num_vertices - 1, 2.0)
        assert all(il.overlay_ratio == 0.5 for il in engine.inverted.values())

    def test_update_guard_validates_every_category(self):
        """The fail-fast guard inspects *all* indexes, not just the first."""
        from repro.exceptions import IndexBuildError
        from repro.labeling.updates import add_vertex_to_category

        g, packed, _ = self._twin_engines(81)
        last_cid = max(packed.inverted)
        packed.inverted[last_cid] = object()  # pollute a *non-first* slot
        victim = next(v for v in range(g.num_vertices)
                      if not g.has_category(v, 0))
        with pytest.raises(IndexBuildError, match="PackedInvertedIndex"):
            add_vertex_to_category(g, packed.labels, packed.inverted, victim, 0)
        # The guard fires before F(v) is touched.
        assert not g.has_category(victim, 0)
