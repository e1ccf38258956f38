"""Tests for the unified search loop's internals: traces, custom sources,
deadlines, dominance bookkeeping, and the runtime context."""

import random

import pytest

from repro import KOSREngine, QueryStats, make_query
from repro.core.runtime import QueryRuntime
from repro.core.search import sequenced_route_search
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph, vertex
from repro.nn.label_nn import PackedLabelNNFinder
from repro.types import INFINITY


@pytest.fixture(scope="module")
def fig1_case():
    g = paper_figure1_graph()
    return g, KOSREngine.build(g)


def make_runtime(engine, query, estimated=False, stats=None):
    finder = PackedLabelNNFinder(engine.labels, engine.inverted)
    return QueryRuntime(query, finder, stats or QueryStats(), estimated=estimated)


class TestTrace:
    def test_trace_records_every_pop(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA", "RE"], 2)
        trace = []
        runtime = make_runtime(engine, q)
        sequenced_route_search(runtime, use_dominance=True, estimated=False,
                               trace=trace)
        assert len(trace) == runtime.stats.examined_routes
        assert trace[0] == ((vertex("s"),), 0.0)

    def test_trace_costs_non_decreasing_without_heuristic(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 3)
        trace = []
        runtime = make_runtime(engine, q)
        sequenced_route_search(runtime, use_dominance=False, estimated=False,
                               trace=trace)
        costs = [c for _, c in trace]
        assert costs == sorted(costs), "KPNE pops by real cost"


class TestCustomSources:
    def test_multiple_sources_pick_global_best(self, fig1_case):
        g, engine = fig1_case
        ci = g.category_id("CI")
        q = make_query(g, vertex("b"), vertex("t"), [ci], 1)
        runtime = make_runtime(engine, q)
        results = sequenced_route_search(
            runtime, use_dominance=True, estimated=False,
            sources=[(vertex("b"), 0.0), (vertex("e"), 0.0)],
        )
        # b -> d -> t = 7 beats e -> d -> t = 7... both 7; either start works.
        assert results[0].cost == 7.0

    def test_source_offsets_respected(self, fig1_case):
        g, engine = fig1_case
        ci = g.category_id("CI")
        q = make_query(g, vertex("b"), vertex("t"), [ci], 1)
        runtime = make_runtime(engine, q)
        results = sequenced_route_search(
            runtime, use_dominance=True, estimated=False,
            sources=[(vertex("b"), 100.0), (vertex("e"), 0.0)],
        )
        assert results[0].witness.vertices[0] == vertex("e")

    def test_estimated_source_with_unreachable_target_skipped(self):
        g = random_graph(10, 2.0, rng=random.Random(1))
        lonely = g.add_vertex()
        cid = g.add_category("c")
        g.assign_category(1, cid)
        engine = KOSREngine.build(g)
        q = make_query(g, 0, lonely, [cid], 1)
        runtime = make_runtime(engine, q, estimated=True)
        results = sequenced_route_search(runtime, use_dominance=True,
                                         estimated=True)
        assert results == []
        assert runtime.stats.generated_routes == 0


class TestDeadline:
    def test_past_deadline_stops_immediately(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 3)
        runtime = make_runtime(engine, q)
        results = sequenced_route_search(runtime, use_dominance=False,
                                         estimated=False, deadline=0.0)
        assert not runtime.stats.completed
        assert results == []


class TestRuntime:
    def test_destination_level_nearest(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA"], 1)
        runtime = make_runtime(engine, q)
        # level 2 == destination for a one-category query
        assert runtime.nearest(vertex("d"), 2, 1) == (vertex("t"), 4.0)
        assert runtime.nearest(vertex("d"), 2, 2) is None

    def test_destination_unreachable_returns_none(self):
        g = random_graph(8, 2.0, rng=random.Random(2))
        lonely = g.add_vertex()
        cid = g.add_category("c")
        g.assign_category(0, cid)
        engine = KOSREngine.build(g)
        q = make_query(g, 0, lonely, [cid], 1)
        runtime = make_runtime(engine, q)
        assert runtime.nearest(0, 2, 1) is None

    def test_heuristic_cached_and_counted_once(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA"], 1)
        stats = QueryStats()
        runtime = make_runtime(engine, q, estimated=True, stats=stats)
        d1 = runtime.heuristic(vertex("a"))
        d2 = runtime.heuristic(vertex("a"))
        assert d1 == d2 == 12.0
        runtime.finalize_counters()
        dest_computed = stats.nn_queries
        runtime.heuristic(vertex("a"))
        runtime.finalize_counters()
        assert stats.nn_queries == dest_computed

    def test_nearest_estimated_requires_estimation_mode(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA"], 1)
        runtime = make_runtime(engine, q, estimated=False)
        with pytest.raises(RuntimeError):
            runtime.nearest_estimated(vertex("s"), 1, 1)

    def test_nearest_estimated_destination_level(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA"], 1)
        runtime = make_runtime(engine, q, estimated=True)
        assert runtime.nearest_estimated(vertex("d"), 2, 1) == (vertex("t"), 4.0, 4.0)


class TestDominanceBookkeeping:
    def test_dominated_plus_extended_covers_examined(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 2)
        stats = QueryStats()
        runtime = make_runtime(engine, q, stats=stats)
        sequenced_route_search(runtime, use_dominance=True, estimated=False)
        # every reconsidered route was once dominated
        assert stats.reconsidered_routes <= stats.dominated_routes

    def test_no_dominance_means_no_parking(self, fig1_case):
        g, engine = fig1_case
        q = make_query(g, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 2)
        stats = QueryStats()
        runtime = make_runtime(engine, q, stats=stats)
        sequenced_route_search(runtime, use_dominance=False, estimated=False)
        assert stats.dominated_routes == 0
        assert stats.reconsidered_routes == 0
