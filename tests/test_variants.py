"""Tests for the Sec. IV-C query variants."""

import random

import pytest

from repro import (
    KOSREngine,
    brute_force_kosr,
    kosr_with_preferences,
    kosr_without_destination,
    kosr_without_source,
    make_query,
    pruning_kosr,
)
from repro.core.stats import QueryStats
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import names, paper_figure1_graph, vertex
from repro.nn.label_nn import PackedLabelNNFinder


@pytest.fixture(scope="module")
def fig1():
    return paper_figure1_graph()


@pytest.fixture(scope="module")
def fig1_engine(fig1):
    return KOSREngine.build(fig1)


class TestNoSource:
    def test_best_start_found(self, fig1):
        results = kosr_without_source(fig1, vertex("t"), ["RE", "CI"], k=2)
        # Starting at any restaurant: best is b -> d -> t = 3 + 4 = 7.
        assert results[0].cost == 7.0
        assert names(results[0].witness.vertices) == ("b", "d", "t")

    def test_matches_min_over_fixed_sources(self, fig1):
        re_members = sorted(fig1.members(fig1.category_id("RE")))
        per_source = []
        for m in re_members:
            q = make_query(fig1, m, vertex("t"), ["CI"], 1)
            got = brute_force_kosr(fig1, q)
            if got:
                per_source.append(got[0].cost)
        expected = min(per_source)
        results = kosr_without_source(fig1, vertex("t"), ["RE", "CI"], k=1)
        assert results[0].cost == expected

    def test_seeded_queue_equivalent(self, fig1, fig1_engine):
        """The paper's formulation (seed the queue with all C1 members)
        matches the virtual-vertex reduction."""
        re = fig1.category_id("RE")
        ci = fig1.category_id("CI")
        # Seeded run: query whose "source" slot is unused.
        finder = PackedLabelNNFinder(fig1_engine.labels, fig1_engine.inverted)
        q = make_query(fig1, vertex("b"), vertex("t"), [ci], 2)
        seeded = pruning_kosr(
            q, finder, QueryStats(),
            sources=[(m, 0.0) for m in sorted(fig1.members(re))],
        )
        reduced = kosr_without_source(fig1, vertex("t"), ["RE", "CI"], k=2)
        assert [r.cost for r in seeded] == [r.cost for r in reduced]


class TestNoDestination:
    def test_route_ends_after_last_category(self, fig1):
        results = kosr_without_destination(fig1, vertex("s"), ["MA", "RE"], k=1)
        # s -> a (8) -> b (5) = 13 is the cheapest mall-then-restaurant trip.
        assert results[0].cost == 13.0
        assert names(results[0].witness.vertices) == ("s", "a", "b")

    def test_sk_agrees_with_pk(self, fig1):
        pk = kosr_without_destination(fig1, vertex("s"), ["MA", "RE"], k=3,
                                      method="PK")
        sk = kosr_without_destination(fig1, vertex("s"), ["MA", "RE"], k=3,
                                      method="SK")
        assert [r.cost for r in pk] == [r.cost for r in sk]

    def test_matches_min_over_fixed_destinations(self, fig1):
        re_members = sorted(fig1.members(fig1.category_id("RE")))
        best = min(
            brute_force_kosr(
                fig1, make_query(fig1, vertex("s"), m, ["MA", "RE"], 1)
            )[0].cost
            for m in re_members
            # route to m itself passing MA then RE: witness ends at RE vertex m
        )
        results = kosr_without_destination(fig1, vertex("s"), ["MA", "RE"], k=1)
        assert results[0].cost <= best


class TestPreferences:
    def test_exclude_preferred_restaurant(self, fig1, fig1_engine):
        """Alice prefers restaurant e: restrict RE to {e}."""
        e = vertex("e")
        res = kosr_with_preferences(
            fig1_engine, vertex("s"), vertex("t"), ["MA", "RE", "CI"],
            predicates={"RE": lambda v: v == e}, k=2, method="SK",
        )
        assert res.costs[0] == 21.0  # s a e d t
        for witness in res.witnesses:
            assert e in witness

    def test_predicate_on_multiple_categories(self, fig1, fig1_engine):
        a, d = vertex("a"), vertex("d")
        res = kosr_with_preferences(
            fig1_engine, vertex("s"), vertex("t"), ["MA", "RE", "CI"],
            predicates={"MA": lambda v: v == a, "CI": lambda v: v == d},
            k=5, method="PK",
        )
        for witness in res.witnesses:
            assert witness[1] == a and witness[3] == d

    def test_unsatisfiable_predicate_yields_empty(self, fig1, fig1_engine):
        res = kosr_with_preferences(
            fig1_engine, vertex("s"), vertex("t"), ["MA", "RE"],
            predicates={"MA": lambda v: False}, k=2,
        )
        assert res.results == []

    def test_matches_filtered_brute_force(self):
        g = random_graph(25, 3.0, rng=random.Random(31))
        assign_uniform_categories(g, 2, 8, random.Random(32))
        engine = KOSREngine.build(g)
        allowed = set(sorted(g.members(0))[:3])
        res = kosr_with_preferences(
            engine, 0, 9, [0, 1], predicates={0: lambda v: v in allowed}, k=4,
        )
        # Brute force on a copy whose category 0 is restricted to `allowed`.
        g2 = g.copy()
        for m in list(g2.members(0)):
            if m not in allowed:
                g2.unassign_category(m, 0)
        expected = brute_force_kosr(g2, make_query(g2, 0, 9, [0, 1], 4))
        assert res.costs == pytest.approx([r.cost for r in expected])

    def test_unsupported_method_rejected(self, fig1_engine):
        with pytest.raises(ValueError):
            kosr_with_preferences(
                fig1_engine, vertex("s"), vertex("t"), ["MA"],
                predicates={}, method="GSP",
            )
