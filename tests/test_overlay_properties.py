"""Property tests for the packed backend's delta-overlay invariants.

Hypothesis drives random sequences of category inserts/removals and
explicit compactions against one fixed graph (labels are topology-only,
so they are built once and shared; each example gets a fresh graph copy
and fresh packed inverted indexes).  Invariants under test:

* a tombstoned (removed) entry never surfaces from a FindNN cursor;
* every effective hub run — base buffers with the overlay folded in —
  stays sorted by ``(dist, vertex)`` and the slice maps stay consistent;
* ``compact()`` changes the physical layout only, never query results.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import KOSREngine, QueryOptions, make_query
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.pll import build_pruned_landmark_labels
from repro.nn.label_nn import PackedLabelNNFinder
from repro.types import INFINITY

N_VERTICES = 18
N_CATEGORIES = 3

_BASE_GRAPH = random_graph(N_VERTICES, avg_out_degree=2.5,
                           rng=random.Random(71))
assign_uniform_categories(_BASE_GRAPH, N_CATEGORIES, 5, random.Random(72))
_LABELS = build_pruned_landmark_labels(_BASE_GRAPH)

#: one op = (kind, vertex, category); "compact" ignores vertex/category
_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "compact"]),
              st.integers(0, N_VERTICES - 1),
              st.integers(0, N_CATEGORIES - 1)),
    max_size=40,
)


def _fresh_engine():
    g = _BASE_GRAPH.copy()
    return g, KOSREngine.from_labels(g, _LABELS)


def _apply(g, engine, ops):
    for kind, v, cid in ops:
        if kind == "add":
            engine.add_vertex_to_category(v, cid)
        elif kind == "remove" and g.category_size(cid) > 1:
            engine.remove_vertex_from_category(v, cid)
        elif kind == "compact":
            engine.compact()


def _enumerate_nn(engine, source, cid):
    """Drain one (source, category) cursor: [(member, dist), ...]."""
    finder = PackedLabelNNFinder(engine.labels, engine.inverted)
    out = []
    x = 1
    while True:
        res = finder.find(source, cid, x)
        if res is None:
            return out
        out.append(res)
        x += 1


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_removed_entries_never_surface(ops):
    g, engine = _fresh_engine()
    _apply(g, engine, ops)
    labels = engine.labels
    for cid in range(N_CATEGORIES):
        members = g.members(cid)
        for source in (0, N_VERTICES // 2, N_VERTICES - 1):
            produced = _enumerate_nn(engine, source, cid)
            got = {m for m, _ in produced}
            # nothing tombstoned (or never a member) surfaces ...
            assert got <= members
            # ... and every reachable live member does surface
            reachable = {m for m in members
                         if labels.distance(source, m) != INFINITY}
            assert got == reachable


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_overlay_base_merge_is_sorted(ops):
    g, engine = _fresh_engine()
    _apply(g, engine, ops)
    for il in engine.inverted.values():
        lists = il.as_lists()  # folds the whole overlay in
        assert not il.dirty
        for hub, entries in lists.items():
            assert entries == sorted(entries)
            assert entries  # empty runs are dropped from the slice maps
        # slice maps agree with each other and with the buffers
        assert sorted(il.slices.values()) == sorted(il.rank_slices.values())
        for hub, (lo, hi) in il.slices.items():
            assert 0 <= lo < hi <= len(il.members)
            assert il.hub_ranks[hub] in il.rank_slices


@settings(max_examples=25, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2 ** 16))
def test_compact_is_noop_on_query_results(ops, seed):
    g, engine = _fresh_engine()
    _apply(g, engine, ops)
    rng = random.Random(seed)
    queries = []
    for _ in range(3):
        cats = rng.sample(range(N_CATEGORIES), 2)
        queries.append(make_query(g, rng.randrange(N_VERTICES),
                                  rng.randrange(N_VERTICES), cats, k=3))
    before = [engine.run(q, QueryOptions(method="SK")) for q in queries]
    engine.compact()
    for il in engine.inverted.values():
        assert not il.dirty
    after = [engine.run(q, QueryOptions(method="SK")) for q in queries]
    for a, b in zip(before, after):
        assert a.witnesses == b.witnesses
        assert a.costs == b.costs
        assert a.stats.nn_queries == b.stats.nn_queries
