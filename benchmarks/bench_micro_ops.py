"""Micro-benchmarks of the primitive operations behind Table X.

The paper attributes the run-time gap between methods almost entirely to
NN-query cost; these kernels measure each primitive in isolation on the
FLA analogue:

* hub-label point-to-point distance (merge join) vs plain / bidirectional
  Dijkstra vs CH query;
* FindNN next-neighbor over the inverted label index vs a resumable
  Dijkstra cursor vs the restarting Dijkstra straw man;
* a full StarKOSR query, a category update through the delta overlay,
  and the empty-overlay query-cost check.
"""

import time
import random

import pytest

from benchmarks._shared import emit_json, representative_query
from repro import KOSREngine, QueryOptions
from repro.ch import build_ch, ch_distance
from repro.experiments import datasets as ds
from repro.experiments.workload import random_queries
from repro.nn import DijkstraNNFinder, PackedLabelNNFinder
from repro.paths.bidirectional import bidirectional_distance
from repro.paths.dijkstra import dijkstra_distance


@pytest.fixture(scope="module")
def fla_engine():
    return ds.engine_for("FLA")


@pytest.fixture(scope="module")
def pairs(fla_engine):
    rng = random.Random(13)
    n = fla_engine.graph.num_vertices
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(50)]


def test_micro_label_distance(benchmark, fla_engine, pairs):
    labels = fla_engine.labels
    benchmark(lambda: [labels.distance(s, t) for s, t in pairs])


def test_micro_dijkstra_distance(benchmark, fla_engine, pairs):
    graph = fla_engine.graph
    benchmark(lambda: [dijkstra_distance(graph, s, t) for s, t in pairs[:5]])


def test_micro_bidirectional_distance(benchmark, fla_engine, pairs):
    graph = fla_engine.graph
    benchmark(lambda: [bidirectional_distance(graph, s, t) for s, t in pairs[:5]])


@pytest.fixture(scope="module")
def fla_ch(fla_engine):
    return build_ch(fla_engine.graph)


def test_micro_ch_distance(benchmark, fla_engine, fla_ch, pairs):
    benchmark(lambda: [ch_distance(fla_ch, s, t) for s, t in pairs[:10]])


def test_micro_findnn_label(benchmark, fla_engine):
    """FindNN advance kernel (cursor init + 10 advances)."""
    def kernel():
        finder = PackedLabelNNFinder(fla_engine.labels, fla_engine.inverted)
        for x in range(1, 11):
            finder.find(0, 0, x)

    benchmark(kernel)


def test_micro_findnn_dijkstra_resume(benchmark, fla_engine):
    def kernel():
        finder = DijkstraNNFinder(fla_engine.graph, mode="resume")
        for x in range(1, 11):
            finder.find(0, 0, x)

    benchmark(kernel)


def test_micro_findnn_dijkstra_restart(benchmark, fla_engine):
    def kernel():
        finder = DijkstraNNFinder(fla_engine.graph, mode="restart")
        for x in range(1, 4):
            finder.find(0, 0, x)

    benchmark(kernel)


def test_micro_sk_query_packed(benchmark, fla_engine):
    """Full StarKOSR query, instrumentation off."""
    engine, query = representative_query("FLA")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))


# ----------------------------------------------------------------------
# Delta overlay: dynamic category updates.
# ----------------------------------------------------------------------

def test_micro_category_update_packed_overlay(benchmark, fla_engine):
    """One category insert+removal pair through the delta overlay.

    Each iteration is net-zero on the shared graph/index state; the
    occasional threshold compaction is part of the amortised cost being
    measured.
    """
    g = fla_engine.graph
    engine = KOSREngine.from_labels(g, fla_engine.labels)
    outsider = next(v for v in range(g.num_vertices)
                    if not g.has_category(v, 0))

    def kernel():
        engine.add_vertex_to_category(outsider, 0)
        engine.remove_vertex_from_category(outsider, 0)

    benchmark(kernel)


def test_sk_query_overlay_empty_cost(fla_engine):
    """Empty-overlay query cost vs the static packed path; persisted.

    The dynamic engine first absorbs an update burst through its
    overlays, then compacts back to an empty overlay; its queries must
    run within noise of the never-updated engine, because the two then
    execute the identical buffer-scan hot path (the overlay costs one
    boolean check per cursor creation).
    """
    g = fla_engine.graph
    dynamic = KOSREngine.from_labels(g, fla_engine.labels)
    touched = []
    for cid in range(min(4, g.num_categories)):
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, cid))
        dynamic.add_vertex_to_category(outsider, cid)
        touched.append((outsider, cid))
    for outsider, cid in touched:
        dynamic.remove_vertex_from_category(outsider, cid)
    dynamic.compact()
    assert not any(il.dirty for il in dynamic.inverted.values())

    workload = random_queries(g, 3, ds.DEFAULT_C_LEN, ds.DEFAULT_K, seed=131)

    def once(engine):
        t0 = time.perf_counter()
        results = [engine.run(q, QueryOptions(method="SK")) for q in workload]
        return time.perf_counter() - t0, results

    once(fla_engine)      # warm both engines
    once(dynamic)
    static_times, dynamic_times = [], []
    for _ in range(7):
        t_s, static_res = once(fla_engine)
        t_d, dynamic_res = once(dynamic)
        static_times.append(t_s)
        dynamic_times.append(t_d)

    for a, b in zip(static_res, dynamic_res):
        assert a.costs == b.costs
        assert a.witnesses == b.witnesses
        assert a.stats.nn_queries == b.stats.nn_queries

    t_static, t_dynamic = min(static_times), min(dynamic_times)
    ratio = t_dynamic / t_static
    emit_json("bench_micro_overlay_empty_cost", {
        "workload": {"dataset": "FLA", "queries": len(workload),
                     "k": ds.DEFAULT_K, "c_len": ds.DEFAULT_C_LEN},
        "static_packed_ms": 1000.0 * t_static,
        "empty_overlay_ms": 1000.0 * t_dynamic,
        "ratio": ratio,
        "update_burst": {"categories_touched": len(touched),
                         "ops": 2 * len(touched)},
    })
    print(f"\nSK empty-overlay: static {t_static * 1000:.1f} ms, "
          f"post-update+compact {t_dynamic * 1000:.1f} ms -> {ratio:.3f}x")
    # Identical hot path; generous bound for CI noise only.
    assert ratio < 1.25


def test_pipe_pickle_protocol_framing(fla_engine):
    """Pinned pickle protocol vs the legacy default on shard pipe replies.

    The worker pipes frame every message with
    ``pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)``
    (:mod:`repro.shard.worker`); ``multiprocessing.Connection.send``
    historically used ``DEFAULT_PROTOCOL``.  Measured on a realistic
    large batch reply — a list of pickled ``QueryResult`` payloads —
    the pinned protocol must never serialise bigger, and (protocol 5
    out-of-band-capable framing) typically rounds a few percent
    smaller/faster on the float-heavy rows.
    """
    import pickle

    from repro.shard.worker import PIPE_PICKLE_PROTOCOL

    workload = random_queries(fla_engine.graph, 12, ds.DEFAULT_C_LEN,
                              ds.DEFAULT_K, seed=167)
    reply = [fla_engine.run(q, QueryOptions(method="SK")) for q in workload]

    def measure(protocol):
        best = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            blob = pickle.dumps(reply, protocol=protocol)
            pickle.loads(blob)
            best = min(best, time.perf_counter() - t0)
        return len(pickle.dumps(reply, protocol=protocol)), best

    default_bytes, default_s = measure(pickle.DEFAULT_PROTOCOL)
    pinned_bytes, pinned_s = measure(PIPE_PICKLE_PROTOCOL)
    emit_json("bench_micro_pipe_pickle", {
        "payload": {"dataset": "FLA", "results": len(reply),
                    "k": ds.DEFAULT_K, "c_len": ds.DEFAULT_C_LEN},
        "default_protocol": pickle.DEFAULT_PROTOCOL,
        "pinned_protocol": PIPE_PICKLE_PROTOCOL,
        "default_bytes": default_bytes,
        "pinned_bytes": pinned_bytes,
        "default_round_trip_ms": 1000.0 * default_s,
        "pinned_round_trip_ms": 1000.0 * pinned_s,
        "bytes_ratio": pinned_bytes / default_bytes,
    })
    print(f"\npipe pickle: default p{pickle.DEFAULT_PROTOCOL} "
          f"{default_bytes} B / {default_s * 1000:.2f} ms, pinned "
          f"p{PIPE_PICKLE_PROTOCOL} {pinned_bytes} B / "
          f"{pinned_s * 1000:.2f} ms")
    assert PIPE_PICKLE_PROTOCOL >= pickle.DEFAULT_PROTOCOL
    assert pinned_bytes <= default_bytes
