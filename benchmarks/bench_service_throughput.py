"""Service-layer throughput: sequential-cold vs batched-warm execution.

The serving scenario the ROADMAP targets: a workload of StarKOSR queries
where many users ask about the same destination ("routes to the airport
via a gas station and a restaurant") — i.e. batches sharing
``(target, categories)``.  Sequential-cold answers each query on a fresh
universe (the paper's measurement setup, ``engine.run``); batched-warm
routes the same workload through ``QueryService.run_batch``, sharing the
per-target ``dis(·, t)`` kernel and the warm FindNN streams.

Both paths must return bit-identical results and counters (asserted
here, pinned exhaustively by the parity suite); the *throughput* gap is
the service layer's value.  ``test_service_throughput_speedup`` persists
queries/sec for both paths plus the speedup to
``benchmarks/results/bench_service_throughput.json`` — the acceptance
feed for the perf trajectory.
"""

import random
import time

import pytest

from benchmarks._shared import emit_json
from repro import QueryOptions, QueryService, make_query
from repro.experiments import datasets as ds

#: workload shape: targets × sources-per-target, the shared-target SK case
NUM_TARGETS = 6
SOURCES_PER_TARGET = 10
C_LEN = 4
K = 8


@pytest.fixture(scope="module")
def setting():
    engine = ds.engine_for("CAL")
    g = engine.graph
    rng = random.Random(53)
    queries = []
    for _ in range(NUM_TARGETS):
        target = rng.randrange(g.num_vertices)
        cats = rng.sample(range(g.num_categories), C_LEN)
        for _ in range(SOURCES_PER_TARGET):
            queries.append(
                make_query(g, rng.randrange(g.num_vertices), target, cats, k=K))
    return engine, queries


def _run_cold(engine, queries):
    return [engine.run(q, QueryOptions(method="SK")) for q in queries]


def test_sequential_cold(benchmark, setting):
    engine, queries = setting
    benchmark(_run_cold, engine, queries)


def test_batched_warm(benchmark, setting):
    engine, queries = setting

    def kernel():
        return QueryService(engine).run_batch(queries, QueryOptions(method="SK"))

    benchmark(kernel)


def test_service_throughput_speedup(setting):
    """Measure both paths back-to-back and persist the speedup."""
    engine, queries = setting
    # One throwaway pass per path so allocator/caches warm up evenly
    # before either side is timed.
    _run_cold(engine, queries[:5])
    QueryService(engine).run_batch(queries[:5], QueryOptions(method="SK"))

    t0 = time.perf_counter()
    cold = _run_cold(engine, queries)
    cold_s = time.perf_counter() - t0

    service = QueryService(engine)
    batch = service.run_batch(queries, QueryOptions(method="SK"))
    warm_s = batch.wall_time_s

    for c, w in zip(cold, batch):
        assert c.witnesses == w.witnesses
        assert c.stats.nn_queries == w.stats.nn_queries

    n = len(queries)
    payload = {
        "workload": {
            "dataset": "CAL",
            "scale": ds.BENCH_SCALE,
            "num_queries": n,
            "num_targets": NUM_TARGETS,
            "sources_per_target": SOURCES_PER_TARGET,
            "c_len": C_LEN,
            "k": K,
            "method": "SK",
        },
        "sequential_cold": {
            "seconds": cold_s,
            "queries_per_second": n / cold_s,
        },
        "batched_warm": {
            "seconds": warm_s,
            "queries_per_second": n / warm_s,
            "num_groups": batch.num_groups,
            "cache_stats": batch.cache_stats,
        },
        "speedup": cold_s / warm_s,
        "parity": "bit-identical witnesses, costs, and nn_queries counters",
    }
    emit_json("bench_service_throughput", payload)
    print(f"\nservice throughput: cold {n / cold_s:.1f} q/s, "
          f"warm {n / warm_s:.1f} q/s, speedup {cold_s / warm_s:.2f}x")
    # Warm-cache batching must measurably beat sequential cold queries.
    assert warm_s < cold_s
