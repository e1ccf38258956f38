"""Sharded serving throughput: N worker processes vs single-process.

The PR 5 acceptance scenario: the benchmark workload (shared-target SK
groups whose category sets land on different shards) driven through
``ShardedQueryService.run_batch`` with ``--shards 1`` and ``--shards N``.
One shard is the single-process baseline — same transport, same worker
code, no parallelism — so the measured gap isolates what multi-process
sharding buys on real cores; the GIL-bound thread-pool path cannot show
this gap by construction.

Per-request parity is asserted against a fresh **unsharded cold
engine** (witnesses, costs, and the NN counter), exactly the
cold-equivalence bar every other serving layer meets.  Results persist
to ``benchmarks/results/bench_sharded_throughput.json`` with the host's
CPU count: the >1.5x speedup bar is only meaningful on a multi-core
runner (CI), so the assertion is gated on the cores actually available —
a single-core box still asserts parity and records its honest ~1.0x.
"""

import os
import random
import time

import pytest

from benchmarks._shared import emit_json
from repro import QueryOptions, ShardedQueryService, make_query
from repro.experiments import datasets as ds

#: workload shape: shared-target SK groups spread across category shards
NUM_TARGETS = 8
SOURCES_PER_TARGET = 8
C_LEN = 3
K = 8
NUM_SHARDS = 4

OPTIONS = QueryOptions(method="SK")


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def setting():
    engine = ds.engine_for("CAL")
    g = engine.graph
    rng = random.Random(71)
    queries = []
    for i in range(NUM_TARGETS):
        target = rng.randrange(g.num_vertices)
        # Pin each group's categories to one shard (round-robin over the
        # shard ids) so the buckets parallelise; a couple of groups span
        # shards on purpose, so the primary owner's fault-in path is
        # parity-checked too.
        shard = i % NUM_SHARDS
        pool = [c for c in range(g.num_categories)
                if c % NUM_SHARDS == shard]
        cats = rng.sample(pool, min(C_LEN, len(pool)))
        if i % 4 == 3:  # every fourth group straddles two shards
            cats[-1] = rng.choice(
                [c for c in range(g.num_categories)
                 if c % NUM_SHARDS == (shard + 1) % NUM_SHARDS])
        for _ in range(SOURCES_PER_TARGET):
            queries.append(make_query(g, rng.randrange(g.num_vertices),
                                      target, cats, k=K))
    return engine, queries


def _run_sharded(engine, queries, num_shards):
    sharded = ShardedQueryService.from_engine(engine, num_shards=num_shards)
    try:
        sharded.run_batch(queries[:4], OPTIONS)  # warm allocator/workers
        t0 = time.perf_counter()
        batch = sharded.run_batch(queries, OPTIONS)
        elapsed = time.perf_counter() - t0
    finally:
        sharded.close()
    return batch, elapsed


def test_single_shard(benchmark, setting):
    engine, queries = setting
    sharded = ShardedQueryService.from_engine(engine, num_shards=1)
    try:
        benchmark(sharded.run_batch, queries, OPTIONS)
    finally:
        sharded.close()


def test_multi_shard(benchmark, setting):
    engine, queries = setting
    sharded = ShardedQueryService.from_engine(engine,
                                              num_shards=NUM_SHARDS)
    try:
        benchmark(sharded.run_batch, queries, OPTIONS)
    finally:
        sharded.close()


def _run_async_sharded(engine, queries, num_shards):
    """The `cli async-batch --shards N` path: front door over the fleet."""
    import asyncio

    from repro import AsyncQueryService, QueryRequest

    requests = [QueryRequest(q, OPTIONS) for q in queries]
    sharded = ShardedQueryService.from_engine(engine, num_shards=num_shards)

    async def drive():
        async with AsyncQueryService(sharded, max_inflight=num_shards) \
                as front:
            t0 = time.perf_counter()
            results = await front.gather(requests)
            return results, time.perf_counter() - t0

    try:
        return asyncio.run(drive())
    finally:
        sharded.close()


def test_sharded_throughput_speedup(setting):
    """Measure 1 vs N shards, assert parity, persist the gap + CPU count."""
    engine, queries = setting
    single_batch, single_s = _run_sharded(engine, queries, 1)
    multi_batch, multi_s = _run_sharded(engine, queries, NUM_SHARDS)
    async_results, async_s = _run_async_sharded(engine, queries, NUM_SHARDS)

    # Bit-identical to a fresh unsharded cold engine for EVERY request —
    # both shard counts, the async front door, and requests whose
    # categories span shards included.
    for q, one, many, front in zip(queries, single_batch, multi_batch,
                                   async_results):
        cold = engine.run(q, OPTIONS)
        for got in (one, many, front):
            assert got.witnesses == cold.witnesses
            assert got.costs == cold.costs
            assert got.stats.nn_queries == cold.stats.nn_queries
            assert got.stats.examined_routes == cold.stats.examined_routes

    n = len(queries)
    cpus = _cpu_count()
    speedup = single_s / multi_s
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
            "num_shards": NUM_SHARDS,
        },
        "runner": {
            "cpu_count": cpus,
            "multi_core": cpus >= 2,
        },
        "single_shard": {
            "seconds": single_s,
            "queries_per_second": n / single_s,
        },
        "multi_shard": {
            "seconds": multi_s,
            "queries_per_second": n / multi_s,
            "cache_stats": multi_batch.cache_stats,
        },
        "async_multi_shard": {
            "seconds": async_s,
            "queries_per_second": n / async_s,
        },
        "speedup": speedup,
        "parity": "bit-identical witnesses, costs, nn_queries, and "
                  "examined_routes vs a fresh unsharded cold engine for "
                  "every request, shard-spanning requests included",
    }
    emit_json("bench_sharded_throughput", payload)
    print(f"\nsharded throughput ({cpus} cpus): 1 shard {n / single_s:.1f} "
          f"q/s, {NUM_SHARDS} shards {n / multi_s:.1f} q/s, "
          f"speedup {speedup:.2f}x")
    # The acceptance bar needs real cores: >1.5x on a multi-core runner
    # (scaled down when only 2 cores are available); a single-core box
    # cannot parallelise pure-Python search and only asserts parity.
    if cpus >= 3:
        assert speedup > 1.5
    elif cpus == 2:
        assert speedup > 1.2
