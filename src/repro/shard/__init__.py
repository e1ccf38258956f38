"""repro.shard — category-partitioned multi-process serving.

* :mod:`repro.shard.router` — :class:`CategoryShardRouter` (static
  ``cid % N`` partition; every request runs on one shard, the primary
  owner for finder plans) and a stable distance-ordered top-k merge;
* :mod:`repro.shard.worker` — the worker process: one engine + warm
  :class:`~repro.service.service.QueryService` per category subset, with
  on-demand category faulting and the update-broadcast contract;
* :mod:`repro.shard.service` — :class:`ShardedQueryService`: worker
  lifecycle (spawn / health-check / drain / shutdown), synchronous
  per-shard transport with respawn-and-retry reads, epoch-synchronized
  update broadcast.

The invariant the whole package defends: sharding is *observably
transparent* — results and ``QueryStats`` counters stay bit-identical to
an unsharded cold engine (``tests/test_sharded.py``); only wall time and
the process count change.
"""

from repro.shard.router import CategoryShardRouter, merge_topk_results
from repro.shard.service import ShardedQueryService

__all__ = ["CategoryShardRouter", "ShardedQueryService",
           "merge_topk_results"]
