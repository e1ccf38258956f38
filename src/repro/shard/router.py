"""Plan-aware routing: which one shard serves a request.

The sharded service partitions *categories* across worker processes; a
query's resolved :class:`~repro.service.planner.QueryPlan` declares
whether it consumes the category inverted indexes at all
(``spec.needs_finder``), and the query itself names the categories it
touches — together they pick the one shard that serves it:

* a plan with no finder need (GSP / GSP-CH run over the replicated
  topology alone) can execute anywhere → round-robin;
* every other plan runs on the **primary owner**, the shard of the
  query's first category (:meth:`CategoryShardRouter.primary`) — also
  when the category set spans shards.  That worker faults in the other
  categories' inverted indexes (bit-identical to an unsharded engine's),
  so its single sequenced search is the whole answer, ``QueryStats``
  included: a spanning request costs one execution, like the paper's
  one StarKOSR / PruningKOSR search, and repeats of it land on the same
  warm worker session.

:func:`merge_topk_results` — a stable, witness-deduplicating merge of
per-shard top-k lists — is a library function; routing does not use it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.types import CategoryId


class CategoryShardRouter:
    """Static category → shard partition (``cid % num_shards``).

    The modulo map needs no coordination state, balances the uniform /
    zipfian category assignments of the benchmarks well, and keeps
    working for categories created after the partition was fixed
    (dynamic ``add_category`` updates land on a deterministic owner).
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, cid: CategoryId) -> int:
        """The owning shard of one category."""
        return cid % self.num_shards

    def primary(self, categories: Sequence[CategoryId]) -> int:
        """The shard that serves a finder plan over ``categories``: the
        owner of the first category."""
        return self.shard_of(categories[0])

    def owned_categories(self, shard: int, num_categories: int) -> List[CategoryId]:
        """The categories shard ``shard`` owns out of ``num_categories``."""
        return [cid for cid in range(num_categories)
                if self.shard_of(cid) == shard]


def merge_topk_results(query, partials: Sequence) -> "KOSRResult":
    """Merge per-shard top-k candidate lists into one ``KOSRResult``.

    ``partials`` holds one :class:`~repro.core.engine.KOSRResult` per
    shard, primary first.  Candidates merge through a *stable*
    k-way merge by cost (``heapq.merge``: ties across lists resolve to
    the earlier list, and entries **within** one list are never
    reordered), deduplicate by witness, and truncate to ``query.k``.

    In-list stability is load-bearing for cold-equivalence: an engine's
    result list may contain cost ties — including 1-ULP "ties" where
    summation order makes two equal-cost routes differ in the last bit —
    whose order is the search's deterministic discovery order, not a
    strict float sort.  A global re-sort by cost would flip those pairs;
    the stable merge cannot, so for the identical deterministic lists
    the shards produce it reconstructs the primary list exactly.  The
    merged stats are the primary shard's :class:`QueryStats`: each
    shard's execution is individually cold-equivalent, so any owner's
    counters equal the unsharded cold engine's — the merge must simply
    not double-count the partials.
    """
    import heapq

    from repro.core.engine import KOSRResult

    if len(partials) == 1:
        return partials[0]
    seen = set()
    merged = []
    for item in heapq.merge(*(result.results for result in partials),
                            key=lambda item: item.cost):
        witness = item.witness.vertices
        if witness in seen:
            continue
        seen.add(witness)
        merged.append(item)
        if len(merged) == query.k:
            break
    return KOSRResult(query, merged, partials[0].stats)
