"""Epoch-versioned cross-query session state.

The per-query engine path treats every query as a cold universe: a fresh
finder (empty NL caches), a fresh ``dis(·, t)`` memo, a fresh SK-DB disk
view.  :class:`SessionCache` keeps those artefacts warm across the
queries of a serving session and invalidates them whenever the engine's
``index_epoch`` moves (category updates, edge updates, compaction) — so
the PR 2 update-correctness guarantees carry over unchanged: no query
ever observes pre-update cache state.

Invalidation is **per category** where the epoch split allows it: a
category update moves only that category's index ``version`` counter, so
the session drops just the touched categories' warm cursors and SK-DB
payloads and keeps everything else (the shared finder and its other
categories' streams, every ``dis(·, t)`` kernel — labels are untouched
by membership changes — and the topology-only CH).  A move of the
engine-level ``epoch_base`` (edge update, compaction, wholesale rebuild)
still drops the whole session in one shot.  Both paths leave post-update
queries rebuilding exactly like a cold engine — see :meth:`SessionCache.validate`.

Cold-equivalent accounting
--------------------------

The paper's evaluation counters (``QueryStats.nn_queries`` et al.) are
defined per query over cold caches.  Warm reuse must therefore not leak
into the counters: a batch run has to report *bit-identical* stats to a
fresh single-query engine (asserted by the service-parity tests).  Two
mechanisms deliver that:

* :class:`SharedDestKernel` shares only the memo *values* of
  ``dis(·, t)``; each query keeps its own request-dedup cache inside
  :class:`~repro.core.runtime.QueryRuntime`, so ``dest_computed`` still
  counts exactly the distinct vertices *this* query asked about.
* :class:`ColdEquivalentFinderView` wraps the session's shared FindNN
  finder with per-query *virtual cursor positions*: the x-th-neighbor
  streams are produced once (warm), but each query books the number of
  advances a cold cursor would have executed for *its own* request
  pattern — including the extra advance that discovers exhaustion.

Both mechanisms are value-transparent: NL streams and distances are
deterministic functions of the index state, so within one epoch a warm
answer is byte-for-byte the cold answer.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.labeling.storage import (
    CategoryShard,
    CategoryShardStore,
    QueryLabelView,
)
from repro.nn.base import NearestNeighborFinder
from repro.types import CategoryId, Cost, Vertex


class SharedDestKernel:
    """A shared ``dis(·, target)`` closure + memo for one fixed target.

    ``fn`` is handed to every :class:`QueryRuntime` of the session that
    targets the same vertex; the runtime layers its own per-query cache
    (and ``dest_computed`` accounting) on top, so values are shared while
    counters stay cold-equivalent.
    """

    __slots__ = ("target", "fn", "memo")

    def __init__(self, target: Vertex, dest_fn: Callable[[Vertex], Cost]):
        self.target = target
        memo: Dict[Vertex, Cost] = {}
        memo_get = memo.get

        def fn(v: Vertex) -> Cost:
            d = memo_get(v)
            if d is None:
                d = dest_fn(v)
                memo[v] = d
            return d

        self.fn = fn
        self.memo = memo


class ColdEquivalentFinderView(NearestNeighborFinder):
    """A per-query view over a session's shared (warm) FindNN finder.

    Answers come from the shared finder's cursors — already-produced NL
    entries are served without re-running the k-way merge — while
    ``self.queries`` books, per ``(source, category)`` cursor, the number
    of executed NN computations a *cold* run of this query would have
    performed:

    * serving request ``x`` from virtual position ``vpos`` with the
      stream able to supply ``x`` entries costs ``x - vpos`` advances;
    * a request past the end of an exhausted stream with ``avail``
      entries costs ``avail - vpos`` producing advances plus one more
      that discovers exhaustion (matching the packed cursors, which
      count the advance that raises/flags);
    * a stream empty at creation is exhausted at creation — zero cost,
      exactly like a cold cursor over an empty category.

    Results are identical to cold execution because NL streams are
    deterministic given the (epoch-stable) index state.
    """

    def __init__(self, shared: NearestNeighborFinder,
                 session: "SessionCache"):
        super().__init__()
        self._shared = shared
        self._session = session
        #: (source, category) -> (virtual NL position, virtually exhausted)
        self._virtual: Dict[Tuple[Vertex, CategoryId], Tuple[int, bool]] = {}

    def find(self, source: Vertex, category: CategoryId, x: int):
        shared = self._shared
        res = shared.find(source, category, x)
        key = (source, category)
        self._session.touch_cursor(key)
        vpos, vexh = self._virtual.get(key, (0, False))
        if x > vpos and not vexh:
            cursor = shared._cursors[key]
            avail = len(cursor.nl)
            if x <= avail:
                self.queries += x - vpos
                self._virtual[key] = (x, False)
            else:
                # Stream exhausted before x: a cold cursor would produce
                # the remaining entries, then burn one advance on the
                # exhaustion discovery (none if it was born empty).
                self.queries += (avail - vpos) + (1 if avail else 0)
                self._virtual[key] = (avail, True)
        return res

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        return self._shared.distance(s, t)

    def make_dest_distance(self, target: Vertex) -> Callable[[Vertex], Cost]:
        """The session's shared ``dis(·, target)`` kernel for this target."""
        return self._session.dest_kernel(target).fn

    def make_estimated(self, estimate, cache=None):
        """FindNEN over this view (generic Algorithm 4 wrapper).

        The fused packed FindNEN pokes shared-cursor internals and books
        raw advances, so the warm path uses the generic wrapper instead:
        its plain-NN requests flow back through :meth:`find`, keeping the
        cold-equivalent accounting — the parity suite pins the generic
        and fused implementations to identical counts.
        """
        from repro.nn.estimated import EstimatedNNFinder

        return EstimatedNNFinder(self, estimate, cache)


class SharedDiskState:
    """Warm SK-DB state: decoded category shards + merged views.

    Mirrors :class:`~repro.labeling.storage.DiskLabelRepository`'s
    per-query access pattern, but reads and decodes each category shard
    and the vertex-label file at most once per epoch.  Views are cached
    per ``(categories, target)`` — the shape batch groups share — and
    augmented with additional sources on demand.  Every query still gets
    a *fresh* finder over the view, so SK-DB counters are cold by
    construction.
    """

    def __init__(self, store: CategoryShardStore):
        self.store = store
        self._category_payloads: Dict[CategoryId, CategoryShard] = {}
        self._vertices: Optional[dict] = None
        #: (categories, target) -> shared QueryLabelView
        self._views: Dict[Tuple[Tuple[CategoryId, ...], Vertex],
                          QueryLabelView] = {}

    def _category_shard(self, cid: CategoryId) -> CategoryShard:
        shard = self._category_payloads.get(cid)
        if shard is None:
            shard = CategoryShard(self.store.read_category(cid))
            self._category_payloads[cid] = shard
        return shard

    def _vertex_payload(self) -> dict:
        if self._vertices is None:
            self._vertices = self.store.read_vertices()
        return self._vertices

    def view_for(
        self, categories, source: Vertex, target: Vertex
    ) -> Tuple[QueryLabelView, float]:
        """The query's label view plus the seconds spent actually loading.

        The returned view is shared across the group; only genuinely new
        shard reads (cold categories, first vertex-file load, unseen
        sources) contribute to the reported load time, so
        ``stats.index_load_time`` reflects the real remaining disk work.
        """
        key = (tuple(categories), target)
        t0 = time.perf_counter()
        view = self._views.get(key)
        if view is None:
            view = QueryLabelView()
            for cid in key[0]:
                view.add_category(cid, self._category_shard(cid))
            view.add_target(self._vertex_payload(), target)
            self._views[key] = view
        view.add_source(self._vertex_payload(), source)
        return view, time.perf_counter() - t0


#: the warm artefact populations CacheStats tracks hit/miss pairs for
CACHE_KINDS = ("finder", "dest_kernel", "ch", "disk_view")


def hit_rates_from(totals: Dict[str, int]) -> Dict[str, float]:
    """Per-artefact hit rates from a counter dict (0.0 when never used).

    The one place the hits / (hits + misses) computation lives — used by
    single sessions, the async front door's aggregated group sessions,
    and the sharded fleet's summed worker counters alike.
    """
    rates: Dict[str, float] = {}
    for kind in CACHE_KINDS:
        hits = totals.get(f"{kind}_hits", 0)
        lookups = hits + totals.get(f"{kind}_misses", 0)
        rates[kind] = hits / lookups if lookups else 0.0
    return rates


class CacheStats:
    """Hit/miss/eviction/invalidation counters for one session."""

    __slots__ = ("finder_hits", "finder_misses", "dest_kernel_hits",
                 "dest_kernel_misses", "dest_kernel_evictions",
                 "cursor_evictions", "ch_hits", "ch_misses",
                 "disk_view_hits", "disk_view_misses", "invalidations",
                 "partial_invalidations", "cursors_invalidated")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def hit_rates(self) -> Dict[str, float]:
        """Per-artefact hit rates (hits / lookups; 0.0 when never used)."""
        return hit_rates_from(self.as_dict())


#: warm population names reported as gauges (see SessionCache.populations)
CACHE_POPULATIONS = ("dest_kernels", "finder_cursors")


class SessionCache:
    """Reusable per-engine query state, invalidated by index epoch.

    Holds the session's warm finder (shared NL caches), the per-target
    ``dis(·, t)`` kernels, the lazy contraction hierarchy, and the SK-DB
    shard payloads/views.  :meth:`validate` is called at the top of every
    service-path query; when the engine's ``index_epoch`` has moved it
    drops exactly the warm state the mutation could have touched —
    per-category for incremental membership updates, wholesale when the
    engine-level ``epoch_base`` moved (edge updates, compaction) — so
    post-update queries rebuild from the authoritative indexes exactly
    like a cold engine.

    Within an epoch the cache would otherwise grow unboundedly (one
    kernel per distinct target, one cursor per distinct ``(source,
    category)``); ``max_dest_kernels`` / ``max_finders`` cap those two
    populations with LRU eviction.  Eviction is purely a memory policy:
    a re-built kernel or cursor regenerates the identical deterministic
    stream, and the cold-equivalent accounting books per-query virtual
    positions, so results *and* counters stay bit-identical (pinned by
    the capped-parity test).  Cursors are only trimmed between queries
    (at :meth:`finder_view` creation), never mid-enumeration.
    """

    def __init__(self, engine, max_dest_kernels: Optional[int] = None,
                 max_finders: Optional[int] = None):
        if max_dest_kernels is not None and max_dest_kernels < 1:
            raise ValueError("max_dest_kernels must be >= 1")
        if max_finders is not None and max_finders < 1:
            raise ValueError("max_finders must be >= 1")
        self.engine = engine
        self.epoch = engine.index_epoch
        self._epoch_base = self._snapshot_base()
        self._versions = self._snapshot_versions()
        self.stats = CacheStats()
        self.max_dest_kernels = max_dest_kernels
        self.max_finders = max_finders
        self._label_finder: Optional[NearestNeighborFinder] = None
        self._dest_kernels: "OrderedDict[Vertex, SharedDestKernel]" = \
            OrderedDict()
        #: (source, category) cursor keys in least-recently-used order
        self._cursor_lru: "OrderedDict[Tuple[Vertex, CategoryId], None]" = \
            OrderedDict()
        self._ch = None
        self._disk: Optional[SharedDiskState] = None
        #: counter values as of the last publish_metrics() call
        self._metrics_published: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def hit_rates(self) -> Dict[str, float]:
        """This session's per-artefact cache hit rates (see CacheStats)."""
        return self.stats.hit_rates()

    def populations(self) -> Dict[str, int]:
        """Current warm-artefact population sizes (gauge material).

        Unlike the monotonic :class:`CacheStats` counters these move both
        ways — evictions and epoch invalidations shrink them — which is
        what the observability layer samples as gauges over time.
        """
        cursors = None
        if self._label_finder is not None:
            cursors = getattr(self._label_finder, "_cursors", None)
        return {
            "dest_kernels": len(self._dest_kernels),
            "finder_cursors": len(cursors) if cursors is not None else 0,
        }

    def publish_metrics(self, registry) -> None:
        """Fold counter movement since the last publish into ``registry``.

        Publishing deltas (rather than setting totals) makes the registry
        counters correct across any number of sessions in the process —
        each session contributes exactly its own movement — and keeps
        fleet-wide merges additive.
        """
        current = self.stats.as_dict()
        last = self._metrics_published
        for name, value in current.items():
            delta = value - last.get(name, 0)
            if delta:
                registry.counter(f"repro_cache_{name}_total").inc(delta)
                last[name] = value

    # ------------------------------------------------------------------
    def _snapshot_base(self) -> Optional[int]:
        """The engine's ``epoch_base`` (None on engines without the split)."""
        return getattr(self.engine, "epoch_base", None)

    def _snapshot_versions(self) -> Dict[CategoryId, int]:
        """The engine's per-category version counters ({} when unsplit)."""
        versions = getattr(self.engine, "category_versions", None)
        return versions() if callable(versions) else {}

    def validate(self) -> bool:
        """Invalidate warm state the engine's index mutations obsoleted.

        Returns True when anything was dropped.  Two granularities:

        * ``epoch_base`` moved (edge update, compaction, wholesale
          rebuild — or an engine without the base/version split): the
          labels themselves may have changed, so *everything* drops and
          ``stats.invalidations`` counts it.
        * only per-category ``version`` counters moved (incremental
          membership updates): just the changed categories' warm cursors
          and SK-DB category payloads drop — the shared finder object,
          other categories' streams, every ``dis(·, t)`` kernel (label
          distances are invariant under membership changes), and the
          topology-only CH all survive; ``stats.partial_invalidations``
          counts the event and ``stats.cursors_invalidated`` the cursors
          dropped.  Post-update queries on a changed category rebuild
          its streams cold; kept streams are deterministic replays of an
          unchanged index, so answers and ``QueryStats`` stay
          bit-identical either way (pinned by the retention + parity
          tests).
        """
        current = self.engine.index_epoch
        base = self._snapshot_base()
        if current == self.epoch and base == self._epoch_base:
            return False
        self.epoch = current
        if base is None or base != self._epoch_base:
            self._epoch_base = base
            self._versions = self._snapshot_versions()
            self.stats.invalidations += 1
            self._label_finder = None
            self._dest_kernels.clear()
            self._cursor_lru.clear()
            self._ch = None
            self._disk = None
            return True
        versions = self._snapshot_versions()
        previous = self._versions
        self._versions = versions
        changed = {cid for cid in set(versions) | set(previous)
                   if versions.get(cid) != previous.get(cid)}
        self.stats.partial_invalidations += 1
        self._drop_categories(changed)
        return True

    def _drop_categories(self, changed) -> None:
        """Drop only ``changed`` categories' warm cursors + disk payloads."""
        finder = self._label_finder
        if finder is not None:
            cursors = getattr(finder, "_cursors", None)
            if cursors is None:
                # Unknown finder shape: no per-category hook, play safe.
                self._label_finder = None
                self._cursor_lru.clear()
            else:
                lru = self._cursor_lru
                for key in [k for k in cursors if k[1] in changed]:
                    del cursors[key]
                    lru.pop(key, None)
                    self.stats.cursors_invalidated += 1
        disk = self._disk
        if disk is not None:
            for cid in changed:
                disk._category_payloads.pop(cid, None)
            for key in [k for k in disk._views
                        if changed.intersection(k[0])]:
                del disk._views[key]

    # ------------------------------------------------------------------
    def finder_view(self) -> ColdEquivalentFinderView:
        """A fresh per-query view over the session's shared label finder."""
        if self._label_finder is None:
            self._label_finder = self.engine._make_finder("label")
            self.stats.finder_misses += 1
        else:
            self.stats.finder_hits += 1
            self._trim_cursors()
        return ColdEquivalentFinderView(self._label_finder, self)

    def touch_cursor(self, key: Tuple[Vertex, CategoryId]) -> None:
        """Record a cursor access (LRU recency; called by finder views)."""
        if self.max_finders is None:
            return
        lru = self._cursor_lru
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = None

    def _trim_cursors(self) -> None:
        """Evict least-recently-used warm cursors past ``max_finders``.

        Runs only between queries (the per-query views are already
        retired), so no in-flight virtual-position bookkeeping can point
        at an evicted cursor mid-enumeration.
        """
        if self.max_finders is None or self._label_finder is None:
            return
        cursors = getattr(self._label_finder, "_cursors", None)
        if cursors is None:
            return
        lru = self._cursor_lru
        while len(cursors) > self.max_finders:
            # Oldest tracked key still live; fall back to insertion order
            # for any cursor created outside a view (defensive).
            key = next((k for k in lru if k in cursors), None)
            if key is None:
                key = next(iter(cursors))
            lru.pop(key, None)
            del cursors[key]
            self.stats.cursor_evictions += 1

    def dest_kernel(self, target: Vertex) -> SharedDestKernel:
        """The shared ``dis(·, target)`` kernel (built once per target)."""
        kernels = self._dest_kernels
        kernel = kernels.get(target)
        if kernel is None:
            shared = self._label_finder
            if shared is None:
                shared = self._label_finder = self.engine._make_finder("label")
                self.stats.finder_misses += 1
            make = getattr(shared, "make_dest_distance", None)
            if make is not None:
                dest_fn = make(target)
            else:
                dest_fn = lambda v, _t=target: shared.distance(v, _t)  # noqa: E731
            kernel = SharedDestKernel(target, dest_fn)
            kernels[target] = kernel
            self.stats.dest_kernel_misses += 1
            if (self.max_dest_kernels is not None
                    and len(kernels) > self.max_dest_kernels):
                kernels.popitem(last=False)
                self.stats.dest_kernel_evictions += 1
        else:
            kernels.move_to_end(target)
            self.stats.dest_kernel_hits += 1
        return kernel

    def contraction_hierarchy(self):
        """The session's CH (delegates to the engine's lazy build)."""
        if self._ch is None:
            self._ch = self.engine.contraction_hierarchy()
            self.stats.ch_misses += 1
        else:
            self.stats.ch_hits += 1
        return self._ch

    def disk_state(self) -> SharedDiskState:
        """Warm SK-DB shard state over the engine's attached store."""
        from repro.exceptions import QueryError

        store = self.engine._store
        if store is None:
            raise QueryError("SK-DB requires attach_disk_store() first")
        if self._disk is None or self._disk.store is not store:
            self._disk = SharedDiskState(store)
            self.stats.disk_view_misses += 1
        else:
            self.stats.disk_view_hits += 1
        return self._disk
