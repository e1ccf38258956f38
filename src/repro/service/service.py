"""The workload-serving query service.

:class:`QueryService` is the layer between the engine's indexes and the
algorithms that the ROADMAP's serving goals need: it plans queries
through the method registry, keeps cross-query state warm in an
epoch-versioned :class:`~repro.service.cache.SessionCache`, and executes
whole workloads through :meth:`QueryService.run_batch`, which groups
queries by ``(target, categories)`` so groupmates share the per-target
``dis(·, t)`` kernel, the warm FindNN streams, and (for SK-DB) the
loaded shard views.

Warm reuse is *observably transparent*: answers and ``QueryStats``
counters are bit-identical to fresh single-query engines (see the
cold-equivalent accounting notes in :mod:`repro.service.cache`); only
wall time changes.  The service-parity and interleaved-update fuzz tests
pin this.

``max_workers`` > 1 runs independent groups on a thread pool, each with
its own session.  The one piece of shared mutable state — pending delta
overlays on packed inverted indexes, which cursor creation would fold in
lazily — is patched once up front, so worker threads only ever read the
engine's indexes.  Under CPython's GIL this does not parallelise the
pure-Python search itself — it exists for the free-threaded/IO-bound
deployments the ROADMAP points at — so the default stays sequential.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import QueryOptions, resolve_options
from repro.core.query import KOSRQuery
from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.cache import SessionCache
from repro.service.execution import WarmResources, execute_plan
from repro.service.planner import QueryPlan, resolve_plan

#: batch groups are keyed by what warm state they can share
GroupKey = Tuple[int, Tuple[int, ...]]


@dataclass
class BatchResult:
    """Per-query results (input order) plus batch-level observability."""

    results: List  # List[KOSRResult], aligned with the input workload
    wall_time_s: float = 0.0
    num_groups: int = 0
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def unfinished(self) -> int:
        return sum(1 for r in self.results if not r.stats.completed)

    @property
    def total_nn_queries(self) -> int:
        return sum(r.stats.nn_queries for r in self.results)

    @property
    def queries_per_second(self) -> float:
        if self.wall_time_s <= 0.0:
            return float("inf")
        return len(self.results) / self.wall_time_s


class QueryService:
    """Planner + session cache + batch executor over one engine.

    ``max_dest_kernels`` / ``max_finders`` bound the session cache's two
    unbounded-within-an-epoch populations (per-target ``dis(·, t)``
    kernels and warm FindNN cursors) with LRU eviction; the limits also
    apply to every session the service creates for threaded batches and
    async group workers (see :meth:`new_session`).
    """

    def __init__(self, engine, max_dest_kernels: Optional[int] = None,
                 max_finders: Optional[int] = None):
        self.engine = engine
        self.max_dest_kernels = max_dest_kernels
        self.max_finders = max_finders
        self.session = self.new_session()
        self._plans: Dict[Tuple[str, str], QueryPlan] = {}

    def new_session(self) -> SessionCache:
        """A fresh isolated session honouring this service's cache caps."""
        return SessionCache(self.engine, max_dest_kernels=self.max_dest_kernels,
                            max_finders=self.max_finders)

    # ------------------------------------------------------------------
    def plan(self, method: str, nn_backend: str = "label") -> QueryPlan:
        """Resolve (and memoise) the plan of ``(method, nn_backend)``."""
        key = (method, nn_backend)
        plan = self._plans.get(key)
        if plan is None:
            plan = resolve_plan(method, nn_backend)
            self._plans[key] = plan
        return plan

    def run(
        self,
        q: KOSRQuery,
        options: Optional[QueryOptions] = None,
        *,
        session: Optional[SessionCache] = None,
    ):
        """Answer one query on the warm service path.

        Identical request/response contract to ``KOSREngine.run`` (a
        :class:`~repro.api.QueryOptions`) except that finders, ``dis(·, t)`` kernels, the CH, and SK-DB
        views are reused from the session cache when the index epoch
        allows it.
        """
        options = resolve_options(options, "QueryService.run")
        session = session if session is not None else self.session
        session.validate()
        result = execute_plan(
            self.engine, self.plan(options.method, options.nn_backend), q,
            options, resources=WarmResources(session),
        )
        metrics = _METRICS
        if metrics is not None and metrics.enabled:
            session.publish_metrics(metrics)
        return result

    def run_stream(
        self,
        q: KOSRQuery,
        options: Optional[QueryOptions] = None,
        *,
        session: Optional[SessionCache] = None,
        on_route=None,
    ):
        """Answer one query, streaming routes as the search finalises them.

        Same contract as :meth:`run`, plus ``on_route``: for the anytime
        methods (KPNE/PK/SK/SK-NODOM/SK-DB) it fires with each
        :class:`~repro.types.SequencedResult` the moment the search proves
        it final — before the next one is searched for.  All-at-end
        methods (the GSP family) have no incremental seam; their results
        are replayed through the callback once the run completes, so
        callers always see exactly ``result.results`` in order.  Streamed
        objects are the same objects as the returned result's; route
        restoration (``options.restore_routes``) happens only after the
        run, so in-flight records carry the witness and cost.
        """
        options = resolve_options(options, "QueryService.run_stream")
        session = session if session is not None else self.session
        session.validate()
        emitted = 0
        seam = None
        if on_route is not None:
            def seam(res):
                nonlocal emitted
                emitted += 1
                on_route(res)
        result = execute_plan(
            self.engine, self.plan(options.method, options.nn_backend), q,
            options, resources=WarmResources(session), on_result=seam,
        )
        metrics = _METRICS
        if metrics is not None and metrics.enabled:
            session.publish_metrics(metrics)
        if on_route is not None:
            for res in result.results[emitted:]:
                on_route(res)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def group_queries(queries: Sequence[KOSRQuery]) -> Dict[GroupKey, List[int]]:
        """Input indexes grouped by ``(target, categories)``.

        Groupmates share the most expensive warm state: the per-target
        destination kernel and (for SK-DB) the category shard view.
        Insertion order is preserved within each group.
        """
        groups: Dict[GroupKey, List[int]] = {}
        for i, q in enumerate(queries):
            groups.setdefault((q.target, q.categories), []).append(i)
        return groups

    def run_batch(
        self,
        queries: Sequence[KOSRQuery],
        options: Optional[QueryOptions] = None,
        *,
        max_workers: Optional[int] = None,
    ) -> BatchResult:
        """Execute a workload, sharing warm state between groupmates.

        ``options`` applies to every query of the batch.  Results come back aligned with the
        input order regardless of the grouping.  With ``max_workers`` > 1
        independent groups run concurrently, each on its own isolated
        session; the default is sequential execution over one shared
        session, which maximises cross-group finder reuse.
        """
        options = resolve_options(options, "QueryService.run_batch")
        queries = list(queries)
        groups = self.group_queries(queries)
        results: List = [None] * len(queries)
        t0 = time.perf_counter()

        def run_group(indexes: List[int], session: SessionCache) -> None:
            for i in indexes:
                results[i] = self.run(queries[i], options, session=session)

        if max_workers is not None and max_workers > 1 and len(groups) > 1:
            from concurrent.futures import ThreadPoolExecutor

            # Fold pending delta overlays in *before* spawning workers:
            # packed cursors patch dirty hub runs lazily at creation,
            # which mutates the engine's shared buffers — safe
            # sequentially, a data race across threads.  The fold is
            # purely physical (no epoch change, identical results).
            self._fold_pending_overlays()
            sessions = [self.new_session() for _ in groups]
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(run_group, indexes, session)
                    for indexes, session in zip(groups.values(), sessions)
                ]
                for f in futures:
                    f.result()
            cache_stats = self._sum_cache_stats(sessions)
        else:
            before = self.session.stats.as_dict()
            for indexes in groups.values():
                run_group(indexes, self.session)
            # Session stats accumulate across batches; report this
            # batch's contribution so BatchResult stands on its own.
            cache_stats = {name: value - before[name] for name, value
                           in self.session.stats.as_dict().items()}
        return BatchResult(
            results=results,
            wall_time_s=time.perf_counter() - t0,
            num_groups=len(groups),
            cache_stats=cache_stats,
        )

    # ------------------------------------------------------------------
    def _fold_pending_overlays(self) -> None:
        """Merge any dirty packed-overlay deltas into the flat buffers.

        After this, cursor creation is read-only over the inverted
        indexes, making them safe to share across worker threads.  Mmap
        views are skipped: their "dirty" state only means some hub runs
        are still undecoded — decode is internally locked (thread-safe
        already), and eagerly decoding the whole file here would trade
        the shared page cache for a private copy per process.
        """
        inverted = self.engine.inverted
        if not inverted:
            return
        for il in inverted.values():
            if getattr(il, "dirty", False) and not getattr(il, "is_mmap",
                                                           False):
                il._patch_all()

    def index_memory(self) -> Dict[str, object]:
        """Index memory accounting of the backing engine (see
        :meth:`~repro.core.engine.KOSREngine.index_memory`)."""
        return self.engine.index_memory()

    def epoch_info(self) -> Dict[str, object]:
        """The engine's epoch/version counters (operator-facing).

        What the TCP ``{"stats": true}`` reply surfaces so an operator
        can watch updates land: the composite ``index_epoch`` session
        caches validate against, its wholesale-change ``epoch_base``
        component, and the per-category ``version`` counters whose
        individual movement drives partial invalidation.
        """
        engine = self.engine
        return {
            "index_epoch": engine.index_epoch,
            "epoch_base": getattr(engine, "epoch_base", 0),
            "category_versions": dict(engine.category_versions())
            if hasattr(engine, "category_versions") else {},
        }

    @staticmethod
    def _sum_cache_stats(sessions: Sequence[SessionCache]) -> Dict[str, int]:
        """Aggregate per-worker session counters (threaded batches)."""
        total: Dict[str, int] = {}
        for session in sessions:
            for name, value in session.stats.as_dict().items():
                total[name] = total.get(name, 0) + value
        return total
