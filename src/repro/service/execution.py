"""Plan execution: resource providers + the shared run loop.

Both query paths — the engine facade's per-query ``run`` and the batch
service — execute a resolved :class:`~repro.service.planner.QueryPlan`
through :func:`execute_plan`.  They differ only in the
:class:`ResourceProvider` handed in:

* :class:`ColdResources` builds everything fresh per query (the
  historical engine behaviour, and the reference for counter parity);
* :class:`WarmResources` resolves finders, ``dis(·, t)`` kernels, the
  CH, and SK-DB views from an epoch-validated
  :class:`~repro.service.cache.SessionCache`.

Executors receive an :class:`ExecutionContext` and never touch the
engine's dispatch logic, so adding a method is one ``register_executor``
call away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.api import QueryOptions, resolve_options
from repro.core.query import KOSRQuery
from repro.core.stats import QueryStats
from repro.exceptions import BudgetExceededError, QueryError
from repro.nn.base import NearestNeighborFinder
from repro.nn.label_nn import DiskViewNNFinder
from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.cache import SessionCache
from repro.service.planner import QueryPlan


class ColdResources:
    """Per-query resources built from scratch (the classic engine path)."""

    def __init__(self, engine):
        self.engine = engine

    def finder(self, nn_backend: str) -> NearestNeighborFinder:
        return self.engine._make_finder(nn_backend)

    def contraction_hierarchy(self):
        return self.engine.contraction_hierarchy()

    def disk_finder(self, query: KOSRQuery, stats: QueryStats):
        """A fresh SK-DB finder over a per-query disk view (paper layout)."""
        from repro.labeling.storage import DiskLabelRepository

        store = self.engine._store
        if store is None:
            raise QueryError("SK-DB requires attach_disk_store() first")
        repo = DiskLabelRepository(store)
        t0 = time.perf_counter()
        view = repo.load_for_query(query.categories, query.source, query.target)
        stats.index_load_time = time.perf_counter() - t0
        return DiskViewNNFinder(view)


class WarmResources:
    """Session-cached resources (epoch-validated before every query).

    Only the ``label`` NN backend is warmed: the Dijkstra comparators are
    deliberate straw men whose re-search cost *is* the measurement, so
    caching them would change what they measure — they stay cold even on
    the service path.
    """

    def __init__(self, session: SessionCache):
        self.session = session
        self.engine = session.engine

    def finder(self, nn_backend: str) -> NearestNeighborFinder:
        if nn_backend == "label":
            return self.session.finder_view()
        return self.engine._make_finder(nn_backend)

    def contraction_hierarchy(self):
        return self.session.contraction_hierarchy()

    def disk_finder(self, query: KOSRQuery, stats: QueryStats):
        disk = self.session.disk_state()
        view, load_seconds = disk.view_for(query.categories, query.source,
                                           query.target)
        stats.index_load_time = load_seconds
        return DiskViewNNFinder(view)


@dataclass
class ExecutionContext:
    """Everything an executor may need to answer one planned query."""

    engine: object
    plan: QueryPlan
    query: KOSRQuery
    stats: QueryStats
    budget: Optional[int]
    deadline: Optional[float]
    resources: object
    options: Optional[QueryOptions] = None
    #: Streaming seam: invoked with each SequencedResult the moment the
    #: anytime search finalises it (None for one-shot execution).
    on_result: object = None

    @property
    def graph(self):
        return self.engine.graph


def execute_plan(
    engine,
    plan: QueryPlan,
    query: KOSRQuery,
    options: Optional[QueryOptions] = None,
    *,
    resources=None,
    on_result=None,
):
    """Execute ``plan`` over ``query``; returns a
    :class:`~repro.core.engine.KOSRResult`.

    ``options`` carries the execution knobs (budgets, strictness, route
    restoration, profiling); ``plan`` already fixes the method and NN
    backend, so ``options.method`` / ``options.nn_backend`` are not
    re-consulted here.  ``resources`` defaults to :class:`ColdResources`
    (fresh per-query state — byte-identical to the pre-service engine).
    ``on_result`` streams each route as the anytime search finalises it
    (executors for all-at-end methods like GSP ignore it — the service
    layer replays their results through the callback after the run).
    """
    from repro.core.engine import KOSRResult

    options = resolve_options(options, "execute_plan")
    if resources is None:
        resources = ColdResources(engine)
    stats = QueryStats(method=plan.method, profile=options.profile)
    t_start = time.perf_counter()
    deadline = (None if options.time_budget_s is None
                else t_start + options.time_budget_s)
    ctx = ExecutionContext(engine=engine, plan=plan, query=query, stats=stats,
                           budget=options.budget, deadline=deadline,
                           resources=resources, options=options,
                           on_result=on_result)
    results = plan.spec.runner(ctx)
    stats.total_time = time.perf_counter() - t_start
    metrics = _METRICS
    if metrics is not None and metrics.enabled:
        # Post-hoc, outside the search loop: answers and QueryStats stay
        # bit-identical whether this branch runs or not.
        metrics.counter("repro_queries_total", method=plan.method).inc()
        metrics.histogram("repro_query_latency_seconds",
                          method=plan.method).observe(stats.total_time)
        metrics.counter("repro_examined_routes_total",
                        method=plan.method).inc(stats.examined_routes)
        metrics.counter("repro_nn_queries_total",
                        method=plan.method).inc(stats.nn_queries)
        if not stats.completed:
            metrics.counter("repro_queries_incomplete_total",
                            method=plan.method).inc()
    if options.strict_budget and not stats.completed:
        raise BudgetExceededError(
            options.budget if options.budget is not None else -1)
    if options.restore_routes:
        engine._restore(results)
    return KOSRResult(query, results, stats)
