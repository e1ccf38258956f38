"""Per-query runtime context shared by the KOSR algorithms.

Bridges a query, a nearest-neighbor oracle, and a :class:`QueryStats`:

* maps witness *levels* onto category ids, treating level ``|C| + 1`` as
  the dummy destination category ``{t}``;
* caches ``dis(v, t)`` — the admissible StarKOSR estimate — per vertex;
* optionally routes every oracle call through timers so Table X's
  breakdown falls out of normal execution.

Instrumentation is opt-in: the class-level ``heuristic`` / ``nearest`` /
``nearest_estimated`` are the raw fast paths with **zero timer syscalls**;
when ``stats.profile`` is set, ``__init__`` shadows them with instance
attributes bound to the ``_*_profiled`` variants, which reproduce the
original per-call timing exactly.  NN-query *counts* are collected in both
modes (they live on the oracle, not in timers).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.core.query import KOSRQuery
from repro.core.stats import QueryStats
from repro.nn.base import NearestNeighborFinder
from repro.nn.estimated import EstimatedNNFinder
from repro.types import Cost, INFINITY, Vertex


class QueryRuntime:
    """Level-aware NN access with statistics accounting."""

    def __init__(
        self,
        query: KOSRQuery,
        finder: NearestNeighborFinder,
        stats: QueryStats,
        estimated: bool = False,
    ):
        self.query = query
        self.stats = stats
        self._finder = finder
        self._dest_cache: Dict[Vertex, Cost] = {}
        self._dest_computed = 0
        self._estimated = estimated
        self._num_levels = query.num_levels
        self._est_finder: Optional[EstimatedNNFinder] = None
        # dis(·, t) kernel: finders may specialise it for the fixed target
        # (the packed finder probes Lin(t) as a dict instead of merging).
        if hasattr(finder, "make_dest_distance"):
            self._dest_fn = finder.make_dest_distance(query.target)
        else:
            self._dest_fn = lambda v: finder.distance(v, query.target)
        if stats.profile:
            # Shadow the raw accessors with the timing wrappers; the
            # FindNEN view below then books its heuristic calls as
            # estimation time too.
            self.heuristic = self._heuristic_profiled
            self.nearest = self._nearest_profiled
            self.nearest_estimated = self._nearest_estimated_profiled
        if estimated:
            # Finders may supply a fused FindNEN (the packed finder does).
            # The dest-distance memo is shared so cached estimates need no
            # call; profiled runs skip that to keep Table X booking exact.
            cache = None if stats.profile else self._dest_cache
            self._est_finder = finder.make_estimated(self.heuristic, cache)
        if not stats.profile:
            self._bind_fast_paths()

    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return self.query.num_levels

    def finalize_counters(self) -> None:
        """Fold oracle-level counters into the stats object."""
        self.stats.nn_queries = self._finder.queries + self._dest_computed

    # ------------------------------------------------------------------
    def _dest_distance(self, v: Vertex) -> Cost:
        d = self._dest_cache.get(v)
        if d is None:
            d = self._dest_fn(v)
            self._dest_cache[v] = d
            self._dest_computed += 1
        return d

    def _bind_fast_paths(self) -> None:
        """Shadow ``nearest``/``nearest_estimated`` with closures.

        The closures capture the query constants (category list, target,
        level count) and the oracle entry points, removing the per-call
        attribute walks of the plain methods; with a fused FindNEN they
        additionally memoise the per-level pair streams under plain int
        keys and loop on the stream's ``advance`` directly.  Results are
        identical to the methods they shadow.
        """
        query = self.query
        cats = query.categories
        num_levels = self._num_levels
        target = query.target
        dest = self._dest_distance
        finder_find = self._finder.find

        def nearest(v: Vertex, level: int, x: int):
            if level == num_levels:
                if x > 1:
                    return None
                d = dest(v)
                return (target, d) if d != INFINITY else None
            return finder_find(v, cats[level - 1], x)

        self.nearest = nearest

        est = self._est_finder
        if est is None:
            return
        heuristic = self.heuristic
        cursor_entry = getattr(est, "cursor_entry", None)
        if cursor_entry is not None:
            level_memo = [{} for _ in cats]

            def nearest_estimated(v: Vertex, level: int, x: int):
                if level == num_levels:
                    if x > 1:
                        return None
                    d = heuristic(v)
                    return (target, d, d) if d != INFINITY else None
                memo = level_memo[level - 1]
                entry = memo.get(v)
                if entry is None:
                    entry = memo[v] = cursor_entry(v, cats[level - 1])
                enl, advance = entry
                if x <= len(enl):
                    return enl[x - 1]
                try:
                    while len(enl) < x:
                        advance()
                except StopIteration:
                    return None
                return enl[x - 1]
        else:
            est_find = est.find

            def nearest_estimated(v: Vertex, level: int, x: int):
                if level == num_levels:
                    if x > 1:
                        return None
                    d = heuristic(v)
                    return (target, d, d) if d != INFINITY else None
                return est_find(v, cats[level - 1], x)

        self.nearest_estimated = nearest_estimated

    # ------------------------------------------------------------------
    # Raw fast paths (the default; no timer syscalls anywhere below)
    # ------------------------------------------------------------------
    def heuristic(self, v: Vertex) -> Cost:
        """Admissible completion estimate ``dis(v, t)`` (Sec. IV-B)."""
        d = self._dest_cache.get(v)
        if d is None:
            d = self._dest_fn(v)
            self._dest_cache[v] = d
            self._dest_computed += 1
        return d

    def nearest(self, v: Vertex, level: int, x: int) -> Optional[Tuple[Vertex, Cost]]:
        """The ``x``-th nearest neighbor of ``v`` at ``level`` (1-based levels).

        Level ``num_levels`` is the destination: only ``x = 1`` exists and
        the answer is ``(t, dis(v, t))``.
        """
        if level == self._num_levels:
            if x > 1:
                return None
            d = self._dest_distance(v)
            return (self.query.target, d) if d != INFINITY else None
        return self._finder.find(v, self.query.categories[level - 1], x)

    def nearest_estimated(
        self, v: Vertex, level: int, x: int
    ) -> Optional[Tuple[Vertex, Cost, Cost]]:
        """The ``x``-th nearest *estimated* neighbor (StarKOSR, Algorithm 4).

        Returns ``(u, leg, leg + dis(u, t))`` or ``None``.
        """
        if not self._estimated or self._est_finder is None:
            raise RuntimeError("runtime was not built with estimation enabled")
        if level == self._num_levels:
            if x > 1:
                return None
            d = self.heuristic(v)
            return (self.query.target, d, d) if d != INFINITY else None
        return self._est_finder.find(v, self.query.categories[level - 1], x)

    # ------------------------------------------------------------------
    # Profiled variants (Table X breakdown; bound in __init__ on demand)
    # ------------------------------------------------------------------
    def _heuristic_profiled(self, v: Vertex) -> Cost:
        t0 = perf_counter()
        try:
            return self._dest_distance(v)
        finally:
            self.stats.estimation_time += perf_counter() - t0

    def _nearest_profiled(
        self, v: Vertex, level: int, x: int
    ) -> Optional[Tuple[Vertex, Cost]]:
        t0 = perf_counter()
        try:
            if level == self.num_levels:
                if x > 1:
                    return None
                d = self._dest_distance(v)
                return (self.query.target, d) if d != INFINITY else None
            cid = self.query.categories[level - 1]
            return self._finder.find(v, cid, x)
        finally:
            self.stats.nn_time += perf_counter() - t0

    def _nearest_estimated_profiled(
        self, v: Vertex, level: int, x: int
    ) -> Optional[Tuple[Vertex, Cost, Cost]]:
        if not self._estimated or self._est_finder is None:
            raise RuntimeError("runtime was not built with estimation enabled")
        if level == self.num_levels:
            if x > 1:
                return None
            d = self.heuristic(v)
            return (self.query.target, d, d) if d != INFINITY else None
        t0 = perf_counter()
        est_before = self.stats.estimation_time
        try:
            cid = self.query.categories[level - 1]
            return self._est_finder.find(v, cid, x)
        finally:
            # FindNEN internally calls the heuristic; that share is already
            # booked as estimation time, so keep only the remainder as NN time.
            inner_est = self.stats.estimation_time - est_before
            self.stats.nn_time += max(0.0, perf_counter() - t0 - inner_est)
