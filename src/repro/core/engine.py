""":class:`KOSREngine` — the user-facing facade.

Typical use::

    from repro import KOSREngine
    from repro.graph import generators

    graph = generators.cal()
    engine = KOSREngine.build(graph)              # hub labels + inverted indexes
    result = engine.query(source=0, target=42,
                          categories=["cal0", "cal3", "cal7"], k=5)
    for item in result.results:
        print(item.witness.vertices, item.cost)

The engine owns the offline artefacts (label index, inverted indexes,
optional disk store) and *plans* online queries through the service
layer's method registry (:mod:`repro.service.planner`): each method is a
registered executor with declared resource needs, executed by
:func:`repro.service.execution.execute_plan`.  ``KOSREngine.run`` uses
cold per-query resources — a fresh finder and fresh memos, the paper's
measurement setup — while :attr:`KOSREngine.service` exposes the warm
:class:`~repro.service.service.QueryService` for workload serving
(cross-query caches, grouped batches).

Every index mutation stamps :attr:`index_epoch`; the service layer's
session caches validate against it, so stale cross-query state can never
survive an update (see ``SessionCache``).

The index is one representation: flat-buffer label and inverted indexes
(:class:`~repro.labeling.packed.PackedLabelIndex`,
:class:`~repro.labeling.packed_inverted.PackedInvertedIndex`, or their
mmap-attached views), so every query hot path is index arithmetic over
parallel buffers.  Dynamic category updates go through a per-category
delta overlay that queries lazily fold in (see
:meth:`KOSREngine.add_vertex_to_category` / :meth:`KOSREngine.compact`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.api import DEFAULT_OPTIONS, QueryOptions, resolve_options
from repro.core.query import KOSRQuery, make_query
from repro.core.stats import PreprocessingStats, QueryStats
from repro.exceptions import BudgetExceededError, QueryError  # noqa: F401  (re-export)
from repro.graph.graph import Graph
from repro.labeling import updates as _updates
from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_indexes,
)
from repro.labeling.pll_unweighted import build_labels_auto
from repro.labeling.storage import CategoryShardStore
from repro.nn.base import NearestNeighborFinder
from repro.nn.dijkstra_nn import DijkstraNNFinder
from repro.nn.label_nn import PackedLabelNNFinder
from repro.service.execution import execute_plan
from repro.service.planner import METHODS, NN_BACKENDS
from repro.service.service import QueryService
from repro.types import CategoryId, Route, SequencedResult, Vertex

__all__ = [
    "KOSREngine",
    "KOSRResult",
    "METHODS",
    "NN_BACKENDS",
]


@dataclass
class KOSRResult:
    """Answer set plus execution statistics for one query."""

    query: KOSRQuery
    results: List[SequencedResult]
    stats: QueryStats

    @property
    def costs(self) -> List[float]:
        return [r.cost for r in self.results]

    @property
    def witnesses(self) -> List[tuple]:
        return [r.witness.vertices for r in self.results]


class KOSREngine:
    """Offline indexes + online KOSR/OSR query dispatch."""

    def __init__(
        self,
        graph: Graph,
        labels: Optional[PackedLabelIndex] = None,
        inverted: Optional[Dict[CategoryId, PackedInvertedIndex]] = None,
        preprocessing: Optional[PreprocessingStats] = None,
    ):
        self.graph = graph
        self.labels = labels
        self.inverted = inverted
        self.preprocessing = preprocessing
        self._store: Optional[CategoryShardStore] = None
        self._ch = None
        #: build-time compaction-threshold override, re-applied when
        #: structure updates rebuild the inverted indexes
        self._overlay_ratio: Optional[float] = None
        #: engine-level epoch contribution (bumped by structure updates
        #: and explicit compaction; see :attr:`index_epoch`)
        self._epoch_base = 0
        self._service: Optional[QueryService] = None
        #: the open MmapIndexFile when this engine attached one
        #: (:meth:`from_index_file`); kept so the mapping outlives views
        self._index_file = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _inverted_stats(stats: PreprocessingStats, inverted) -> None:
        """Fill the Table IX inverted-index statistics."""
        totals = [il.total_entries for il in inverted.values()]
        stats.inverted_entries = sum(totals)
        stats.avg_il_per_category = (sum(totals) / len(totals)) if totals else 0.0
        lengths = [il.average_list_length() for il in inverted.values() if il.num_hubs]
        stats.avg_il_list_length = (sum(lengths) / len(lengths)) if lengths else 0.0

    @staticmethod
    def _apply_overlay_ratio(inverted, overlay_ratio: Optional[float]) -> None:
        if overlay_ratio is None:
            return
        for il in inverted.values():
            il.overlay_ratio = overlay_ratio

    @classmethod
    def build(
        cls,
        graph: Graph,
        order: Optional[Sequence[Vertex]] = None,
        name: str = "",
        overlay_ratio: Optional[float] = None,
    ) -> "KOSREngine":
        """Build hub labels and inverted indexes, recording Table IX stats.

        ``overlay_ratio`` overrides the per-category compaction threshold
        (the fraction of live entries the delta overlay may reach before a
        category's buffers are rebuilt).
        """
        t0 = time.perf_counter()
        labels = build_labels_auto(graph, order)
        label_seconds = time.perf_counter() - t0
        engine = cls.from_labels(graph, labels, name, overlay_ratio)
        engine.preprocessing.label_build_seconds = label_seconds
        return engine

    @classmethod
    def from_labels(
        cls,
        graph: Graph,
        labels: PackedLabelIndex,
        name: str = "",
        overlay_ratio: Optional[float] = None,
    ) -> "KOSREngine":
        """Assemble an engine from prebuilt labels (rebuilds only the
        inverted indexes).

        Hub labels depend solely on graph topology, so experiment sweeps
        that vary *category assignments* (|Ci|, zipf skew) reuse one label
        index across settings — this is the paper's setup, where labels are
        precomputed offline once per graph.  ``labels`` is used as-is, so
        engines can share one index instance.
        """
        stats = PreprocessingStats(
            graph_name=name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
        stats.avg_lin, stats.avg_lout = labels.average_label_sizes()
        stats.label_entries = labels.size_entries()
        t0 = time.perf_counter()
        inverted = build_packed_inverted_indexes(graph, labels)
        cls._apply_overlay_ratio(inverted, overlay_ratio)
        stats.inverted_build_seconds = time.perf_counter() - t0
        cls._inverted_stats(stats, inverted)
        engine = cls(graph, labels, inverted, stats)
        engine._overlay_ratio = overlay_ratio
        return engine

    @classmethod
    def from_index_file(
        cls,
        graph: Graph,
        path,
        name: str = "",
        overlay_ratio: Optional[float] = None,
    ) -> "KOSREngine":
        """Attach a saved RPLI index file zero-copy (mmap, no build).

        The returned engine runs over
        :class:`~repro.labeling.mmap_index.MmapLabelIndex` /
        ``MmapInvertedIndex`` views into the file: construction is an
        ``open`` + ``mmap`` + header parse, and every process attaching
        the same file shares one physical index through the OS page
        cache.  Categories the file lacks inverted sections for (or all
        of them, for a labels-only file) are built privately from
        ``graph`` + the mapped labels.  Results are bit-identical to an
        engine built from scratch (parity-tested).
        """
        from repro.exceptions import IndexStorageError
        from repro.labeling.mmap_index import MmapIndexFile
        from repro.labeling.packed_inverted import build_packed_inverted_index

        index_file = MmapIndexFile.open(path)
        try:
            if index_file.num_vertices != graph.num_vertices:
                raise IndexStorageError(
                    f"{path}: index file covers {index_file.num_vertices} "
                    f"vertices but the graph has {graph.num_vertices}")
            labels = index_file.labels
            stats = PreprocessingStats(
                graph_name=name,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
            )
            stats.avg_lin, stats.avg_lout = labels.average_label_sizes()
            stats.label_entries = labels.size_entries()
            t0 = time.perf_counter()
            inverted = {}
            for cid in range(graph.num_categories):
                if index_file.has_category(cid):
                    inverted[cid] = index_file.inverted_view(cid)
                else:
                    inverted[cid] = build_packed_inverted_index(
                        graph, labels, cid)
            cls._apply_overlay_ratio(inverted, overlay_ratio)
            stats.inverted_build_seconds = time.perf_counter() - t0
            cls._inverted_stats(stats, inverted)
        except Exception:
            index_file.close()
            raise
        engine = cls(graph, labels, inverted, stats)
        engine._overlay_ratio = overlay_ratio
        engine._index_file = index_file
        return engine

    # ------------------------------------------------------------------
    # Index persistence + memory accounting
    # ------------------------------------------------------------------
    def save_index(self, path) -> int:
        """Write labels + inverted indexes as one RPLI v2 index file.

        The file is what :meth:`from_index_file` (and shard workers in
        mmap mode) attach zero-copy.  Returns bytes written.
        """
        from repro.labeling.packed import write_index_file

        if self.labels is None or self.inverted is None:
            raise QueryError("build the indexes before saving an index file")
        return write_index_file(path, self.labels, self.inverted)

    def index_memory(self) -> Dict[str, object]:
        """Resident vs serialized index footprint of this engine.

        ``*_resident`` estimates live in-process bytes (near zero for
        mmap-attached indexes, whose pages are shared file cache);
        ``*_serialized`` is the 8-bytes-per-element at-rest size (zeros
        on an engine without label indexes).  Surfaced per worker through
        the TCP ``{"stats": true}`` reply.
        """
        labels = self.labels
        inverted = self.inverted or {}
        labels_resident = labels.nbytes_resident if labels is not None else 0
        labels_serialized = (labels.nbytes_serialized
                             if labels is not None else 0)
        inverted_resident = sum(il.nbytes_resident for il in inverted.values())
        inverted_serialized = sum(il.nbytes_serialized
                                  for il in inverted.values())
        payload: Dict[str, object] = {
            "shared": bool(getattr(labels, "is_mmap", False)),
            "labels_resident": labels_resident,
            "labels_serialized": labels_serialized,
            "inverted_resident": inverted_resident,
            "inverted_serialized": inverted_serialized,
            "inverted_categories": len(inverted),
            "inverted_shared": sum(
                1 for il in inverted.values()
                if getattr(il, "is_mmap", False)),
            "total_resident": labels_resident + inverted_resident,
            "total_serialized": labels_serialized + inverted_serialized,
        }
        if self._index_file is not None:
            payload["index_file"] = self._index_file.path
            payload["index_file_bytes"] = self._index_file.size_bytes
        return payload

    # ------------------------------------------------------------------
    # Index epoch + service access
    # ------------------------------------------------------------------
    @property
    def index_epoch(self) -> int:
        """Monotonic stamp of the index state.

        Moves whenever category updates, edge updates, or compaction
        change the indexes: the engine-level ``_epoch_base`` covers
        wholesale rebuilds and explicit :meth:`compact`, while the
        per-index ``version`` counters (bumped inside the labeling layer)
        cover incremental mutations — including ones applied through the
        module-level update helpers behind the engine's back.  Session
        caches (:class:`~repro.service.cache.SessionCache`) compare this
        stamp before serving from warm state.
        """
        epoch = self._epoch_base
        if self.inverted:
            epoch += sum(getattr(il, "version", 0)
                         for il in self.inverted.values())
        return epoch

    @property
    def epoch_base(self) -> int:
        """The engine-level component of :attr:`index_epoch`.

        Moves only on *wholesale* index changes — :meth:`update_edge`
        (labels rebuilt, every category replaced) and :meth:`compact`
        (physical buffers rewritten).  Incremental category updates move
        only the per-index ``version`` counters.  Session caches use the
        split to tell "one category changed" (partial invalidation) from
        "everything changed" (full drop).
        """
        return self._epoch_base

    def category_versions(self) -> Dict[CategoryId, int]:
        """Per-category index version counters (``{}`` before build()).

        A category's counter moves with every mutation of its inverted
        index — overlay inserts/tombstones and compaction — but not with
        lazy query-time overlay folds, which are purely physical.
        Together with :attr:`epoch_base` this is the state a
        :class:`~repro.service.cache.SessionCache` diffs to invalidate
        only the categories an update actually touched.
        """
        if not self.inverted:
            return {}
        return {cid: getattr(il, "version", 0)
                for cid, il in self.inverted.items()}

    @property
    def service(self) -> QueryService:
        """The engine's warm :class:`QueryService` (created lazily).

        Use it for workloads: ``engine.service.run_batch(queries)``
        shares per-target ``dis(·, t)`` kernels, warm FindNN streams,
        and SK-DB shard views across queries while reporting the same
        results and counters as cold per-query runs.
        """
        if self._service is None:
            self._service = QueryService(self)
        return self._service

    # ------------------------------------------------------------------
    # Dynamic updates (Sec. IV-C)
    # ------------------------------------------------------------------
    def add_vertex_to_category(self, v: Vertex, cid: CategoryId) -> None:
        """Insert ``cid`` into ``F(v)``, patching ``IL(cid)``.

        The deltas are staged in the category's overlay (folded in lazily
        by the next queries, compacted automatically past
        ``overlay_ratio``).  Any attached
        disk store is detached — its shards no longer reflect the
        indexes (re-run :meth:`attach_disk_store` to refresh them).  The
        index epoch moves, invalidating session caches.
        """
        self._require_indexes()
        _updates.add_vertex_to_category(
            self.graph, self.labels, self.inverted, v, cid)
        self._store = None

    def remove_vertex_from_category(self, v: Vertex, cid: CategoryId) -> None:
        """Remove ``cid`` from ``F(v)`` (symmetric to the insert)."""
        self._require_indexes()
        _updates.remove_vertex_from_category(
            self.graph, self.labels, self.inverted, v, cid)
        self._store = None

    def update_edge(self, u: Vertex, v: Vertex, weight: Optional[float],
                    order: Optional[Sequence[Vertex]] = None) -> None:
        """Apply one edge insert/change/delete (``weight=None`` deletes).

        Rebuilds labels and inverted indexes, keeping the build-time
        ``overlay_ratio``.  The cached CH and any attached
        disk store are dropped (both stale after a structure change), and
        the index epoch moves past every previous value.
        """
        self._require_indexes()
        # Stamp past the outgoing epoch *before* the rebuild swaps in
        # fresh indexes whose version counters restart at zero.
        self._epoch_base = self.index_epoch + 1
        self.labels, self.inverted = _updates.update_edge(
            self.graph, u, v, weight, order)
        self._apply_overlay_ratio(self.inverted, self._overlay_ratio)
        self._ch = None
        self._store = None

    def compact(self) -> None:
        """Fold every category's delta overlay in and drop buffer garbage.

        Query results are unchanged.  Call it after an update burst to return
        to the garbage-free flat-buffer layout instead of waiting for the
        per-category ``overlay_ratio`` trigger.  Bumps the index epoch:
        compaction rebuilds the physical buffers, so session caches
        re-snapshot rather than trusting warm cursors over them.
        """
        self._epoch_base += 1
        if self.inverted:
            for il in self.inverted.values():
                il.compact()

    def _require_indexes(self) -> None:
        if self.labels is None or self.inverted is None:
            raise QueryError("dynamic updates require built indexes; call build()")

    def attach_disk_store(self, path) -> CategoryShardStore:
        """Serialise the indexes to ``path`` and enable the SK-DB method."""
        if self.labels is None or self.inverted is None:
            raise QueryError("build the in-memory indexes before writing shards")
        store = CategoryShardStore(path)
        store.write_all(self.graph, self.labels, self.inverted)
        self._store = store
        return store

    # ------------------------------------------------------------------
    # Query dispatch
    # ------------------------------------------------------------------
    def make_query(
        self,
        source: Vertex,
        target: Vertex,
        categories: Sequence[Union[str, CategoryId]],
        k: int = 1,
    ) -> KOSRQuery:
        return make_query(self.graph, source, target, categories, k)

    def query(
        self,
        source: Vertex,
        target: Vertex,
        categories: Sequence[Union[str, CategoryId]],
        k: int = 1,
        method: Optional[str] = None,
        nn_backend: Optional[str] = None,
        budget: Optional[int] = None,
        time_budget_s: Optional[float] = None,
        restore_routes: Optional[bool] = None,
        strict_budget: Optional[bool] = None,
        profile: Optional[bool] = None,
        options: Optional[QueryOptions] = None,
    ) -> KOSRResult:
        """Answer a KOSR query (the documented one-liner).

        ``method`` defaults to ``"SK"`` and ``nn_backend`` to ``"label"``
        (the library-wide :data:`~repro.api.DEFAULT_OPTIONS`).  ``budget``
        caps examined routes and ``time_budget_s`` caps wall time
        (``stats.completed`` turns False when either is hit — the paper's
        INF); ``strict_budget`` escalates either guard into
        :class:`~repro.exceptions.BudgetExceededError`.  ``restore_routes``
        additionally materialises each witness into an actual
        vertex-by-vertex route via label parent pointers.  ``profile`` opts
        into the per-operation Table X timers
        (``nn_time``/``queue_time``/``estimation_time``); by default the
        hot loops run instrumentation-free and those fields stay 0.0 while
        every counter still populates.

        The keywords are sugar over one :class:`~repro.api.QueryOptions`:
        explicitly-passed keywords layer over ``options`` (same merge
        semantics as ``options.replace``), so this path can never drift
        from :meth:`run` again.
        """
        q = self.make_query(source, target, categories, k)
        overrides = {name: value for name, value in (
            ("method", method), ("nn_backend", nn_backend),
            ("budget", budget), ("time_budget_s", time_budget_s),
            ("restore_routes", restore_routes),
            ("strict_budget", strict_budget), ("profile", profile),
        ) if value is not None}
        base = options if options is not None else DEFAULT_OPTIONS
        return self.run(q, base.replace(**overrides) if overrides else base)

    def run(
        self,
        q: KOSRQuery,
        options: Optional[QueryOptions] = None,
    ) -> KOSRResult:
        """Answer a prevalidated :class:`KOSRQuery` with cold resources.

        ``options`` (a :class:`~repro.api.QueryOptions`, defaulting to
        :data:`~repro.api.DEFAULT_OPTIONS`) selects the method, NN backend
        and execution knobs.  The method dispatch resolves through the
        service layer's planner registry; execution builds a fresh finder
        and fresh memos per query (the paper's measurement setup).  For
        warm cross-query caching and batched workloads use
        :attr:`service`.
        """
        options = resolve_options(options, "KOSREngine.run")
        return execute_plan(self, options.plan(), q, options)

    def contraction_hierarchy(self):
        """The engine's CH (built lazily, cached; used by GSP-CH)."""
        if self._ch is None:
            from repro.ch import build_ch

            self._ch = build_ch(self.graph)
        return self._ch

    # ------------------------------------------------------------------
    def _make_finder(self, nn_backend: str) -> NearestNeighborFinder:
        if nn_backend == "label":
            if self.labels is None or self.inverted is None:
                raise QueryError("label backend requires built indexes; call build()")
            return PackedLabelNNFinder(self.labels, self.inverted)
        if nn_backend == "dij-restart":
            return DijkstraNNFinder(self.graph, mode="restart")
        if nn_backend == "dij-resume":
            return DijkstraNNFinder(self.graph, mode="resume")
        raise QueryError(f"unknown NN backend {nn_backend!r}; choose from {NN_BACKENDS}")

    def _restore(self, results: List[SequencedResult]) -> None:
        if self.labels is None:
            raise QueryError("route restoration requires the in-memory label index")
        for item in results:
            cost, vertices = self.labels.restore_witness_route(item.witness.vertices)
            item.route = Route(tuple(vertices), cost, item.witness)
