"""Category-partitioned multi-process serving: :class:`ShardedQueryService`.

N worker processes, each owning an engine + warm
:class:`~repro.service.service.QueryService` over the category subset a
:class:`~repro.shard.router.CategoryShardRouter` assigns it.  The parent
process keeps only the graph and hub labels (for request validation and
worker bootstrap) — no inverted indexes — and routes each request to
*one* shard via the resolved plan's declared needs: finder plans run on
the primary owner (the shard of the query's first category), which
faults in the query's other categories and answers the whole sequenced
search in one execution, exactly as the paper's single search does.

Because workers are separate processes, this is the layer that makes the
serving stack truly parallel on stock CPython: the thread-pool paths
(``run_batch(max_workers=...)``, ``AsyncQueryService``) overlap only
IO/allocation under the GIL, while shards overlap the pure-Python search
itself — one core per shard.

Contract highlights (pinned by ``tests/test_sharded.py``):

* **Cold-equivalence survives sharding** — every answer (results *and*
  ``QueryStats`` counters) is bit-identical to a fresh unsharded cold
  engine, including requests whose categories span shards and
  post-update runs.
* **Epoch-synchronized updates** — category updates broadcast to every
  worker and return only once all have acknowledged, so the next request
  (to any shard) observes the update exactly like a cold engine would;
  each worker's own epoch-versioned session cache handles invalidation.
  ``update_edge`` works live too: a parent-side background label rebuild
  followed by an epoch-fenced prepare/commit swap (queries keep serving
  the old index until the fence commits).
* **Recovery** — a worker that fails an update exchange gets a bounded
  retry, then is quarantined and respawned from the parent's current
  state (re-attaching the shared index file and replaying pending
  updates where one exists); only when recovery itself fails is the
  fleet poisoned, and then every later query fails fast.  A read that
  finds its worker dead or hung respawns it the same way and is sent
  once more.
* **Lifecycle** — workers are spawned on construction and health-checked
  via :meth:`ping`; :meth:`close` drains in-flight requests (the
  per-shard request/response protocol is synchronous), asks each worker
  to exit, and escalates to ``terminate()`` only after a grace period.

Thread safety: one lock per shard serialises that worker's pipe; calls
for *different* shards proceed concurrently (this is what the async
front-end's thread pool exploits).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.api import QueryOptions, QueryRequest, resolve_options
from repro.core.query import KOSRQuery, make_query
from repro.exceptions import QueryError, ShardError
from repro.obs.metrics import REGISTRY as _METRICS, merge_snapshots
from repro.service.planner import QueryPlan, resolve_plan
from repro.service.service import BatchResult, QueryService
# merge_topk_results is re-exported: the traced fleet run in
# perfbench/workloads.py wraps this module's attribute.
from repro.shard.router import (  # noqa: F401
    CategoryShardRouter, merge_topk_results)
from repro.shard.worker import pipe_recv, pipe_send, worker_main
from repro.types import CategoryId, Vertex

#: default seconds to wait for one worker response before declaring it dead
DEFAULT_TIMEOUT_S = 120.0

#: message kinds that are idempotent reads: a dead or hung worker is
#: respawned and the read sent once more (see ShardedQueryService._dispatch)
_READS = ("query", "stream")


class ShardedQueryService:
    """Category-partitioned engines behind a plan-aware router.

    ``graph`` is shared by every shard (topology + category membership);
    ``labels`` (topology-only, so shard-agnostic) are built once here
    when not supplied and shipped to each worker, which materialises
    inverted indexes for its owned categories only.  ``max_dest_kernels``
    / ``max_finders`` apply to each worker's session cache, exactly as on
    an unsharded :class:`QueryService`.

    ``mmap_index=True`` switches worker bootstrap to build-once/
    attach-many: the parent builds and saves the full index (labels plus
    *every* category's inverted sections) to one temp RPLI file, and
    each worker attaches it read-only via ``mmap`` — spawn is an
    open+mmap instead of any index build, and the whole fleet shares a
    single physical index through the OS page cache.  ``index_path``
    attaches a pre-saved file (``KOSREngine.save_index`` / the CLI's
    ``index build``) instead, skipping the parent build too.

    Use as a context manager or call :meth:`close`; workers are daemonic,
    so they can never outlive the parent even on an unclean exit.
    """

    def __init__(self, graph, num_shards: int, labels=None,
                 overlay_ratio: Optional[float] = None,
                 max_dest_kernels: Optional[int] = None,
                 max_finders: Optional[int] = None,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 start_method: Optional[str] = None,
                 build_labels: bool = True,
                 index_path=None,
                 mmap_index: bool = False,
                 metrics: Optional[bool] = None,
                 update_retries: int = 1,
                 fault_injection: Optional[Dict[int, dict]] = None):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.graph = graph
        self.router = CategoryShardRouter(num_shards)
        self.timeout_s = timeout_s
        self._rr = itertools.count()
        self._plans: Dict[tuple, QueryPlan] = {}
        # Spawn configuration is kept so a quarantined worker can be
        # respawned mid-life with the same shape as its fleet-mates.
        self._overlay_ratio = overlay_ratio
        self._max_dest_kernels = max_dest_kernels
        self._max_finders = max_finders
        #: retries of a failed update exchange before quarantine+respawn
        self.update_retries = max(0, int(update_retries))
        #: workers replaced by the quarantine-and-respawn recovery path
        self.respawns = 0
        #: categories touched by update broadcasts since the index file
        #: was written — a respawned mmap worker must not re-attach
        #: their pre-update file sections (see _respawn_worker_locked)
        self._stale_log: set = set()
        #: serialises the mutation entry points (category updates,
        #: update_edge, compact) against each other; queries only take
        #: the per-shard locks
        self._update_lock = threading.Lock()
        #: test-only per-shard worker fault specs (see worker._maybe_fault)
        self._fault_injection = dict(fault_injection or {})
        # Workers enable their own registries at spawn: the parent's
        # enable state is captured here (or forced via ``metrics=``) and
        # travels as an explicit worker_main argument, because under the
        # spawn start method children re-import modules and would
        # otherwise come up with metrics off regardless of the parent.
        self._metrics_workers = (_METRICS.enabled if metrics is None
                                 else bool(metrics))
        self._closed = False
        self._diverged: Optional[str] = None
        self._epoch = 0
        self._broadcast_pool = None
        self._index_file = None
        self._owns_index_file = False
        self.index_path: Optional[str] = None
        if index_path is not None:
            mmap_index = True
        if mmap_index and index_path is None:
            # Build-once/attach-many: the parent builds the full index
            # (labels + every category's inverted sections), saves it as
            # one RPLI file, and every worker attaches that file instead
            # of rebuilding — spawn is an open+mmap and the OS page
            # cache holds a single physical index for the whole fleet.
            from repro.labeling.packed import write_index_file
            from repro.labeling.packed_inverted import \
                build_packed_inverted_indexes
            from repro.labeling.pll_unweighted import build_labels_auto

            if labels is None:
                labels = build_labels_auto(graph)
            inverted = build_packed_inverted_indexes(graph, labels)
            fd, tmp = tempfile.mkstemp(prefix="repro-index-",
                                       suffix=".rpli")
            os.close(fd)
            write_index_file(tmp, labels, inverted)
            index_path = tmp
            self._owns_index_file = True
            # Free the parent's list-backed copies before spawning so
            # (fork) children inherit only the mapped pages, not the
            # private build artefacts.
            del inverted
            labels = None
        if index_path is not None:
            from repro.labeling.mmap_index import MmapIndexFile

            self.index_path = str(index_path)
            self._index_file = MmapIndexFile.open(index_path)
            if self._index_file.num_vertices != graph.num_vertices:
                file_vertices = self._index_file.num_vertices
                self._cleanup_index_file()
                raise QueryError(
                    f"{index_path}: index file covers {file_vertices} "
                    f"vertices but the graph has {graph.num_vertices}")
            labels = self._index_file.labels
        elif labels is None and build_labels:
            # build_labels=False ships a topology-only fleet: workers hold
            # no label/inverted indexes and serve only finder-free plans
            # (GSP family) — the same label-build skip the unsharded CLI
            # path applies to all-GSP workloads.
            from repro.labeling.pll_unweighted import build_labels_auto

            labels = build_labels_auto(graph)
        self.labels = labels

        self._ctx = mp.get_context(start_method) if start_method else \
            mp.get_context()
        self._conns = []
        self._procs = []
        self._locks = [threading.Lock() for _ in range(num_shards)]
        #: per-shard request sequence numbers (guarded by the shard lock);
        #: workers echo them so stale replies from abandoned (timed-out)
        #: exchanges are discarded instead of answering a later request
        self._seqs = [0] * num_shards
        for shard in range(num_shards):
            conn, proc = self._start_worker(
                shard, self._fault_injection.get(shard))
            self._conns.append(conn)
            self._procs.append(proc)
        # Startup handshake: each worker reports health (or its build
        # error) once its engine + service exist.  The request timeout
        # does not apply — index builds legitimately take minutes on
        # large graphs, so the handshake waits as long as the worker
        # process lives (death is still detected by the poll loop).  On
        # any failure the already-spawned workers are torn down before
        # re-raising — a caller that catches and retries must not
        # accumulate orphaned resident fleets.
        try:
            for shard in range(num_shards):
                self._recv(shard, 0, timeout_s=float("inf"))
        except BaseException:
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in self._procs:
                proc.join(timeout=2.0)
            for conn in self._conns:
                conn.close()
            self._closed = True
            self._cleanup_index_file()
            raise

    def _start_worker(self, shard: int, fault: Optional[dict] = None):
        """Start shard ``shard``'s worker from the parent's current state.

        Returns the parent's pipe end and the process; the caller waits
        for the startup handshake.  mmap workers attach the index file
        themselves: they get its path, not the (unpicklable, and
        pointlessly large) mapped labels.
        """
        owned = self.router.owned_categories(shard,
                                             self.graph.num_categories)
        labels = None if self.index_path is not None else self.labels
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.graph, labels, owned, self._overlay_ratio,
                  self._max_dest_kernels, self._max_finders, self.index_path,
                  self._metrics_workers, shard, fault),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    def _cleanup_index_file(self) -> None:
        """Release the parent's mapping; unlink the temp file if we made it.

        Unlinking is safe on Linux even while workers still serve from
        the file: their mappings keep the inode (and its page-cache
        pages) alive until the last one closes.
        """
        if self._index_file is not None:
            self._index_file.close()
            self._index_file = None
        if self._owns_index_file and self.index_path is not None:
            try:
                os.unlink(self.index_path)
            except OSError:
                pass
            self._owns_index_file = False

    @classmethod
    def from_engine(cls, engine, num_shards: int,
                    **kwargs) -> "ShardedQueryService":
        """Partition an existing engine's graph + labels across shards.

        The graph is *copied*: the sharded service owns its own category
        membership (update broadcasts mutate it), and must not invalidate
        the donor engine's indexes behind its back.  The labels are
        shared as-is — they are topology-only and read-only here.
        """
        kwargs.setdefault("overlay_ratio", engine._overlay_ratio)
        return cls(engine.graph.copy(), num_shards, labels=engine.labels,
                   **kwargs)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def index_epoch(self) -> int:
        """Router-level update counter (bumped per synchronized broadcast)."""
        return self._epoch

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _recv(self, shard: int, seq: int,
              timeout_s: Optional[float] = None, on_route=None):
        """Receive the reply to exchange ``seq``, discarding stale ones.

        A reply whose echoed sequence number is lower than ``seq``
        belongs to an exchange that already timed out — its caller got a
        :class:`ShardError` long ago, so it is dropped here rather than
        desynchronizing the pipe and answering the wrong request (a dead
        stream's leftover ``"route"`` frames are discarded the same way).
        ``on_route`` consumes this exchange's interim ``"route"`` frames
        (streamed queries); the final ``"ok"`` still ends the exchange.
        ``timeout_s`` overrides the service-wide request timeout (the
        startup handshake passes ``inf``: only worker death ends it).
        """
        timeout = self.timeout_s if timeout_s is None else timeout_s
        conn = self._conns[shard]
        deadline = time.monotonic() + timeout
        while True:
            while not conn.poll(min(0.2, timeout)):
                if not self._procs[shard].is_alive():
                    raise ShardError(shard, "worker process died")
                if time.monotonic() > deadline:
                    raise ShardError(
                        shard, f"no response within {timeout:.0f}s")
            try:
                kind, reply_seq, payload = pipe_recv(conn)
            except (EOFError, OSError) as exc:
                raise ShardError(shard, f"worker pipe closed ({exc!r})")
            if reply_seq < seq:
                continue  # stale reply from a timed-out exchange
            if kind == "route":
                if on_route is not None:
                    on_route(payload)
                continue
            if kind == "err":
                raise payload
            return payload

    def _exchange_locked(self, shard: int, msg: tuple, on_route=None):
        """One sequence-stamped send/recv; the caller holds the shard lock."""
        if self._closed:
            raise ShardError(shard, "service is closed")
        self._seqs[shard] += 1
        seq = self._seqs[shard]
        try:
            pipe_send(self._conns[shard], (msg[0], seq, *msg[1:]))
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(shard, f"worker pipe closed ({exc!r})")
        return self._recv(shard, seq, on_route=on_route)

    def _dispatch(self, shard: int, msg: tuple, on_route=None):
        """One synchronous request/response exchange with a worker.

        Reads (:data:`_READS`) fail fast on a diverged fleet and heal: a
        worker that dies or times out mid-read is quarantined and
        respawned under the shard lock (:meth:`_respawn_worker_locked`,
        the update ladder's step 2), and the read — idempotent — is sent
        once more to the replacement.  A stream that already delivered a
        route cannot be replayed without the caller seeing routes twice,
        so it fails with a :class:`ShardError` after the respawn instead.
        Operator probes (ping, stats, metrics) never respawn: they report
        the worker as they find it.
        """
        read = msg[0] in _READS
        if read and self._diverged is not None:
            raise ShardError(-1, self._diverged)
        metrics = _METRICS
        timed = metrics.enabled
        if timed:
            t0 = time.perf_counter()
        with self._locks[shard]:
            if read:
                payload = self._read_locked(shard, msg, on_route)
            else:
                payload = self._exchange_locked(shard, msg,
                                                on_route=on_route)
        if timed:
            metrics.counter("repro_shard_requests_total",
                            shard=shard).inc()
            metrics.histogram("repro_shard_roundtrip_seconds",
                              shard=shard).observe(time.perf_counter() - t0)
        return payload

    def _read_locked(self, shard: int, msg: tuple, on_route=None):
        """A read exchange with one respawn-and-resend (caller holds the lock)."""
        delivered = 0

        def deliver(res):
            nonlocal delivered
            delivered += 1
            on_route(res)

        try:
            return self._exchange_locked(
                shard, msg, on_route=None if on_route is None else deliver)
        except ShardError:
            pass  # transport failure: heal below (worker errors propagate)
        self._respawn_worker_locked(shard)
        if delivered:
            raise ShardError(
                shard, f"worker failed after streaming {delivered} "
                       f"route(s); it was respawned, the stream is not "
                       f"replayed")
        return self._exchange_locked(shard, msg, on_route=on_route)

    def _update_exchange(self, shard: int, msg: tuple,
                         resend_after_respawn: bool = True):
        """One update exchange with bounded retry, then respawn recovery.

        Holds the shard lock across the *whole* recovery, so no query
        can reach a half-recovered worker.  The ladder:

        1. ordinary exchange; on failure, up to ``update_retries``
           resends.  Every update message is idempotent — category
           updates early-return when membership already matches,
           ``prepare_edge`` restages, ``commit_edge`` checks its fence —
           and the sequence protocol discards a slow first reply, so a
           retry after a *timeout* (rather than a death) cannot
           double-apply or cross wires.
        2. quarantine-and-respawn: the worker process is terminated
           (killing a hung one) and replaced from the parent's current
           state (:meth:`_respawn_worker_locked`), then the message is
           resent once — except when the respawn itself already implies
           the message's effect (``commit_edge`` after the parent
           adopted the post-update state), where the caller passes
           ``resend_after_respawn=False``.  Such a message goes straight
           to the respawn when the worker *rejects* it: a read respawned
           that worker between its prepare and its commit, so it has no
           staged state to match the fence.
        3. failure past that propagates; the caller decides whether the
           fleet is diverged (commit path) or cleanly abortable (prepare
           path).
        """
        with self._locks[shard]:
            for _ in range(1 + self.update_retries):
                try:
                    return self._exchange_locked(shard, msg)
                except ShardError:
                    continue
                except ValueError:
                    if resend_after_respawn:
                        raise
                    break
            self._respawn_worker_locked(shard)
            if not resend_after_respawn:
                return None
            return self._exchange_locked(shard, msg)

    def _respawn_worker_locked(self, shard: int) -> None:
        """Replace one worker process in place (caller holds its lock).

        The replacement spawns from the parent's *current* graph — whose
        category membership already reflects every applied update — and
        either re-attaches the shared index file (replaying pending
        updates by marking the touched categories stale, so fault-ins
        rebuild them from the current graph instead of the pre-update
        file sections) or builds fresh from the parent's current labels.
        Either way the new worker is bit-identical to its fleet-mates
        before the shard lock is released, so no query can observe a
        half-recovered shard.  Raises if the replacement fails its
        startup handshake: an update caller then decides on divergence,
        a read simply fails (the next read tries the respawn again).
        """
        if self._closed:
            raise ShardError(shard, "service is closed")
        proc = self._procs[shard]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        try:
            self._conns[shard].close()
        except OSError:
            pass
        self._conns[shard], self._procs[shard] = self._start_worker(shard)
        # Startup handshake (seq 0; the live sequence counter keeps
        # counting — the fresh worker simply echoes whatever it is sent).
        self._recv(shard, 0, timeout_s=float("inf"))
        if self.index_path is not None and self._stale_log:
            self._exchange_locked(shard, ("stale", sorted(self._stale_log)))
        self.respawns += 1
        metrics = _METRICS
        if metrics.enabled:
            metrics.counter("repro_shard_respawns_total", shard=shard).inc()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def make_query(self, source: Vertex, target: Vertex, categories,
                   k: int = 1) -> KOSRQuery:
        """Build and validate a query against the (update-current) graph."""
        return make_query(self.graph, source, target, categories, k)

    def plan(self, method: str, nn_backend: str = "label") -> QueryPlan:
        """Resolve (and memoise) the plan of ``(method, nn_backend)``.

        :class:`QueryService` signature compatibility — the async front
        door's plan-aware admission consults the resolved plan's declared
        needs through this, exactly as :meth:`owners_for` does.
        """
        key = (method, nn_backend)
        plan = self._plans.get(key)
        if plan is None:
            plan = resolve_plan(method, nn_backend)
            self._plans[key] = plan
        return plan

    def owners_for(self, query: KOSRQuery,
                   options: QueryOptions) -> List[int]:
        """The shard that will serve this request, as a one-element list.

        Resolves the plan (validating method / NN backend) and reads its
        declared needs: finder-free plans route round-robin, finder plans
        route to the primary owner — the shard of the query's first
        category (:meth:`CategoryShardRouter.primary`).  That worker
        faults in the query's other categories, so one execution answers
        the whole sequenced search.  SK-DB is rejected — workers hold no
        disk store.
        """
        plan = resolve_plan(options.method, options.nn_backend)
        if plan.spec.needs_disk:
            raise QueryError(
                "SK-DB is not supported in sharded serving: worker shards "
                "hold in-memory category partitions, not disk stores")
        if not plan.spec.needs_finder:
            return [next(self._rr) % self.num_shards]
        if self.labels is None and options.nn_backend == "label":
            raise QueryError(
                "this shard fleet was built without labels "
                "(build_labels=False); it serves only finder-free plans "
                "(GSP family) or Dijkstra NN backends")
        return [self.router.primary(query.categories)]

    @staticmethod
    def _unpack(request, options, caller: str):
        """``(query, options)`` of a :class:`QueryRequest` or bare query."""
        if isinstance(request, QueryRequest):
            if options is not None:
                raise TypeError("pass options inside the QueryRequest")
            return request.query, request.options
        return request, resolve_options(options, caller)

    def run(self, request: Union[QueryRequest, KOSRQuery],
            options: Optional[QueryOptions] = None, *,
            session=None):
        """Answer one request; returns a ``KOSRResult``.

        Accepts a :class:`QueryRequest` or a bare query plus ``options``.
        ``session`` is accepted
        for :class:`QueryService` signature compatibility and ignored —
        warm state lives in the workers' own sessions.
        """
        query, opts = self._unpack(request, options,
                                   "ShardedQueryService.run")
        shard, = self.owners_for(query, opts)
        return self._dispatch(shard, ("query", query, opts))

    def run_stream(self, request: Union[QueryRequest, KOSRQuery],
                   options: Optional[QueryOptions] = None, *,
                   session=None, on_route=None):
        """Answer one request, streaming routes as the worker surfaces them.

        Every request streams *live*: the worker emits one interim pipe
        frame per discovered route ahead of its final reply, and
        ``on_route`` fires (on the calling thread) as each frame arrives —
        while the worker's search is still running.  ``session`` is
        accepted for :class:`QueryService` signature compatibility and
        ignored.
        """
        query, opts = self._unpack(request, options,
                                   "ShardedQueryService.run_stream")
        shard, = self.owners_for(query, opts)
        kind = "query" if on_route is None else "stream"
        return self._dispatch(shard, (kind, query, opts), on_route=on_route)

    def run_batch(self, queries: Sequence[KOSRQuery],
                  options: Optional[QueryOptions] = None, *,
                  max_workers: Optional[int] = None) -> BatchResult:
        """Execute a workload across the shards; results in input order.

        Queries are bucketed by serving shard and each bucket runs on its
        own dispatch thread — true multi-core parallelism, since each
        bucket's work happens in a separate worker process.
        ``max_workers`` is accepted for :class:`QueryService` signature
        compatibility; the parallelism is the shard count.
        ``cache_stats`` reports this batch's contribution summed over the
        workers' sessions, like the unsharded batch path.
        """
        options = resolve_options(options, "ShardedQueryService.run_batch")
        queries = list(queries)
        # The serving shard is resolved exactly once per query: the
        # bucket both places the query on a dispatch thread and is what
        # executes it (re-resolving inside the run would advance the
        # round-robin counter again and unpin finder-free queries).
        buckets: Dict[int, List[int]] = {}
        for i, q in enumerate(queries):
            shard, = self.owners_for(q, options)
            buckets.setdefault(shard, []).append(i)
        results: List = [None] * len(queries)
        before = self.cache_stats()
        t0 = time.perf_counter()

        def run_bucket(shard: int, indexes: List[int]) -> None:
            for i in indexes:
                results[i] = self._dispatch(shard,
                                            ("query", queries[i], options))

        if len(buckets) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=len(buckets)) as pool:
                for future in [pool.submit(run_bucket, shard, indexes)
                               for shard, indexes in buckets.items()]:
                    future.result()
        else:
            for shard, indexes in buckets.items():
                run_bucket(shard, indexes)
        wall = time.perf_counter() - t0
        after = self.cache_stats()
        return BatchResult(
            results=results,
            wall_time_s=wall,
            num_groups=len(QueryService.group_queries(queries)),
            cache_stats={name: after[name] - before.get(name, 0)
                         for name in after},
        )

    def new_session(self):
        """Signature compatibility with :class:`QueryService` (workers own
        their warm sessions, so the async front-end gets no client-side
        session)."""
        return None

    # ------------------------------------------------------------------
    # Epoch-synchronized updates
    # ------------------------------------------------------------------
    def _on_every_shard(self, exchange, *args) -> List:
        """Run ``exchange(shard, *args)`` for every shard concurrently.

        Results come back in shard order.  All exchanges are waited out
        even when one fails (no in-flight exchange may be abandoned
        mid-pipe); the first failure is then re-raised.  Latency is
        O(slowest shard), not O(sum): the per-shard locks let the
        exchanges proceed side by side on a persistent pool, created on
        the first broadcast (reads never need it — each runs on one
        shard, on the calling thread) so a broadcast costs no thread
        spawns.  Tasks are independent single exchanges, so concurrent
        broadcasts can only queue, not deadlock.
        """
        if self.num_shards == 1:
            return [exchange(0, *args)]
        if self._broadcast_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._broadcast_pool = ThreadPoolExecutor(
                max_workers=self.num_shards,
                thread_name_prefix="repro-shard-broadcast")
        futures = [self._broadcast_pool.submit(exchange, shard, *args)
                   for shard in range(self.num_shards)]
        results: List = []
        first_exc: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
        return results

    def _broadcast(self, msg: tuple) -> List:
        """Send ``msg`` to every worker; replies in shard order."""
        return self._on_every_shard(self._dispatch, msg)

    def _broadcast_recovering(self, msg: tuple,
                              resend_after_respawn: bool = True) -> None:
        """Send an update message to every worker with per-shard recovery.

        Each shard's exchange goes through :meth:`_update_exchange`
        (bounded retry, then quarantine-and-respawn).  All shards are
        waited out even when one fails; the first failure is re-raised —
        the *caller* decides whether that means divergence (commit-side
        broadcasts) or a clean abort (prepare-side).
        """
        self._on_every_shard(self._update_exchange, msg,
                             resend_after_respawn)

    def _broadcast_best_effort(self, msg: tuple) -> None:
        """Deliver ``msg`` where possible, swallowing per-shard failures."""
        for shard in range(self.num_shards):
            try:
                self._dispatch(shard, msg)
            except Exception:
                pass

    def _broadcast_update(self, msg: tuple,
                          resend_after_respawn: bool = True) -> None:
        """An update broadcast that must leave *every* worker consistent.

        A worker that fails its exchange gets a bounded retry, then the
        quarantine-and-respawn recovery (:meth:`_update_exchange`) — a
        killed or hung worker no longer poisons the fleet.  Only when
        recovery itself fails has the fleet truly diverged — some shards
        applied the update, this one cannot be brought to match — and
        then the service is poisoned: every later query fails fast with
        the divergence message until the fleet is rebuilt.
        """
        try:
            self._broadcast_recovering(msg, resend_after_respawn)
        except BaseException as exc:
            self._diverged = (
                f"update broadcast {msg[0]!r} failed mid-fleet even after "
                f"retry and worker respawn ({exc}); shards have diverged "
                f"— rebuild the sharded service")
            raise
        self._epoch += 1

    def add_vertex_to_category(self, v: Vertex, cid: CategoryId) -> None:
        """Insert ``cid`` into ``F(v)`` on the parent graph and every shard.

        Returns only once all workers acknowledged, so the next request —
        whichever shard serves it — observes the update (workers' session
        caches invalidate via their own index epochs).
        """
        with self._update_lock:
            self.graph._check_vertex(v)
            self.graph._check_category(cid)
            # Stale before the graph moves: a read may respawn a worker
            # from this graph at any moment (it holds only a shard lock),
            # and a replacement that sees the new membership must also
            # see the category's file sections marked stale.
            self._stale_log.add(cid)
            if not self.graph.has_category(v, cid):
                self.graph.assign_category(v, cid)
            self._broadcast_update(("update", "add", v, cid))

    def remove_vertex_from_category(self, v: Vertex, cid: CategoryId) -> None:
        """Remove ``cid`` from ``F(v)`` everywhere (symmetric broadcast)."""
        with self._update_lock:
            self.graph._check_vertex(v)
            self.graph._check_category(cid)
            self._stale_log.add(cid)  # before the graph moves, as above
            if self.graph.has_category(v, cid):
                self.graph.unassign_category(v, cid)
            self._broadcast_update(("update", "remove", v, cid))

    def compact(self) -> None:
        """Fold every worker's delta overlays in (broadcast, synchronized)."""
        with self._update_lock:
            self._broadcast_update(("compact",))

    def update_edge(self, u: Vertex, v: Vertex, weight,
                    order: Optional[Sequence[Vertex]] = None) -> None:
        """Apply one edge insert/change/delete to the running fleet.

        Zero-downtime, in three phases:

        1. **Background rebuild** — the parent rebuilds the hub labels
           from a scratch *copy* of its graph with the edge applied.  No
           shard lock is held, so the fleet keeps serving queries from
           the old index for the whole (dominant) label-build time.
        2. **Prepare** — the new labels ship to every worker over the
           sequence-stamped pipes; each stages a post-update engine
           state (graph copy + shipped labels + rebuilt inverted indexes
           for its materialised categories) without serving it.  A shard
           that fails even after retry/respawn recovery aborts the whole
           update: staged state is discarded fleet-wide, nothing was
           committed anywhere, and the fleet keeps serving the *old*
           index consistently — the error re-raises without poisoning.
        3. **Epoch-fenced commit** — the parent first adopts the
           post-update state itself (graph, labels; the pre-update index
           file is retired), then broadcasts the fence: each worker
           atomically swaps its staged state in, moving its engine's
           ``epoch_base`` past every old epoch so session caches drop
           wholesale.  A worker that fails its commit is quarantined and
           respawned from the parent's already-committed state (so no
           resend is needed); only if that recovery fails does the fleet
           poison — divergence still fails fast.

        Queries racing the update observe either the old state or the
        new — each worker's swap is atomic under its shard lock — and
        post-commit answers are bit-identical to a fresh unsharded
        engine built from the updated graph (pinned by the sharded fuzz
        and fault-injection suites).
        """
        if self._diverged is not None:
            raise ShardError(-1, self._diverged)
        if self.labels is None:
            raise QueryError(
                "update_edge requires a fleet with labels; this one was "
                "built with build_labels=False (topology-only)")
        from repro.labeling.pll_unweighted import build_labels_auto
        from repro.labeling.updates import apply_edge_mutation

        with self._update_lock:
            self.graph._check_vertex(u)
            self.graph._check_vertex(v)
            # Phase 1: rebuild labels against a scratch copy; an invalid
            # mutation (deleting a missing edge) raises here, before any
            # parent or worker state moved.
            work = self.graph.copy()
            apply_edge_mutation(work, u, v, weight)
            labels = build_labels_auto(work, order)
            fence = self._epoch + 1
            # Phase 2: prepare (recoverable, abortable).
            try:
                self._broadcast_recovering(
                    ("prepare_edge", fence, u, v, weight, labels))
            except BaseException:
                self._broadcast_best_effort(("abort_edge", fence))
                raise
            # Phase 3: commit.  The parent adopts the post-update state
            # *before* fencing the workers: a worker respawned during
            # the commit broadcast is built from this state — already
            # post-update, which is why the commit needs no resend.
            apply_edge_mutation(self.graph, u, v, weight)
            self.labels = labels
            self._retire_index_file()
            self._broadcast_update(("commit_edge", fence),
                                   resend_after_respawn=False)

    def _retire_index_file(self) -> None:
        """Stop attaching the pre-edge-update index file.

        A structure update obsoletes the saved labels wholesale, so
        respawned/new workers must build from the parent's current
        state instead of mmap-attaching the old file.  The pending
        update log dies with the file: recovery spawns now start from a
        graph + labels that already include everything.
        """
        self._cleanup_index_file()
        self.index_path = None
        self._stale_log.clear()

    # ------------------------------------------------------------------
    # Observability + lifecycle
    # ------------------------------------------------------------------
    def ping(self) -> List[dict]:
        """Health-check every worker; one report dict per shard.

        A healthy shard reports ``alive: True`` plus its pid, index
        epoch, and owned/materialised categories; a dead or unresponsive
        one reports ``alive: False`` with the error instead of raising,
        so operators see the whole fleet in one call.
        """
        reports = []
        for shard in range(self.num_shards):
            try:
                payload = self._dispatch(shard, ("ping",))
                payload.update({"shard": shard, "alive": True})
            except Exception as exc:  # report, not raise
                payload = {"shard": shard, "alive": False,
                           "error": str(exc)}
            reports.append(payload)
        return reports

    def epoch_info(self) -> Dict[str, object]:
        """Fleet epoch/version counters (operator-facing).

        The router-level broadcast counter plus every worker's engine
        epoch split (``epoch_base`` vs per-category ``version``
        counters) — the view an operator watches to see a fenced edge
        swap commit shard by shard.  Served in the TCP
        ``{"stats": true}`` reply and by ``cli metrics --stats``.
        """
        shards = []
        for report in self.ping():
            shards.append({key: report.get(key)
                           for key in ("shard", "alive", "epoch",
                                       "epoch_base", "category_versions")})
        return {"router_epoch": self._epoch, "shards": shards}

    def cache_stats(self) -> Dict[str, int]:
        """Worker session-cache counters summed across all shards."""
        totals: Dict[str, int] = {}
        for payload in self._broadcast(("stats",)):
            for name, value in payload.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def hit_rates(self) -> Dict[str, float]:
        """Fleet-wide per-artefact cache hit rates (hits / lookups)."""
        from repro.service.cache import hit_rates_from

        return hit_rates_from(self.cache_stats())

    def metrics_snapshot(self) -> dict:
        """Fleet-merged metrics: every worker's registry plus this one's.

        Worker snapshots travel over the same sequence-stamped pipe
        protocol as queries (the ``"metrics"`` kind) and merge by
        element-wise addition: per-method latency histograms combine
        fleet-wide (identical bucket bounds by construction), while the
        router-side round-trip metrics keep their per-shard labels.
        """
        snapshots = [_METRICS.snapshot()]
        snapshots.extend(self._broadcast(("metrics",)))
        return merge_snapshots(snapshots)

    def index_memory(self) -> Dict[str, object]:
        """Per-worker and fleet-wide index memory accounting.

        Each shard reports its engine's resident/serialized split (see
        :meth:`~repro.core.engine.KOSREngine.index_memory`) plus its OS
        RSS/USS; the fleet totals make the shared-vs-private story
        visible: an mmap fleet's ``total_resident`` stays a sliver of
        ``index_file_bytes`` regardless of shard count.
        """
        shards = self._broadcast(("memory",))
        payload: Dict[str, object] = {
            "num_shards": self.num_shards,
            "shared": bool(shards) and all(s.get("shared") for s in shards),
            "total_resident": sum(s.get("total_resident", 0)
                                  for s in shards),
            "total_serialized": sum(s.get("total_serialized", 0)
                                    for s in shards),
            "shards": shards,
        }
        if self._index_file is not None:
            payload["index_file"] = self.index_path
            payload["index_file_bytes"] = self._index_file.size_bytes
        return payload

    def close(self, grace_s: float = 2.0) -> None:
        """Graceful drain + shutdown: ask, wait, then terminate stragglers.

        Safe to call twice.  The per-shard locks serialise against
        in-flight requests, so a shard is only asked to exit between
        exchanges — nothing is severed mid-response.
        """
        if self._closed:
            return
        for shard in range(self.num_shards):
            with self._locks[shard]:
                try:
                    self._seqs[shard] += 1
                    pipe_send(self._conns[shard],
                              ("shutdown", self._seqs[shard]))
                    if self._conns[shard].poll(grace_s):
                        pipe_recv(self._conns[shard])
                except (BrokenPipeError, EOFError, OSError):
                    pass
        self._closed = True
        if self._broadcast_pool is not None:
            self._broadcast_pool.shutdown(wait=True)
            self._broadcast_pool = None
        for shard, proc in enumerate(self._procs):
            proc.join(timeout=grace_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=grace_s)
        for conn in self._conns:
            conn.close()
        self._cleanup_index_file()
