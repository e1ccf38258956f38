"""The shard worker process: one engine + warm service per category subset.

Each worker owns a full copy of the (topology-only) graph and hub labels
but materialises inverted indexes only for the categories its shard
owns — 1/N of the index build and memory.  Queries arrive as pickled
``(KOSRQuery, QueryOptions)`` pairs over a ``multiprocessing`` pipe and
run through a worker-local :class:`~repro.service.service.QueryService`,
so all the warm-session machinery (epoch validation, cold-equivalent
counter accounting, LRU caps) applies unchanged inside the process.

Category faulting
-----------------

A request routed here names categories this shard may not own: the
router sends every finder plan to the owner of its *first* category.
Because hub labels depend only on topology, the worker can *fault in*
any missing category's inverted index on demand — attached from the
shared index file when one is mapped and the category is untouched
since, else built fresh from the worker's (update-current) graph and
labels — and it is bit-identical to the index an unsharded engine
holds, so results and counters stay cold-equivalent.  Faulted indexes
join ``engine.inverted`` with a zero version counter, leaving the index
epoch (and therefore the warm session) untouched.

Update broadcast contract
-------------------------

Category updates are broadcast to **every** worker: graph membership
(``F(v)``) must stay globally consistent because validation and the
GSP-family executors read it.  A worker patches ``IL(cid)`` only when it
has that category materialised (owned or previously faulted); otherwise
it records the membership change alone — a later fault-in rebuilds the
index from the already-updated graph.  Crucially the worker never
creates an *empty* index for an unmaterialised category on the update
path: that would satisfy later ``cid in inverted`` checks with an index
missing every pre-existing member.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import List, Optional

from repro.api import QueryOptions
from repro.core.query import KOSRQuery
from repro.labeling import updates as _updates
from repro.types import CategoryId

#: shard pipe framing protocol.  ``multiprocessing.Connection.send``
#: uses pickle's *default* protocol; pinning the highest one shrinks and
#: speeds the framing of large batch replies (see ``bench_micro_ops``),
#: and both pipe ends agree by construction since parent and workers
#: import this constant.
PIPE_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def pipe_send(conn, obj) -> None:
    """``conn.send`` with the pipe pickle protocol pinned."""
    conn.send_bytes(pickle.dumps(obj, protocol=PIPE_PICKLE_PROTOCOL))


def pipe_recv(conn):
    """Inverse of :func:`pipe_send` (plain unpickle of one frame)."""
    return pickle.loads(conn.recv_bytes())


def proc_rss_bytes() -> int:
    """This process's resident set size (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def proc_uss_bytes() -> int:
    """This process's unique set size: private clean + dirty pages.

    USS is what distinguishes a worker *sharing* an mmap'ed index (file
    pages count in RSS but not here) from one owning a private copy.
    Returns 0 where ``/proc/self/smaps_rollup`` is unavailable.
    """
    try:
        total = 0
        with open("/proc/self/smaps_rollup") as f:
            for line in f:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1]) * 1024
        return total
    except (OSError, ValueError, IndexError):
        return 0


def _build_shard_engine(graph, labels, owned: List[CategoryId],
                        overlay_ratio: Optional[float],
                        index_path: Optional[str] = None):
    """An engine whose inverted indexes cover only ``owned`` categories.

    ``index_path`` switches the worker to zero-copy spawn: instead of
    building anything, it mmaps the parent-saved index file and serves
    labels plus its owned categories as shared read-only views — the OS
    page cache holds one physical index for the whole fleet.  Categories
    the file lacks are built privately from graph + mapped labels.

    ``labels=None`` (without ``index_path``) builds a topology-only
    engine (no label or inverted indexes): the fleet then serves
    finder-free plans only — the parent router rejects label-backend
    plans before they reach a worker.
    """
    from repro.core.engine import KOSREngine
    from repro.labeling.packed_inverted import build_packed_inverted_index

    if index_path is not None:
        from repro.labeling.mmap_index import MmapIndexFile

        index_file = MmapIndexFile.open(index_path)
        mmap_labels = index_file.labels
        inverted = {}
        for cid in owned:
            if index_file.has_category(cid):
                inverted[cid] = index_file.inverted_view(cid)
            else:
                inverted[cid] = build_packed_inverted_index(
                    graph, mmap_labels, cid)
        engine = KOSREngine(graph, mmap_labels, inverted)
        engine._overlay_ratio = overlay_ratio
        engine._index_file = index_file
        KOSREngine._apply_overlay_ratio(inverted, overlay_ratio)
        return engine
    if labels is None:
        engine = KOSREngine(graph)
        engine.inverted = {}
        engine._overlay_ratio = overlay_ratio
        return engine
    inverted = {cid: build_packed_inverted_index(graph, labels, cid)
                for cid in owned}
    engine = KOSREngine(graph, labels, inverted)
    engine._overlay_ratio = overlay_ratio
    KOSREngine._apply_overlay_ratio(inverted, overlay_ratio)
    return engine


class _ShardWorker:
    """Message loop state for one worker process."""

    def __init__(self, graph, labels, owned: List[CategoryId],
                 overlay_ratio: Optional[float],
                 max_dest_kernels: Optional[int],
                 max_finders: Optional[int],
                 index_path: Optional[str] = None,
                 shard: int = 0):
        from repro.service.service import QueryService

        self.shard = shard
        self.owned = list(owned)
        self.engine = _build_shard_engine(graph, labels, owned,
                                          overlay_ratio, index_path)
        self.service = QueryService(self.engine,
                                    max_dest_kernels=max_dest_kernels,
                                    max_finders=max_finders)
        #: categories whose *file* sections went stale: an update
        #: broadcast touched them while unmaterialised, so a later
        #: fault-in must rebuild from the (updated) graph + labels
        #: instead of attaching the pre-update mmap view
        self._stale_cids: set = set()
        #: (fence, graph, labels, inverted) staged by ``prepare_edge``,
        #: served only after the matching ``commit_edge``
        self._staged = None
        #: the last committed edge fence — makes commit retries (lost
        #: replies, post-respawn resends) idempotent
        self._committed_fence: Optional[int] = None

    # ------------------------------------------------------------------
    def ensure_categories(self, categories) -> None:
        """Fault in inverted indexes this query needs but the shard lacks."""
        from repro.labeling.packed_inverted import build_packed_inverted_index

        engine = self.engine
        if engine.labels is None:
            from repro.exceptions import QueryError

            raise QueryError(
                "this shard worker was built without labels "
                "(build_labels=False); label-backend plans cannot be served")
        index_file = engine._index_file
        for cid in categories:
            if cid in engine.inverted:
                continue
            if (index_file is not None and cid not in self._stale_cids
                    and index_file.has_category(cid)):
                # Cheap fault-in: attach the file's shared view instead
                # of rebuilding — valid only while no update has touched
                # the category since the file was written.
                il = index_file.inverted_view(cid)
            else:
                il = build_packed_inverted_index(engine.graph, engine.labels,
                                                 cid)
            if engine._overlay_ratio is not None:
                il.overlay_ratio = engine._overlay_ratio
            engine.inverted[cid] = il

    def run_query(self, query: KOSRQuery, options: QueryOptions):
        if options.nn_backend == "label":
            plan = self.service.plan(options.method, options.nn_backend)
            if plan.spec.needs_finder:
                self.ensure_categories(query.categories)
        return self.service.run(query, options)

    def run_stream(self, query: KOSRQuery, options: QueryOptions, on_route):
        """Like :meth:`run_query`, streaming each route via ``on_route``
        (the message loop turns those into interim pipe frames)."""
        if options.nn_backend == "label":
            plan = self.service.plan(options.method, options.nn_backend)
            if plan.spec.needs_finder:
                self.ensure_categories(query.categories)
        return self.service.run_stream(query, options, on_route=on_route)

    def metrics_snapshot(self) -> dict:
        """This worker's registry snapshot, gauges freshly sampled.

        Besides the cache populations this samples the epoch gauges: the
        worker's ``repro_index_epoch`` and one ``repro_category_version``
        gauge per *owned* materialised category.  Owner-only sampling
        matters because fleet merges add gauges across snapshots — each
        category must be reported by exactly one worker, its owner, even
        when other shards have faulted it in.
        """
        from repro.obs.metrics import REGISTRY

        if REGISTRY.enabled:
            for name, value in self.service.session.populations().items():
                REGISTRY.gauge(f"repro_cache_{name}").set(value)
            engine = self.engine
            REGISTRY.gauge("repro_index_epoch",
                           shard=self.shard).set(engine.index_epoch)
            if hasattr(engine, "category_versions"):
                versions = engine.category_versions()
                for cid in self.owned:
                    if cid in versions:
                        REGISTRY.gauge("repro_category_version",
                                       category=cid).set(versions[cid])
        return REGISTRY.snapshot()

    def apply_update(self, op: str, v: int, cid: CategoryId) -> int:
        """One broadcast category update; returns the new index epoch.

        A category updated while *unmaterialised* is marked stale: its
        index-file sections (if any) predate the update, so a later
        fault-in must rebuild from the updated graph rather than attach
        the shared view (materialised mmap views are swapped for private
        mutable copies by the update layer itself).
        """
        engine = self.engine
        if op == "add":
            if cid in engine.inverted:
                _updates.add_vertex_to_category(
                    engine.graph, engine.labels, engine.inverted, v, cid)
            else:
                self._stale_cids.add(cid)
                if not engine.graph.has_category(v, cid):
                    engine.graph.assign_category(v, cid)
        elif op == "remove":
            if cid in engine.inverted:
                _updates.remove_vertex_from_category(
                    engine.graph, engine.labels, engine.inverted, v, cid)
            else:
                self._stale_cids.add(cid)
                if engine.graph.has_category(v, cid):
                    engine.graph.unassign_category(v, cid)
        else:
            raise ValueError(f"unknown category update op {op!r}")
        return engine.index_epoch

    # ------------------------------------------------------------------
    # Epoch-fenced edge updates
    # ------------------------------------------------------------------
    def prepare_edge(self, fence: int, u: int, v: int, weight,
                     labels) -> int:
        """Stage the post-edge-update engine state; keep serving the old.

        The parent already rebuilt the (expensive, topology-only) hub
        labels once for the whole fleet; this worker applies the same
        edge mutation to a *copy* of its graph and rebuilds only its own
        materialised categories' inverted indexes against the shipped
        labels.  Nothing the query path reads changes until
        :meth:`commit_edge` swaps the staged state in — queries racing
        the prepare keep answering from the old index.
        """
        from repro.core.engine import KOSREngine
        from repro.labeling.packed_inverted import build_packed_inverted_index

        engine = self.engine
        if engine.labels is None:
            from repro.exceptions import QueryError

            raise QueryError(
                "this shard worker was built without labels "
                "(build_labels=False); edge updates cannot be staged")
        graph = engine.graph.copy()
        _updates.apply_edge_mutation(graph, u, v, weight)
        inverted = {cid: build_packed_inverted_index(graph, labels, cid)
                    for cid in engine.inverted}
        KOSREngine._apply_overlay_ratio(inverted, engine._overlay_ratio)
        self._staged = (fence, graph, labels, inverted)
        return fence

    def commit_edge(self, fence: int) -> int:
        """Atomically swap the staged state in; returns the new epoch.

        Idempotent per fence: a retried commit (the reply got lost, or
        the parent resent after recovering this worker's pipe) finds the
        fence already committed and acknowledges again without touching
        the engine.
        """
        engine = self.engine
        staged = self._staged
        if staged is None or staged[0] != fence:
            if self._committed_fence == fence:
                return engine.index_epoch
            raise ValueError(
                f"commit_edge fence {fence} does not match staged state "
                f"({'fence %d' % staged[0] if staged else 'nothing staged'})")
        _, graph, labels, inverted = staged
        self._staged = None
        # Stamp past the outgoing epoch before the swap: the fresh
        # indexes restart their version counters at zero, and every
        # session cache must see a wholesale (epoch_base) change.
        engine._epoch_base = engine.index_epoch + 1
        engine.graph = graph
        engine.labels = labels
        engine.inverted = inverted
        engine._ch = None
        engine._store = None
        engine._index_file = None
        self._stale_cids.clear()
        self._committed_fence = fence
        return engine.index_epoch

    def abort_edge(self, fence: int) -> bool:
        """Discard a staged edge update (prepare failed on some shard)."""
        staged = self._staged
        if staged is not None and staged[0] == fence:
            self._staged = None
            return True
        return False

    def mark_stale(self, cids) -> list:
        """Categories updated since the index file was written are stale.

        A freshly (re)spawned mmap worker attaches the file's sections,
        which predate any updates broadcast after the file was saved.
        The parent replays those pending updates by naming the touched
        categories: their file views are dropped and marked stale, so
        the next query fault-ins rebuild them from the worker's
        update-current graph + labels — bit-identical to an index that
        was patched live (the fuzz suite pins rebuilt == patched).
        """
        engine = self.engine
        for cid in cids:
            self._stale_cids.add(cid)
            il = engine.inverted.get(cid)
            if il is not None and getattr(il, "is_mmap", False):
                del engine.inverted[cid]
        return sorted(self._stale_cids)

    def health(self) -> dict:
        engine = self.engine
        return {
            "pid": os.getpid(),
            "epoch": engine.index_epoch,
            "epoch_base": getattr(engine, "epoch_base", 0),
            "category_versions": dict(engine.category_versions())
            if hasattr(engine, "category_versions") else {},
            "owned_categories": list(self.owned),
            "materialized_categories": sorted(engine.inverted),
        }

    def index_memory(self) -> dict:
        """Engine index accounting plus this process's OS-level memory."""
        payload = self.engine.index_memory()
        payload.update({
            "pid": os.getpid(),
            "rss_bytes": proc_rss_bytes(),
            "uss_bytes": proc_uss_bytes(),
        })
        return payload


def _safe_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a plain stand-in."""
    from repro.exceptions import ReproError

    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc) and str(clone) == str(exc):
            return exc
    except Exception:
        pass
    return ReproError(f"{type(exc).__name__}: {exc}")


def _recv_watched(conn, parent_pid: int):
    """``conn.recv()`` with a parent-death watchdog.

    Under the fork start method every worker inherits copies of
    parent-side pipe fds (its own pipe's, and earlier siblings'), so a
    parent that dies without sending ``shutdown`` — SIGTERM, SIGKILL, a
    crash — never produces EOF on the pipe and a blind ``recv`` would
    block forever, orphaning the worker.  Poll with a short timeout and
    exit when the parent pid changes (orphans are re-parented to init /
    a subreaper): workers follow a dead parent down within ~1s no matter
    how it died.
    """
    while True:
        if conn.poll(1.0):
            return pipe_recv(conn)
        if os.getppid() != parent_pid:
            raise EOFError("parent process died")


def _maybe_fault(fault: Optional[dict], kind: str, phase: str) -> None:
    """Test-only fault injection: die or hang at a matching message point.

    ``fault`` is the spec this worker was spawned with (None in
    production):  ``{"kind": "update", "when": "before"|"after",
    "action": "die"|"hang", "times": 1, "skip": 0}``.  ``"before"``
    fires after the message is received but before the handler runs
    (the update is lost); ``"after"`` fires after the handler ran but
    before the reply is sent (the update applied, the acknowledgement
    is lost) — the two halves of "killed mid-broadcast" the recovery
    path must both survive.  ``"hang"`` sleeps far past any request
    timeout instead of exiting, exercising the parent's timeout →
    respawn path (terminate kills the sleeper).  ``"skip"`` lets the
    first N matching points pass unharmed, to fault a later message in
    a sequence (e.g. die on the second update, not the first).
    """
    if not fault or fault.get("kind") != kind \
            or fault.get("when", "before") != phase:
        return
    skip = fault.get("skip", 0)
    if skip > 0:
        fault["skip"] = skip - 1
        return
    remaining = fault.get("times", 1)
    if remaining <= 0:
        return
    fault["times"] = remaining - 1
    if fault.get("action") == "hang":
        import time

        time.sleep(fault.get("hang_s", 3600.0))
    else:
        os._exit(1)


def worker_main(conn, graph, labels, owned, overlay_ratio,
                max_dest_kernels, max_finders, index_path=None,
                metrics_enabled: bool = False, shard: int = 0,
                fault: Optional[dict] = None) -> None:
    """Entry point of one worker process: serve the pipe until shutdown.

    Messages are ``(kind, seq, *args)`` and every one is answered exactly
    once with ``("ok", seq, payload)`` or ``("err", seq, exception)``.
    A ``"stream"`` query additionally sends zero or more interim
    ``("route", seq, SequencedResult)`` frames *before* its final
    ``("ok", ...)`` — the parent surfaces each one as it arrives, which
    is how a streamed route reaches the client while the worker's search
    is still running.  The echoed sequence number lets the parent discard
    a reply whose exchange it already abandoned (request timeout), so a
    slow response can never be mistaken for the answer to a *later*
    request.  Only ``"shutdown"``, a closed pipe, a dead parent, or an
    interrupt ends the loop — a failed query never kills the worker.

    ``metrics_enabled`` turns this process's metrics registry on at
    startup (the spawn-time hand-off of the parent's enable state — under
    the spawn start method the child re-imports modules, so the flag must
    travel explicitly); the ``"metrics"`` kind then answers with the
    worker's snapshot for fleet-wide merging.
    """
    parent_pid = os.getppid()
    # A forked worker inherits the parent's Python signal handlers; one
    # that turns SIGTERM into an exception (``cli serve`` installs such a
    # handler) can be swallowed mid-build, leaving a ``terminate()``d
    # worker running.  SIGTERM must end a worker.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # not the main thread (tests drive worker_main so)
        pass
    if metrics_enabled:
        from repro.obs.metrics import REGISTRY

        REGISTRY.enable()
    fault = dict(fault) if fault else None
    try:
        worker = _ShardWorker(graph, labels, owned, overlay_ratio,
                              max_dest_kernels, max_finders, index_path,
                              shard)
    except BaseException as exc:  # startup failure: report, then exit
        try:
            pipe_send(conn, ("err", 0, _safe_exception(exc)))
        except (BrokenPipeError, OSError):
            pass
        return
    try:
        pipe_send(conn, ("ok", 0, worker.health()))
    except (BrokenPipeError, OSError):
        return  # parent died (or tore the fleet down) during our build
    while True:
        try:
            msg = _recv_watched(conn, parent_pid)
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind, seq = msg[0], msg[1]
        if kind == "shutdown":
            try:
                pipe_send(conn, ("ok", seq, "bye"))
            except (BrokenPipeError, OSError):
                pass
            return
        _maybe_fault(fault, kind, "before")
        try:
            if kind == "query":
                query, options = msg[2:]
                reply = ("ok", seq, worker.run_query(query, options))
            elif kind == "stream":
                query, options = msg[2:]

                def _send_route(res, _seq=seq):
                    pipe_send(conn, ("route", _seq, res))

                reply = ("ok", seq, worker.run_stream(query, options,
                                                      _send_route))
            elif kind == "metrics":
                reply = ("ok", seq, worker.metrics_snapshot())
            elif kind == "update":
                op, v, cid = msg[2:]
                reply = ("ok", seq, worker.apply_update(op, v, cid))
            elif kind == "prepare_edge":
                fence, u, v, weight, new_labels = msg[2:]
                reply = ("ok", seq, worker.prepare_edge(fence, u, v, weight,
                                                        new_labels))
            elif kind == "commit_edge":
                reply = ("ok", seq, worker.commit_edge(msg[2]))
            elif kind == "abort_edge":
                reply = ("ok", seq, worker.abort_edge(msg[2]))
            elif kind == "stale":
                reply = ("ok", seq, worker.mark_stale(msg[2]))
            elif kind == "compact":
                worker.engine.compact()
                reply = ("ok", seq, worker.engine.index_epoch)
            elif kind == "ping":
                reply = ("ok", seq, worker.health())
            elif kind == "stats":
                reply = ("ok", seq, worker.service.session.stats.as_dict())
            elif kind == "memory":
                reply = ("ok", seq, worker.index_memory())
            else:
                raise ValueError(f"unknown shard message kind {kind!r}")
        except Exception as exc:
            reply = ("err", seq, _safe_exception(exc))
        _maybe_fault(fault, kind, "after")
        try:
            pipe_send(conn, reply)
        except (BrokenPipeError, OSError):
            return
