"""The benchmark's three seeded workloads over the CAL analogue.

Each workload builds its stack from source, drives it for ``seconds``,
checks every answer once the timed phase is over, and returns an
:class:`Outcome` with the end-to-end metrics (``trace=False``) or the
per-layer metrics (``trace=True``).  The program under test only ever
sees the generated requests.  Each workload's query set is fixed like
its graph, and so is the fleet's toggle list; the seed draws their
order and the repeats.

* ``paper_cold`` -- the paper's setup: uniform (s, t, C) queries, each
  run cold through ``KOSREngine.run`` once with SK and once with PK.
* ``shared_dest_tcp`` -- many users routing to few destinations, sent
  by a closed-loop client over loopback TCP to ``tcp.serve`` on an
  mmap-attached engine.
* ``fleet_mutation`` -- the same query mix in a closed loop against a
  2-worker ``ShardedQueryService`` while a second thread toggles one
  category membership per few reads.

See ``perfbench/README.md`` for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import json
import math
import os
import random
import tempfile
import threading
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import QueryOptions
from repro.core.engine import KOSREngine
from repro.graph import generators
from repro.labeling.pll_unweighted import build_labels_auto

from perfbench.oracle import (ColdOracle, answer_of, brute_force_costs,
                              costs_match, oracle_key, parallel_answers)
from perfbench.spans import (LayerClock, LayerTimes, Tracer, clock_delta,
                             layers_patched, patched)

DATASET = "CAL"
#: routes per query and categories per query (the ROADMAP baseline setup)
K = 8
C_LEN = 4
SK = QueryOptions(method="SK")
PK = QueryOptions(method="PK")

#: paper_cold's query set: fixed like the graph (the paper fixes 50
#: random queries per setting), run in a seed-shuffled order.  A run gets
#: through it several times; its percentiles come from the whole passes
#: only, so every run's tail is drawn from the same multiset of queries.
PAPER_QUERIES = 128
#: brute-force oracle: queries checked per run, and their witness cap
BRUTE_SAMPLE = 4
BRUTE_CAP = 20_000

#: the shared-destination mix: a fixed pool of requests whose (target, C)
#: groups are drawn Zipf(1) and whose sources are uniform, sent in a
#: seed-shuffled order with this share exactly repeating a recent one
GROUPS = 64
MIX_POOL = 768
REPEAT_FRAC = 0.2
RECENT = 32

#: shared_dest_tcp: the `cli serve` admission defaults and the client
#: connections, each a closed loop with one request outstanding.  With
#: two connections, two searches time-slice one GIL and a heavy request's
#: latency depends on what the other connection sent meanwhile: p99
#: spread 0.46 over five seeds, against 0.22 with one.
SERVE_LIMITS = dict(max_inflight=4, max_queue=256, max_groups=512)
CONNECTIONS = 1

#: fleet_mutation: worker processes; completed reads per membership
#: toggle, which gives about 20 toggles a second at the fleet's read
#: throughput on a 2-vCPU host; and the toggle list the writer cycles
#: through (a run gets through it about twice)
SHARDS = 2
READS_PER_TOGGLE = 4
TOGGLES = 128

#: QueryStats counts are averaged over this many leading requests, so
#: they repeat exactly for a seed whatever the run's throughput
COUNT_WINDOW = 256
#: traced runs alternate untraced and traced blocks of this length; the
#: throughput ratio between them is the tracing overhead
TRACE_BLOCK_S = 0.5


Request = Tuple[int, int, Tuple[int, ...]]


@dataclass
class Outcome:
    """What one run reports: counts, metrics and provenance."""

    attempted: int = 0
    failed: int = 0
    #: metric name (as in BENCHMARK.json) -> value in that metric's unit
    metrics: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    #: the first few exceptions raised by the program (reprs)
    errors: List[str] = field(default_factory=list)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def error(self, exc: BaseException) -> None:
        if len(self.errors) < 10:
            self.errors.append(repr(exc))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def make_graph(scale: float):
    return generators.dataset_by_name(DATASET, scale=scale)


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512, so streams are independent of
    # PYTHONHASHSEED and of each other.
    return random.Random(f"{stream}/{seed}")


def _endpoints(rng: random.Random, n: int, target: Optional[int] = None):
    t = rng.randrange(n) if target is None else target
    s = rng.randrange(n)
    while s == t:
        s = rng.randrange(n)
    return s, t


def paper_requests(seed: int, graph) -> List[Request]:
    """The fixed uniform (s, t, C) query set in this seed's order."""
    rng = _rng(0, "uniform")
    out = []
    for _ in range(PAPER_QUERIES):
        s, t = _endpoints(rng, graph.num_vertices)
        out.append((s, t, tuple(rng.sample(range(graph.num_categories),
                                           C_LEN))))
    _rng(seed, "order").shuffle(out)
    return out


def make_groups(graph) -> List[Tuple[int, Tuple[int, ...]]]:
    """The few destinations many users route to.

    Part of the workload's definition, like the graph: drawn from a
    fixed stream, not from the run's seed.  Under Zipf(1) the top three
    groups carry ~40% of the traffic, so re-drawing them per seed would
    change the workload's cost far more than any layer change does.
    """
    rng = _rng(0, "groups")
    return [(rng.randrange(graph.num_vertices),
             tuple(rng.sample(range(graph.num_categories), C_LEN)))
            for _ in range(GROUPS)]


def mix_pool(graph, groups) -> List[Request]:
    """The fixed request pool: Zipf(1) over ``groups``, uniform sources."""
    rng = _rng(0, "pool")
    cum = list(itertools.accumulate(1.0 / rank
                                    for rank in range(1, len(groups) + 1)))
    pool = []
    for _ in range(MIX_POOL):
        target, cats = groups[rng.choices(range(len(groups)),
                                          cum_weights=cum)[0]]
        s, t = _endpoints(rng, graph.num_vertices, target)
        pool.append((s, t, cats))
    return pool


def shared_dest_requests(seed: int, stream: str, pool: List[Request],
                         count: int) -> List[Request]:
    """The pool in seed-shuffled passes, ~20% replaced by exact repeats."""
    rng = _rng(seed, stream)
    order: List[Request] = []
    out: List[Request] = []
    while len(out) < count:
        if out and rng.random() < REPEAT_FRAC:
            out.append(out[-1 - rng.randrange(min(RECENT, len(out)))])
            continue
        if not order:
            order = list(pool)
            rng.shuffle(order)
        out.append(order.pop())
    return out


def warm_requests(seed: int, pool: List[Request]) -> List[Request]:
    """Every pool request once, in seeded order: the untimed warm-up.

    After it every request of the timed phase finds its destination's
    kernel and its source's cursors warm, so the timed phase sees the
    same cache state however far through the pool a run gets.
    """
    out = list(pool)
    _rng(seed, "warmup").shuffle(out)
    return out


def make_toggles(seed: int, graph, categories):
    """The fixed ``(vertex, category)`` toggles, in this seed's order.

    Each membership is currently absent.  Like the query set, the list
    is part of the workload: a toggle's cost, and which warm cursors it
    invalidates, depend on its vertex and category.
    """
    rng = _rng(0, "toggles")
    cats = sorted(set(categories))
    out = []
    while len(out) < TOGGLES:
        c = rng.choice(cats)
        v = rng.randrange(graph.num_vertices)
        if not graph.has_category(v, c):
            out.append((v, c))
    _rng(seed, "toggle-order").shuffle(out)
    return out


def digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def pss_mb(pids: Sequence[int]) -> float:
    """Proportional set size summed over ``pids``: shared pages count once."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def trace_blocks(start: float, seconds: float, trace: bool):
    """``(traced, block end)`` pairs covering ``seconds`` from ``start``.

    Untraced runs are one untraced block; traced runs alternate
    untraced and traced blocks so both see the same drift.
    """
    if not trace:
        yield False, start + seconds
        return
    blocks = max(2, int(round(seconds / TRACE_BLOCK_S)))
    for i in range(blocks):
        yield i % 2 == 1, start + seconds * (i + 1) / blocks


class Throughput:
    """Requests and busy seconds per tracing mode (for the overhead)."""

    def __init__(self) -> None:
        self.requests = {False: 0, True: 0}
        self.seconds = {False: 0.0, True: 0.0}

    def add(self, traced: bool, requests: int, seconds: float) -> None:
        self.requests[traced] += requests
        self.seconds[traced] += seconds

    def overhead_frac(self) -> float:
        rates = {mode: self.requests[mode] / self.seconds[mode]
                 for mode in (False, True) if self.seconds[mode] > 0}
        if len(rates) < 2 or not rates[False]:
            return 0.0
        return 1.0 - rates[True] / rates[False]


class Counts:
    """QueryStats counts of the first :data:`COUNT_WINDOW` requests."""

    FIELDS = ("examined_routes", "generated_routes", "dominated_routes",
              "reconsidered_routes", "max_queue_size", "nn_queries",
              "results_found")

    def __init__(self) -> None:
        self.by_index: Dict[int, tuple] = {}

    def add(self, index: int, stats) -> None:
        if index < COUNT_WINDOW and stats is not None:
            self.by_index[index] = tuple(getattr(stats, f) for f in self.FIELDS)

    def report(self, out: Outcome) -> None:
        rows = list(self.by_index.values())
        if not rows:
            return
        sums = dict(zip(self.FIELDS, map(sum, zip(*rows))))
        for name in self.FIELDS[:5]:
            out.put(f"core.{name}", sums[name] / len(rows))
        out.put("nn.find_calls", sums["nn_queries"] / len(rows))
        if sums["examined_routes"]:
            out.put("core.results_per_examined",
                    sums["results_found"] / sums["examined_routes"])


def query_metrics(out: Outcome, spans: Sequence[Tuple[float, float]],
                  completed: int, elapsed: float) -> None:
    """Latency percentiles of ``(start, end)`` request spans, and the
    ``completed`` requests per second of the timed phase's ``elapsed``
    wall time."""
    latencies = [end - begin for begin, end in spans]
    out.put("query_p50_ms", percentile(latencies, 0.50) * 1000.0)
    out.put("query_p99_ms", percentile(latencies, 0.99) * 1000.0)
    out.put("throughput_qps", completed / elapsed)


def labeling_metrics(out: Outcome, phases: Dict[str, float],
                     label_entries: int, index_bytes: int = 0) -> None:
    for name, seconds in phases.items():
        out.put(f"labeling.{name}", seconds)
    out.put("labeling.label_entries", label_entries)
    out.put("labeling.index_file_bytes", index_bytes)


def service_metrics(out: Outcome, before: Dict[str, int],
                    after: Dict[str, int]) -> None:
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in after}
    for kind in ("finder", "dest_kernel"):
        hits = delta.get(f"{kind}_hits", 0)
        lookups = hits + delta.get(f"{kind}_misses", 0)
        out.put(f"service.{kind}_lookups", lookups)
        out.put(f"service.{kind}_hit_rate", hits / lookups if lookups else 0.0)
    for name in ("partial_invalidations", "cursors_invalidated",
                 "dest_kernel_evictions"):
        out.put(f"service.{name}", delta.get(name, 0))
    out.put("service.wholesale_invalidations", delta.get("invalidations", 0))


@contextmanager
def one_cpu():
    """Run the block, and every thread and process it starts, on one CPU.

    The serving workloads run there.  ``shared_dest_tcp``'s event loop
    and search threads take turns on one GIL, so a second CPU adds no
    capacity; it only lets the GIL pass between CPUs, and each hand-off
    then waits on the host's scheduling.  On a 2-vCPU VM, pinning raised
    its throughput from 146-188 to 204-210 req/s over the same three
    seeds.  The fleet's reads cross three processes, and unpinned its
    throughput swung between 48 and 105 req/s within ten minutes on that
    VM, as the host lent the second vCPU or took it away.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def workdir(out_dir: str) -> tempfile.TemporaryDirectory:
    """A private directory for a run's index file, inside ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=out_dir)


def build_stack(scale: float):
    """Graph + PLL labels + packed engine, timing each phase."""
    t0 = perf_counter()
    graph = make_graph(scale)
    t1 = perf_counter()
    labels = build_labels_auto(graph)
    t2 = perf_counter()
    engine = KOSREngine.from_labels(graph, labels, name=DATASET)
    t3 = perf_counter()
    return graph, engine, {"pll_s": t2 - t1, "inverted_s": t3 - t2}, t0


def build_index_file(scale: float, index_path: str):
    """:func:`build_stack`, then save the index to ``index_path`` and drop
    the built engine, so the stack serves from the attached file only.

    Returns ``(graph, phases, label entries, setup start)``.
    """
    graph, built, phases, t0 = build_stack(scale)
    label_entries = built.labels.size_entries()
    w0 = perf_counter()
    built.save_index(index_path)
    phases["write_s"] = perf_counter() - w0
    del built
    gc.collect()
    return graph, phases, label_entries, t0


# ----------------------------------------------------------------------
# paper_cold
# ----------------------------------------------------------------------
def paper_cold(seed: int, seconds: float, trace: bool, scale: float,
               out_dir: str) -> Outcome:
    out = Outcome(tracer=Tracer() if trace else None)
    graph, engine, phases, t0 = build_stack(scale)
    setup_s = perf_counter() - t0
    requests = paper_requests(seed, graph)
    queries = [engine.make_query(s, t, cats, K) for s, t, cats in requests]
    out.provenance["requests_digest"] = digest(requests)

    clock = LayerClock()
    layers = LayerTimes()
    counts = Counts()
    rate = Throughput()
    spans: List[Tuple[float, float]] = []
    answers: List[tuple] = []  # (query index, SK answer, PK answer)
    pair = 0
    start = perf_counter()
    for traced, block_end in trace_blocks(start, seconds, trace):
        block_start, block_requests = perf_counter(), 0
        with layers_patched(clock) if traced else nullcontext():
            while perf_counter() < block_end:
                q = queries[pair % len(queries)]
                order = (SK, PK) if pair % 2 == 0 else (PK, SK)
                got = {}
                for options in order:
                    rid = len(spans)
                    before = clock.snapshot()
                    r0 = perf_counter()
                    try:
                        result = engine.run(q, options)
                    except Exception as exc:  # counted by the SK/PK check
                        out.error(exc)
                        result = None
                    r1 = perf_counter()
                    spans.append((r0, r1))
                    got[options.method] = (None if result is None
                                           else answer_of(result))
                    counts.add(rid, None if result is None else result.stats)
                    if traced:
                        d = clock_delta(before, clock.snapshot())
                        # What engine.run does outside the search and
                        # the nn calls (option merge, plan dispatch,
                        # result wrapping) is left unattributed.
                        layers.add(r1 - r0, {"core.search": d[4],
                                             "nn.find": d[0], "nn.dest": d[2]},
                                   {"nn.dest": d[3]})
                        out.tracer.span(rid, "core.run", r0, r1)
                        out.tracer.aggregate(rid, "core.search", d[4], 1, "core.run")
                        out.tracer.aggregate(rid, "nn.find", d[0], d[1], "core.run")
                        out.tracer.aggregate(rid, "nn.dest", d[2], d[3], "core.run")
                answers.append((pair % len(queries), got.get("SK"), got.get("PK")))
                block_requests += 2
                pair += 1
        rate.add(traced, block_requests, perf_counter() - block_start)
    elapsed = perf_counter() - start
    out.attempted += len(spans)
    mem = pss_mb([os.getpid()])

    # Checks: SK and PK agree on every query; a fixed sample against
    # brute force.
    brute_left = BRUTE_SAMPLE
    brute_seen = set()
    for index, sk, pk in answers:
        if sk is None or pk is None or not costs_match(sk[0], pk[0]):
            out.failed += 2
            continue
        if brute_left and index not in brute_seen:
            brute_seen.add(index)
            want = brute_force_costs(graph, queries[index], BRUTE_CAP)
            if want is not None:
                brute_left -= 1
                if not costs_match(sk[0], want):
                    out.failed += 2
    out.provenance["brute_force_checked"] = BRUTE_SAMPLE - brute_left

    if trace:
        labeling_metrics(out, phases, engine.labels.size_entries())
        counts.report(out)
        _core_nn_metrics(out, layers)
        out.put("trace.overhead_frac", rate.overhead_frac())
        out.put("trace.unattributed_frac", layers.unattributed_frac())
    else:
        out.put("setup_s", setup_s)
        # Percentiles over whole passes through the query set (SK and PK
        # of each query make two requests); a run too short for one pass
        # uses what it has.
        whole = len(spans) - len(spans) % (2 * len(queries))
        query_metrics(out, spans[:whole] or spans, len(spans), elapsed)
        out.put("mem_mb", mem)
    return out


def _core_nn_metrics(out: Outcome, layers: LayerTimes) -> None:
    out.put("core.search_ms", layers.mean_ms("core.search"))
    out.put("nn.find_ms", layers.mean_ms("nn.find"))
    out.put("nn.dest_ms", layers.mean_ms("nn.dest"))
    out.put("nn.dest_calls", layers.mean_calls("nn.dest"))


# ----------------------------------------------------------------------
# shared_dest_tcp
# ----------------------------------------------------------------------
class Connection:
    """One client connection: FIFO replies matched to the requests sent."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.waiting: deque = deque()
        #: request id of every line sent, in order (the trace maps the
        #: server's n-th submit on this connection to ``rids[n]``)
        self.rids: list = []
        self.task = asyncio.get_running_loop().create_task(self._read())

    def send(self, rid, request: Request) -> asyncio.Future:
        s, t, cats = request
        future = asyncio.get_running_loop().create_future()
        if self.task.done():
            future.set_exception(
                ConnectionError("server closed the connection"))
            return future
        self.waiting.append(future)
        self.rids.append(rid)
        self.writer.write(json.dumps(
            {"source": s, "target": t, "categories": list(cats), "k": K,
             "method": "SK"}).encode() + b"\n")
        return future

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            self.waiting.popleft().set_result((perf_counter(), line))
        while self.waiting:
            self.waiting.popleft().set_exception(
                ConnectionError("server closed the connection"))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self.task


class TcpTrace:
    """Spans from wrapping the server's ``submit``, ``_execute`` and its
    connections' ``readline`` and ``write``.

    ``submit`` runs on the event loop inside the connection's handler
    task: the n-th submit from a handler is the n-th line its connection
    sent (handlers are mapped to connections in warm-up order).  The
    handler's span runs from its ``readline`` returning the request line
    to its ``write`` of the reply; the time outside it (the benchmark's
    client and loopback) is left unattributed.  The resulting plan
    execution runs on a pool thread; it is matched to its submit through
    the request object, and a coalesced submit is linked to the
    execution it waited on through the request key.

    ``_execute`` and the stream methods stay wrapped for the whole
    traced run, so every request's ``QueryStats`` is kept (they repeat
    exactly per request) and every handler's last read time is known;
    ``submit`` and the timing are on only inside traced blocks.
    """

    def __init__(self, aqs, conns: List[Connection], clock: LayerClock):
        self.aqs = aqs
        self.conns = conns
        self.clock = clock
        self.task_conn: Dict[object, int] = {}
        self.submitted = [0] * len(conns)
        self.leader_of_key: Dict[tuple, object] = {}
        self.rid_of_request: Dict[int, object] = {}
        #: handler task -> when its last readline returned
        self.read_at: Dict[object, float] = {}
        #: handler task -> request id whose reply it writes next
        self.replying: Dict[object, object] = {}
        self.handled: Dict[object, tuple] = {}
        self.submits: Dict[object, tuple] = {}
        self.runs: Dict[object, tuple] = {}
        #: (s, t, C) -> QueryStats of its execution
        self.stats: Dict[Request, object] = {}
        self._submit = aqs.submit
        self._execute = aqs._execute

    def wrapped(self):
        """The wrappers that stay on for the whole traced run."""
        trace = self
        readline = asyncio.StreamReader.readline
        write = asyncio.StreamWriter.write

        async def traced_readline(reader):
            line = await readline(reader)
            trace.read_at[asyncio.current_task()] = perf_counter()
            return line

        def traced_write(writer, data):
            write(writer, data)
            task = asyncio.current_task()
            rid = trace.replying.pop(task, None)
            # A handler's first read may predate the wrappers.
            if rid is not None and task in trace.read_at:
                trace.handled[rid] = (trace.read_at[task], perf_counter())

        return patched([(self.aqs, "_execute", self.execute),
                        (asyncio.StreamReader, "readline", traced_readline),
                        (asyncio.StreamWriter, "write", traced_write)])

    def install(self) -> None:
        # Called with nothing in flight: resynchronise the per-connection
        # submit counts with the lines sent while untraced.
        for task, conn in self.task_conn.items():
            self.submitted[conn] = len(self.conns[conn].rids)
        self.aqs.submit = self.submit

    def uninstall(self) -> None:
        del self.aqs.submit

    async def submit(self, request, options=None, *, deadline_s=None):
        task = asyncio.current_task()
        conn = self.task_conn.setdefault(task, len(self.task_conn))
        rid = self.conns[conn].rids[self.submitted[conn]]
        self.submitted[conn] += 1
        key = request.key
        leader = (self.leader_of_key.get(key)
                  if key in self.aqs._inflight else None)
        if leader is None:
            self.leader_of_key[key] = rid
            self.rid_of_request[id(request)] = rid
        t0 = perf_counter()
        try:
            return await self._submit(request, options, deadline_s=deadline_s)
        finally:
            self.submits[rid] = (t0, perf_counter(), leader)
            self.replying[task] = rid

    def execute(self, request, session):
        rid = self.rid_of_request.pop(id(request), None)
        q = request.query
        if rid is None:  # outside a traced block
            result = self._execute(request, session)
        else:
            before = self.clock.snapshot()
            t0 = perf_counter()
            result = self._execute(request, session)
            t1 = perf_counter()
            self.runs[rid] = (t0, t1,
                              clock_delta(before, self.clock.snapshot()))
        self.stats[(q.source, q.target, q.categories)] = result.stats
        return result

    def account(self, rid, sent: float, recv: float, layers: LayerTimes,
                tracer: Tracer) -> None:
        """Book one traced request's layer self-times."""
        submit = self.submits.get(rid)
        handled = self.handled.get(rid)
        if submit is None or handled is None:
            return
        s0, s1, leader = submit
        run = self.runs.get(rid if leader is None else leader)
        if run is None:
            return
        h0, h1 = handled
        r0, r1, d = run
        run_s, search_s, nn_s = r1 - r0, d[4], d[0] + d[2]
        # A coalesced request shares the leader's execution only where
        # the two intervals overlap.
        inside = run_s if leader is None else max(0.0, min(s1, r1) - max(s0, r0))
        share = inside / run_s if run_s > 0 else 0.0
        layers.add(recv - sent, {
            "server.tcp": (h1 - h0) - (s1 - s0),
            "server.queue_wait": (s1 - s0) - inside,
            "service.run": share * (run_s - search_s - nn_s),
            "core.search": share * search_s,
            "nn.find": share * d[0],
            "nn.dest": share * d[2],
        }, {"nn.dest": d[3]})
        tracer.span(rid, "client", sent, recv)
        tracer.span(rid, "server.handler", h0, h1, "client")
        tracer.span(rid, "server.submit", s0, s1, "server.handler")
        if leader is None:
            tracer.span(rid, "service.run", r0, r1, "server.submit")
            tracer.aggregate(rid, "core.search", search_s, 1, "service.run")
            tracer.aggregate(rid, "nn.find", d[0], d[1], "service.run")
            tracer.aggregate(rid, "nn.dest", d[2], d[3], "service.run")
        else:
            tracer.span(rid, "coalesced_into", s0, s1, leader)


def shared_dest_tcp(seed: int, seconds: float, trace: bool, scale: float,
                    out_dir: str) -> Outcome:
    with workdir(out_dir) as work:
        return asyncio.run(_shared_dest_tcp(seed, seconds, trace, scale,
                                            os.path.join(work, "index.rpli")))


async def _shared_dest_tcp(seed, seconds, trace, scale, index_path) -> Outcome:
    from repro.server.tcp import serve

    out = Outcome(tracer=Tracer() if trace else None)
    # Serve on one CPU (see one_cpu); the checks below use them all.
    with one_cpu():
        graph, phases, label_entries, t0 = build_index_file(scale, index_path)
        a0 = perf_counter()
        engine = KOSREngine.from_index_file(graph, index_path, name=DATASET)
        phases["attach_s"] = perf_counter() - a0
        server = await serve(engine, "127.0.0.1", 0, **SERVE_LIMITS)
        aqs = server.query_service
        conns: List[Connection] = []
        try:
            port = server.sockets[0].getsockname()[1]
            for _ in range(CONNECTIONS):
                conns.append(Connection(
                    *await asyncio.open_connection("127.0.0.1", port)))
            setup_s = perf_counter() - t0
            run = TcpRun(seed, seconds, graph, aqs, conns, trace)
            out.provenance["requests_digest"] = run.digest
            await run.drive(out.tracer)
        finally:
            for conn in conns:
                try:
                    await conn.close()
                except (ConnectionError, OSError):
                    pass  # already broken; run.lost counted its requests
            server.close()
            await server.wait_closed()
            await aqs.close()

    # Checks: every reply against a cold engine run of its request.
    queries = {request: engine.make_query(*request, K)
               for request in {run.requests[r[1]] for r in run.records}}
    oracle = ColdOracle(engine, SK, parallel_answers(
        DATASET, scale, index_path, "SK",
        (oracle_key(q) for q in queries.values())))
    out.attempted += len(run.records) + len(run.lost)
    out.failed += len(run.lost)
    out.errors.extend(run.lost)
    for _rid, index, _sent, _recv, line in run.records:
        reply = json.loads(line)
        got = (tuple(reply.get("costs", ())),
               tuple(tuple(w) for w in reply.get("witnesses", ())))
        if "error" in reply or not oracle.accepts(
                queries[run.requests[index]], got):
            out.failed += 1
    out.provenance["oracle_queries"] = len(queries)

    if trace:
        run.report_layers(out, phases, label_entries,
                          os.path.getsize(index_path))
    else:
        out.put("setup_s", setup_s)
        query_metrics(out, [(sent, recv) for _, _, sent, recv, _
                            in run.records], len(run.records), run.elapsed)
        out.put("mem_mb", run.mem)
    return out


class TcpRun:
    """The timed part of ``shared_dest_tcp`` over open connections."""

    def __init__(self, seed, seconds, graph, aqs, conns, trace: bool):
        self.seconds = seconds
        self.aqs = aqs
        self.conns = conns
        pool = mix_pool(graph, make_groups(graph))
        self.warm = warm_requests(seed, pool)
        # Clients cycle through these if a run outlasts them.
        self.requests = shared_dest_requests(seed, "requests", pool, 4096)
        self.digest = digest(self.warm, self.requests)
        self.clock = LayerClock()
        self.tracing = TcpTrace(aqs, conns, self.clock) if trace else None
        self.layers = LayerTimes()
        self.rate = Throughput()
        #: (rid, request index, sent, received, reply line)
        self.records: List[tuple] = []
        #: one entry per request that got no reply because the server
        #: closed its connection
        self.lost: List[str] = []
        self.dead: set = set()

    @contextmanager
    def traced(self, on: bool):
        if not on:
            yield
            return
        self.tracing.install()
        try:
            with layers_patched(self.clock):
                yield
        finally:
            self.tracing.uninstall()

    async def drive(self, tracer: Optional[Tracer]) -> None:
        trace = self.tracing is not None
        with self.tracing.wrapped() if trace else nullcontext():
            await self._drive(trace, tracer)

    async def _drive(self, trace: bool, tracer: Optional[Tracer]) -> None:
        # Warm-up, one request at a time, so a trace sees connection 0's
        # handler first (that is how it maps handlers to connections).
        with self.traced(trace):
            for j, request in enumerate(self.warm):
                conn = self.conns[j % CONNECTIONS]
                if conn not in self.dead:
                    await self._send(conn, ("warm", j), request)
        self.cache_before = self.aqs.cache_stats()
        self.serving_before = self.aqs.stats.as_dict()
        feed = itertools.count()  # request ids
        start = perf_counter()
        for traced, block_end in trace_blocks(start, self.seconds, trace):
            block_start = perf_counter()
            with self.traced(traced):
                done = sum(await asyncio.gather(*(
                    self._client(conn, feed, block_end, traced, tracer)
                    for conn in self.conns if conn not in self.dead)))
            self.rate.add(traced, done, perf_counter() - block_start)
        self.elapsed = perf_counter() - start
        self.mem = pss_mb([os.getpid()])
        self.cache_after = self.aqs.cache_stats()
        self.serving_after = self.aqs.stats.as_dict()

    async def _client(self, conn: Connection, feed, until: float,
                      traced: bool, tracer: Optional[Tracer]) -> int:
        """One user: send, wait for the reply, repeat until ``until``."""
        done = 0
        while perf_counter() < until:
            rid = next(feed)
            index = rid % len(self.requests)
            sent = perf_counter()
            reply = await self._send(conn, rid, self.requests[index])
            if reply is None:
                break
            recv, line = reply
            self.records.append((rid, index, sent, recv, line))
            if traced:
                self.tracing.account(rid, sent, recv, self.layers, tracer)
            done += 1
        return done

    async def _send(self, conn: Connection, rid, request: Request):
        """``(received, reply line)``, or None when the server dropped the
        connection: that request failed and the connection sends nothing
        more."""
        try:
            return await conn.send(rid, request)
        except ConnectionError as exc:
            self.lost.append(repr(exc))
            self.dead.add(conn)
            return None

    def report_layers(self, out: Outcome, phases, label_entries: int,
                      index_bytes: int) -> None:
        labeling_metrics(out, phases, label_entries, index_bytes)
        counts = Counts()
        for rid, index, *_ in self.records:
            counts.add(rid, self.tracing.stats.get(self.requests[index]))
        counts.report(out)
        layers = self.layers
        _core_nn_metrics(out, layers)
        out.put("service.run_ms", layers.mean_ms("service.run"))
        service_metrics(out, self.cache_before, self.cache_after)
        before, after = self.serving_before, self.serving_after
        submitted = after["submitted"] - before["submitted"]
        out.put("server.submitted", submitted)
        out.put("server.coalesced_frac",
                (after["coalesced"] - before["coalesced"]) / submitted
                if submitted else 0.0)
        out.put("server.rejected", after["rejected"] - before["rejected"])
        out.put("server.queue_wait_ms", layers.mean_ms("server.queue_wait"))
        out.put("server.tcp_ms", layers.mean_ms("server.tcp"))
        out.put("trace.overhead_frac", self.rate.overhead_frac())
        out.put("trace.unattributed_frac", layers.unattributed_frac())


# ----------------------------------------------------------------------
# fleet_mutation
# ----------------------------------------------------------------------
class ToggleWriter(threading.Thread):
    """Toggles one category membership per :data:`READS_PER_TOGGLE` reads.

    Each toggle is ``add_vertex_to_category`` then
    ``remove_vertex_from_category``, so the index returns to its base
    state and at most one membership is in flight at a time.  Tying the
    writes to the read count keeps the read/write mix the same on a fast
    or a slow host.  ``log`` holds ``(t0, t_add, t_remove, v, c)``.
    """

    def __init__(self, fleet, toggles) -> None:
        super().__init__(name="toggle-writer")
        self.fleet = fleet
        self.toggles = toggles
        self.due = threading.Semaphore(0)
        self.stopping = False
        self.log: list = []
        self.errors: list = []

    def read_done(self, reads: int) -> None:
        if reads % READS_PER_TOGGLE == 0:
            self.due.release()

    def stop(self) -> None:
        self.stopping = True
        self.due.release()
        self.join()

    def run(self) -> None:
        for v, c in itertools.cycle(self.toggles):
            self.due.acquire()
            if self.stopping:
                return
            t0 = perf_counter()
            try:
                self.fleet.add_vertex_to_category(v, c)
                t1 = perf_counter()
                self.fleet.remove_vertex_from_category(v, c)
                t2 = perf_counter()
            except Exception as exc:  # recorded and counted as a failure
                self.errors.append(repr(exc))
                return
            self.log.append((t0, t1, t2, v, c))


class FleetTrace:
    """Spans of the parent's part of a read: routing, the exchanges with
    the owning workers, and the merge of a spanning read's partials.

    Each exchange's worker execution is the ``QueryStats.total_time`` in
    its reply, the time the worker spent in ``execute_plan`` (what it
    observes as ``repro_query_latency_seconds``).  The exchanges of a
    read run from the first send to the last reply; the rest of that
    interval, after the last reply's execution, is pipe time (lock
    waits, pickling, the pipes).  What ``ShardedQueryService.run`` does
    outside these spans is left unattributed.
    """

    def __init__(self) -> None:
        self.route_s = 0.0
        self.merge_s = 0.0
        #: (send, reply, worker execution s) of the current read's exchanges
        self.exchanges: list = []

    def patches(self):
        import repro.shard.service as shard_module
        from repro.shard.service import ShardedQueryService as Fleet

        trace = self
        owners_for = Fleet.owners_for
        dispatch = Fleet._dispatch
        merge = shard_module.merge_topk_results

        def traced_owners_for(fleet, query, options):
            t0 = perf_counter()
            try:
                return owners_for(fleet, query, options)
            finally:
                trace.route_s += perf_counter() - t0

        def traced_dispatch(fleet, shard, msg, on_route=None):
            t0 = perf_counter()
            payload = dispatch(fleet, shard, msg, on_route)
            if msg[0] == "query":  # not the writer's broadcasts
                trace.exchanges.append((t0, perf_counter(),
                                        payload.stats.total_time))
            return payload

        def traced_merge(query, partials):
            t0 = perf_counter()
            try:
                return merge(query, partials)
            finally:
                trace.merge_s += perf_counter() - t0

        return patched([(Fleet, "owners_for", traced_owners_for),
                        (Fleet, "_dispatch", traced_dispatch),
                        (shard_module, "merge_topk_results", traced_merge)])

    def account(self, rid, r0: float, r1: float, layers: LayerTimes,
                tracer: Tracer) -> None:
        """Book one traced read, then reset for the next."""
        if self.exchanges:
            first = min(e[0] for e in self.exchanges)
            _, last, exec_s = max(self.exchanges, key=lambda e: e[1])
            layers.add(r1 - r0, {"shard.route": self.route_s,
                                 "shard.pipe": (last - first) - exec_s,
                                 "shard.worker_exec": exec_s,
                                 "shard.merge": self.merge_s})
            tracer.span(rid, "shard.run", r0, r1)
            tracer.aggregate(rid, "shard.route", self.route_s, 1, "shard.run")
            for e0, e1, e_exec in self.exchanges:
                tracer.span(rid, "shard.exchange", e0, e1, "shard.run")
                tracer.aggregate(rid, "shard.worker_exec", e_exec, 1,
                                 "shard.exchange")
            tracer.aggregate(rid, "shard.merge", self.merge_s, 1, "shard.run")
        self.route_s = self.merge_s = 0.0
        self.exchanges = []


def candidate_states(query, r0: float, r1: float, log) -> List:
    """Index states a read over ``[r0, r1]`` may have observed.

    The writer has one toggle in flight at a time and each toggle adds
    then removes one membership, so the reply must match the base state
    or the base plus one membership whose toggle overlapped the read.
    Toggles on categories the query does not use cannot change it.
    """
    states = [None]
    for t0, _t1, t2, v, c in log:
        if t0 < r1 and t2 > r0 and c in query.categories:
            states.append((v, c))
    return states


def fleet_mutation(seed: int, seconds: float, trace: bool, scale: float,
                   out_dir: str) -> Outcome:
    from repro.shard.service import ShardedQueryService

    out = Outcome(tracer=Tracer() if trace else None)
    with workdir(out_dir) as work:
        index_path = os.path.join(work, "index.rpli")
        graph, phases, label_entries, t0 = build_index_file(scale,
                                                            index_path)
        # Pinned before the spawn, so the workers inherit it (see
        # one_cpu): a spanning read's two shard executions take turns.
        with one_cpu():
            a0 = perf_counter()
            fleet = ShardedQueryService(graph, SHARDS, index_path=index_path)
            try:
                phases["attach_s"] = perf_counter() - a0
                setup_s = perf_counter() - t0
                reads = _fleet_run(out, fleet, graph, seed, seconds, trace,
                                   setup_s, phases, label_entries,
                                   index_path)
            finally:
                fleet.close()
        _fleet_check(out, scale, index_path, *reads)
    return out


def _fleet_run(out, fleet, graph, seed, seconds, trace, setup_s, phases,
               label_entries, index_path) -> tuple:
    """Time the reads and toggles; returns what the check needs."""
    groups = make_groups(graph)
    pool = mix_pool(graph, groups)
    warm = warm_requests(seed, pool)
    # The closed loop cycles through these if a run outlasts them.
    requests = shared_dest_requests(seed, "requests", pool, 4096)
    toggles = make_toggles(seed, graph, {c for _, cats in groups
                                         for c in cats})
    out.provenance["requests_digest"] = digest(groups, warm, requests,
                                               toggles)
    queries = [fleet.make_query(s, t, cats, K) for s, t, cats in requests]
    for s, t, cats in warm:
        fleet.run(fleet.make_query(s, t, cats, K), SK)
    cache_before = fleet.cache_stats()

    writer = ToggleWriter(fleet, toggles)
    tracing = FleetTrace() if trace else None
    layers = LayerTimes()
    reads: list = []  # (index, r0, r1, answer or None)
    counts = Counts()
    rate = Throughput()
    start = perf_counter()
    writer.start()
    try:
        index = 0
        for traced, block_end in trace_blocks(start, seconds, trace):
            block_start, block_reads = perf_counter(), 0
            with tracing.patches() if traced else nullcontext():
                while perf_counter() < block_end:
                    query = queries[index % len(queries)]
                    r0 = perf_counter()
                    try:
                        result = fleet.run(query, SK)
                    except Exception as exc:  # counted by the check
                        out.error(exc)
                        result = None
                    r1 = perf_counter()
                    reads.append((index % len(queries), r0, r1,
                                  None if result is None
                                  else answer_of(result)))
                    counts.add(index, None if result is None else result.stats)
                    if traced:
                        tracing.account(index, r0, r1, layers, out.tracer)
                    index += 1
                    block_reads += 1
                    writer.read_done(index)
            rate.add(traced, block_reads, perf_counter() - block_start)
        elapsed = perf_counter() - start
    finally:
        writer.stop()
    pids = [os.getpid()] + [report["pid"] for report in fleet.ping()]
    mem = pss_mb(pids)
    cache_after = fleet.cache_stats()
    # One compact() after the burst, as an operator would run it: during
    # the reads the packed categories compact themselves past their
    # overlay ratio, per category, so the warm caches are never dropped
    # wholesale (service.wholesale_invalidations counts it if they were).
    c0 = perf_counter()
    try:
        fleet.compact()
    except Exception as exc:  # recorded and counted as a failure
        writer.errors.append(repr(exc))
    compact_s = perf_counter() - c0
    log, errors = writer.log, writer.errors
    out.attempted += len(reads) + len(log) + len(errors) + 1
    out.failed += len(errors)
    out.errors.extend(errors)
    out.provenance.update(toggles=len(log), fleet_pids=len(pids))
    fanout = {i: len(fleet.owners_for(queries[i], SK))
              for i in {r[0] for r in reads}}

    if trace:
        fanouts = [fanout[i] for i, *_ in reads]
        labeling_metrics(out, phases, label_entries,
                         os.path.getsize(index_path))
        counts.report(out)
        service_metrics(out, cache_before, cache_after)
        out.put("shard.run_ms", layers.total_s / layers.requests * 1000.0
                if layers.requests else 0.0)
        for name in ("route", "worker_exec", "pipe", "merge"):
            out.put(f"shard.{name}_ms", layers.mean_ms(f"shard.{name}"))
        out.put("shard.fanout", sum(fanouts) / len(fanouts) if fanouts else 0)
        out.put("shard.spanning_frac", sum(f > 1 for f in fanouts)
                / len(fanouts) if fanouts else 0)
        ops = [t1 - t0 for t0, t1, _, _, _ in log] + \
              [t2 - t1 for _, t1, t2, _, _ in log]
        out.put("shard.update_ms", sum(ops) / len(ops) * 1000.0 if ops else 0)
        toggle_s = [t2 - t0 for t0, _, t2, _, _ in log]
        out.put("shard.update_p50_ms", percentile(toggle_s, 0.50) * 1000.0)
        out.put("shard.update_p95_ms", percentile(toggle_s, 0.95) * 1000.0)
        out.put("shard.compact_ms", compact_s * 1000.0)
        out.put("shard.respawns", fleet.respawns)
        out.put("trace.overhead_frac", rate.overhead_frac())
        out.put("trace.unattributed_frac", layers.unattributed_frac())
    else:
        out.put("setup_s", setup_s)
        query_metrics(out, [(r0, r1) for _, r0, r1, _ in reads], len(reads),
                      elapsed)
        out.put("mem_mb", mem)
    return queries, reads, log, {i for i, n in fanout.items() if n > 1}


def _fleet_check(out: Outcome, scale: float, index_path: str, queries,
                 reads, log, spanning) -> None:
    """Every read against a cold engine at a state it may have seen.

    Base-state answers are computed in parallel up front; the rare read
    that differs from its base answer is then tried at the states of the
    toggles it overlapped, and a spanning read also at the merge of two
    of those states (its shards may have seen either).
    """
    base = parallel_answers(DATASET, scale, index_path, "SK",
                            {oracle_key(queries[r[0]]) for r in reads})
    oracle = ColdOracle(KOSREngine.from_index_file(make_graph(scale),
                                                   index_path), SK, base)
    mixed = 0
    for index, r0, r1, got in reads:
        query = queries[index]
        states = candidate_states(query, r0, r1, log)
        if got is not None and oracle.accepts(query, got, states):
            continue
        if (got is not None and index in spanning
                and oracle.accepts_mixed(query, got, states)):
            mixed += 1
            continue
        out.failed += 1
    out.provenance["oracle_queries"] = len(base) + oracle.runs
    out.provenance["mixed_state_reads"] = mixed


WORKLOADS = {
    "paper_cold": paper_cold,
    "shared_dest_tcp": shared_dest_tcp,
    "fleet_mutation": fleet_mutation,
}
