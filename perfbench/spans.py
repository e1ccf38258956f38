"""In-memory request tracing around the benchmark's calls into each layer.

Nothing under ``src/`` is instrumented for this: every span is recorded
by benchmark code, either around a call the benchmark makes itself or by
wrapping a layer's entry point in this process for the duration of a
traced block (:func:`layers_patched`).  Spans stay in memory, keyed by
request id, and are written out once when the run ends
(:meth:`Tracer.dump`).

The ``nn`` layer is entered hundreds of times per query, so its calls
are not stored one by one: a thread-local :class:`LayerClock`
accumulates their count and duration, and the caller books each
request's difference as aggregate spans.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional


class LayerClock(threading.local):
    """Per-thread totals of time spent inside ``nn`` and ``core`` calls.

    ``find`` covers FindNN / FindNEN advances (cursor and cold finder
    creation included); ``dest`` covers ``dis(., t)`` kernel builds and
    probes.  A probe made from inside a find (FindNEN estimates its
    candidates) counts as ``dest`` and is subtracted from the enclosing
    find, so the two never double-count.  ``search`` is the core search
    itself (``star_kosr`` for SK, ``pruning_kosr`` for PK); the ``nn``
    time inside it is subtracted, so its self-time is the search loop,
    dominance and A* estimation.  Nested calls of the same kind are timed
    once, by the outermost wrapper.
    """

    def __init__(self) -> None:
        self.active: Optional[str] = None
        self.find_s = 0.0
        self.find_n = 0
        self.dest_s = 0.0
        self.dest_n = 0
        self.dest_in_find_s = 0.0
        self.search_s = 0.0
        self.nn_in_search_s = 0.0

    def snapshot(self) -> tuple:
        """``(find self s, find calls, dest s, dest calls, search self s)``."""
        return (self.find_s - self.dest_in_find_s, self.find_n,
                self.dest_s, self.dest_n,
                self.search_s - self.nn_in_search_s)


def clock_delta(before: tuple, after: tuple) -> tuple:
    return tuple(b - a for a, b in zip(before, after))


def _timed(clock: LayerClock, kind: str, fn):
    def call(*args, **kwargs):
        outer = clock.active
        if outer == kind:
            return fn(*args, **kwargs)
        clock.active = kind
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            clock.active = outer
            if kind == "search":
                clock.search_s += dt
            else:
                if kind == "find":
                    clock.find_s += dt
                    clock.find_n += 1
                else:
                    clock.dest_s += dt
                    clock.dest_n += 1
                    if outer == "find":
                        clock.dest_in_find_s += dt
                if outer == "search":
                    clock.nn_in_search_s += dt
    return call


@contextmanager
def patched(patches):
    """Set ``(owner, name, value)`` attributes; restore them on exit."""
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def layers_patched(clock: LayerClock):
    """Wrap the ``nn`` entry points and the core search functions.

    Covers the cold packed path (``PackedLabelNNFinder.find`` for PK,
    the fused FindNEN stream of ``PackedEstimatedNNFinder`` for SK, and
    the cold finder's construction), the warm SK path (the generic
    ``EstimatedNNFinder`` over the service's finder view), every
    ``dis(., t)`` kernel, which all come from
    ``PackedLabelNNFinder.make_dest_distance``, and the SK and PK
    searches as the executors call them.  Warm PK is not covered: no
    workload runs it in this process.  The originals are restored on
    exit.
    """
    import repro.service.executors as executors
    from repro.core.engine import KOSREngine
    from repro.nn.estimated import EstimatedNNFinder, PackedEstimatedNNFinder
    from repro.nn.label_nn import PackedLabelNNFinder

    entry = PackedEstimatedNNFinder.cursor_entry
    make_dest = PackedLabelNNFinder.make_dest_distance

    def cursor_entry(self, source, category):
        enl, advance = entry(self, source, category)
        return enl, _timed(clock, "find", advance)

    def make_dest_distance(self, target):
        return _timed(clock, "dest", make_dest(self, target))

    return patched([
        (PackedLabelNNFinder, "find",
         _timed(clock, "find", PackedLabelNNFinder.find)),
        (EstimatedNNFinder, "find",
         _timed(clock, "find", EstimatedNNFinder.find)),
        (PackedEstimatedNNFinder, "cursor_entry", cursor_entry),
        (PackedLabelNNFinder, "make_dest_distance",
         _timed(clock, "dest", make_dest_distance)),
        (KOSREngine, "_make_finder",
         _timed(clock, "find", KOSREngine._make_finder)),
        (executors, "star_kosr", _timed(clock, "search", executors.star_kosr)),
        (executors, "pruning_kosr",
         _timed(clock, "search", executors.pruning_kosr)),
    ])


class Tracer:
    """Spans of one run, in memory until :meth:`dump`.

    A span is ``(request id, name, start, end, parent name)`` with
    ``perf_counter`` seconds; an aggregate is ``(request id, name,
    seconds, calls, parent name)`` (the ``nn`` totals of one request).
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.aggregates: List[tuple] = []

    def span(self, rid, name: str, start: float, end: float,
             parent: Optional[str] = None) -> None:
        self.spans.append((rid, name, start, end, parent))

    def aggregate(self, rid, name: str, seconds: float, calls: int,
                  parent: Optional[str] = None) -> None:
        self.aggregates.append((rid, name, seconds, calls, parent))

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"header": header,
                       "spans": [list(s) for s in self.spans],
                       "aggregates": [list(a) for a in self.aggregates]}, fh)


class LayerTimes:
    """Per-request self-time of each layer, summed over traced requests.

    :meth:`add` takes one request's end-to-end seconds, its layers'
    self-times and optional call counts; :meth:`unattributed_frac` is the
    share of end-to-end time no layer span covered.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.total_s = 0.0
        self.layers: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, total_s: float, layers: Dict[str, float],
            calls: Optional[Dict[str, int]] = None) -> None:
        self.requests += 1
        self.total_s += total_s
        for name, seconds in layers.items():
            self.layers[name] = self.layers.get(name, 0.0) + seconds
        for name, count in (calls or {}).items():
            self.calls[name] = self.calls.get(name, 0) + count

    def mean_ms(self, name: str) -> float:
        if not self.requests:
            return 0.0
        return self.layers.get(name, 0.0) / self.requests * 1000.0

    def mean_calls(self, name: str) -> float:
        return self.calls.get(name, 0) / self.requests if self.requests else 0.0

    def unattributed_frac(self) -> float:
        if self.total_s <= 0.0:
            return 0.0
        return max(0.0, 1.0 - sum(self.layers.values()) / self.total_s)
