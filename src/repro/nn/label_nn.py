"""FindNN (Algorithm 3): incremental x-th nearest neighbor via inverted labels.

For a source ``v`` and category ``Ci`` the cursor runs a k-way merge over
the inverted lists ``IL(u')`` of every hub ``u' ∈ Lout(v)``:

* ``NL`` — neighbors already produced, nearest first;
* ``NQ`` — a heap of one frontier entry per hub list, keyed by
  ``dis(v, u') + d_{u', m}``;
* ``KV`` — per-hub read positions.

Because every hub list is sorted, the merged stream is globally
non-decreasing in total cost, so the first time a member pops it does so at
its exact 2-hop distance (cover property).  One correctness refinement over
the paper's pseudo-code: a member can sit in ``NQ`` through *two* hubs at
once, so pops must skip members already in ``NL`` (Alg. 3 only skips them
while advancing cursors).
"""

from __future__ import annotations

import heapq
from heapq import heappop, heapreplace
from typing import Callable, Dict, List, Optional, Tuple

from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.nn.base import NearestNeighborFinder
from repro.types import CategoryId, Cost, INFINITY, Vertex


class _PackedCursor:
    """Merge state for one ``(source, category)`` pair over packed buffers.

    Each hub stream lives entirely inside its heap entry
    ``(total_cost, member, next position, run end, base distance)``:
    advancing a stream is one ``heapreplace`` with the successor tuple,
    with no side tables to update.
    """

    __slots__ = ("nl", "nq", "idists", "imembers", "found", "exhausted",
                 "gen")

    def __init__(self) -> None:
        self.nl: List[Tuple[Vertex, Cost]] = []
        # heap entries: (total_cost, member, next_pos, run_end, base)
        self.nq: List[Tuple[Cost, Vertex, int, int, Cost]] = []
        self.idists: List[Cost] = []
        self.imembers: List[Vertex] = []
        #: members already produced (grows with |NL|, not with |V| —
        #: per-cursor flag arrays would cost O(V) each)
        self.found: set = set()
        self.exhausted = False
        #: per-cursor advance generator (None once/while exhausted); its
        #: frame keeps all merge-loop bindings alive between advances
        self.gen = None


class PackedLabelNNFinder(NearestNeighborFinder):
    """The paper's FindNN over the packed label + inverted buffers.

    Every inner-loop step is index arithmetic over flat buffers: no
    per-entry objects, no per-step hub-list dict lookups, no ``(dist,
    member)`` tuple unpacking.  Answers, order and executed-NN-query
    counts equal a plain sort of the category by ``dis(v, ·)`` (the
    reference-parity tests pin this).

    Dynamic category updates land in the inverted indexes' delta
    overlays; cursors fold any relevant deltas in at creation time
    (see :meth:`_make_cursor`).  A finder snapshots index state as of
    each cursor's creation — apply updates between queries (the engine
    builds a fresh finder per query), not while a finder is
    mid-enumeration.
    """

    def __init__(
        self,
        labels: PackedLabelIndex,
        inverted: Dict[CategoryId, PackedInvertedIndex],
    ):
        super().__init__()
        self._labels = labels
        self._inverted = inverted
        self._distance = labels.distance
        out = labels.lout_side()
        self._out_offsets = out.offsets
        self._out_ranks = out.hub_ranks
        self._out_dists = out.dists
        self._cursors: Dict[Tuple[Vertex, CategoryId], _PackedCursor] = {}
        #: source -> (hub ranks, base distances) of Lout(source), decoded
        #: once and reused by every category's cursor over the same source
        self._source_hubs: Dict[Vertex, Tuple[List[int], List[Cost]]] = {}

    # ------------------------------------------------------------------
    def find(
        self, source: Vertex, category: CategoryId, x: int
    ) -> Optional[Tuple[Vertex, Cost]]:
        cursor = self._cursors.get((source, category))
        if cursor is None:
            cursor = self._make_cursor(source, category)
        # NL hit: free (not counted as an executed NN query).
        nl = cursor.nl
        if len(nl) < x and not cursor.exhausted:
            # One count per produced neighbor plus one for the advance
            # that discovers exhaustion (it raises StopIteration after
            # flagging the cursor).
            attempts = 0
            advance = cursor.gen.__next__
            try:
                while len(nl) < x:
                    attempts += 1
                    advance()
            except StopIteration:
                pass
            self.queries += attempts
        if x <= len(nl):
            return nl[x - 1]
        return None

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        return self._distance(s, t)

    def make_dest_distance(self, target: Vertex) -> Callable[[Vertex], Cost]:
        """A ``dis(·, target)`` specialisation for one fixed target.

        ``Lin(target)`` is turned into a hub-rank -> distance dict once;
        each call then scans ``Lout(v)`` with dict probes instead of
        running the two-sided merge join.  The minimum ranges over exactly
        the same hub set with the same additions, so results are
        bit-identical to :meth:`distance`.
        """
        ins = self._labels.lin_side()
        lo, hi = ins.offsets[target], ins.offsets[target + 1]
        target_dists = dict(zip(ins.hub_ranks[lo:hi], ins.dists[lo:hi]))
        out = self._labels.lout_side()
        offsets, ranks, dists = out.offsets, out.hub_ranks, out.dists
        dist_get = target_dists.get
        inf = INFINITY

        if type(ranks) is list:
            def dest_distance(v: Vertex) -> Cost:
                if v == target:
                    return 0.0
                lo, hi = offsets[v], offsets[v + 1]
                best = inf
                # map() runs the dict probe in C; only hub hits reach
                # the body.
                for d, dd in zip(dists[lo:hi], map(dist_get, ranks[lo:hi])):
                    if dd is not None:
                        total = d + dd
                        if total < best:
                            best = total
                return best
        else:
            def dest_distance(v: Vertex) -> Cost:
                if v == target:
                    return 0.0
                lo, hi = offsets[v], offsets[v + 1]
                best = inf
                # mmap-backed labels: decode the probe's whole label run
                # at C speed instead of re-boxing per element.  Same hub
                # set, same additions — results stay bit-identical.
                for d, dd in zip(dists[lo:hi].tolist(),
                                 map(dist_get, ranks[lo:hi].tolist())):
                    if dd is not None:
                        total = d + dd
                        if total < best:
                            best = total
                return best

        return dest_distance

    def make_estimated(self, estimate: Callable[[Vertex], Cost],
                       cache: Optional[Dict[Vertex, Cost]] = None):
        """FindNEN fused onto the packed cursors (see Algorithm 4)."""
        from repro.nn.estimated import PackedEstimatedNNFinder

        return PackedEstimatedNNFinder(self, estimate, cache)

    # ------------------------------------------------------------------
    def cursor_for(self, source: Vertex, category: CategoryId) -> _PackedCursor:
        """Get-or-create the merge cursor of one ``(source, category)``."""
        cursor = self._cursors.get((source, category))
        if cursor is None:
            cursor = self._make_cursor(source, category)
        return cursor

    def _hub_pairs(self, source: Vertex) -> Tuple[List[int], List[Cost]]:
        """Decoded ``Lout(source)``: parallel (hub ranks, base distances).

        Cached per source so the six-or-so category cursors of one search
        pay the label scan once.
        """
        pairs = self._source_hubs.get(source)
        if pairs is None:
            lo, hi = self._out_offsets[source], self._out_offsets[source + 1]
            ranks = self._out_ranks[lo:hi]
            dists = self._out_dists[lo:hi]
            if type(ranks) is not list:
                # mmap-backed labels: slicing yields memoryviews, whose
                # per-element indexing re-boxes; decode the whole run in
                # one C pass so downstream loops see plain lists.
                ranks, dists = ranks.tolist(), dists.tolist()
            pairs = (ranks, dists)
            self._source_hubs[source] = pairs
        return pairs

    def _make_cursor(self, source: Vertex, category: CategoryId) -> _PackedCursor:
        """Algorithm 3 lines 6-10: seed NQ with each hub run's head.

        When the category carries delta-overlay updates, any dirty hub
        run this cursor is about to scan is patched (overlay merged into
        the flat buffers, slices repointed) *before* seeding, so the
        merge loop itself never sees the overlay.  With an empty overlay
        — the common serving case — this costs one boolean check per
        cursor creation and nothing per advance.
        """
        cursor = _PackedCursor()
        self._cursors[(source, category)] = cursor
        pinv = self._inverted.get(category)
        if pinv is not None and pinv.dirty:
            pinv.patch_ranks(self._hub_pairs(source)[0])
        if pinv is not None and pinv.members:
            idists = cursor.idists = pinv.dists
            imembers = cursor.imembers = pinv.members
            nq = cursor.nq
            ranks, base_dists = self._hub_pairs(source)
            # map() pushes the per-hub dict probe into C; most Lout hubs
            # have no members in the category, so the Python-level body
            # below only runs for actual matches.
            for base, sl in zip(base_dists, map(pinv.rank_slices.get, ranks)):
                if sl is None:
                    continue
                lo, hi = sl
                nq.append((base + idists[lo], imembers[lo], lo + 1, hi, base))
            # Heap-order ties only reorder pops of entries with equal
            # (total, member) — interchangeable for NL and stream state —
            # so heapify instead of pushes changes nothing observable.
            heapq.heapify(nq)
        if cursor.nq:
            cursor.gen = self._stream(cursor)
        else:
            cursor.exhausted = True
        return cursor

    @staticmethod
    def _stream(cursor: _PackedCursor):
        """Generator producing one NL entry per resume (lines 11-18).

        A generator rather than a method so the merge-loop bindings live
        in one long-lived frame instead of being re-established on every
        advance; on exhaustion it flags the cursor and finishes.

        ``heapreplace`` (one sift) stands in for the pop-push pair where
        the popped stream has a successor: heap *contents* end up the
        same either way, and entries with equal keys are interchangeable,
        so the produced NL sequence is too.
        """
        nl_append = cursor.nl.append
        nq = cursor.nq
        found = cursor.found
        found_add = found.add
        idists, imembers = cursor.idists, cursor.imembers
        while nq:
            total, member, pos, end, base = nq[0]
            # Advance this stream, skipping already-found members (the
            # do-while of Algorithm 3).
            while pos < end and imembers[pos] in found:
                pos += 1
            if pos < end:
                heapreplace(
                    nq, (base + idists[pos], imembers[pos], pos + 1, end, base)
                )
            else:
                heappop(nq)
            if member in found:
                continue  # stale duplicate through another hub
            found_add(member)
            nl_append((member, total))
            yield
        cursor.exhausted = True


class DiskViewNNFinder(PackedLabelNNFinder):
    """FindNN over one SK-DB per-query :class:`~repro.labeling.storage.
    QueryLabelView` (the view holds packed runs for loaded vertices only).

    The cursors and the fused FindNEN are the packed finder's own; the
    only difference is where ``Lout(source)`` comes from —
    :meth:`_hub_pairs` reads the view's run, which raises
    :class:`~repro.exceptions.IndexStorageError` for a vertex the query
    did not load — and ``dis(·, t)`` is the view's merge join.
    """

    def __init__(self, view):
        NearestNeighborFinder.__init__(self)
        self._labels = view
        self._inverted = view.inverted
        self._distance = view.distance
        self._cursors: Dict[Tuple[Vertex, CategoryId], _PackedCursor] = {}

    def _hub_pairs(self, source: Vertex) -> Tuple[List[int], List[Cost]]:
        ranks, dists, _ = self._labels.lout(source)
        return ranks, dists

    def make_dest_distance(self, target: Vertex) -> Callable[[Vertex], Cost]:
        distance = self._distance
        return lambda v: distance(v, target)
