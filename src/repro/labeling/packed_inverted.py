"""Packed per-category inverted label index ``IL(Ci)`` (Sec. IV-A, Table V).

For a category ``Ci`` the inverted index groups the ``Lin`` entries of
all member vertices *by hub*: ``IL(u')`` lists ``(d_{u',m}, m)`` for
every member ``m`` whose ``Lin(m)`` contains hub ``u'``, sorted by
distance.  FindNN then only needs, for each hub ``u'`` of ``Lout(v)``,
to scan ``IL(u')`` in order — a k-way merge that yields members of
``Ci`` in non-decreasing ``dis(v, ·)`` order.

This module flattens a whole category into two parallel buffers

* ``dists``   — member distances, hub runs concatenated;
* ``members`` — member vertex ids, parallel to ``dists``;

plus a ``hub -> (lo, hi)`` slice map.  Each hub's run is sorted by
``(dist, member)``, so a FindNN cursor is just integer positions into the
buffers — no per-entry objects or tuples on the hot path.

The buffers are plain Python lists of primitives rather than ``array``
instances: ``array.__getitem__`` re-boxes the element on every access,
which measures *slower* than attribute access on label objects, whereas
list access merely increfs the already-boxed number.  The compact
``array``/varint forms are used only at the serialisation boundary
(:mod:`repro.labeling.packed`, :mod:`repro.labeling.storage`).

Construction collects every entry first and sorts each hub run once —
O(L log L) total — instead of a per-entry sorted insert.

Dynamic category updates (Sec. IV-C) are served by a small LSM-style
**delta overlay** on top of the immutable base buffers: per hub rank a
sorted list of pending inserts plus a tombstone set for deletions.
Mutations only touch the overlay (``O(|Lin(v)| log |Ci|)`` per category
update); query cursors *lazily patch* any dirty hub run they are about
to scan — the merged run is appended to the flat buffers in one
append-then-sort pass and the slice maps are repointed, so the hot merge
loop keeps running over plain buffer positions with zero per-advance
overhead.  When the accumulated overlay traffic exceeds
``overlay_ratio`` of the live entry count, :meth:`compact` rebuilds the
buffers garbage-free.
"""

from __future__ import annotations

import sys
from bisect import insort
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.graph import Graph
from repro.labeling.packed import _buffer_resident_bytes
from repro.types import CategoryId, Cost, Vertex

#: shared empty-slice sentinel for hubs absent from a category
_EMPTY_SLICE = (0, 0)

#: default compaction threshold: rebuild a category's buffers once the
#: cumulative overlay mutations exceed this fraction of its live entries
DEFAULT_OVERLAY_RATIO = 0.25


class PackedInvertedIndex:
    """One category's inverted label lists as flat parallel buffers."""

    __slots__ = ("category", "dists", "members", "slices", "rank_slices",
                 "hub_ranks", "overlay_ratio", "version", "_pending",
                 "_tombstones", "_hub_of_rank", "_live", "_dead",
                 "_overlay_ops")

    def __init__(
        self,
        category: CategoryId,
        dists: List[Cost],
        members: List[Vertex],
        slices: Dict[Vertex, Tuple[int, int]],
        rank_slices: Dict[int, Tuple[int, int]],
        hub_ranks: Dict[Vertex, int],
    ):
        self.category = category
        self.dists = dists
        self.members = members
        #: hub vertex -> (lo, hi) half-open run into the parallel buffers
        self.slices = slices
        #: the same runs keyed by hub *rank* — FindNN cursors probe this
        #: with ranks straight off the Lout buffer, skipping the
        #: rank -> vertex translation per label entry
        self.rank_slices = rank_slices
        #: hub vertex -> rank, maintained alongside the two slice maps so
        #: overlay bookkeeping can translate either way
        self.hub_ranks: Dict[Vertex, int] = dict(hub_ranks)
        self.overlay_ratio: float = DEFAULT_OVERLAY_RATIO
        #: bumped by every overlay mutation and by :meth:`compact` (the
        #: engine's ``index_epoch`` sums these; lazy query-time patches
        #: are physical-only and intentionally do *not* bump it)
        self.version = 0
        # ---- delta overlay ------------------------------------------------
        #: hub rank -> sorted pending (dist, member) inserts
        self._pending: Dict[int, List[Tuple[Cost, Vertex]]] = {}
        #: hub rank -> (dist, member) keys deleted from the base run
        self._tombstones: Dict[int, Set[Tuple[Cost, Vertex]]] = {}
        #: rank -> hub vertex for every overlay-touched rank
        self._hub_of_rank: Dict[int, Vertex] = {}
        #: logical entry count (base − tombstones + pending)
        self._live = len(members)
        #: buffer elements orphaned by lazy patches (reclaimed by compact)
        self._dead = 0
        #: overlay mutations since the last compaction (threshold feed)
        self._overlay_ops = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_lists(
        cls,
        category: CategoryId,
        lists: Dict[Vertex, List[Tuple[Cost, Vertex]]],
        hub_ranks: Dict[Vertex, int],
    ) -> "PackedInvertedIndex":
        """Flatten hub -> ``(dist, member)`` lists (sorting each run once).

        ``hub_ranks`` maps each hub vertex to its construction-order rank
        (used to key the rank-indexed view of the runs).
        """
        dists: List[Cost] = []
        members: List[Vertex] = []
        slices: Dict[Vertex, Tuple[int, int]] = {}
        rank_slices: Dict[int, Tuple[int, int]] = {}
        for hub in sorted(lists):
            run = sorted(lists[hub])
            lo = len(dists)
            for d, m in run:
                dists.append(d)
                members.append(m)
            sl = (lo, len(dists))
            slices[hub] = sl
            rank_slices[hub_ranks[hub]] = sl
        return cls(category, dists, members, slices, rank_slices, hub_ranks)

    @classmethod
    def from_sections(cls, category: CategoryId, hubs: List[Vertex],
                      ranks: List[int], starts: List[int], dists: List[Cost],
                      members: List[Vertex]) -> "PackedInvertedIndex":
        """Rebuild an index from its five stored sections (no sorting).

        The inverse of :func:`repro.labeling.packed.inverted_sections`: ``starts`` holds the
        ``len(hubs) + 1`` run boundaries into ``dists``/``members``.
        """
        slices: Dict[Vertex, Tuple[int, int]] = {}
        rank_slices: Dict[int, Tuple[int, int]] = {}
        for i, (hub, rank) in enumerate(zip(hubs, ranks)):
            slices[hub] = rank_slices[rank] = (starts[i], starts[i + 1])
        return cls(category, dists, members, slices, rank_slices,
                   dict(zip(hubs, ranks)))

    @classmethod
    def empty(cls, category: CategoryId,
              overlay_ratio: Optional[float] = None) -> "PackedInvertedIndex":
        """A fresh index with no entries (new categories start here)."""
        index = cls(category, [], [], {}, {}, {})
        if overlay_ratio is not None:
            index.overlay_ratio = overlay_ratio
        return index

    # ------------------------------------------------------------------
    # Delta overlay: incremental category updates (Sec. IV-C)
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True when overlay entries are waiting to be merged into runs."""
        return bool(self._pending) or bool(self._tombstones)

    @property
    def overlay_entries(self) -> int:
        """Pending inserts + tombstones currently sitting in the overlay."""
        return (sum(len(p) for p in self._pending.values())
                + sum(len(t) for t in self._tombstones.values()))

    def overlay_insert(self, hub: Vertex, rank: int, dist: Cost,
                       member: Vertex) -> None:
        """Stage one ``(dist, member)`` insert under ``hub`` in the overlay.

        A pending insert that matches an outstanding tombstone cancels it
        (the net effect of remove-then-re-add is the base entry itself).
        """
        self._hub_of_rank[rank] = hub
        self.hub_ranks[hub] = rank
        key = (dist, member)
        tombs = self._tombstones.get(rank)
        if tombs and key in tombs:
            tombs.remove(key)
            if not tombs:
                del self._tombstones[rank]
        else:
            insort(self._pending.setdefault(rank, []), key)
        self._live += 1
        self._overlay_ops += 1
        self.version += 1

    def overlay_remove(self, hub: Vertex, rank: int, dist: Cost,
                       member: Vertex) -> bool:
        """Stage one deletion; returns False (no-op) when the entry is absent.

        Pending inserts are cancelled directly; base entries get a
        tombstone that the lazy patch and :meth:`compact` filter out.
        """
        key = (dist, member)
        pend = self._pending.get(rank)
        if pend and key in pend:
            pend.remove(key)
            if not pend:
                del self._pending[rank]
        else:
            tombs = self._tombstones.get(rank)
            if tombs and key in tombs:
                return False  # already deleted
            if not self._base_run_contains(rank, dist, member):
                return False
            self._hub_of_rank[rank] = hub
            self.hub_ranks[hub] = rank
            self._tombstones.setdefault(rank, set()).add(key)
        self._live -= 1
        self._overlay_ops += 1
        self.version += 1
        return True

    def _base_run_contains(self, rank: int, dist: Cost, member: Vertex) -> bool:
        """Binary-search ``(dist, member)`` inside the rank's base run."""
        lo, end = self.rank_slices.get(rank, _EMPTY_SLICE)
        dists, members = self.dists, self.members
        key = (dist, member)
        hi = end
        while lo < hi:
            mid = (lo + hi) // 2
            if (dists[mid], members[mid]) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo < end and (dists[lo], members[lo]) == key

    def patch_ranks(self, ranks) -> None:
        """Merge overlay deltas of any dirty rank in ``ranks`` into the buffers.

        Called by cursor init right before a scan; hubs the query never
        touches keep their deltas pending.
        """
        dirty = self._pending.keys() | self._tombstones.keys()
        for rank in dirty.intersection(ranks):
            self._patch_rank(rank)

    def _patch_all(self) -> None:
        """Merge every outstanding overlay delta into the buffers."""
        for rank in list(self._pending.keys() | self._tombstones.keys()):
            self._patch_rank(rank)

    def _patch_rank(self, rank: int) -> None:
        """Append-then-sort the effective run of ``rank`` and repoint slices.

        The old region stays behind as garbage (counted in ``_dead``)
        until :meth:`compact`; live cursors holding positions into other
        runs are unaffected because lists only grow.
        """
        pend = self._pending.pop(rank, None)
        tombs = self._tombstones.pop(rank, None)
        if pend is None and tombs is None:
            return
        lo, hi = self.rank_slices.get(rank, _EMPTY_SLICE)
        dists, members = self.dists, self.members
        if tombs:
            run = [(dists[i], members[i]) for i in range(lo, hi)
                   if (dists[i], members[i]) not in tombs]
        else:
            run = list(zip(dists[lo:hi], members[lo:hi]))
        if pend:
            run += pend
            run.sort()
        self._dead += hi - lo
        hub = self._hub_of_rank[rank]
        if not run:
            self.rank_slices.pop(rank, None)
            self.slices.pop(hub, None)
            return
        new_lo = len(dists)
        for d, m in run:
            dists.append(d)
            members.append(m)
        sl = (new_lo, len(dists))
        self.rank_slices[rank] = sl
        self.slices[hub] = sl

    def compact(self) -> None:
        """Fold the overlay in and rebuild the buffers garbage-free.

        Purely physical: the effective per-hub runs — and therefore every
        query result — are unchanged (property-tested).  Resets the
        compaction-threshold accounting.
        """
        self._patch_all()
        if self._dead:
            dists: List[Cost] = []
            members: List[Vertex] = []
            slices: Dict[Vertex, Tuple[int, int]] = {}
            rank_slices: Dict[int, Tuple[int, int]] = {}
            for hub in sorted(self.slices):
                lo, hi = self.slices[hub]
                new_lo = len(dists)
                dists.extend(self.dists[lo:hi])
                members.extend(self.members[lo:hi])
                sl = (new_lo, len(dists))
                slices[hub] = sl
                rank_slices[self.hub_ranks[hub]] = sl
            self.dists, self.members = dists, members
            self.slices, self.rank_slices = slices, rank_slices
            self._dead = 0
        self._overlay_ops = 0
        self.version += 1

    def maybe_compact(self) -> bool:
        """Compact when overlay traffic exceeds ``overlay_ratio`` of live size."""
        if self._overlay_ops > self.overlay_ratio * max(1, self._live):
            self.compact()
            return True
        return False

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def _patch_hub(self, hub: Vertex) -> None:
        if self._pending or self._tombstones:
            rank = self.hub_ranks.get(hub)
            if rank is not None and (rank in self._pending
                                     or rank in self._tombstones):
                self._patch_rank(rank)

    def hub_slice(self, hub: Vertex) -> Tuple[int, int]:
        """``(lo, hi)`` run of ``hub`` (``(0, 0)`` when the hub is unused)."""
        self._patch_hub(hub)
        return self.slices.get(hub, _EMPTY_SLICE)

    def hub_list(self, hub: Vertex) -> List[Tuple[Cost, Vertex]]:
        """Materialise one hub's sorted ``(dist, member)`` list (compat view)."""
        self._patch_hub(hub)
        lo, hi = self.slices.get(hub, _EMPTY_SLICE)
        return list(zip(self.dists[lo:hi], self.members[lo:hi]))

    def as_lists(self) -> Dict[Vertex, List[Tuple[Cost, Vertex]]]:
        """Hub -> sorted ``(dist, member)`` lists (the serialisation view)."""
        self._patch_all()
        return {hub: self.hub_list(hub) for hub in self.slices}

    # ------------------------------------------------------------------
    # Table IX statistics
    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        """``|IL(Ci)|`` — total label entries in this category's index."""
        return self._live

    @property
    def num_hubs(self) -> int:
        self._patch_all()
        return len(self.slices)

    def average_list_length(self) -> float:
        """Avg ``|IL(v)|`` per hub — the Table IX statistic."""
        self._patch_all()
        if not self.slices:
            return 0.0
        return self._live / len(self.slices)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def nbytes_serialized(self) -> int:
        """At-rest byte size if written to an index file right now.

        Per category the file stores the live ``(dist, member)`` pairs
        plus hub, rank, and run-boundary directories, 8 bytes each.
        """
        hubs = len(self.slices)
        return 8 * (2 * self._live + 3 * hubs + 1)

    @property
    def nbytes_resident(self) -> int:
        """Estimated live in-process footprint of the current buffers.

        Counts the flat buffers as held — including overlay garbage not
        yet reclaimed by :meth:`compact` — plus the slice directories.
        """
        return (_buffer_resident_bytes(self.dists)
                + _buffer_resident_bytes(self.members)
                + sys.getsizeof(self.slices)
                + sys.getsizeof(self.rank_slices)
                + sys.getsizeof(self.hub_ranks))

    @property
    def nbytes(self) -> int:
        """Actual in-memory footprint (alias of :attr:`nbytes_resident`)."""
        return self.nbytes_resident


def build_packed_inverted_index(
    graph: Graph, labels, category: CategoryId
) -> PackedInvertedIndex:
    """Build one category's packed ``IL(Ci)`` straight off ``Lin`` buffers.

    ``labels`` is a :class:`~repro.labeling.packed.PackedLabelIndex`
    (list- or mmap-backed).
    """
    lists: Dict[Vertex, List[Tuple[Cost, Vertex]]] = {}
    hub_ranks: Dict[Vertex, int] = {}
    side = labels.lin_side()
    offsets, ranks, dists = side.offsets, side.hub_ranks, side.dists
    order = labels.order
    for member in sorted(graph.members(category)):
        for i in range(offsets[member], offsets[member + 1]):
            rank = ranks[i]
            hub = order[rank]
            bucket = lists.get(hub)
            if bucket is None:
                bucket = lists[hub] = []
                hub_ranks[hub] = rank
            bucket.append((dists[i], member))
    return PackedInvertedIndex.from_lists(category, lists, hub_ranks)


def build_packed_inverted_indexes(
    graph: Graph, labels
) -> Dict[CategoryId, PackedInvertedIndex]:
    """Packed inverted indexes for every category of the graph."""
    return {
        cid: build_packed_inverted_index(graph, labels, cid)
        for cid in range(graph.num_categories)
    }
