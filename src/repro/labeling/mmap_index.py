"""Zero-copy mmap attachment of RPLI v2 index files.

The motivating wall is Sec. V-A's observation that "the index sizes may
be too large to fit into main memory": our sharded fleet (one engine per
worker process) multiplies that by N when every worker rebuilds and
privately owns a full label + inverted index.  This module opens a
saved :mod:`repro.labeling.packed` index file read-only via ``mmap`` and
exposes the packed buffers as typed ``memoryview`` slices **in place** —
no parse, no copy.  Every process attaching the same file shares one
physical copy of the index through the OS page cache, so worker spawn
becomes an ``open`` + ``mmap`` instead of a PLL build, and fleet memory
stays ~one index regardless of worker count.

Why this works where naive ``fork`` sharing does not: CPython reference
counting writes into every object header it touches, so copy-on-write
pages holding Python objects go private almost immediately.  The index
file's pages hold *no* Python objects — just flat little-endian arrays —
and are mapped read-only, so they can never be dirtied.

Hot-loop strategy
-----------------

``memoryview.__getitem__`` re-boxes its element on every access — the
same reason PR 1 rejected ``array`` buffers for the merge-join loops.
The mmap views therefore never feed per-element indexing into a hot
loop.  Instead:

* :class:`MmapLabelIndex` overrides the distance merge join to decode
  both label runs with one ``memoryview.cast(...).tolist()`` each (a
  single C-level pass) and then merge over plain lists;
* :class:`MmapInvertedIndex` decodes whole hub runs on first touch into
  process-local list buffers — the FindNN/FindNEN cursors then advance
  over exactly the same list-of-primitives layout as the list-backed
  packed index.  Decoded runs are the *only* per-process index memory,
  proportional to the hub runs a worker's queries actually touch.

Both views are **immutable**: category updates first re-materialise a
private list-backed :class:`~repro.labeling.packed_inverted.
PackedInvertedIndex` via :meth:`MmapInvertedIndex.materialize` (the
update layer does this automatically), leaving the shared file pages
untouched for every other process.
"""

from __future__ import annotations

import mmap
import sys
import threading
from typing import Dict, List, Optional, Tuple

from repro.exceptions import IndexBuildError, IndexStorageError
from repro.labeling.packed import (
    IndexFileLayout,
    PackedLabelIndex,
    PathLike,
    _buffer_resident_bytes,
    _PackedSide,
    merge_runs,
)
from repro.labeling.packed_inverted import (
    DEFAULT_OVERLAY_RATIO,
    PackedInvertedIndex,
    _EMPTY_SLICE,
)
from repro.types import CategoryId, Cost, Vertex

__all__ = ["MmapIndexFile", "MmapInvertedIndex", "MmapLabelIndex"]


class MmapLabelIndex(PackedLabelIndex):
    """A :class:`PackedLabelIndex` whose buffers are mmap'ed file slices.

    Query surface and results are identical to the list-backed index
    (asserted by the reference-parity suite); only the buffer storage and
    the merge-join decode strategy differ.  Instances keep their owning
    :class:`MmapIndexFile` alive for as long as any view is reachable.
    """

    is_mmap = True

    def __init__(self, index_file: "MmapIndexFile", order,
                 lin: _PackedSide, lout: _PackedSide):
        # No list() copies: order and the side buffers stay typed
        # memoryview slices into the shared mapping.
        self._order = order
        self._lin = lin
        self._lout = lout
        self._file = index_file

    @property
    def index_file(self) -> "MmapIndexFile":
        return self._file

    def _merge(self, s: Vertex, t: Vertex) -> Tuple[Cost, Optional[int]]:
        out, ins = self._lout, self._lin
        lo_o, hi_o = out.slice(s)
        lo_i, hi_i = ins.slice(t)
        # Decode each label run in one C pass, then run the identical
        # two-pointer merge over plain lists — per-element memoryview
        # indexing would re-box on every probe.
        return merge_runs(out.hub_ranks[lo_o:hi_o].tolist(),
                          out.dists[lo_o:hi_o].tolist(),
                          ins.hub_ranks[lo_i:hi_i].tolist(),
                          ins.dists[lo_i:hi_i].tolist())


class MmapInvertedIndex:
    """One category's inverted index served from shared file pages.

    Duck-typed to the :class:`~repro.labeling.packed_inverted.
    PackedInvertedIndex` cursor protocol (``dirty`` / ``patch_ranks`` /
    ``rank_slices`` / ``dists`` / ``members``), so
    :class:`~repro.nn.label_nn.PackedLabelNNFinder` drives it unchanged:
    the view reports itself *dirty* while any hub run is still
    undecoded, and ``patch_ranks`` — the same hook the overlay uses —
    block-decodes exactly the runs a cursor is about to scan into the
    process-local list buffers.

    Decoding is guarded by a per-view lock so threaded batch execution
    and the asyncio front door can share one view: list buffers only
    grow and slices are published after their data, so concurrent
    readers of already-decoded runs proceed without the lock.
    """

    is_mmap = True

    __slots__ = ("category", "dists", "members", "slices", "rank_slices",
                 "hub_ranks", "overlay_ratio", "version", "_file",
                 "_hubs_mv", "_ranks_mv", "_starts_mv", "_dists_mv",
                 "_members_mv", "_dir", "_decoded", "_lock")

    def __init__(self, index_file: "MmapIndexFile", category: CategoryId,
                 hubs_mv, ranks_mv, starts_mv, dists_mv, members_mv):
        self.category = category
        # Process-local decoded buffers; same layout as the list-backed
        # packed index so cursors are oblivious to the storage backing.
        self.dists: List[Cost] = []
        self.members: List[Vertex] = []
        self.slices: Dict[Vertex, Tuple[int, int]] = {}
        self.rank_slices: Dict[int, Tuple[int, int]] = {}
        self.hub_ranks: Dict[Vertex, int] = {}
        self.overlay_ratio: float = DEFAULT_OVERLAY_RATIO
        #: views are immutable, so this never moves (mutations go through
        #: :meth:`materialize` and bump the *replacement* index instead)
        self.version = 0
        self._file = index_file
        self._hubs_mv = hubs_mv
        self._ranks_mv = ranks_mv
        self._starts_mv = starts_mv
        self._dists_mv = dists_mv
        self._members_mv = members_mv
        self._dir: Optional[Dict[int, Tuple[Vertex, int, int]]] = None
        self._decoded = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Cursor protocol (lazy block decode standing in for overlay patches)
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True while any hub run still lives only in the file."""
        return self._decoded < len(self._ranks_mv)

    def _directory(self) -> Dict[int, Tuple[Vertex, int, int]]:
        """rank -> (hub, run lo, run hi) over the file sections."""
        d = self._dir
        if d is None:
            starts = self._starts_mv.tolist()
            d = {rank: (hub, starts[i], starts[i + 1])
                 for i, (rank, hub) in enumerate(
                     zip(self._ranks_mv.tolist(), self._hubs_mv.tolist()))}
            self._dir = d
        return d

    def patch_ranks(self, ranks) -> None:
        """Decode any still-undecoded hub run named in ``ranks``.

        Each run is two ``memoryview.cast(...).tolist()`` calls — one
        C-level pass per buffer — appended to the local lists; cursors
        then advance over plain list positions with zero per-step decode.
        """
        directory = self._directory()
        with self._lock:
            rank_slices = self.rank_slices
            for rank in ranks:
                if rank in rank_slices:
                    continue
                entry = directory.get(rank)
                if entry is not None:
                    self._decode_run(rank, entry)

    def _decode_run(self, rank: int, entry: Tuple[Vertex, int, int]) -> None:
        # Caller holds self._lock.  Publish the slice only after both
        # extends so concurrent lock-free readers never see a slice
        # pointing past the data.
        hub, lo, hi = entry
        new_lo = len(self.members)
        self.dists.extend(self._dists_mv[lo:hi].tolist())
        self.members.extend(self._members_mv[lo:hi].tolist())
        sl = (new_lo, len(self.members))
        self.hub_ranks[hub] = rank
        self.slices[hub] = sl
        self.rank_slices[rank] = sl
        self._decoded += 1

    def _patch_all(self) -> None:
        directory = self._directory()
        with self._lock:
            for rank, entry in directory.items():
                if rank not in self.rank_slices:
                    self._decode_run(rank, entry)

    # ------------------------------------------------------------------
    # Mutation boundary
    # ------------------------------------------------------------------
    def overlay_insert(self, hub: Vertex, rank: int, dist: Cost,
                       member: Vertex) -> None:
        raise IndexBuildError(
            f"category {self.category!r} is an immutable mmap view; "
            f"materialize() it before applying updates")

    def overlay_remove(self, hub: Vertex, rank: int, dist: Cost,
                       member: Vertex) -> bool:
        raise IndexBuildError(
            f"category {self.category!r} is an immutable mmap view; "
            f"materialize() it before applying updates")

    def materialize(self) -> PackedInvertedIndex:
        """A private, mutable list-backed copy of this category's index.

        The update layer swaps a view for its materialisation the first
        time the category is mutated; the file (and every other process
        mapping it) is unaffected.  The copy carries the view's
        ``overlay_ratio`` and version counter, so the engine's index
        epoch is continuous across the swap.
        """
        self._patch_all()
        index = PackedInvertedIndex.from_lists(
            self.category, self.as_lists(), dict(self.hub_ranks))
        index.overlay_ratio = self.overlay_ratio
        index.version = self.version
        return index

    def compact(self) -> None:
        """No-op: a view has no overlay and no buffer garbage."""

    def maybe_compact(self) -> bool:
        return False

    # ------------------------------------------------------------------
    # Query / serialisation surface (same names as PackedInvertedIndex)
    # ------------------------------------------------------------------
    def hub_slice(self, hub: Vertex) -> Tuple[int, int]:
        self._patch_all()
        return self.slices.get(hub, _EMPTY_SLICE)

    def hub_list(self, hub: Vertex) -> List[Tuple[Cost, Vertex]]:
        self._patch_all()
        lo, hi = self.slices.get(hub, _EMPTY_SLICE)
        return list(zip(self.dists[lo:hi], self.members[lo:hi]))

    def as_lists(self) -> Dict[Vertex, List[Tuple[Cost, Vertex]]]:
        self._patch_all()
        return {hub: list(zip(self.dists[lo:hi], self.members[lo:hi]))
                for hub, (lo, hi) in self.slices.items()}

    @property
    def overlay_entries(self) -> int:
        return 0

    @property
    def total_entries(self) -> int:
        return len(self._members_mv)

    @property
    def num_hubs(self) -> int:
        return len(self._ranks_mv)

    def average_list_length(self) -> float:
        # Computed straight off the section lengths — no decode needed
        # (the view is immutable, so the file counts are exact).
        if not len(self._ranks_mv):
            return 0.0
        return len(self._members_mv) / len(self._ranks_mv)

    # ------------------------------------------------------------------
    @property
    def nbytes_serialized(self) -> int:
        """This category's byte share of the index file."""
        return 8 * (len(self._hubs_mv) + len(self._ranks_mv)
                    + len(self._starts_mv) + len(self._dists_mv)
                    + len(self._members_mv))

    @property
    def nbytes_resident(self) -> int:
        """Private footprint: only the runs this process has decoded."""
        return (_buffer_resident_bytes(self.dists)
                + _buffer_resident_bytes(self.members)
                + sys.getsizeof(self.slices)
                + sys.getsizeof(self.rank_slices)
                + sys.getsizeof(self.hub_ranks))

    @property
    def nbytes(self) -> int:
        return self.nbytes_resident


class MmapIndexFile:
    """One open, validated RPLI v2 index file mapped read-only.

    The cheap handle every worker opens at spawn: parsing is just the
    48-byte header plus the section table; labels and per-category
    inverted views are materialised as zero-copy slices on demand.
    """

    def __init__(self, path: str, mm: mmap.mmap, view: memoryview,
                 layout: IndexFileLayout):
        self.path = path
        self._mm = mm
        self._view = view
        self.layout = layout
        self._labels: Optional[MmapLabelIndex] = None
        self._cid_pos: Optional[Dict[CategoryId, int]] = None

    @classmethod
    def open(cls, path: PathLike) -> "MmapIndexFile":
        """mmap ``path`` read-only and validate its layout."""
        with open(path, "rb") as f:
            try:
                mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # zero-length file cannot be mapped
                raise IndexStorageError(
                    f"{path}: truncated header (0 of 48 bytes) "
                    f"(byte offset 0)") from exc
        view = memoryview(mm)
        try:
            layout = IndexFileLayout(path, view)
            layout.check_label_sections()
        except Exception:
            view.release()
            mm.close()
            raise
        return cls(str(path), mm, view, layout)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.layout.num_vertices

    @property
    def num_categories(self) -> int:
        return self.layout.num_categories

    @property
    def has_inverted(self) -> bool:
        return self.layout.has_inverted

    @property
    def size_bytes(self) -> int:
        return len(self._view)

    # ------------------------------------------------------------------
    @property
    def labels(self) -> MmapLabelIndex:
        """The label index as zero-copy views (built once, cached)."""
        if self._labels is None:
            lay = self.layout
            sides = []
            for base in (1, 5):
                side = _PackedSide()
                side.offsets = lay.section(base, "q")
                side.hub_ranks = lay.section(base + 1, "q")
                side.dists = lay.section(base + 2, "d")
                side.parents = lay.section(base + 3, "q")
                sides.append(side)
            self._labels = MmapLabelIndex(self, lay.section(0, "q"),
                                          sides[0], sides[1])
        return self._labels

    def _positions(self) -> Dict[CategoryId, int]:
        if self._cid_pos is None:
            self._cid_pos = {cid: i for i, cid
                             in enumerate(self.layout.category_ids())}
        return self._cid_pos

    def category_ids(self) -> List[CategoryId]:
        """Categories whose inverted sections are stored in the file."""
        return sorted(self._positions())

    def has_category(self, cid: CategoryId) -> bool:
        return cid in self._positions()

    def inverted_view(self, cid: CategoryId) -> MmapInvertedIndex:
        """A zero-copy inverted view of one stored category."""
        pos = self._positions().get(cid)
        if pos is None:
            raise IndexStorageError(
                f"{self.path}: category {cid!r} has no inverted sections "
                f"in this index file")
        lay = self.layout
        lay.check_category_sections(pos)
        base = lay.category_base(pos)
        return MmapInvertedIndex(
            self, cid,
            lay.section(base, "q"), lay.section(base + 1, "q"),
            lay.section(base + 2, "q"), lay.section(base + 3, "d"),
            lay.section(base + 4, "q"))

    def inverted_views(self, cids=None) -> Dict[CategoryId, MmapInvertedIndex]:
        if cids is None:
            cids = self.category_ids()
        return {cid: self.inverted_view(cid) for cid in cids}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping (tolerant of still-exported views).

        ``mmap.close`` raises ``BufferError`` while any section view is
        alive; in that case the mapping simply stays open until the last
        view is garbage-collected — on Linux the parent may even unlink
        the file while workers keep serving from the mapped pages.
        """
        self._labels = None
        try:
            self._view.release()
        except BufferError:
            pass
        try:
            self._mm.close()
        except BufferError:
            pass
