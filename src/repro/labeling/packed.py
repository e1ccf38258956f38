"""Flat-buffer label storage: the one label-index representation.

Sec. V-A notes that on large graphs "the index sizes may be too large to
fit into main memory" and points at hub-label compression [12].  This
module stores each vertex's label set in three flat parallel buffers
(hub ranks, distances, parents) plus an offsets buffer, and adds a
fixed-layout binary serialisation (the ``RPLI`` v2 *index file*).

The in-memory buffers are plain Python lists of primitives.  ``array``
buffers would be more compact at rest, but ``array.__getitem__`` re-boxes
its element on every access, which benchmarks *slower* in the merge-join
hot loop than list indexing; lists of already-boxed numbers are the
fastest pure-Python layout.

RPLI v2 index file format
-------------------------

The v1 format delta/varint-encoded hub ranks, which forced a full decode
pass on load.  v2 trades a somewhat larger file for a *zero-decode*
layout that a reader can ``mmap`` and slice in place
(:mod:`repro.labeling.mmap_index`)::

    header   48 B   magic "RPLI", version u16, flags u16,
                    num_vertices u64, num_categories u64,
                    section_count u64, 16 B reserved
    table    16 B x section_count   (byte offset u64, element count u64)
    sections raw little-endian arrays, 8 B per element
             ("q" int64 everywhere, "d" float64 for distances)

Sections, in order: ``order``; per label side (``Lin`` then ``Lout``)
``offsets``, ``hub_ranks``, ``dists``, ``parents``.  When the
``inverted`` flag is set they are followed by a sorted ``category_ids``
section and, per category, five sections — ``hubs``, ``hub_ranks``
(ascending), ``run_starts`` (R+1 boundaries), ``dists``, ``members`` —
with the hub runs concatenated in ascending-rank order.  Every section
is a multiple of 8 bytes, so all offsets stay naturally aligned for
``memoryview.cast``.

:class:`PackedLabelIndex` answers ``distance``, ``distance_with_hub``,
``path`` and ``restore_witness_route``; ``lin(v)`` / ``lout(v)`` return
a vertex's label as ``(hub_rank, dist, parent)`` tuples for inspection.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.exceptions import IndexBuildError, IndexStorageError
from repro.types import CategoryId, Cost, INFINITY, Vertex

PathLike = Union[str, Path]

#: parent sentinel for hub self-entries
NO_PARENT = -1

#: one label entry as returned by ``lin(v)`` / ``lout(v)``:
#: ``(hub_rank, dist, parent)``, ``parent`` None on the hub's own entry
LabelTuple = Tuple[int, Cost, Optional[Vertex]]

_MAGIC = b"RPLI"
_VERSION = 2

#: header flag: the file carries per-category inverted-index sections
_FLAG_INVERTED = 0x1

#: magic, version, flags, num_vertices, num_categories, section_count,
#: 16 reserved bytes — 48 bytes total, an 8-byte multiple so the section
#: table and every section stay naturally aligned
_HEADER = struct.Struct("<4sHHQQQ16x")

#: one section-table entry: absolute byte offset + element count
_TABLE_ENTRY = struct.Struct("<QQ")

#: sections 1-8: Lin then Lout, each (offsets, hub_ranks, dists, parents)
_SIDE_SECTION_CODES = ("q", "q", "d", "q")

#: per-category sections: hubs, hub_ranks, run_starts, dists, members
_CATEGORY_SECTION_CODES = ("q", "q", "q", "d", "q")


def _buffer_resident_bytes(buf) -> int:
    """Estimated live-process footprint of one flat buffer.

    Lists carry a pointer per element plus one boxed number each; the
    per-element box size is sampled from the first element (floats are
    uniform, ints nearly so), making this an O(1) upper-bound estimate.
    ``memoryview`` slices over an mmap'ed file cost only the view object
    itself — the backing pages are shared with every other process
    mapping the same file.
    """
    if isinstance(buf, list):
        if not buf:
            return sys.getsizeof(buf)
        return sys.getsizeof(buf) + len(buf) * sys.getsizeof(buf[0])
    return sys.getsizeof(buf)


def merge_runs(ranks_o, dists_o, ranks_i, dists_i) -> Tuple[Cost, Optional[int]]:
    """``(dis, hub_rank)`` of two rank-sorted label runs by merge join.

    ``Lout(s)`` against ``Lin(t)`` as plain lists (decoded mmap slices,
    per-query SK-DB runs); the hub rank is None iff no hub is shared.
    """
    best = INFINITY
    best_hub: Optional[int] = None
    i, i_end = 0, len(ranks_o)
    j, j_end = 0, len(ranks_i)
    while i < i_end and j < j_end:
        a, b = ranks_o[i], ranks_i[j]
        if a == b:
            total = dists_o[i] + dists_i[j]
            if total < best:
                best = total
                best_hub = a
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return best, best_hub


class _PackedSide:
    """One direction's labels (all vertices) as flat parallel buffers."""

    __slots__ = ("offsets", "hub_ranks", "dists", "parents")

    def __init__(self) -> None:
        self.offsets: List[int] = [0]
        self.hub_ranks: List[int] = []
        self.dists: List[Cost] = []
        self.parents: List[int] = []

    @classmethod
    def from_runs(cls, ranks: Sequence[List[int]], dists: Sequence[List[Cost]],
                  parents: Sequence[List[int]]) -> "_PackedSide":
        """Flatten per-vertex parallel runs (one list per vertex) once."""
        side = cls()
        side.offsets = [0, *accumulate(map(len, ranks))]
        side.hub_ranks = list(chain.from_iterable(ranks))
        side.dists = list(chain.from_iterable(dists))
        side.parents = list(chain.from_iterable(parents))
        return side

    def slice(self, v: Vertex) -> Tuple[int, int]:
        return self.offsets[v], self.offsets[v + 1]

    def entries(self, v: Vertex) -> List[LabelTuple]:
        lo, hi = self.slice(v)
        return [
            (self.hub_ranks[i], self.dists[i],
             None if self.parents[i] == NO_PARENT else self.parents[i])
            for i in range(lo, hi)
        ]

    @property
    def nbytes_serialized(self) -> int:
        """At-rest footprint: 8 bytes per buffer element in the index file."""
        return 8 * (
            len(self.offsets)
            + len(self.hub_ranks)
            + len(self.dists)
            + len(self.parents)
        )

    @property
    def nbytes_resident(self) -> int:
        """Estimated live in-process footprint of the current buffers.

        Several times larger than :attr:`nbytes_serialized` for
        list-backed sides (pointer + boxed number per element), and
        near-zero for mmap-backed sides whose buffers are views into
        shared file pages.
        """
        return (
            _buffer_resident_bytes(self.offsets)
            + _buffer_resident_bytes(self.hub_ranks)
            + _buffer_resident_bytes(self.dists)
            + _buffer_resident_bytes(self.parents)
        )

    @property
    def nbytes(self) -> int:
        """Actual in-memory footprint (alias of :attr:`nbytes_resident`)."""
        return self.nbytes_resident


class PackedLabelIndex:
    """Array-backed 2-hop label index over ``Lin``/``Lout`` side buffers.

    For every vertex ``v`` the index keeps ``Lin(v)`` (hubs that reach
    ``v``) and ``Lout(v)`` (hubs ``v`` reaches), each sorted by hub rank
    and satisfying the cover property, so ``dis(s, t)`` is a merge join
    of ``Lout(s)`` with ``Lin(t)``.  Each entry also stores the parent
    vertex one step towards its hub, which turns witness-to-route
    restoration into a chain of label lookups (Akiba et al. [2]).
    """

    def __init__(self, order: List[Vertex], lin: _PackedSide, lout: _PackedSide):
        self._order = list(order)
        self._lin = lin
        self._lout = lout

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._lin.offsets) - 1

    @property
    def order(self) -> List[Vertex]:
        return self._order

    def hub_vertex(self, hub_rank: int) -> Vertex:
        return self._order[hub_rank]

    def lin(self, v: Vertex) -> List[LabelTuple]:
        """``Lin(v)`` as ``(hub_rank, dist, parent)`` tuples."""
        return self._lin.entries(v)

    def lout(self, v: Vertex) -> List[LabelTuple]:
        """``Lout(v)`` as ``(hub_rank, dist, parent)`` tuples."""
        return self._lout.entries(v)

    def lin_side(self) -> _PackedSide:
        """The raw ``Lin`` buffers (hot-path consumers index these directly)."""
        return self._lin

    def lout_side(self) -> _PackedSide:
        """The raw ``Lout`` buffers (hot-path consumers index these directly)."""
        return self._lout

    @property
    def nbytes_serialized(self) -> int:
        """At-rest byte size of the label sections in the index file."""
        return (self._lin.nbytes_serialized + self._lout.nbytes_serialized
                + 8 * len(self._order))

    @property
    def nbytes_resident(self) -> int:
        """Estimated live in-process footprint of the label buffers."""
        return (self._lin.nbytes_resident + self._lout.nbytes_resident
                + _buffer_resident_bytes(self._order))

    @property
    def nbytes(self) -> int:
        """Actual in-memory footprint (alias of :attr:`nbytes_resident`)."""
        return self.nbytes_resident

    def size_entries(self) -> int:
        return len(self._lin.hub_ranks) + len(self._lout.hub_ranks)

    def average_label_sizes(self) -> Tuple[float, float]:
        n = max(1, self.num_vertices)
        return len(self._lin.hub_ranks) / n, len(self._lout.hub_ranks) / n

    # ------------------------------------------------------------------
    def distance(self, s: Vertex, t: Vertex) -> Cost:
        """``dis(s, t)`` by merge join over the packed buffers."""
        if s == t:
            return 0.0
        return self._merge(s, t)[0]

    def distance_with_hub(self, s: Vertex, t: Vertex) -> Tuple[Cost, Optional[int]]:
        if s == t:
            return 0.0, None
        return self._merge(s, t)

    def _merge(self, s: Vertex, t: Vertex) -> Tuple[Cost, Optional[int]]:
        out, ins = self._lout, self._lin
        i, i_end = out.slice(s)
        j, j_end = ins.slice(t)
        best = INFINITY
        best_hub: Optional[int] = None
        ranks_o, ranks_i = out.hub_ranks, ins.hub_ranks
        dists_o, dists_i = out.dists, ins.dists
        while i < i_end and j < j_end:
            a, b = ranks_o[i], ranks_i[j]
            if a == b:
                total = dists_o[i] + dists_i[j]
                if total < best:
                    best = total
                    best_hub = a
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best, best_hub

    def path(self, s: Vertex, t: Vertex) -> Tuple[Cost, List[Vertex]]:
        """Restore one shortest path from ``s`` to ``t``.

        Returns ``(INFINITY, [])`` when unreachable.  Pruned landmark
        labeling guarantees each labelled vertex's parent is labelled with
        the same hub, so the parent chains always terminate at the hub.
        """
        if s == t:
            return 0.0, [s]
        dist, hub_rank = self.distance_with_hub(s, t)
        if hub_rank is None or dist == INFINITY:
            return INFINITY, []
        hub = self._order[hub_rank]
        left = [s]
        cur = s
        while cur != hub:
            parent = self._find_parent(self._lout, cur, hub_rank)
            if parent is None:
                break
            cur = parent
            left.append(cur)
        right: List[Vertex] = []
        cur = t
        while cur != hub:
            parent = self._find_parent(self._lin, cur, hub_rank)
            if parent is None:
                break
            right.append(cur)
            cur = parent
        right.reverse()
        return dist, left + right

    def _find_parent(self, side: _PackedSide, v: Vertex, hub_rank: int) -> Optional[Vertex]:
        lo, hi = side.slice(v)
        ranks = side.hub_ranks
        while lo < hi:
            mid = (lo + hi) // 2
            if ranks[mid] < hub_rank:
                lo = mid + 1
            else:
                hi = mid
        if lo >= side.slice(v)[1] or ranks[lo] != hub_rank:
            raise IndexBuildError(
                f"hub rank {hub_rank} missing from packed label of {v}"
            )
        parent = side.parents[lo]
        return None if parent == NO_PARENT else parent

    def restore_witness_route(
        self, witness_vertices: List[Vertex]
    ) -> Tuple[Cost, List[Vertex]]:
        """Concatenate shortest paths between consecutive witness vertices.

        Converts a KOSR witness into an actual route (Definition 2, end
        of Sec. IV-A); consecutive duplicates contribute no edges.
        """
        if not witness_vertices:
            return 0.0, []
        total = 0.0
        route: List[Vertex] = [witness_vertices[0]]
        for a, b in zip(witness_vertices, witness_vertices[1:]):
            if a == b:
                continue
            d, sub = self.path(a, b)
            if d == INFINITY:
                return INFINITY, []
            total += d
            route.extend(sub[1:])
        return total, route

    # ------------------------------------------------------------------
    # RPLI v2 binary serialisation (fixed layout, zero-decode on load).
    # ------------------------------------------------------------------
    def save(self, path: PathLike, inverted=None) -> int:
        """Write an RPLI v2 index file; returns bytes written.

        ``inverted`` (optional ``{cid: PackedInvertedIndex}``) embeds the
        per-category inverted sections so shard workers can attach the
        whole query index via :class:`~repro.labeling.mmap_index.
        MmapIndexFile` without rebuilding anything.
        """
        return write_index_file(path, self, inverted)

    @classmethod
    def load(cls, path: PathLike) -> "PackedLabelIndex":
        """Read the label sections of an index file into list buffers.

        Decoding is four ``memoryview.cast(...).tolist()`` calls per side
        — one C-level pass, no per-entry parsing.  Inverted sections, if
        present, are skipped (use :class:`~repro.labeling.mmap_index.
        MmapIndexFile` to attach them zero-copy).
        """
        with open(path, "rb") as f:
            data = f.read()
        layout = IndexFileLayout(path, memoryview(data))
        layout.check_label_sections()
        order = layout.section(0, "q").tolist()
        sides = []
        for base in (1, 5):
            side = _PackedSide()
            side.offsets = layout.section(base, "q").tolist()
            side.hub_ranks = layout.section(base + 1, "q").tolist()
            side.dists = layout.section(base + 2, "d").tolist()
            side.parents = layout.section(base + 3, "q").tolist()
            sides.append(side)
        return cls(order, sides[0], sides[1])


def _section_bytes(code: str, values) -> bytes:
    """One section's raw little-endian bytes (host order is LE here)."""
    if isinstance(values, memoryview):
        return values.tobytes()
    return array(code, values).tobytes()


def inverted_sections(il) -> List[Tuple[str, object]]:
    """The five per-category sections of one inverted index.

    Works for any index exposing ``as_lists()`` + ``hub_ranks`` (packed
    or mmap-backed).  Runs are emitted in ascending hub-*rank* order so a
    reader can binary-search the rank section.
    """
    lists = il.as_lists()
    rank_of = il.hub_ranks
    hubs: List[int] = []
    ranks: List[int] = []
    starts: List[int] = [0]
    dists: List[Cost] = []
    members: List[int] = []
    for rank, hub in sorted((rank_of[hub], hub) for hub in lists):
        ranks.append(rank)
        hubs.append(hub)
        for d, m in lists[hub]:
            dists.append(d)
            members.append(m)
        starts.append(len(members))
    return [("q", hubs), ("q", ranks), ("q", starts),
            ("d", dists), ("q", members)]


def write_index_file(path: PathLike, labels, inverted=None) -> int:
    """Write ``labels`` (+ optional inverted indexes) as an RPLI v2 file.

    ``labels`` must expose the packed side buffers (``lin_side()`` /
    ``lout_side()``); both list- and mmap-backed indexes qualify.
    Returns the total bytes written.
    """
    lin, lout = labels.lin_side(), labels.lout_side()
    sections: List[Tuple[str, object]] = [("q", labels.order)]
    for side in (lin, lout):
        sections.append(("q", side.offsets))
        sections.append(("q", side.hub_ranks))
        sections.append(("d", side.dists))
        sections.append(("q", side.parents))
    flags = 0
    num_categories = 0
    if inverted is not None:
        flags |= _FLAG_INVERTED
        cids = sorted(inverted)
        num_categories = len(cids)
        sections.append(("q", cids))
        for cid in cids:
            sections.extend(inverted_sections(inverted[cid]))
    blobs = [_section_bytes(code, values) for code, values in sections]
    table = bytearray()
    pos = _HEADER.size + _TABLE_ENTRY.size * len(sections)
    for blob in blobs:
        table += _TABLE_ENTRY.pack(pos, len(blob) // 8)
        pos += len(blob)
    header = _HEADER.pack(_MAGIC, _VERSION, flags, labels.num_vertices,
                          num_categories, len(sections))
    with open(path, "wb") as f:
        f.write(header)
        f.write(table)
        for blob in blobs:
            f.write(blob)
    return pos


class IndexFileLayout:
    """Parsed + validated section layout of one RPLI v2 index file.

    Every malformed input raises :class:`IndexStorageError` naming the
    offending path *and* byte offset, so a corrupt or truncated file is
    diagnosable without a hex editor.  The layout never copies section
    payloads — :meth:`section` returns a typed ``memoryview`` into the
    caller's buffer, which is what makes the mmap reader zero-copy.
    """

    #: label sections: order + 2 x (offsets, hub_ranks, dists, parents)
    LABEL_SECTIONS = 1 + 2 * len(_SIDE_SECTION_CODES)

    def __init__(self, path: PathLike, view: memoryview):
        self.path = str(path)
        self.view = view
        if len(view) < _HEADER.size:
            self._fail(len(view), f"truncated header "
                       f"({len(view)} of {_HEADER.size} bytes)")
        magic, version, flags, n, ncat, nsec = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            self._fail(0, f"bad magic {bytes(magic)!r} "
                       f"(not an RPLI index file)")
        if version != _VERSION:
            self._fail(4, f"unsupported index version {version} "
                       f"(this reader handles {_VERSION})")
        self.num_vertices = n
        self.num_categories = ncat
        self.section_count = nsec
        self.has_inverted = bool(flags & _FLAG_INVERTED)
        expected = self.LABEL_SECTIONS
        if self.has_inverted:
            expected += 1 + len(_CATEGORY_SECTION_CODES) * ncat
        if nsec != expected:
            self._fail(24, f"section count {nsec} does not match header "
                       f"({expected} expected for {ncat} categories)")
        table_end = _HEADER.size + _TABLE_ENTRY.size * nsec
        if len(view) < table_end:
            self._fail(len(view), f"truncated section table "
                       f"({len(view)} of {table_end} bytes)")
        self._sections: List[Tuple[int, int]] = []
        for i in range(nsec):
            entry_off = _HEADER.size + _TABLE_ENTRY.size * i
            off, count = _TABLE_ENTRY.unpack_from(view, entry_off)
            if off < table_end or off % 8 or off + 8 * count > len(view):
                self._fail(entry_off, f"section {i} spans bytes "
                           f"[{off}, {off + 8 * count}) outside the "
                           f"file of {len(view)} bytes")
            self._sections.append((off, count))

    def _fail(self, offset: int, message: str) -> None:
        raise IndexStorageError(
            f"{self.path}: {message} (byte offset {offset})")

    def section_offset(self, i: int) -> int:
        return self._sections[i][0]

    def section_count_of(self, i: int) -> int:
        return self._sections[i][1]

    def section(self, i: int, code: str) -> memoryview:
        """Section ``i`` as a typed zero-copy view (``'q'`` or ``'d'``)."""
        off, count = self._sections[i]
        return self.view[off: off + 8 * count].cast(code)

    def check_label_sections(self) -> None:
        """Cross-check the label sections against the header counts."""
        n = self.num_vertices
        for base, name in ((1, "Lin"), (5, "Lout")):
            off_count = self.section_count_of(base)
            if off_count != n + 1:
                self._fail(self.section_offset(base),
                           f"{name} offsets section has {off_count} "
                           f"entries, expected {n + 1}")
            offsets = self.section(base, "q")
            entries = self.section_count_of(base + 1)
            if offsets[0] != 0 or offsets[n] != entries:
                self._fail(self.section_offset(base),
                           f"{name} offsets cover [{offsets[0]}, "
                           f"{offsets[n]}) but the section holds "
                           f"{entries} entries")
            for extra in (2, 3):
                if self.section_count_of(base + extra) != entries:
                    self._fail(self.section_offset(base + extra),
                               f"{name} parallel buffers disagree on "
                               f"entry count")

    # ------------------------------------------------------------------
    # Inverted sections (present when ``has_inverted``)
    # ------------------------------------------------------------------
    def category_ids(self) -> List[CategoryId]:
        if not self.has_inverted:
            return []
        return self.section(self.LABEL_SECTIONS, "q").tolist()

    def category_base(self, position: int) -> int:
        """First section index of the ``position``-th stored category."""
        return (self.LABEL_SECTIONS + 1
                + len(_CATEGORY_SECTION_CODES) * position)

    def check_category_sections(self, position: int) -> None:
        base = self.category_base(position)
        hubs = self.section_count_of(base)
        if self.section_count_of(base + 1) != hubs:
            self._fail(self.section_offset(base + 1),
                       f"category #{position} hub/rank sections disagree")
        if self.section_count_of(base + 2) != hubs + 1:
            self._fail(self.section_offset(base + 2),
                       f"category #{position} run-starts section has "
                       f"{self.section_count_of(base + 2)} entries, "
                       f"expected {hubs + 1}")
        entries = self.section_count_of(base + 4)
        if self.section_count_of(base + 3) != entries:
            self._fail(self.section_offset(base + 3),
                       f"category #{position} dist/member sections "
                       f"disagree on entry count")
        starts = self.section(base + 2, "q")
        if hubs and (starts[0] != 0 or starts[hubs] != entries):
            self._fail(self.section_offset(base + 2),
                       f"category #{position} run starts cover "
                       f"[{starts[0]}, {starts[hubs]}) but the section "
                       f"holds {entries} entries")
