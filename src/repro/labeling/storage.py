"""Disk-resident label storage (the paper's SK-DB variant, Sec. IV-C).

"In the case that the label index cannot fit into memory, we store the
indexes into disk according to categories": each category shard holds
``IL(Ci)`` plus ``Lout(v)`` and ``Lin(v)`` for every member ``v``; a query
then performs ``|C| + 4`` seeks — one per queried category, plus the
source/destination label lookups.

We reproduce that layout with one pickle file per category plus a vertex
file for per-vertex source/destination labels, and count seeks so the
SK-DB overhead is measurable in the benchmarks.  Both file kinds store the
packed layout of the in-memory index as typed ``array`` buffers: label
sides as ``(offsets, hub_ranks, dists, parents)`` and ``IL(Ci)`` as the
five RPLI category sections (``hubs``, ``hub_ranks``, ``run_starts``,
``dists``, ``members``).  A query's :class:`QueryLabelView` holds the
decoded runs of the loaded vertices only and is searched by
:class:`~repro.nn.label_nn.DiskViewNNFinder`.
"""

from __future__ import annotations

import pickle
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.exceptions import IndexStorageError
from repro.graph.graph import Graph
from repro.labeling.packed import inverted_sections, merge_runs
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.types import CategoryId, Cost, Vertex

PathLike = Union[str, Path]

#: one vertex's label run: parallel (hub ranks, dists, parents) lists
LabelRun = Tuple[List[int], List[Cost], List[int]]

#: array type codes of a packed label side: offsets, hub_ranks, dists, parents
_SIDE_CODES = ("q", "q", "d", "q")


def _pack_side(side, vertices: Sequence[Vertex]) -> Tuple[array, ...]:
    """The packed ``(offsets, hub_ranks, dists, parents)`` of ``vertices``."""
    offsets, ranks, dists, parents = [0], [], [], []
    for v in vertices:
        lo, hi = side.slice(v)
        ranks.extend(side.hub_ranks[lo:hi])
        dists.extend(side.dists[lo:hi])
        parents.extend(side.parents[lo:hi])
        offsets.append(len(ranks))
    return tuple(array(code, values) for code, values in
                 zip(_SIDE_CODES, (offsets, ranks, dists, parents)))


def _run(buffers, i: int) -> LabelRun:
    """Decode the ``i``-th run of a packed side into plain lists."""
    offsets, ranks, dists, parents = buffers
    lo, hi = offsets[i], offsets[i + 1]
    return ranks[lo:hi].tolist(), dists[lo:hi].tolist(), parents[lo:hi].tolist()


class CategoryShardStore:
    """Writes and reads per-category index shards under a directory."""

    #: 2 = packed layout; version-1 (per-entry tuple) shards are rejected
    VERSION = 2

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_all(self, graph: Graph, labels, inverted) -> None:
        """Serialise every category shard plus the global vertex-label file.

        ``labels`` is a packed label index (list- or mmap-backed) and
        ``inverted`` maps category ids to packed or mmap inverted indexes.
        """
        for cid, il in inverted.items():
            self.write_category(graph, labels, cid, il)
        # Per-vertex labels for arbitrary sources/destinations (the paper
        # locates these through a B+ tree; a single indexed file plays that
        # role here).
        everyone = range(labels.num_vertices)
        vertex_payload = {
            "version": self.VERSION,
            "order": array("q", labels.order),
            "lin": _pack_side(labels.lin_side(), everyone),
            "lout": _pack_side(labels.lout_side(), everyone),
        }
        with open(self.root / "vertices.pkl", "wb") as f:
            pickle.dump(vertex_payload, f, protocol=pickle.HIGHEST_PROTOCOL)

    def write_category(self, graph: Graph, labels, cid: CategoryId,
                       il) -> None:
        members = sorted(graph.members(cid))
        payload = {
            "version": self.VERSION,
            "category": cid,
            "members": members,
            "il": tuple(array(code, values)
                        for code, values in inverted_sections(il)),
            "lout": _pack_side(labels.lout_side(), members),
            "lin": _pack_side(labels.lin_side(), members),
        }
        with open(self.root / f"category_{cid}.pkl", "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read(self, path: Path, what: str) -> Dict:
        if not path.exists():
            raise IndexStorageError(f"missing {what} {path}")
        with open(path, "rb") as f:
            payload = pickle.load(f)
        if payload.get("version") != self.VERSION:
            raise IndexStorageError(f"shard version mismatch in {path}")
        return payload

    def read_category(self, cid: CategoryId) -> Dict:
        return self._read(self.root / f"category_{cid}.pkl", "category shard")

    def read_vertices(self) -> Dict:
        return self._read(self.root / "vertices.pkl", "vertex label file")

    def total_bytes(self) -> int:
        """On-disk footprint of the store (Table IX index-size analogue)."""
        return sum(p.stat().st_size for p in self.root.glob("*.pkl"))


class CategoryShard:
    """One decoded category shard: ``IL(Ci)`` plus its members' label runs."""

    __slots__ = ("inverted", "lout", "lin")

    def __init__(self, payload: Dict):
        il = [section.tolist() for section in payload["il"]]
        self.inverted = PackedInvertedIndex.from_sections(
            payload["category"], *il)
        members = payload["members"]
        self.lout: Dict[Vertex, LabelRun] = {
            v: _run(payload["lout"], i) for i, v in enumerate(members)}
        self.lin: Dict[Vertex, LabelRun] = {
            v: _run(payload["lin"], i) for i, v in enumerate(members)}


class QueryLabelView:
    """The per-query label subset loaded from a :class:`CategoryShardStore`.

    Holds ``IL(Ci)`` of every loaded category and the label runs of the
    loaded vertices; reading any other vertex's label raises
    :class:`IndexStorageError`, so a query can never silently fall back to
    labels it did not load.
    """

    def __init__(self) -> None:
        self.inverted: Dict[CategoryId, PackedInvertedIndex] = {}
        self._lout: Dict[Vertex, LabelRun] = {}
        self._lin: Dict[Vertex, LabelRun] = {}

    def add_category(self, cid: CategoryId, shard: CategoryShard) -> None:
        self.inverted[cid] = shard.inverted
        self._lout.update(shard.lout)
        self._lin.update(shard.lin)

    def add_source(self, vertices: Dict, source: Vertex) -> None:
        """Load ``Lout(source)`` from the vertex file payload."""
        if source not in self._lout:
            self._lout[source] = _run(vertices["lout"], source)

    def add_target(self, vertices: Dict, target: Vertex) -> None:
        """Load ``Lin(target)`` from the vertex file payload."""
        if target not in self._lin:
            self._lin[target] = _run(vertices["lin"], target)

    def lout(self, v: Vertex) -> LabelRun:
        run = self._lout.get(v)
        if run is None:
            raise IndexStorageError(f"Lout({v}) was not loaded for this query")
        return run

    def lin(self, v: Vertex) -> LabelRun:
        run = self._lin.get(v)
        if run is None:
            raise IndexStorageError(f"Lin({v}) was not loaded for this query")
        return run

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        """Merge-join distance between two *loaded* vertices."""
        if s == t:
            return 0.0
        ranks_o, dists_o, _ = self.lout(s)
        ranks_i, dists_i, _ = self.lin(t)
        return merge_runs(ranks_o, dists_o, ranks_i, dists_i)[0]


class DiskLabelRepository:
    """Query-time loader that mimics SK-DB's per-query disk access pattern.

    :meth:`load_for_query` performs one "seek" per queried category plus the
    source/destination label loads, materialising exactly the label subset
    StarKOSR needs: ``Lout`` of every category member (and the source),
    ``Lin`` of the destination, and the inverted lists of every category.
    """

    def __init__(self, store: CategoryShardStore):
        self._store = store
        self.seeks = 0

    def load_for_query(
        self, categories: Iterable[CategoryId], source: Vertex, target: Vertex
    ) -> QueryLabelView:
        view = QueryLabelView()
        for cid in categories:
            view.add_category(cid, CategoryShard(self._store.read_category(cid)))
            self.seeks += 1
        # The paper budgets 4 extra seeks: locate s and t (2 B+ tree
        # descents) and load Lout(s), Lin(t).
        vertices = self._store.read_vertices()
        self.seeks += 4
        view.add_source(vertices, source)
        view.add_target(vertices, target)
        return view
