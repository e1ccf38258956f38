"""Dynamic updates (Sec. IV-C).

The paper distinguishes *graph structure* updates — delegated to existing
incremental hub-label maintenance work [3, 6, 38] — and *category* updates,
which it spells out concretely:

* inserting category ``Ci`` into ``F(v)``: add ``v`` to ``V_Ci`` and, for
  each ``(u, d_{u,v}) ∈ Lin(v)``, binary-insert ``(d_{u,v}, v)`` into
  ``IL(u) ∈ IL(Ci)`` — ``O(|Lin(v)| log |Ci|)``;
* removing: the symmetric deletion.

Category updates stage those ``(hub, dist, vertex)`` deltas in the
per-category overlay of
:class:`~repro.labeling.packed_inverted.PackedInvertedIndex` (lazily
merged into the flat buffers by query cursors, compacted once the
overlay outgrows its ``overlay_ratio``).

For structure updates we provide the honest fallback the paper's citations
amount to for a from-scratch reproduction: rebuild the labels and the
inverted indexes.  The rebuild helper keeps graph, labels, and inverted
indexes consistent in one call.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_indexes,
)
from repro.types import CategoryId, Cost, Vertex

#: category id -> packed (or immutable mmap) inverted index
InvertedMap = Dict[CategoryId, PackedInvertedIndex]


def _check_updatable(inverted: InvertedMap) -> None:
    """Fail fast (before any graph mutation) on non-updatable indexes.

    Every category's index is inspected — not just the first — so a
    mapping polluted with a foreign type anywhere fails before ``F(v)``
    or any sibling index is touched, keeping graph and index state
    consistent.  Immutable mmap views qualify: the mutation path swaps
    them for a private list-backed materialisation first (see
    :func:`_materialize_if_view`).
    """
    for il in inverted.values():
        if not (isinstance(il, PackedInvertedIndex)
                or getattr(il, "is_mmap", False)):
            raise IndexBuildError(
                "incremental category updates require PackedInvertedIndex "
                f"values, got {type(il).__name__!r}"
            )


def _materialize_if_view(inverted: InvertedMap, cid: CategoryId):
    """Swap a shared mmap view for a private mutable copy before mutating.

    The shared file pages stay untouched for every other process mapping
    the same index file; only this process pays for a list-backed copy of
    the one category being mutated.
    """
    il = inverted.get(cid)
    if il is not None and getattr(il, "is_mmap", False):
        il = inverted[cid] = il.materialize()
    return il


def _new_category_index(inverted: InvertedMap,
                        cid: CategoryId) -> PackedInvertedIndex:
    """An empty index carrying its siblings' ``overlay_ratio``."""
    sibling = next(iter(inverted.values()), None)
    return PackedInvertedIndex.empty(
        cid, sibling.overlay_ratio if sibling is not None else None)


def _lin_deltas(labels: PackedLabelIndex, v: Vertex):
    """``(hub, rank, dist)`` of every entry of ``Lin(v)``."""
    side = labels.lin_side()
    lo, hi = side.slice(v)
    order = labels.order
    for rank, dist in zip(side.hub_ranks[lo:hi], side.dists[lo:hi]):
        yield order[rank], rank, dist


def add_vertex_to_category(
    graph: Graph,
    labels: PackedLabelIndex,
    inverted: InvertedMap,
    v: Vertex,
    cid: CategoryId,
) -> None:
    """Insert ``cid`` into ``F(v)`` and update ``IL(cid)`` incrementally."""
    _check_updatable(inverted)
    if graph.has_category(v, cid):
        return
    graph.assign_category(v, cid)
    il = _materialize_if_view(inverted, cid)
    if il is None:
        il = inverted[cid] = _new_category_index(inverted, cid)
    for hub, rank, dist in _lin_deltas(labels, v):
        il.overlay_insert(hub, rank, dist, v)
    il.maybe_compact()


def remove_vertex_from_category(
    graph: Graph,
    labels: PackedLabelIndex,
    inverted: InvertedMap,
    v: Vertex,
    cid: CategoryId,
) -> None:
    """Remove ``cid`` from ``F(v)`` and update ``IL(cid)`` incrementally."""
    _check_updatable(inverted)
    if not graph.has_category(v, cid):
        return
    graph.unassign_category(v, cid)
    il = _materialize_if_view(inverted, cid)
    if il is None:
        return
    for hub, rank, dist in _lin_deltas(labels, v):
        il.overlay_remove(hub, rank, dist, v)
    il.maybe_compact()


def rebuild_after_structure_update(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> tuple:
    """Rebuild labels + inverted indexes after edge insertions/removals.

    Returns ``(labels, inverted)``.  The paper handles structure updates
    with incremental label maintenance from the literature; a full
    rebuild gives identical final state (tests assert this) at higher
    preprocessing cost.
    """
    from repro.labeling.pll_unweighted import build_labels_auto

    labels = build_labels_auto(graph, order)
    return labels, build_packed_inverted_indexes(graph, labels)


def apply_edge_mutation(graph: Graph, u: Vertex, v: Vertex,
                        weight: Optional[Cost]) -> None:
    """Apply one edge insert/change/delete to ``graph`` (no index work).

    The shared primitive of every structure-update path: a weight change
    is the paper's remove-insert pair, ``weight=None`` deletes (raising
    ``KeyError`` when the edge does not exist, before any state moved).
    The sharded fence protocol relies on parent and workers mutating
    their own graph copies through this one function so the resulting
    graphs — and therefore the rebuilt labels — are identical.
    """
    if weight is None:
        graph.remove_edge(u, v)
    else:
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        graph.add_edge(u, v, weight)


def update_edge(
    graph: Graph,
    u: Vertex,
    v: Vertex,
    weight: Optional[Cost],
    order: Optional[Sequence[Vertex]] = None,
) -> tuple:
    """Apply one edge update (insert/change with a weight, delete with ``None``)
    and return freshly consistent ``(labels, inverted)``.

    Weight changes are the paper's remove-insert pair.
    """
    apply_edge_mutation(graph, u, v, weight)
    return rebuild_after_structure_update(graph, order)
