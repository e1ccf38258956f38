"""Pruned landmark labeling for directed weighted graphs.

This is the construction the paper adopts ("we adopt the pruned landmark
labeling method [2], which achieves good performance and is easy to
implement", Sec. V-A), generalised from BFS to Dijkstra for arbitrary
non-negative weights:

for each vertex ``r`` in hub order:
    * a *pruned forward Dijkstra* from ``r`` appends ``(r, d, parent)`` to
      ``Lin(u)`` for every settled ``u`` whose current label-query distance
      exceeds ``d`` — pruned vertices are not expanded;
    * a *pruned backward Dijkstra* symmetrically populates ``Lout``.

The pruning test against already-built labels is what keeps label sets small
while guaranteeing the cover property.  As in Akiba et al., the root's own
label is spread into one dense array indexed by hub rank before each
search (and cleared after it), so the test is one list index per entry of
the probed label.  Labels grow as per-vertex parallel rank/dist/parent
runs and are flattened into a :class:`PackedLabelIndex` once at the end.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.labeling.order import degree_order, validate_order
from repro.labeling.packed import NO_PARENT, PackedLabelIndex, _PackedSide
from repro.types import Cost, INFINITY, Vertex

#: one label side under construction: per-vertex (ranks, dists, parents)
LabelRuns = Tuple[List[List[int]], List[List[Cost]], List[List[int]]]


def empty_runs(n: int) -> LabelRuns:
    """Per-vertex empty rank/dist/parent runs for ``n`` vertices."""
    return ([[] for _ in range(n)], [[] for _ in range(n)],
            [[] for _ in range(n)])


def spread_root(root_side: List[Cost], runs: LabelRuns, root: Vertex) -> None:
    """Write ``root``'s label (one side) into the dense rank array."""
    for rank, dist in zip(runs[0][root], runs[1][root]):
        root_side[rank] = dist


def clear_root(root_side: List[Cost], runs: LabelRuns, root: Vertex) -> None:
    """Reset the entries :func:`spread_root` set back to ``INFINITY``."""
    for rank in runs[0][root]:
        root_side[rank] = INFINITY


def finish_labels(order: Sequence[Vertex], lin: LabelRuns,
                  lout: LabelRuns) -> PackedLabelIndex:
    """Flatten both sides' per-vertex runs into the packed index."""
    return PackedLabelIndex(order, _PackedSide.from_runs(*lin),
                            _PackedSide.from_runs(*lout))


def _pruned_dijkstra(neighbors, root: Vertex, rank: int, root_runs: LabelRuns,
                     runs: LabelRuns, root_side: List[Cost]) -> None:
    """One pruned search filling ``runs`` with hub ``rank``.

    ``root_runs`` is the opposite side (the root's ``Lout`` for a forward
    search that fills ``Lin``, and vice versa); ``root_side`` is the
    dense all-``INFINITY`` rank array the root's label is spread into.
    """
    ranks, dists, parents = runs
    spread_root(root_side, root_runs, root)
    dist: Dict[Vertex, Cost] = {root: 0.0}
    parent: Dict[Vertex, int] = {root: NO_PARENT}
    heap: List[Tuple[Cost, Vertex]] = [(0.0, root)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        # Pruning test: can existing labels already certify dis <= d?
        for r, du in zip(ranks[u], dists[u]):
            if root_side[r] + du <= d:
                break
        else:
            ranks[u].append(rank)
            dists[u].append(d)
            parents[u].append(parent[u])
            for v, w in neighbors(u):
                nd = d + w
                if v not in settled and nd < dist.get(v, INFINITY):
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
    clear_root(root_side, root_runs, root)


def build_pruned_landmark_labels(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> PackedLabelIndex:
    """Build a :class:`PackedLabelIndex` over ``graph``.

    ``order`` defaults to decreasing-degree; passing an explicit order is
    useful for tests and the ordering ablation.
    """
    if order is None:
        order = degree_order(graph)
    else:
        order = validate_order(graph, order)
    n = graph.num_vertices
    lin, lout = empty_runs(n), empty_runs(n)
    root_side: List[Cost] = [INFINITY] * n
    for rank, root in enumerate(order):
        _pruned_dijkstra(graph.neighbors_out, root, rank, lout, lin, root_side)
        _pruned_dijkstra(graph.neighbors_in, root, rank, lin, lout, root_side)
    return finish_labels(order, lin, lout)
