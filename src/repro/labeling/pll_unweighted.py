"""BFS-based pruned landmark labeling for unit-weight graphs.

Akiba et al.'s original PLL is BFS-based; the Dijkstra generalisation in
:mod:`repro.labeling.pll` subsumes it but pays heap overhead.  The paper's
G+ graph is unit-weight ("an unweighted, directed graph where all edge
weights are set to 1"), so this specialisation builds the same label index
several times faster there.  :func:`build_labels_auto` picks the right
builder per graph; tests assert the two constructions answer identically.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.graph.graph import Graph
from repro.labeling.order import degree_order, validate_order
from repro.labeling.packed import NO_PARENT, PackedLabelIndex
from repro.labeling.pll import (
    LabelRuns,
    build_pruned_landmark_labels,
    clear_root,
    empty_runs,
    finish_labels,
    spread_root,
)
from repro.types import Cost, INFINITY, Vertex


def graph_is_unit_weight(graph: Graph) -> bool:
    """True when every edge weighs exactly 1 (the paper's G+ setting)."""
    return all(w == 1.0 for _, _, w in graph.edges())


def _pruned_bfs(neighbors, root: Vertex, rank: int, root_runs: LabelRuns,
                runs: LabelRuns, root_side: List[Cost]) -> None:
    """The BFS counterpart of :func:`repro.labeling.pll._pruned_dijkstra`."""
    ranks, dists, parents = runs
    spread_root(root_side, root_runs, root)
    queue = deque([(root, 0.0, NO_PARENT)])
    seen = {root}
    while queue:
        u, d, parent = queue.popleft()
        for r, du in zip(ranks[u], dists[u]):
            if root_side[r] + du <= d:
                break
        else:
            ranks[u].append(rank)
            dists[u].append(d)
            parents[u].append(parent)
            for v, _ in neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append((v, d + 1.0, u))
    clear_root(root_side, root_runs, root)


def build_bfs_labels(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> PackedLabelIndex:
    """Pruned BFS labeling; only valid for unit-weight graphs."""
    if not graph_is_unit_weight(graph):
        raise ValueError("BFS labeling requires all edge weights to be 1")
    if order is None:
        order = degree_order(graph)
    else:
        order = validate_order(graph, order)
    n = graph.num_vertices
    lin, lout = empty_runs(n), empty_runs(n)
    root_side: List[Cost] = [INFINITY] * n
    for rank, root in enumerate(order):
        _pruned_bfs(graph.neighbors_out, root, rank, lout, lin, root_side)
        _pruned_bfs(graph.neighbors_in, root, rank, lin, lout, root_side)
    return finish_labels(order, lin, lout)


def build_labels_auto(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> PackedLabelIndex:
    """BFS labeling on unit-weight graphs, pruned Dijkstra otherwise."""
    if graph.num_edges and graph_is_unit_weight(graph):
        return build_bfs_labels(graph, order)
    return build_pruned_landmark_labels(graph, order)
