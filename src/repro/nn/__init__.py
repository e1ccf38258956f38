"""Nearest-neighbor-in-category oracles.

Every KOSR algorithm extends partial witnesses through an oracle answering
"the x-th nearest member of category ``Ci`` from vertex ``v``".  The
implementations:

* :class:`~repro.nn.label_nn.PackedLabelNNFinder` — the paper's FindNN
  (Algorithm 3) over the packed label and inverted indexes;
* :class:`~repro.nn.label_nn.DiskViewNNFinder` — the same cursors over
  an SK-DB per-query disk view;
* :class:`~repro.nn.estimated.EstimatedNNFinder` — FindNEN (Algorithm 4),
  ordering neighbors by ``dis(v, u) + dis(u, t)`` for StarKOSR;
* :class:`~repro.nn.dijkstra_nn.DijkstraNNFinder` — graph-search oracle
  behind the ``*-Dij`` variants (restart or resumable mode).
"""

from repro.nn.base import NearestNeighborFinder
from repro.nn.label_nn import DiskViewNNFinder, PackedLabelNNFinder
from repro.nn.dijkstra_nn import DijkstraNNFinder
from repro.nn.estimated import EstimatedNNFinder

__all__ = [
    "NearestNeighborFinder",
    "DiskViewNNFinder",
    "PackedLabelNNFinder",
    "DijkstraNNFinder",
    "EstimatedNNFinder",
]
