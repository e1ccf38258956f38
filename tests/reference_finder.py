"""A test-only FindNN oracle: sort each category by label distance.

It never touches the inverted indexes, the merge cursors or FindNEN under
test, so engines running it are an independent reference for witnesses
and every QueryStats counter.
"""

from repro import KOSREngine
from repro.nn.base import NearestNeighborFinder
from repro.types import INFINITY


class ReferenceNNFinder(NearestNeighborFinder):
    """x-th nearest member of ``Ci`` from ``v`` by sorting ``(dis(v, m), m)``.

    Books one NN query per produced neighbour plus one for discovering the
    end of a non-empty list; repeated requests are free.
    """

    def __init__(self, graph, labels):
        super().__init__()
        self.graph, self.labels = graph, labels
        self._lists = {}  # (v, Ci) -> [(member, dist)], nearest first
        self._read = {}   # (v, Ci) -> (neighbours produced, end found)

    def find(self, source, category, x):
        key = (source, category)
        if key not in self._lists:
            pairs = sorted((self.labels.distance(source, m), m)
                           for m in self.graph.members(category))
            self._lists[key] = [(m, d) for d, m in pairs if d != INFINITY]
        nl = self._lists[key]
        produced, ended = self._read.get(key, (0, False))
        if x > produced and not ended:
            reach = min(x, len(nl))
            self.queries += reach - produced + (x > len(nl) and bool(nl))
            self._read[key] = (reach, x > len(nl))
        return nl[x - 1] if x <= len(nl) else None

    def distance(self, s, t):
        return self.labels.distance(s, t)


class ReferenceEngine(KOSREngine):
    """An engine whose label NN backend is :class:`ReferenceNNFinder`."""

    def _make_finder(self, nn_backend):
        if nn_backend == "label":
            return ReferenceNNFinder(self.graph, self.labels)
        return super()._make_finder(nn_backend)
