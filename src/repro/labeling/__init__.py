"""2-hop / hub labeling substrate (Sec. IV-A of the paper).

* :mod:`repro.labeling.pll` — pruned landmark labeling construction
  (Akiba et al., SIGMOD 2013), extended to directed weighted graphs with
  pruned Dijkstra searches; :mod:`repro.labeling.pll_unweighted` is the
  BFS variant for unit-weight graphs.  Both emit a packed index directly.
* :mod:`repro.labeling.packed` — the label index: ``Lin``/``Lout`` as
  flat parallel rank/dist/parent buffers, merge-join distance queries,
  route restoration via parent pointers, and the RPLI index file.
* :mod:`repro.labeling.packed_inverted` — the paper's per-category
  inverted label index ``IL(Ci)`` as flat buffers, which makes FindNN
  incremental.
* :mod:`repro.labeling.mmap_index` — zero-copy read-only views over a
  saved index file: build once, ``mmap``-attach from any number of
  processes, share one physical copy through the OS page cache.
* :mod:`repro.labeling.storage` — disk-resident per-category shards (SK-DB)
  in the same packed layout.
* :mod:`repro.labeling.updates` — dynamic category/structure updates
  (Sec. IV-C); category updates go through per-category delta overlays
  with threshold compaction.
"""

from repro.labeling.order import degree_order, random_order
from repro.labeling.pll import build_pruned_landmark_labels
from repro.labeling.pll_unweighted import (
    build_bfs_labels,
    build_labels_auto,
    graph_is_unit_weight,
)
from repro.labeling.mmap_index import (
    MmapIndexFile,
    MmapInvertedIndex,
    MmapLabelIndex,
)
from repro.labeling.packed import (
    IndexFileLayout,
    PackedLabelIndex,
    write_index_file,
)
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_index,
    build_packed_inverted_indexes,
)
from repro.labeling.storage import CategoryShardStore, DiskLabelRepository
from repro.labeling.updates import (
    add_vertex_to_category,
    rebuild_after_structure_update,
    remove_vertex_from_category,
    update_edge,
)

__all__ = [
    "degree_order",
    "random_order",
    "build_pruned_landmark_labels",
    "build_bfs_labels",
    "build_labels_auto",
    "graph_is_unit_weight",
    "PackedLabelIndex",
    "PackedInvertedIndex",
    "MmapIndexFile",
    "MmapLabelIndex",
    "MmapInvertedIndex",
    "IndexFileLayout",
    "write_index_file",
    "build_packed_inverted_index",
    "build_packed_inverted_indexes",
    "CategoryShardStore",
    "DiskLabelRepository",
    "add_vertex_to_category",
    "remove_vertex_from_category",
    "rebuild_after_structure_update",
    "update_edge",
]
