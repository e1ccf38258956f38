"""Cached dataset analogues + engines for the evaluation harness.

Hub labels depend only on graph topology, so one label index per
``(dataset, scale)`` serves every category configuration of the sweeps —
exactly the paper's offline/online split (Table IX preprocessing happens
once; Figs. 3(h)/6 vary only category assignments).
"""

from __future__ import annotations

import os
import random
import tempfile
from typing import Dict, Optional, Tuple

from repro.core.engine import KOSREngine
from repro.graph import generators
from repro.graph.categories import assign_uniform_categories, assign_zipfian_categories
from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex
from repro.labeling.pll_unweighted import build_labels_auto

#: Dataset scale for the benchmark suite; 1.0 = the full analogues.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
#: Random query instances per experimental setting (paper: 50).
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "5"))

#: Default sweep parameters mirroring Table VIII (category sizes are
#: expressed as fractions of |V|; the paper's default |Ci| = 10,000 is
#: ~0.93% of FLA's vertices).
DEFAULT_K = 30
DEFAULT_C_LEN = 6
DEFAULT_CAT_FRACTION = 0.01
CAT_FRACTION_SWEEP = (0.005, 0.01, 0.015, 0.02)  # mirrors 5k/10k/15k/20k
K_SWEEP = (10, 20, 30, 40, 50)
C_LEN_SWEEP = (2, 4, 6, 8, 10)
ZIPF_SWEEP = (1.2, 1.4, 1.6, 1.8)

_graph_cache: Dict[Tuple, Graph] = {}
_label_cache: Dict[Tuple, PackedLabelIndex] = {}
_engine_cache: Dict[Tuple, KOSREngine] = {}
_store_dirs: Dict[int, str] = {}


def _labels_for(name: str, scale: float, graph: Graph) -> PackedLabelIndex:
    """One packed label index per ``(dataset, scale)``; engines share it."""
    key = (name, round(scale, 6))
    labels = _label_cache.get(key)
    if labels is None:
        labels = build_labels_auto(graph)
        _label_cache[key] = labels
    return labels


def engine_for(name: str, scale: Optional[float] = None) -> KOSREngine:
    """Engine over a dataset analogue with its default categories (cached)."""
    scale = BENCH_SCALE if scale is None else scale
    key = (name, round(scale, 6), "default")
    engine = _engine_cache.get(key)
    if engine is None:
        graph = generators.dataset_by_name(name, scale=scale)
        labels = _labels_for(name, scale, graph)
        engine = KOSREngine.from_labels(graph, labels, name=name)
        _engine_cache[key] = engine
    return engine


def fla_engine_with_categories(
    scale: Optional[float] = None,
    category_fraction: Optional[float] = None,
    zipf_factor: Optional[float] = None,
    num_categories: int = 20,
    seed: int = 17,
) -> KOSREngine:
    """FLA-analogue engine with a custom category assignment (cached).

    Reuses the FLA topology's label index; only categories and inverted
    indexes are rebuilt, mirroring the paper's sweeps over |Ci| (Fig. 3(h))
    and zipf skew (Fig. 6).
    """
    scale = BENCH_SCALE if scale is None else scale
    frac = DEFAULT_CAT_FRACTION if category_fraction is None else category_fraction
    key = ("FLA", round(scale, 6), "custom", round(frac, 6),
           zipf_factor, num_categories)
    engine = _engine_cache.get(key)
    if engine is None:
        # Same topology seed as generators.fla -> identical edges, so the
        # label index cached under ("FLA", scale) stays valid.
        graph = generators.road_network(
            _fla_side(scale), _fla_side(scale), seed=seed, directed=True, travel_time=True
        )
        labels = _labels_for("FLA", scale, graph)
        if zipf_factor is not None:
            assign_zipfian_categories(
                graph, num_categories, zipf_factor, rng=random.Random(seed + 1)
            )
        else:
            size = max(2, int(frac * graph.num_vertices))
            assign_uniform_categories(
                graph, num_categories, size, random.Random(seed + 1)
            )
        engine = KOSREngine.from_labels(graph, labels, name="FLA")
        _engine_cache[key] = engine
    return engine


def _fla_side(scale: float) -> int:
    return max(4, int(65 * (scale ** 0.5)))


def disk_store_for(engine: KOSREngine) -> None:
    """Attach a temp-directory disk store to ``engine`` once (SK-DB runs)."""
    eid = id(engine)
    if eid not in _store_dirs:
        directory = tempfile.mkdtemp(prefix="repro_skdb_")
        engine.attach_disk_store(directory)
        _store_dirs[eid] = directory


def clear_caches() -> None:
    """Drop all cached graphs/labels/engines (tests use this)."""
    _graph_cache.clear()
    _label_cache.clear()
    _engine_cache.clear()
    _store_dirs.clear()
