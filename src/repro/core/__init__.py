"""Core KOSR algorithms: the paper's contribution plus every comparator.

* :mod:`repro.core.kpne` — KPNE, the PNE-based baseline (Algorithm 1
  extended to top-k);
* :mod:`repro.core.pruning` — PruningKOSR (Algorithm 2, dominance-based);
* :mod:`repro.core.star` — StarKOSR (A*-style, destination-directed);
* :mod:`repro.core.gsp` — GSP, the dynamic-programming OSR comparator;
* :mod:`repro.core.brute` — exhaustive witness enumeration (testing oracle);
* :mod:`repro.core.engine` — :class:`KOSREngine`, the user-facing facade;
* :mod:`repro.core.variants` — no-source / no-destination / preference
  query variants (Sec. IV-C).
"""

from repro.core.query import KOSRQuery
from repro.core.stats import QueryStats, PreprocessingStats
from repro.core.kpne import kpne
from repro.core.pruning import pruning_kosr
from repro.core.star import star_kosr
from repro.core.gsp import gsp_osr, gsp_osr_ch
from repro.core.brute import brute_force_kosr
from repro.core.engine import KOSREngine, KOSRResult, METHODS, NN_BACKENDS
from repro.core.variants import (
    kosr_without_source,
    kosr_without_destination,
    kosr_with_preferences,
)

__all__ = [
    "KOSRQuery",
    "QueryStats",
    "PreprocessingStats",
    "kpne",
    "pruning_kosr",
    "star_kosr",
    "gsp_osr",
    "gsp_osr_ch",
    "brute_force_kosr",
    "KOSREngine",
    "KOSRResult",
    "METHODS",
    "NN_BACKENDS",
    "kosr_without_source",
    "kosr_without_destination",
    "kosr_with_preferences",
]
