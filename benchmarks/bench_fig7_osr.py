"""Figure 7: OSR queries (k = 1) including the GSP state of the art.

Paper shape: GSP beats KPNE and the *-Dij variants; PK beats GSP on graphs
with small categories (CAL/NYC) but loses on large-category graphs
(COL/FLA); SK (and SK-DB) beat GSP everywhere.
"""

import math

from benchmarks._shared import emit, osr_sweep, representative_query
from repro import QueryOptions


def test_fig7_osr(benchmark):
    rows, cols = osr_sweep()
    emit("fig7_osr", rows, cols, "Figure 7 — OSR (k = 1) incl. GSP")
    by = {(r["dataset"], r["method"]): r["time_ms"] for r in rows}
    for dataset in ("CAL", "NYC", "COL", "FLA", "G+"):
        assert not math.isinf(by[(dataset, "SK")])
        assert not math.isinf(by[(dataset, "GSP")])
    engine, query = representative_query("FLA", k=1)
    benchmark(lambda: engine.run(query, QueryOptions(method="GSP")))
