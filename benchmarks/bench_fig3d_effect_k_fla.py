"""Figure 3(d): effect of k on the FLA analogue.

Paper shape: all methods scale gently in k (top-k routes share most of the
top-1 searching space); SK and SK-DB dominate; KPNE(-Dij)/PK-Dij INF.
"""

from repro.experiments import figures

from benchmarks._shared import emit, representative_query
from repro import QueryOptions


def test_fig3d_effect_k_fla(benchmark):
    rows, cols = figures.fig3_effect_k("FLA")
    emit("fig3d_effect_k_fla", rows, cols, "Figure 3(d) — effect of k, FLA")
    sk = [r for r in rows if r["method"] == "SK"]
    assert len(sk) == 5 and all(not r["unfinished"] for r in sk)
    engine, query = representative_query("FLA", k=50)
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
