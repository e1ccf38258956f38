"""Figure 3(e): effect of k on the CAL analogue (all methods finish here)."""

from repro.experiments import figures

from benchmarks._shared import emit, representative_query
from repro import QueryOptions


def test_fig3e_effect_k_cal(benchmark):
    rows, cols = figures.fig3_effect_k("CAL")
    emit("fig3e_effect_k_cal", rows, cols, "Figure 3(e) — effect of k, CAL")
    sk = [r for r in rows if r["method"] == "SK"]
    assert all(not r["unfinished"] for r in sk)
    engine, query = representative_query("CAL", k=50)
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
