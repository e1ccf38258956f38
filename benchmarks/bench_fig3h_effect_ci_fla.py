"""Figure 3(h): effect of the category size |Ci| on the FLA analogue.

Paper shape: PK and SK degrade as |Ci| grows (Lemma 3's M and N grow);
SK degrades more slowly, so its advantage widens.
"""

from repro.experiments import figures

from benchmarks._shared import emit, representative_query
from repro import QueryOptions


def test_fig3h_effect_ci_fla(benchmark):
    rows, cols = figures.fig3_effect_ci()
    emit("fig3h_effect_ci_fla", rows, cols, "Figure 3(h) — effect of |Ci|, FLA")
    sk = [r for r in rows if r["method"] == "SK"]
    sizes = [r["category_size"] for r in sk]
    assert sizes == sorted(sizes)
    engine, query = representative_query("FLA")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
