"""Figure 6: zipfian category-size skew on the FLA analogue.

Paper shape: PK slows down as f grows (less skew -> consecutive categories
are both big, |Ci|*|Ci+1| grows); SK filters far more and stays flat-ish;
KPNE INF for larger f.
"""

from repro.experiments import figures

from benchmarks._shared import emit, representative_query
from repro import QueryOptions


def test_fig6_zipfian(benchmark):
    rows, cols = figures.fig6_zipfian()
    emit("fig6_zipfian", rows, cols, "Figure 6 — zipfian skew, FLA")
    sk = [r for r in rows if r["method"] == "SK"]
    assert [r["zipf_factor"] for r in sk] == [1.2, 1.4, 1.6, 1.8]
    assert all(not r["unfinished"] for r in sk)
    engine, query = representative_query("FLA")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
