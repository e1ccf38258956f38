"""Table X: run-time distribution of PK and SK on the FLA analogue.

Paper shape: NN-query time dominates both methods; PK spends more on
priority-queue maintenance than SK; only SK pays (small) estimation time.
"""

from repro.experiments import figures

from benchmarks._shared import emit, representative_query
from repro import QueryOptions


def test_table10_breakdown(benchmark):
    rows, cols = figures.table10_breakdown()
    emit("table10_breakdown", rows, cols,
         "Table X — run-time distribution on FLA (ms/query)")
    by = {r["method"]: r for r in rows}
    assert by["PK"]["estimation_ms"] == 0.0
    assert by["SK"]["estimation_ms"] >= 0.0
    engine, query = representative_query("FLA")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
