"""Figure 3(b): number of examined routes per method per graph.

Paper shape: SK examines (far) fewer routes than PK, which examines fewer
than KPNE; index/backends (SK vs SK-DB vs SK-Dij) do not change the count.
"""

from benchmarks._shared import emit, overall_sweep, representative_query
from repro import QueryOptions


def test_fig3b_examined_routes(benchmark):
    rows, cols = overall_sweep()
    emit("fig3b_examined_routes", rows,
         ["dataset", "method", "examined_routes", "unfinished"],
         "Figure 3(b) — examined routes")
    by = {(r["dataset"], r["method"]): r for r in rows}
    for dataset in ("CAL", "NYC", "COL", "FLA", "G+"):
        sk, pk = by[(dataset, "SK")], by[(dataset, "PK")]
        if not pk["unfinished"]:
            assert sk["examined_routes"] <= pk["examined_routes"] * 1.05
        # same algorithm, different index: identical searching behaviour
        skdb = by[(dataset, "SK-DB")]
        assert skdb["examined_routes"] == sk["examined_routes"]
    engine, query = representative_query("FLA")
    benchmark(lambda: engine.run(query, QueryOptions(method="PK")))
