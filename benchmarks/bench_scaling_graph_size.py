"""Graph-size scaling of SK vs GSP (the Fig. 7 discussion).

"the run-time of GSP is dependent on the graph sizes. As the graph size
increases, GSP takes longer time. In contrast, the runtime of SK(-DB) is
independent of the graph sizes" — GSP's per-transition searches settle the
whole graph, while SK touches only label entries near the category
members.  This bench sweeps the FLA analogue's scale at a fixed category
*fraction* and reports both methods' query times.
"""

from repro.experiments import datasets as ds
from repro.experiments.runner import run_workload
from repro.experiments.workload import random_queries

from benchmarks._shared import emit
from repro import QueryOptions


def test_scaling_graph_size(benchmark):
    rows = []
    for scale in (0.1, 0.2, 0.35):
        engine = ds.engine_for("FLA", scale=scale)
        workload = random_queries(engine.graph, max(2, ds.BENCH_QUERIES // 2),
                                  4, 1, seed=83)
        for label in ("SK", "GSP"):
            agg = run_workload(engine, workload, label)
            rows.append({
                "V": engine.graph.num_vertices,
                "method": label,
                "time_ms": agg.mean_time_ms,
                "examined_routes": agg.mean_examined,
            })
    emit("scaling_graph_size", rows, ["V", "method", "time_ms",
                                      "examined_routes"],
         "Graph-size scaling — SK vs GSP (k = 1, fixed |Ci|/|V|)")
    # Assert on the deterministic counter, not wall time: GSP's settled
    # frontier grows with |V| while SK's examined-witness count does not.
    gsp = [r["examined_routes"] for r in rows if r["method"] == "GSP"]
    sk = [r["examined_routes"] for r in rows if r["method"] == "SK"]
    assert gsp[-1] > gsp[0]
    assert sk[-1] / max(sk[0], 1e-9) < gsp[-1] / max(gsp[0], 1e-9)
    engine = ds.engine_for("FLA", scale=0.2)
    workload = random_queries(engine.graph, 1, 4, 1, seed=83)
    benchmark(lambda: engine.run(workload.queries[0], QueryOptions(method="GSP")))
