"""The benchmark's own test: tiny-scale runs of every workload.

Every run must print every metric of ``BENCHMARK.json`` with its unit;
a run with one deliberately corrupted answer must count it as failed,
which shows the answer checks work; and the same seed must always give
the same requests.
"""

from __future__ import annotations

import pytest

from perfbench import workloads
from perfbench.oracle import merge_answers
from perfbench.run import catalogue, reap_children, run
from repro.core.engine import KOSREngine, KOSRResult
from repro.service.service import QueryService
from repro.shard.service import ShardedQueryService

SCALE = 0.15
SECONDS = 0.6


def _corrupt_once(monkeypatch, owner, name, skip: int):
    """Make the call after the first ``skip`` calls of ``owner.name``
    return one route too few."""
    original = getattr(owner, name)
    calls = []

    def corrupted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == skip + 1:
            return KOSRResult(result.query, result.results[:-1],
                              result.stats)
        return result

    monkeypatch.setattr(owner, name, corrupted)


def _check_metrics(line, kind):
    units = catalogue(kind)
    assert set(line["metrics"]) == set(units)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], float), name
    assert line["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    line, outcome = run(workload, 3, SECONDS, True, SCALE, str(tmp_path))
    _check_metrics(line, "per_layer")
    assert line["correct"] and line["failed"] == 0
    assert line["metrics"]["labeling.pll_s"]["value"] > 0
    assert (tmp_path / f"trace-{workload}-3.json").exists()
    assert outcome.provenance["requests_digest"]


@pytest.mark.parametrize("workload, owner, skip", [
    ("paper_cold", KOSREngine, 0),
    # the serving workloads' warm-up requests are not checked
    ("shared_dest_tcp", QueryService, workloads.MIX_POOL),
    ("fleet_mutation", ShardedQueryService, workloads.MIX_POOL),
])
def test_corrupted_answer_is_counted_failed(workload, owner, skip,
                                            monkeypatch, tmp_path):
    _corrupt_once(monkeypatch, owner, "run", skip)
    line, _ = run(workload, 3, SECONDS, False, SCALE, str(tmp_path))
    _check_metrics(line, "end_to_end")
    # paper_cold fails both halves of the SK/PK pair that disagrees.
    assert 1 <= line["failed"] <= 2
    assert not line["correct"]


def test_server_exception_is_counted_failed(monkeypatch, tmp_path):
    """An exception the tcp handler does not catch closes the connection:
    its request counts as failed and the run still reports."""
    original = QueryService.run
    calls = []

    def crashing(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == workloads.MIX_POOL + 1:
            raise RuntimeError("injected")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(QueryService, "run", crashing)
    line, outcome = run("shared_dest_tcp", 3, SECONDS, False, SCALE,
                        str(tmp_path))
    _check_metrics(line, "end_to_end")
    assert line["failed"] >= 1 and not line["correct"]
    assert any("ConnectionError" in e for e in outcome.errors)


def test_merge_answers_keeps_the_primary_first_on_ties():
    primary = ((1.0, 2.0, 3.0), ((0, 1), (0, 2), (0, 3)))
    other = ((1.0, 2.0, 2.0), ((0, 1), (0, 4), (0, 2)))
    assert merge_answers(3, primary, other) == (
        (1.0, 2.0, 2.0), ((0, 1), (0, 2), (0, 4)))


def test_reap_children_leaves_no_process():
    import multiprocessing
    from multiprocessing import resource_tracker

    child = multiprocessing.get_context("spawn").Process(target=abs,
                                                         args=(1,))
    child.start()
    assert resource_tracker._resource_tracker._fd is not None
    reap_children()
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._fd is None


def test_same_seed_same_requests():
    graph = workloads.make_graph(SCALE)
    pool = workloads.mix_pool(graph, workloads.make_groups(graph))

    def digests(seed):
        return (workloads.digest(workloads.paper_requests(seed, graph)),
                workloads.digest(workloads.shared_dest_requests(
                    seed, "requests", pool, 500)))

    assert digests(7) == digests(7)
    assert digests(7)[0] != digests(8)[0]
    assert digests(7)[1] != digests(8)[1]
