"""Answer checks: cold-engine and brute-force oracles.

Every check runs after the timed phase, so it never counts towards a
latency or throughput figure.
"""

from __future__ import annotations

import heapq
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.brute import brute_force_kosr
from repro.exceptions import QueryError

#: processes that compute oracle answers in parallel after a run
ORACLE_WORKERS = 2

#: relative tolerance on route costs: SK and PK (and brute force) may sum
#: the same route's legs in a different order, so equal costs can differ
#: in the last bits
COST_RTOL = 1e-9

#: one toggled ``(vertex, category)`` membership, or None for the base state
Extra = Optional[Tuple[int, int]]


def costs_match(a: Sequence[float], b: Sequence[float]) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= COST_RTOL * max(1.0, abs(x), abs(y))
        for x, y in zip(a, b))


def answer_of(result) -> Tuple[tuple, tuple]:
    """``(costs, witnesses)`` of a ``KOSRResult``."""
    return (tuple(result.costs),
            tuple(tuple(w) for w in result.witnesses))


def same_answer(got: Tuple[tuple, tuple], want: Tuple[tuple, tuple]) -> bool:
    """Costs within :data:`COST_RTOL` and identical witness lists."""
    return costs_match(got[0], want[0]) and got[1] == want[1]


class ColdOracle:
    """Cold ``KOSREngine.run`` answers, memoised per query and index state.

    ``extra`` applies one category membership on top of the engine's
    base state for the duration of the run (a toggle that was in flight
    while the checked reply was computed), then takes it back out.
    """

    def __init__(self, engine, options, answers: Optional[dict] = None):
        self.engine = engine
        self.options = options
        self.runs = 0
        self._memo: Dict[tuple, Tuple[tuple, tuple]] = dict(answers or {})

    def answer(self, query, extra: Extra = None) -> Tuple[tuple, tuple]:
        key = oracle_key(query, extra)
        found = self._memo.get(key)
        if found is None:
            engine = self.engine
            if extra is not None:
                engine.add_vertex_to_category(*extra)
            try:
                found = answer_of(engine.run(query, self.options))
            finally:
                if extra is not None:
                    engine.remove_vertex_from_category(*extra)
            self.runs += 1
            self._memo[key] = found
        return found

    def accepts(self, query, got: Tuple[tuple, tuple],
                states: Sequence[Extra] = (None,)) -> bool:
        """Whether ``got`` is the answer at any of the candidate ``states``."""
        return any(same_answer(got, self.answer(query, extra))
                   for extra in states)

    def accepts_mixed(self, query, got: Tuple[tuple, tuple],
                      states: Sequence[Extra]) -> bool:
        """Whether ``got`` is a spanning read whose shards saw two states.

        A toggle's broadcast reaches the shards one after the other, so
        the primary shard may answer at one of ``states`` and the other
        shard at another.  The fleet then merges those two answers.
        """
        return any(same_answer(got, merge_answers(
            query.k, self.answer(query, a), self.answer(query, b)))
            for a in states for b in states if a != b)


def merge_answers(k: int, *answers) -> Tuple[tuple, tuple]:
    """The fleet's merge of per-shard answers, primary first: a stable
    merge by cost (ties keep the earlier answer's route first), without
    repeated witnesses, cut to ``k`` routes."""
    seen = set()
    costs: list = []
    witnesses: list = []
    for cost, witness in heapq.merge(*(zip(*answer) for answer in answers),
                                     key=lambda route: route[0]):
        if witness not in seen:
            seen.add(witness)
            costs.append(cost)
            witnesses.append(witness)
            if len(costs) == k:
                break
    return tuple(costs), tuple(witnesses)


def oracle_key(query, extra: Extra = None) -> tuple:
    return (query.source, query.target, query.categories, query.k, extra)


def _answer_keys(job) -> Dict[tuple, Tuple[tuple, tuple]]:
    """Worker-process entry: cold answers for ``keys`` over the index file."""
    dataset, scale, index_path, method, keys = job
    from repro.api import QueryOptions
    from repro.core.engine import KOSREngine
    from repro.core.query import KOSRQuery
    from repro.graph import generators

    graph = generators.dataset_by_name(dataset, scale=scale)
    oracle = ColdOracle(KOSREngine.from_index_file(graph, index_path),
                        QueryOptions(method=method))
    return {key: oracle.answer(KOSRQuery(*key[:4]), key[4]) for key in keys}


def parallel_answers(dataset: str, scale: float, index_path: str,
                     method: str, keys: Iterable[tuple]) -> dict:
    """Cold answers for ``keys`` computed by :data:`ORACLE_WORKERS`
    freshly spawned processes, each attaching the saved index file."""
    keys = sorted(set(keys), key=repr)
    jobs = [(dataset, scale, index_path, method, keys[i::ORACLE_WORKERS])
            for i in range(ORACLE_WORKERS)]
    answers: dict = {}
    with ProcessPoolExecutor(
            max_workers=ORACLE_WORKERS,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        for part in pool.map(_answer_keys, jobs):
            answers.update(part)
    return answers


def witness_count(graph, query) -> int:
    count = 1
    for cid in query.categories:
        count *= max(1, len(graph.members(cid)))
    return count


def brute_force_costs(graph, query, cap: int) -> Optional[tuple]:
    """Brute-force top-k costs, or None when over ``cap`` witnesses."""
    if witness_count(graph, query) > cap:
        return None
    try:
        return tuple(r.cost for r in brute_force_kosr(graph, query, cap))
    except QueryError:
        return None
