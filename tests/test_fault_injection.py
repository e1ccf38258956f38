"""Fault-injection suite: kill or hang workers mid-mutation or mid-read.

Each test spawns a 2-shard fleet with a per-shard fault spec (see
``repro.shard.worker._maybe_fault``) that makes one worker die or hang
at a precise protocol point — before a message is applied (the message
is lost) or after (applied, but the ack is lost).  The recovery ladder
(retry → quarantine-and-respawn → resend) must bring the fleet back to
a state whose answers are bit-identical to a fresh unsharded engine —
results AND ``QueryStats`` counters — or, when recovery itself is made
to fail, the fleet must poison and fail fast rather than serve
divergent state.  Reads heal the same way (respawn, then one resend);
a stream that already delivered routes fails with a structured error
instead of replaying them.
"""

import random

import pytest

from repro import (
    KOSREngine,
    QueryOptions,
    ShardedQueryService,
    make_query,
)
from repro.exceptions import BudgetExceededError, ShardError
from repro.graph.builders import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.obs.metrics import REGISTRY

from test_backend_parity import assert_same_outcome


@pytest.fixture()
def enabled_registry():
    was_enabled = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enable()
    yield REGISTRY
    REGISTRY.enabled = was_enabled
    REGISTRY.reset()


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


def _assert_parity(sharded, q):
    """The fleet's answer matches a fresh unsharded engine, counters too."""
    fresh = KOSREngine.build(sharded.graph.copy())
    assert_same_outcome(sharded.run(q, QueryOptions()),
                        fresh.run(q))


def _recovered(sharded, *, respawns=1):
    assert sharded.respawns == respawns
    assert sharded._diverged is None


class TestCategoryUpdateFaults:
    def test_worker_dies_before_update_applies(self):
        """The broadcast message is lost with the worker.

        The retry hits a dead pipe, so recovery respawns shard 1 from
        the parent's state and resends the (idempotent) update.
        """
        g = _graph(11)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={1: {"kind": "update", "when": "before",
                                 "action": "die"}})
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 1))
            sharded.add_vertex_to_category(moved, 1)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_worker_dies_after_update_applies(self):
        """The update lands but the ack is lost with the worker.

        The respawned worker is built from the parent's already-updated
        graph, and the resent update is an idempotent no-op on it.
        """
        g = _graph(13)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={0: {"kind": "update", "when": "after",
                                 "action": "die"}})
        try:
            q = sharded.make_query(1, 25, [0, 2], k=3)
            sharded.run(q, QueryOptions())
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 0))
            sharded.add_vertex_to_category(moved, 0)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_worker_hangs_mid_update(self):
        """A hung worker trips the request timeout, then is replaced.

        The respawn path terminates the sleeper outright — SIGTERM ends
        the ``time.sleep`` — so recovery is bounded by the timeout, not
        by ``hang_s``.
        """
        g = _graph(17)
        sharded = ShardedQueryService(
            g.copy(), 2, timeout_s=1.0,
            fault_injection={1: {"kind": "update", "when": "before",
                                 "action": "hang", "hang_s": 3600.0}})
        try:
            q = sharded.make_query(2, 20, [1, 3], k=2)
            sharded.run(q, QueryOptions())
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 3))
            sharded.add_vertex_to_category(moved, 3)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_mmap_fleet_replays_pending_updates_on_respawn(self):
        """A respawned mmap worker must not trust the pre-update file.

        The fleet was spawned attach-only from a saved index; updates
        since then live only in worker memory.  The replacement worker
        re-attaches the file, then the parent's stale-category replay
        forces it to rebuild the touched categories from the updated
        graph — serving the file's old sections would be divergence.
        """
        g = _graph(19)
        first_move = next(v for v in range(g.num_vertices)
                          if not g.has_category(v, 2))
        # skip=1: the worker survives the first update and dies on the
        # second, so by respawn time TWO categories are pending replay.
        sharded = ShardedQueryService(
            g.copy(), 2, mmap_index=True,
            fault_injection={0: {"kind": "update", "when": "before",
                                 "action": "die", "skip": 1}})
        try:
            q = sharded.make_query(0, 30, [0, 2], k=3)
            sharded.run(q, QueryOptions())
            sharded.add_vertex_to_category(first_move, 2)
            assert sharded.respawns == 0
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 0))
            sharded.add_vertex_to_category(moved, 0)
            _recovered(sharded)
            assert sharded._stale_log == {0, 2}
            _assert_parity(sharded, q)
        finally:
            sharded.close()


class TestEdgeUpdateFaults:
    def test_worker_dies_mid_prepare(self):
        """Losing a worker during the prepare phase aborts nothing.

        Prepare is recoverable: the respawned worker (built from the
        still-pre-update parent state) receives the resent prepare, and
        the commit then fences the whole fleet as usual.
        """
        g = _graph(23)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={1: {"kind": "prepare_edge", "when": "before",
                                 "action": "die"}})
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())
            sharded.update_edge(0, 1, 0.5)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_worker_dies_mid_commit(self):
        """Losing a worker during the epoch-fenced swap still converges.

        The parent adopts the post-update state before fencing, so the
        replacement worker is built post-update and needs no resend —
        its first answer is already from the new index.
        """
        g = _graph(29)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={0: {"kind": "commit_edge", "when": "before",
                                 "action": "die"}})
        try:
            q = sharded.make_query(1, 25, [0, 2], k=3)
            sharded.run(q, QueryOptions())
            sharded.update_edge(1, 2, 0.75)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    @pytest.mark.parametrize("window", ["prepared", "adopted"])
    def test_read_respawn_between_prepare_and_commit(self, monkeypatch,
                                                     window):
        """A read respawns a worker after its prepare, before its commit.

        The replacement has nothing staged — it was built from the
        parent's state just before (``prepared``) or just after
        (``adopted``) the parent took the update on — so it cannot
        acknowledge the fence.  The commit replaces it once more from
        the adopted post-update state instead of poisoning the fleet.
        """
        g = _graph(73)
        sharded = ShardedQueryService(g.copy(), 2)
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())

            def kill_and_read():
                sharded._procs[0].kill()
                sharded._procs[0].join(timeout=5)
                sharded.run(q, QueryOptions())  # respawns shard 0

            if window == "prepared":
                broadcast = ShardedQueryService._broadcast_recovering

                def prepare_then_read(self, msg, resend_after_respawn=True):
                    broadcast(self, msg, resend_after_respawn)
                    if msg[0] == "prepare_edge":
                        kill_and_read()

                monkeypatch.setattr(ShardedQueryService,
                                    "_broadcast_recovering",
                                    prepare_then_read)
            else:
                retire = ShardedQueryService._retire_index_file

                def adopt_then_read(self):
                    retire(self)
                    kill_and_read()

                monkeypatch.setattr(ShardedQueryService,
                                    "_retire_index_file", adopt_then_read)
            sharded.update_edge(0, 1, 0.5)
            monkeypatch.undo()
            _recovered(sharded, respawns=2)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_unrecoverable_prepare_aborts_without_poisoning(
            self, monkeypatch):
        """A failed prepare rolls back: old index keeps serving.

        One shard's prepare exchange fails past recovery (simulated at
        the parent's exchange layer, so the workers themselves stay
        healthy): the update aborts fleet-wide — the other shard's
        staged state is discarded — the error surfaces to the caller,
        and the fleet keeps serving the pre-update state consistently.
        No poison, and a later update still goes through cleanly.
        """
        g = _graph(31)
        sharded = ShardedQueryService(g.copy(), 2, update_retries=0)
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            before = sharded.run(q, QueryOptions())
            original = ShardedQueryService._update_exchange

            def failing(self, shard, msg, resend_after_respawn=True):
                if msg[0] == "prepare_edge" and shard == 1:
                    raise ShardError(shard, "prepare lost by test")
                return original(self, shard, msg,
                                resend_after_respawn=resend_after_respawn)

            monkeypatch.setattr(ShardedQueryService, "_update_exchange",
                                failing)
            with pytest.raises(ShardError, match="prepare lost"):
                sharded.update_edge(0, 1, 0.5)
            monkeypatch.undo()

            assert sharded._diverged is None  # aborted, not poisoned
            assert_same_outcome(sharded.run(q, QueryOptions()), before)
            _assert_parity(sharded, q)  # graph never moved either

            sharded.update_edge(0, 1, 0.5)  # retried update succeeds
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_unrecoverable_commit_poisons_the_fleet(self, monkeypatch):
        """Past the fence there is no rollback: divergence fails fast."""
        g = _graph(37)
        sharded = ShardedQueryService(
            g.copy(), 2, update_retries=0,
            fault_injection={1: {"kind": "commit_edge", "when": "before",
                                 "action": "die"}})
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())

            def denied(self, shard):
                raise ShardError(shard, "respawn denied by test")

            monkeypatch.setattr(ShardedQueryService,
                                "_respawn_worker_locked", denied)
            with pytest.raises(ShardError, match="respawn denied"):
                sharded.update_edge(0, 1, 0.5)
            monkeypatch.undo()

            assert sharded._diverged is not None
            with pytest.raises(ShardError, match="diverged"):
                sharded.run(q, QueryOptions())
        finally:
            sharded.close()


def _fresh_answer(sharded, q):
    return KOSREngine.build(sharded.graph.copy()).run(q)


class TestQueryPathFaults:
    """A read whose worker dies or hangs respawns it and is resent once.

    The queries span both shards, so each also checks that the primary
    owner's replacement faults the other category back in.
    """

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_worker_dies_mid_read(self, enabled_registry, when):
        """Killed before the search (the read is lost) or after it (the
        answer is lost): either way the caller gets the fresh answer."""
        g = _graph(47)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={0: {"kind": "query", "when": when,
                                 "action": "die"}})
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                _fresh_answer(sharded, q))
            _recovered(sharded)
            assert enabled_registry.counter(
                "repro_shard_respawns_total", shard=0).value == 1
            _assert_parity(sharded, q)  # the replacement keeps serving
            assert sharded.respawns == 1
        finally:
            sharded.close()

    def test_worker_hangs_mid_read(self):
        """A hung read trips the timeout; the sleeper is replaced."""
        g = _graph(53)
        sharded = ShardedQueryService(
            g.copy(), 2, timeout_s=1.0,
            fault_injection={1: {"kind": "query", "when": "before",
                                 "action": "hang", "hang_s": 3600.0}})
        try:
            q = sharded.make_query(2, 20, [1, 2], k=2)  # shard 1 serves
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                _fresh_answer(sharded, q))
            _recovered(sharded)
        finally:
            sharded.close()

    def test_worker_errors_do_not_respawn(self):
        """Only transport failures heal; a worker's own error is the
        answer and propagates as is."""
        sharded = ShardedQueryService(_graph(59), 2)
        try:
            q = sharded.make_query(0, 30, [0, 1, 2], k=5)
            with pytest.raises(BudgetExceededError):
                sharded.run(q, QueryOptions(budget=1, strict_budget=True))
            assert sharded.respawns == 0
        finally:
            sharded.close()

    def test_mmap_read_respawn_replays_pending_updates(self):
        """A read-path respawn re-attaches the index file and must not
        serve its pre-update sections (the stale replay covers reads)."""
        g = _graph(61)
        sharded = ShardedQueryService(
            g.copy(), 2, mmap_index=True,
            fault_injection={0: {"kind": "query", "when": "before",
                                 "action": "die", "skip": 1}})
        try:
            q = sharded.make_query(0, 30, [0, 2], k=3)
            sharded.run(q, QueryOptions())
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 2))
            sharded.add_vertex_to_category(moved, 2)
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                _fresh_answer(sharded, q))
            _recovered(sharded)
        finally:
            sharded.close()

    def test_stream_killed_before_any_route_is_resent(self):
        g = _graph(67)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={0: {"kind": "stream", "when": "before",
                                 "action": "die"}})
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            streamed = []
            result = sharded.run_stream(q, on_route=streamed.append)
            assert_same_outcome(result, _fresh_answer(sharded, q))
            assert [r.cost for r in streamed] == result.costs  # once each
            _recovered(sharded)
        finally:
            sharded.close()

    def test_stream_killed_after_routes_fails_without_replay(self):
        """Routes already reached the caller: resending would deliver
        them twice, so the stream fails with a structured error — and
        the shard is healed for the next request."""
        g = _graph(71)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={0: {"kind": "stream", "when": "after",
                                 "action": "die"}})
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            fresh = _fresh_answer(sharded, q)
            streamed = []
            with pytest.raises(ShardError, match="not replayed"):
                sharded.run_stream(q, on_route=streamed.append)
            assert [r.cost for r in streamed] == fresh.costs
            _recovered(sharded)
            again = []
            assert_same_outcome(
                sharded.run_stream(q, on_route=again.append), fresh)
            assert [r.cost for r in again] == fresh.costs
        finally:
            sharded.close()


class TestRecoveryAccounting:
    def test_respawn_counter_and_metric(self, enabled_registry):
        """Each quarantine-and-respawn is counted, per shard."""
        g = _graph(41)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={1: {"kind": "update", "when": "before",
                                 "action": "die"}})
        try:
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 1))
            sharded.add_vertex_to_category(moved, 1)
            assert sharded.respawns == 1
            counter = enabled_registry.counter(
                "repro_shard_respawns_total", shard=1)
            assert counter.value == 1
        finally:
            sharded.close()

    def test_replacement_worker_is_spawned_healthy(self):
        """The fault spec dies with the faulty worker, not the shard.

        ``times: 2`` would fire twice in one process; after the first
        death the replacement is spawned with no fault spec, so the
        very next broadcast to the same shard succeeds first try.
        """
        g = _graph(43)
        sharded = ShardedQueryService(
            g.copy(), 2,
            fault_injection={1: {"kind": "update", "when": "before",
                                 "action": "die", "times": 2}})
        try:
            q = sharded.make_query(0, 30, [0, 1], k=2)
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 1))
            sharded.add_vertex_to_category(moved, 1)
            assert sharded.respawns == 1
            sharded.remove_vertex_from_category(moved, 1)
            assert sharded.respawns == 1  # replacement never faulted
            _assert_parity(sharded, q)
        finally:
            sharded.close()
