"""Query planning: the method registry behind :class:`~repro.core.engine.KOSREngine`.

Historically the engine dispatched queries through a monolithic if/elif
chain; the service layer replaces that with a small registry.  Each of the
paper's methods registers an *executor* — a callable over an
:class:`~repro.service.execution.ExecutionContext` — together with its
declared resource needs (an NN finder, the contraction hierarchy, the
SK-DB disk store).  :func:`resolve_plan` turns a ``(method, nn_backend)``
pair into an immutable :class:`QueryPlan` that both the per-query facade
path and the batch service execute identically.

This module owns the method vocabulary; the engine re-exports
``METHODS`` / ``NN_BACKENDS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.exceptions import QueryError

#: Method identifiers, matching the paper's legend: KPNE (baseline),
#: PK (PruningKOSR), SK (StarKOSR), SK-NODOM (heuristic-only ablation),
#: SK-DB (disk-resident labels), GSP / GSP-CH (k = 1 only).
METHODS = ("KPNE", "PK", "SK", "SK-NODOM", "SK-DB", "GSP", "GSP-CH")

#: NN oracle backends: "label" = FindNN over the inverted label index;
#: "dij-restart" = the paper's from-scratch Dijkstra (the ``*-Dij`` curves);
#: "dij-resume" = resumable Dijkstra cursors (ablation).
NN_BACKENDS = ("label", "dij-restart", "dij-resume")


@dataclass(frozen=True)
class ExecutorSpec:
    """One registered method: its runner plus declared resource needs.

    ``needs_finder`` — the method consumes an NN oracle (and therefore a
    valid ``nn_backend``); ``needs_ch`` — the lazy contraction hierarchy;
    ``needs_disk`` — an attached :class:`CategoryShardStore`.  The planner
    and the session cache read these to decide what to resolve and what
    to keep warm.
    """

    method: str
    runner: Callable
    needs_finder: bool = False
    needs_ch: bool = False
    needs_disk: bool = False


@dataclass(frozen=True)
class QueryPlan:
    """A resolved execution plan for one ``(method, nn_backend)``.

    Plans are value objects: the same pair always resolves to an equal
    plan, so they can key caches and be shared across a batch.
    """

    method: str
    nn_backend: str
    spec: ExecutorSpec


_REGISTRY: Dict[str, ExecutorSpec] = {}


def register_executor(
    method: str,
    *,
    needs_finder: bool = False,
    needs_ch: bool = False,
    needs_disk: bool = False,
) -> Callable:
    """Class-level decorator registering ``fn`` as ``method``'s executor."""

    def decorate(fn: Callable) -> Callable:
        _REGISTRY[method] = ExecutorSpec(
            method=method, runner=fn, needs_finder=needs_finder,
            needs_ch=needs_ch, needs_disk=needs_disk,
        )
        return fn

    return decorate


def executor_specs() -> Dict[str, ExecutorSpec]:
    """A snapshot of the registry (method -> spec)."""
    _ensure_registered()
    return dict(_REGISTRY)


def _ensure_registered() -> None:
    # The executor module registers on import; import lazily so the
    # vocabulary above is importable without dragging in the algorithms.
    if not _REGISTRY:
        import repro.service.executors  # noqa: F401


def resolve_plan(method: str, nn_backend: str = "label") -> QueryPlan:
    """Resolve ``(method, nn_backend)`` into a :class:`QueryPlan`.

    Raises :class:`~repro.exceptions.QueryError` on an unknown method.
    ``nn_backend`` is validated only for methods that declare
    ``needs_finder`` (GSP and friends ignore the oracle axis, matching the
    engine's historical behaviour).
    """
    _ensure_registered()
    spec = _REGISTRY.get(method)
    if spec is None:
        raise QueryError(f"unknown method {method!r}; choose from {METHODS}")
    if spec.needs_finder and nn_backend not in NN_BACKENDS:
        raise QueryError(
            f"unknown NN backend {nn_backend!r}; choose from {NN_BACKENDS}"
        )
    return QueryPlan(method=method, nn_backend=nn_backend, spec=spec)
