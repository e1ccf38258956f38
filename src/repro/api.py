"""Typed query request/response objects — the public serving API.

Historically every query entry point (``KOSREngine.query``/``run``,
``QueryService.run``/``run_batch``, ``execute_plan``) copied the same
bundle of eight keyword arguments, and the copies drifted (``query``
silently dropped ``strict_budget``).  This module replaces the bundle
with two small value objects:

* :class:`QueryOptions` — *how* to answer: method, NN backend, budgets,
  strictness, route restoration, profiling.  Frozen, hashable, with the
  defaults defined exactly once; every entry point builds or receives
  one, so an option cannot be dropped on the way down.
* :class:`QueryRequest` — *what* to answer: a validated
  :class:`~repro.core.query.KOSRQuery` plus its options.  Requests are
  hashable value objects whose :attr:`~QueryRequest.key` is the
  canonical coalescing identity used by the async serving front-end
  (:mod:`repro.server`): two requests with equal keys must produce the
  same answer within one index epoch, so one plan execution can serve
  both.

The response type stays :class:`~repro.core.engine.KOSRResult` (answer
set + ``QueryStats``) — it already carries everything a response needs.

Contract: the coalescing identity
---------------------------------

:attr:`QueryRequest.key` is the *only* notion of request equality the
serving stack may coalesce on, and it is deliberately strict: the full
``(s, t, C, k)`` tuple plus every execution option.  Soundness comes
from the service layer's epoch semantics (within one index epoch,
identical requests produce bit-identical results and counters — see
:mod:`repro.service`); anything looser (ignoring ``profile``, say)
would hand one caller another caller's observably different answer.
The same strictness makes keys safe across process boundaries: the
sharded workers (:mod:`repro.shard`) receive the frozen
``(KOSRQuery, QueryOptions)`` pair by pickle and can never drift from
the in-process interpretation.

Usage
-----

Every entry point takes its options as one object::

    engine.run(q, QueryOptions(method="PK", budget=100))

``KOSREngine.query(source, target, categories, ...)`` keeps its keyword
sugar (it is the documented one-liner and builds a :class:`QueryOptions`
internally), and also accepts ``options=``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.query import KOSRQuery
from repro.exceptions import QueryError
from repro.types import CategoryId, Vertex

__all__ = ["DEFAULT_OPTIONS", "QueryOptions", "QueryRequest"]


@dataclass(frozen=True)
class QueryOptions:
    """Execution options for one KOSR query (frozen value object).

    ``method`` / ``nn_backend`` pick the algorithm and NN oracle (the
    vocabulary lives in :mod:`repro.service.planner`; unknown names are
    rejected by :meth:`plan`).  ``budget`` caps
    examined routes, ``time_budget_s`` caps wall time; ``strict_budget``
    escalates either guard into
    :class:`~repro.exceptions.BudgetExceededError` instead of a partial
    result.  ``restore_routes`` materialises witness routes;
    ``profile`` opts into the Table X per-operation timers.
    """

    method: str = "SK"
    nn_backend: str = "label"
    budget: Optional[int] = None
    time_budget_s: Optional[float] = None
    restore_routes: bool = False
    strict_budget: bool = False
    profile: bool = False

    def __post_init__(self):
        if self.budget is not None and self.budget < 0:
            raise QueryError(f"budget must be >= 0, got {self.budget}")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            raise QueryError(
                f"time_budget_s must be >= 0, got {self.time_budget_s}")

    def replace(self, **changes) -> "QueryOptions":
        """A copy with ``changes`` applied (options are immutable)."""
        return replace(self, **changes)

    def plan(self):
        """Resolve these options into a :class:`QueryPlan`.

        This is the single validation point for the method / NN-backend
        vocabulary (raises :class:`~repro.exceptions.QueryError` on
        unknown names).
        """
        from repro.service.planner import resolve_plan

        return resolve_plan(self.method, self.nn_backend)


#: The library-wide defaults, defined once.
DEFAULT_OPTIONS = QueryOptions()


def resolve_options(options: Optional[QueryOptions],
                    caller: str) -> QueryOptions:
    """``options`` or the defaults; anything but a QueryOptions is a TypeError.

    The old positional style (``run(q, "PK")``) fails here with a message
    naming the fix instead of deep inside the planner.
    """
    if options is None:
        return DEFAULT_OPTIONS
    if not isinstance(options, QueryOptions):
        raise TypeError(
            f"{caller}() expects options to be a QueryOptions, got "
            f"{type(options).__name__!s} ({options!r}); pass "
            f"QueryOptions(method=...)")
    return options


@dataclass(frozen=True)
class QueryRequest:
    """One serving-layer request: a validated query plus its options.

    Requests are frozen and hashable, so they key coalescing maps
    directly.  Build the query with ``engine.make_query(...)`` (which
    validates against the graph) or any :class:`KOSRQuery` constructor.
    """

    query: KOSRQuery
    options: QueryOptions = DEFAULT_OPTIONS

    @property
    def key(self) -> Tuple[Vertex, Vertex, Tuple[CategoryId, ...], int,
                           QueryOptions]:
        """Canonical coalescing identity: ``(s, t, C, k)`` + options.

        Within one index epoch, equal keys are guaranteed to produce
        byte-identical results, so the async front-end answers all
        concurrent holders of a key from one plan execution.
        """
        q = self.query
        return (q.source, q.target, q.categories, q.k, self.options)

    @property
    def group_key(self) -> Tuple[Vertex, Tuple[CategoryId, ...]]:
        """The batch executor's warm-state sharing key: ``(target, C)``."""
        return (self.query.target, self.query.categories)
