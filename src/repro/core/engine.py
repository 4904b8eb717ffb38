"""The decision engine: one request path for every engine.

The paper's decision procedures split into independent pieces: Theorem 1
reduces schema-level summarizability to one implication test per bottom
category, and Theorem 3 lets DIMSAT's EXPAND explore each candidate
branch on its own.  The engine decides those pieces in order, on the
calling thread.  Under the interpreter lock a worker pool bought little
on batches and cost every served decision an extra thread hop.

This module holds the only engine-side request code:

* :func:`normalize_request` - the canonical request key that batch dedup
  and the decision cache both key on;
* :func:`decide` - the one ``dimsat``/``implies``/``summarizable`` kind
  dispatch onto an engine's three decision procedures;
* :func:`answer_batch` - the one batch loop every engine answers batches
  with: normalize, dedup, answer in input order;
* :class:`DecisionOutcome` / :class:`AttemptRecord` - the per-request
  answer a batch returns, with the provenance of failed attempts;
* :class:`DecisionEngine` - the kernel answered through the
  :class:`~repro.core.decisioncache.DecisionCache` under a fresh copy of
  the engine's budget per decision;
  :class:`~repro.core.compile.CompiledDecisionEngine` inherits it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._types import Category
from repro.constraints.ast import Node
from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.core.auditlog import AUDIT
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import USE_DEFAULT_CACHE, _options_key, resolve_cache
from repro.core.dimsat import DimsatOptions, DimsatResult, dimsat as run_dimsat
from repro.core.faults import FAULTS
from repro.core.implication import ImplicationResult, implies as run_implies
from repro.core.schema import DimensionSchema
from repro.core.summarizability import _check_categories, _is_summarizable_uncached
from repro.errors import DecisionUnavailable, ReproError

#: A normalized decision request: ``("dimsat", category)``,
#: ``("implies", canonical_constraint_text)``, or
#: ``("summarizable", target, sorted_source_tuple)``.  Together with the
#: schema fingerprint it is the batch dedup key; with the options key
#: appended it is the decision cache key.
RequestKey = Tuple[Any, ...]

#: Request kinds the batch API understands.
REQUEST_KINDS = ("dimsat", "implies", "summarizable")


def normalize_request(request: Sequence[object]) -> RequestKey:
    """Canonicalize a decision request.

    Accepts ``("dimsat", category)``, ``("implies", constraint)`` (AST
    node or text), and ``("summarizable", target, sources)``.  The result
    is hashable and canonical: two requests asking the same question
    normalize to the same key, which is what the batch dedup and the
    decision cache key on.
    """
    if not request:
        raise ReproError("empty decision request")
    kind = request[0]
    if kind == "dimsat":
        if len(request) != 2:
            raise ReproError("dimsat requests are ('dimsat', category)")
        return ("dimsat", request[1])
    if kind == "implies":
        if len(request) != 2:
            raise ReproError("implication requests are ('implies', constraint)")
        constraint = request[1]
        node: Node = parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
        return ("implies", unparse(node))
    if kind == "summarizable":
        if len(request) != 3:
            raise ReproError(
                "summarizability requests are ('summarizable', target, sources)"
            )
        target, sources = request[1], request[2]
        return ("summarizable", target, tuple(sorted(set(sources))))  # type: ignore[arg-type]
    raise ReproError(
        f"unknown decision request kind {kind!r}; expected one of {REQUEST_KINDS}"
    )


def decide(engine: Any, schema: DimensionSchema, key: RequestKey) -> bool:
    """One normalized request on ``engine``'s decision procedures:
    satisfiable / implied / summarizable."""
    kind = key[0]
    if kind == "dimsat":
        return engine.dimsat(schema, key[1]).satisfiable
    if kind == "implies":
        return engine.implies(schema, key[1]).implied
    if kind == "summarizable":
        return engine.is_summarizable(schema, key[1], key[2])
    raise ReproError(f"unknown decision request kind {kind!r}")


@dataclass(frozen=True)
class AttemptRecord:
    """Provenance of one failed attempt at a decision."""

    #: ``"primary"`` or ``"sequential"`` - the ladder rung that failed.
    rung: str
    #: 0-based attempt index within the rung.
    attempt: int
    #: Exception class name (``"InjectedFault"``, ``"BudgetExceeded"`` ...).
    error_type: str
    #: The exception's message.
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rung": self.rung,
            "attempt": self.attempt,
            "error_type": self.error_type,
            "message": self.message,
        }


@dataclass(frozen=True)
class DecisionOutcome:
    """An engine's answer to one batch request.

    ``status`` is ``"ok"`` (``verdict`` is the sound boolean) or
    ``"unknown"`` (``verdict`` is ``None``; every rung failed and
    ``failures`` says how).  ``rung`` names the ladder rung that produced
    the verdict; ``attempts`` counts every attempt made, successful or
    not.
    """

    verdict: Optional[bool]
    status: str
    rung: str
    attempts: int
    failures: Tuple[AttemptRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "status": self.status,
            "rung": self.rung,
            "attempts": self.attempts,
            "failures": [record.as_dict() for record in self.failures],
        }


def answer_batch(
    items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    answer: Callable[[DimensionSchema, RequestKey], DecisionOutcome],
) -> List[DecisionOutcome]:
    """The one batch loop: ``answer`` each distinct request once.

    Requests are normalized first (see :func:`normalize_request`), so a
    malformed request raises before anything is decided - it is a
    caller bug, not a service fault.  They are then deduped by
    ``(schema fingerprint, canonical request)`` and answered in input
    order; duplicates share one outcome.
    """
    pairs = [(schema, normalize_request(request)) for schema, request in items]
    answered: Dict[Tuple[str, RequestKey], DecisionOutcome] = {}
    outcomes: List[DecisionOutcome] = []
    for schema, key in pairs:
        ukey = (schema.fingerprint(), key)
        outcome = answered.get(ukey)
        if outcome is None:
            outcome = answered[ukey] = answer(schema, key)
        outcomes.append(outcome)
    return outcomes


def verdicts(outcomes: List[DecisionOutcome]) -> List[bool]:
    """The booleans of a batch's outcomes; raises
    :class:`~repro.errors.DecisionUnavailable` when any is UNKNOWN."""
    unknown = [outcome for outcome in outcomes if outcome.unknown]
    if unknown:
        raise DecisionUnavailable(
            f"{len(unknown)} of {len(outcomes)} batch decisions "
            "unavailable after retries and sequential fallback",
            unknown[0].failures,
        )
    return [outcome.verdict for outcome in outcomes]  # type: ignore[misc]


class DecisionEngine:
    """Sequential, cached decision serving with per-decision budgets.

    Parameters
    ----------
    budget:
        A :class:`~repro.core.budget.DecisionBudget` *template*: every
        decision gets a ``fresh()`` copy, so the ceilings are per
        decision, not per engine lifetime.
    options:
        :class:`~repro.core.dimsat.DimsatOptions` applied to every
        search.
    cache:
        The :class:`~repro.core.decisioncache.DecisionCache` verdicts are
        memoized in (default: the process-wide one; ``None`` disables
        caching).

    Verdicts are memoized under the same keys the kernel entry points
    use, so engines and plain kernel calls share one cache.  The engine
    holds no threads; it can be shared by threads that each decide.
    """

    def __init__(
        self,
        budget: Optional[DecisionBudget] = None,
        options: Optional[DimsatOptions] = None,
        cache: object = USE_DEFAULT_CACHE,
    ) -> None:
        self.budget_template = budget
        self.options = options
        self._options_key = _options_key(options)
        self.cache = resolve_cache(cache)

    def fresh_budget(self) -> Optional[DecisionBudget]:
        """A per-decision copy of the budget template (``None`` when the
        engine is unbounded)."""
        if self.budget_template is None:
            return None
        return self.budget_template.fresh()

    def _memoized(
        self,
        schema: DimensionSchema,
        key: Tuple[object, ...],
        compute: Callable[[], object],
    ) -> object:
        """``compute`` through the cache under ``key`` (``(kind, query...,
        options_key)``).  Cached decisions are audited inside
        :meth:`DecisionCache.memoize`; without a cache the record is
        written here, so every decision is audited exactly once."""
        if self.cache is not None:
            return self.cache.memoize(schema, key, compute)
        if AUDIT.enabled:
            start = time.perf_counter()
            value = compute()
            AUDIT.record_decision(
                schema,
                key[:-1],
                key[-1],
                value,
                (time.perf_counter() - start) * 1000.0,
                cache_hit=False,
            )
            return value
        return compute()

    # -- the three decision procedures ----------------------------------

    def dimsat(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Category satisfiability (Theorem 3)."""
        return self._memoized(  # type: ignore[return-value]
            schema,
            ("dimsat", category, self._options_key),
            lambda: run_dimsat(schema, category, self.options, self.fresh_budget()),
        )

    def is_satisfiable(self, schema: DimensionSchema, category: Category) -> bool:
        return self.dimsat(schema, category).satisfiable

    def implies(self, schema: DimensionSchema, constraint: object) -> ImplicationResult:
        """``ds |= alpha`` via Theorem 2."""
        node: Node = parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
        return self._memoized(  # type: ignore[return-value]
            schema,
            ("implies", unparse(node), self._options_key),
            lambda: run_implies(
                schema, node, self.options, cache=None, budget=self.fresh_budget()
            ),
        )

    def is_implied(self, schema: DimensionSchema, constraint: object) -> bool:
        return self.implies(schema, constraint).implied

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1: one implication test per bottom category, in order;
        the tests go through the cache too, so overlapping source sets
        share work."""
        source_key = tuple(sorted(set(sources)))
        _check_categories(schema.hierarchy, target, source_key)
        return self._memoized(  # type: ignore[return-value]
            schema,
            ("summarizable", target, source_key, self._options_key),
            lambda: _is_summarizable_uncached(
                schema, target, source_key, self.options, self.cache,
                self.fresh_budget(),
            ),
        )

    # -- the batch API ---------------------------------------------------

    def decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[bool]:
        """Answer a batch of ``(schema, request)`` pairs.

        Verdicts come back as booleans aligned with the input order:
        satisfiable / implied / summarizable.  The first request that
        fails (a budget abort, an injected fault) raises.
        """
        return verdicts(self.decide_many_outcomes(items))

    def decide_many_outcomes(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[DecisionOutcome]:
        """The batch as :class:`DecisionOutcome` records (see
        :func:`answer_batch`).  Every outcome is ``ok`` on rung
        ``"primary"`` after one attempt; a failing request raises.  Each
        request first passes the per-decision fault checkpoint."""

        def answer(schema: DimensionSchema, key: RequestKey) -> DecisionOutcome:
            FAULTS.worker()
            return DecisionOutcome(decide(self, schema, key), "ok", "primary", 1)

        return answer_batch(items, answer)
