"""A resilient decision service: retries, circuit breaking, degradation.

A worker fault, a flaky cache store, or a blown budget takes a whole
request (or batch) down with an exception.  Bertossi & Milani's
ontological multidimensional model treats inconsistency as a
first-class *answerable* state rather than a crash; this module gives
the decision stack the same property.  :class:`ResilientDecisionEngine`
wraps a decision engine with a three-rung **degradation ladder**:

1. **primary** - the wrapped engine (the sequential
   :class:`~repro.core.engine.DecisionEngine` by default, or the
   compiled tier), with per-decision retry: exponential backoff,
   deterministic jitter, a configurable attempt cap.  Transient
   failures (``OSError``, injected faults) are retried; everything else
   is not.
2. **sequential** - the interpreted kernel with a fresh budget, also
   retried.  A :class:`CircuitBreaker` per schema fingerprint sends
   traffic straight here while the primary rung keeps failing, and lets
   it back after a cooldown.
3. **UNKNOWN** - a typed verdict-free outcome
   (:class:`DecisionOutcome` with ``status="unknown"``, or a raised
   :class:`~repro.errors.DecisionUnavailable`) carrying the full failure
   provenance: one :class:`AttemptRecord` per failed attempt.

Two invariants, extending the budget layer's:

* **never wrong** - a verdict is either computed by a sound kernel path
  or not returned at all; no rung ever guesses;
* **caches stay verdict-clean** - a faulted or aborted decision never
  stores anything in the :class:`~repro.core.decisioncache.DecisionCache`
  (the fault-injection hammer in ``tests/test_resilience_differential.py``
  asserts exactly this).

With no faults present the resilient engine is observationally identical
to the plain engines - the differential suite proves verdict
byte-identity, and the bench gate caps the fault-free overhead at 5%.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._types import Category
from repro.core.auditlog import AUDIT
from repro.core.dimsat import DimsatResult
from repro.core.engine import (
    AttemptRecord,
    DecisionEngine,
    DecisionOutcome,
    RequestKey,
    answer_batch,
    decide,
    normalize_request,
    verdicts,
)
from repro.core.faults import FAULTS
from repro.core.implication import ImplicationResult
from repro.core.metrics import METRICS
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.errors import BudgetExceeded, DecisionUnavailable, ReproError

_M_BREAKER_TRIPS = METRICS.counter("resilience.breaker_trips")
_H_ATTEMPTS = METRICS.histogram("resilience.attempts_per_decision")

#: Failures worth retrying: transient OS-level trouble (which injected
#: worker faults subclass).  Everything else is either a sound typed
#: abort (``BudgetExceeded``, degradable but not retryable - the same
#: ceilings would abort again) or a caller bug (``SchemaError`` etc.,
#: re-raised untouched).
RETRYABLE_ERRORS = (OSError, TimeoutError)


def classify_failure(error: BaseException) -> str:
    """``"retryable"``, ``"degradable"``, or ``"fatal"`` for one failure."""
    if isinstance(error, BudgetExceeded):
        return "degradable"
    if isinstance(error, RETRYABLE_ERRORS):
        return "retryable"
    return "fatal"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_attempts`` caps attempts *per rung*.  The delay before retry
    ``n`` is ``base_delay_ms * 2**n`` (clamped to ``max_delay_ms``)
    stretched by up to ``jitter`` of itself; the stretch is a pure
    CRC32 function of ``(token, attempt)``, so a retry schedule replays
    identically - no wall-clock randomness in the decision path.
    """

    max_attempts: int = 3
    base_delay_ms: float = 1.0
    max_delay_ms: float = 50.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be at least 1")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ReproError("retry delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError("jitter must be in [0, 1]")

    def delay_ms(self, attempt: int, token: int = 0) -> float:
        base = min(self.max_delay_ms, self.base_delay_ms * (2**attempt))
        draw = zlib.crc32(f"{token}:{attempt}".encode("utf-8")) % 1000 / 1000.0
        return base * (1.0 + self.jitter * draw)


class CircuitBreaker:
    """A per-key (schema fingerprint) breaker over the primary rung.

    ``failure_threshold`` consecutive primary-rung failures for one key
    open the circuit: traffic for that key skips straight to the
    sequential rung (no retry churn on a schema that keeps failing).
    After ``cooldown_ms`` the circuit half-opens - the next decision
    probes the primary rung again; success closes the circuit, failure
    re-opens it for another cooldown.
    """

    def __init__(
        self, failure_threshold: int = 5, cooldown_ms: float = 1000.0
    ) -> None:
        if failure_threshold < 1:
            raise ReproError("failure_threshold must be at least 1")
        if cooldown_ms < 0:
            raise ReproError("cooldown_ms must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self._lock = threading.Lock()
        #: key -> [consecutive failures, opened_at monotonic seconds or None]
        self._state: Dict[str, List[Optional[float]]] = {}

    def allow(self, key: str) -> bool:
        """May the primary rung be tried for this key right now?"""
        with self._lock:
            state = self._state.get(key)
            if state is None or state[1] is None:
                return True
            if (time.monotonic() - state[1]) * 1000.0 >= self.cooldown_ms:
                # Half-open: let traffic probe the primary rung; the next
                # record_success/record_failure settles the circuit.
                state[1] = None
                return True
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            self._state.pop(key, None)

    def record_failure(self, key: str) -> None:
        tripped = False
        with self._lock:
            state = self._state.setdefault(key, [0, None])
            state[0] += 1  # type: ignore[operator]
            if state[0] >= self.failure_threshold and state[1] is None:  # type: ignore[operator]
                state[1] = time.monotonic()
                tripped = True
        if tripped:
            _M_BREAKER_TRIPS.inc()

    def state(self, key: str) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` for one key."""
        with self._lock:
            state = self._state.get(key)
            if state is None:
                return "closed"
            if state[1] is None:
                return "closed"
            if (time.monotonic() - state[1]) * 1000.0 >= self.cooldown_ms:
                return "half-open"
            return "open"


@dataclass
class ResilienceStats:
    """Cumulative counters for one :class:`ResilientDecisionEngine`.

    Updated under the engine's lock: the server's executor threads share
    one engine.
    """

    decisions: int = 0
    retries: int = 0
    degraded_sequential: int = 0
    unknown_verdicts: int = 0
    breaker_open_skips: int = 0


class ResilientDecisionEngine:
    """The degradation-ladder wrapper around a decision engine.

    Parameters
    ----------
    engine:
        The primary rung: a :class:`~repro.core.engine.DecisionEngine`
        or the compiled tier; built from ``engine_kwargs`` when omitted.
    retry:
        The :class:`RetryPolicy` (attempt cap, backoff, jitter).
    breaker:
        The :class:`CircuitBreaker` guarding the primary rung.
    max_workers:
        Ignored.  Decisions run on the calling thread; the argument is
        still accepted because callers written against the earlier
        pooled engine (the repo benchmark's per-layer probe among them)
        pass it.
    engine_kwargs:
        Forwarded to :class:`~repro.core.engine.DecisionEngine` when
        ``engine`` is ``None`` (``budget``, ``options``, ``cache``).

    The single-decision surface (:meth:`dimsat`, :meth:`implies`,
    :meth:`is_summarizable`, ...) mirrors the wrapped engine's but raises
    :class:`~repro.errors.DecisionUnavailable` instead of transient
    errors.  On the batch surface every request walks the same ladder;
    :meth:`decide_many_outcomes` answers each with a
    :class:`DecisionOutcome` that is never an exception - the form a
    service loop wants.
    """

    def __init__(
        self,
        engine: Optional[DecisionEngine] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        max_workers: Optional[int] = None,
        **engine_kwargs: Any,
    ) -> None:
        if engine is not None and engine_kwargs:
            raise ReproError(
                "pass either a prebuilt engine or engine kwargs, not both"
            )
        self.engine = engine if engine is not None else DecisionEngine(**engine_kwargs)
        #: The sequential rung: the interpreted kernel over the primary
        #: engine's cache, options and budget.
        self.sequential = DecisionEngine(
            budget=self.engine.budget_template,
            options=self.engine.options,
            cache=self.engine.cache,
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.stats = ResilienceStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Nothing to release: the engine holds no threads or processes.
        Kept, with the context-manager protocol, so callers that close
        their engine keep working."""

    def __enter__(self) -> "ResilientDecisionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump the :class:`ResilienceStats` field ``name`` and, for every
        ladder event (all fields but ``decisions``), the
        ``resilience.<name>`` registry counter."""
        with self._lock:
            setattr(self.stats, name, getattr(self.stats, name) + amount)
        if name != "decisions":
            METRICS.counter(f"resilience.{name}").inc(amount)

    def _run_rung(
        self,
        rung: str,
        engine: DecisionEngine,
        call: Callable[[DecisionEngine], Any],
        key: RequestKey,
        fingerprint: str,
        failures: List[AttemptRecord],
    ) -> Tuple[bool, Any, int]:
        """Run one ladder rung with retries, each attempt behind the
        per-decision fault checkpoint.

        Returns ``(succeeded, value, attempts_made)``.  Fatal errors are
        re-raised; degradable errors (budget aborts) end the rung after
        one attempt - the same ceilings would abort again.
        """
        for attempt in range(self.retry.max_attempts):
            try:
                FAULTS.worker()
                return True, call(engine), attempt + 1
            except Exception as exc:
                kind = classify_failure(exc)
                if kind == "fatal":
                    raise
                failures.append(
                    AttemptRecord(rung, attempt, type(exc).__name__, str(exc))
                )
                if kind == "degradable":
                    return False, None, attempt + 1
                if attempt + 1 < self.retry.max_attempts:
                    self._count("retries")
                    if TRACER.enabled:
                        TRACER.event(
                            "resilience.retry",
                            rung=rung,
                            attempt=attempt,
                            error=type(exc).__name__,
                        )
                    token = zlib.crc32(f"{rung}:{key[0]}:{fingerprint}".encode())
                    delay = self.retry.delay_ms(attempt, token)
                    if delay > 0:
                        time.sleep(delay / 1000.0)
        return False, None, self.retry.max_attempts

    def _ladder(
        self,
        schema: DimensionSchema,
        key: RequestKey,
        call: Callable[[DecisionEngine], Any],
    ) -> Tuple[str, Any, int, List[AttemptRecord]]:
        """The degradation ladder for one request: breaker -> primary
        rung with retries -> sequential rung -> typed UNKNOWN.

        ``call`` runs the decision on one rung's engine; ``key`` is the
        canonical request, recorded on the audit log when every rung
        fails (successful rungs are audited by the engine that answers).
        Returns ``(rung, value, attempts, failures)``, where ``rung`` is
        ``"unknown"`` (and ``value`` ``None``) when no rung answered.
        """
        fingerprint = schema.fingerprint()
        failures: List[AttemptRecord] = []
        ok, value, attempts, rung = False, None, 0, "primary"
        with TRACER.span("resilience.decide", kind=key[0]) as span:
            if self.breaker.allow(fingerprint):
                ok, value, attempts = self._run_rung(
                    "primary", self.engine, call, key, fingerprint, failures
                )
                if ok:
                    self.breaker.record_success(fingerprint)
                else:
                    self.breaker.record_failure(fingerprint)
            else:
                self._count("breaker_open_skips")
                failures.append(
                    AttemptRecord(
                        "primary", 0, "CircuitOpen",
                        f"circuit open for schema {fingerprint[:12]}",
                    )
                )
            if not ok:
                self._count("degraded_sequential")
                if TRACER.enabled:
                    TRACER.event(
                        "resilience.degrade", kind=key[0], to="sequential"
                    )
                ok, value, more = self._run_rung(
                    "sequential", self.sequential, call, key, fingerprint,
                    failures,
                )
                attempts += more
                rung = "sequential" if ok else "unknown"
            span.set(rung=rung, attempts=attempts)
            _H_ATTEMPTS.observe(attempts)
            if not ok:
                self._count("unknown_verdicts")
                if TRACER.enabled:
                    TRACER.event(
                        "resilience.unknown", kind=key[0], attempts=attempts
                    )
                if AUDIT.enabled:
                    AUDIT.record_unknown(schema, key, attempts, failures)
        return rung, value, attempts, failures

    def _decision(
        self,
        schema: DimensionSchema,
        key: RequestKey,
        call: Callable[[DecisionEngine], Any],
    ) -> Any:
        """One single decision down the ladder; raises
        ``DecisionUnavailable`` at the bottom."""
        self._count("decisions")
        rung, value, attempts, failures = self._ladder(schema, key, call)
        if rung == "unknown":
            raise DecisionUnavailable(
                f"{key[0]} decision unavailable after {attempts} attempts "
                f"({', '.join(sorted({f.error_type for f in failures}))})",
                tuple(failures),
            )
        return value

    # ------------------------------------------------------------------
    # Single decisions (mirror the wrapped engine's surface)
    # ------------------------------------------------------------------

    def dimsat(self, schema: DimensionSchema, category: Category) -> DimsatResult:
        """Category satisfiability through the ladder."""
        return self._decision(
            schema,
            ("dimsat", category),
            lambda engine: engine.dimsat(schema, category),
        )

    def is_satisfiable(self, schema: DimensionSchema, category: Category) -> bool:
        return self.dimsat(schema, category).satisfiable

    def implies(
        self, schema: DimensionSchema, constraint: object
    ) -> ImplicationResult:
        """``ds |= alpha`` through the ladder."""
        return self._decision(
            schema,
            normalize_request(("implies", constraint)),
            lambda engine: engine.implies(schema, constraint),
        )

    def is_implied(self, schema: DimensionSchema, constraint: object) -> bool:
        return self.implies(schema, constraint).implied

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1 through the ladder."""
        source_key = tuple(sorted(set(sources)))
        return self._decision(
            schema,
            ("summarizable", target, source_key),
            lambda engine: engine.is_summarizable(schema, target, source_key),
        )

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------

    def decide(
        self, schema: DimensionSchema, request: Sequence[object]
    ) -> DecisionOutcome:
        """One request as a :class:`DecisionOutcome` (never raises for
        service faults)."""
        return self.decide_many_outcomes([(schema, request)])[0]

    def decide_many(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[bool]:
        """Boolean verdicts aligned with the input order.

        Drop-in for :meth:`DecisionEngine.decide_many`; raises
        :class:`~repro.errors.DecisionUnavailable` when any decision
        degraded to UNKNOWN (use :meth:`decide_many_outcomes` to keep the
        rest of the batch).
        """
        return verdicts(self.decide_many_outcomes(items))

    def decide_many_outcomes(
        self,
        items: Iterable[Tuple[DimensionSchema, Sequence[object]]],
    ) -> List[DecisionOutcome]:
        """Every request gets an outcome, never an exception for a
        service fault (malformed requests still raise).

        The batch is normalized and deduped by :func:`answer_batch`;
        each distinct request walks the same ladder a single decision
        does, so a batch answers exactly as its requests decided one by
        one.  ``stats.decisions`` counts every request, duplicates
        included.
        """
        pairs = list(items)
        self._count("decisions", len(pairs))

        def answer(schema: DimensionSchema, key: RequestKey) -> DecisionOutcome:
            rung, value, attempts, failures = self._ladder(
                schema, key, lambda engine: decide(engine, schema, key)
            )
            if rung == "unknown":
                return DecisionOutcome(
                    None, "unknown", rung, attempts, tuple(failures)
                )
            return DecisionOutcome(value, "ok", rung, attempts, tuple(failures))

        return answer_batch(pairs, answer)

    def report(self) -> str:
        """A human-readable stats block."""
        lines = [
            "resilient engine:",
            f"  decisions            {self.stats.decisions}",
            f"  retries              {self.stats.retries}",
            f"  degraded sequential  {self.stats.degraded_sequential}",
            f"  unknown verdicts     {self.stats.unknown_verdicts}",
            f"  breaker open skips   {self.stats.breaker_open_skips}",
        ]
        return "\n".join(lines)
