"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle any library failure.  Finer-grained
subclasses distinguish the three layers of the system: the dimension model
(schemas and instances), the constraint language, and the OLAP engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A hierarchy schema or dimension schema is malformed.

    Raised when Definition 1 of the paper is violated: a category does not
    reach ``All``, a self-loop edge is declared, a constraint refers to a
    category that is not in the schema, or a constraint is rooted at ``All``.
    """


class InstanceError(ReproError):
    """A dimension instance violates one of conditions (C1)-(C7).

    The message identifies the condition by its paper label (for example
    ``"(C2) partitioning"``) and the offending members, so schema designers
    can locate the problem in their data.
    """

    def __init__(self, condition: str, message: str) -> None:
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class ConstraintSyntaxError(ReproError):
    """The textual form of a dimension constraint could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1) -> None:
        if position >= 0:
            message = f"{message} (at position {position} in {text!r})"
        super().__init__(message)
        self.text = text
        self.position = position


class ConstraintError(ReproError):
    """A structurally invalid constraint: mixed roots, unknown categories,
    or a path atom whose path is not a simple path of the hierarchy schema.
    """


class BudgetExceeded(ReproError):
    """A decision ran out of its :class:`~repro.core.budget.DecisionBudget`.

    Raised when a per-decision node or wall-clock budget is exhausted
    before the decision procedure reaches an answer.  The decision did
    *not* produce a verdict - callers must treat the question as
    undecided, never as a "no".  Caches are left verdict-clean: nothing
    is memoized for an aborted decision, so re-asking with a larger
    budget yields the correct answer.
    """


class DecisionUnavailable(ReproError):
    """Every rung of the resilience ladder failed to produce a verdict.

    Raised by :class:`~repro.core.resilience.ResilientDecisionEngine`
    when the primary engine (with retries), the sequential kernel
    fallback, and any remaining recovery path all failed for a decision.
    The question is *undecided* - a typed UNKNOWN, never a wrong boolean
    - and ``failures`` carries the provenance: one record per failed
    attempt (rung, attempt number, error type, message).  Caches are
    left verdict-clean, so re-asking once the faults clear yields the
    correct answer.
    """

    def __init__(self, message: str, failures: tuple = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


class OlapError(ReproError):
    """An error in the OLAP engine substrate (fact tables and cube views)."""


class NavigationError(OlapError):
    """Aggregate navigation could not rewrite the requested cube view.

    Raised when no subset of the materialized views is proven summarizable
    for the requested category, so the only safe plan is a base-table scan
    and the caller asked for rewrites only.
    """
