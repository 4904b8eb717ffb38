"""The compiled decision tier: specialize a schema once, answer forever.

Every decision the system serves - category satisfiability (Theorem 3),
constraint implication (Theorem 2), schema-level summarizability
(Theorem 1) - is a pure function of the dimension schema ``(G, SIGMA)``.
The interpreted kernel (:mod:`repro.core.dimsat`) re-runs the EXPAND /
CHECK backtracking search for every cold decision; this module instead
*compiles* the schema, keyed by its existing fingerprint, into a reusable
artifact:

* the complete subhierarchies of each root are enumerated **once** (the
  structural (C1)-(C7) side of the search: rooted at the category,
  reaching ``All``, acyclic, shortcut-free, into edges forced);
* each subhierarchy's reduced constraint set (the circle operator
  applied to SIGMA) is Tseitin-encoded into CNF over per-``(category,
  constant)`` assignment variables, guarded by a per-subhierarchy
  selector literal - one :class:`~repro.core.satsolver.Solver` instance
  per root holds the whole disjunction over subhierarchies;
* each subhierarchy also gets a **generated Python closure** that
  inlines its residual constraint evaluation (the CHECK step of
  Proposition 2); the closures re-verify every witness the solver
  produces, so a compiled "satisfiable" can never be wrong;
* implication queries join incrementally: ``SIGMA | {NOT alpha}``
  (Theorem 2) adds clauses for ``NOT alpha`` guarded by a fresh
  *activation* literal and solves under that assumption, so the solver's
  **learned clauses persist in the artifact** and every later query on
  the same schema - the whole implication family, and the per-bottom
  implication tests Theorem 1 reduces summarizability to - starts from
  everything earlier queries proved.

:class:`CompiledDecisionEngine` wires the artifact into the existing
stack: verdicts memoize through the same
:class:`~repro.core.decisioncache.DecisionCache` keys the sequential
engine uses (so caches interoperate and verdicts stay byte-identical),
trace spans and metrics flow through the observability layer, every
served verdict lands in the audit log
(replayable by ``repro-olap audit-verify``), and any compilation failure
- a numeric category, a query with comparison atoms, a subhierarchy
explosion, a witness the closures reject - degrades to the interpreted
kernel (the PR 4 discipline: slower, never wrong).

Schemas with numeric categories (order predicates) are *not* compiled:
their c-assignment domains are interval representatives whose truth
tables do not map onto the boolean assignment variables used here, so
the tier falls back to the interpreted kernel for them.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.constraints.ast import (
    FALSE,
    TRUE,
    And,
    ComparisonAtom,
    EqualityAtom,
    ExactlyOne,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    Xor,
    hash_cons,
)
from repro.constraints.atoms import validate_constraint
from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.core.auditlog import AUDIT
from repro.core.budget import DecisionBudget
from repro.core.decisioncache import USE_DEFAULT_CACHE
from repro.core.dimsat import (
    DimsatOptions,
    DimsatResult,
    DimsatStats,
    _GState,
    _Search,
    _trivial_all_result,
    circle_cache,
    dimsat as run_dimsat,
    reduced_constraints,
)
from repro.core.engine import DecisionEngine
from repro.core.frozen import FrozenDimension, Subhierarchy
from repro.core.hierarchy import ALL, Category
from repro.core.implication import ImplicationResult, implies as run_implies
from repro.core.instance import TOP_MEMBER
from repro.core.metrics import METRICS
from repro.core.satsolver import Solver
from repro.core.schema import DimensionSchema
from repro.core.trace import TRACER
from repro.errors import ReproError, SchemaError

__all__ = [
    "CompilationError",
    "CompiledArtifact",
    "CompiledArtifactStore",
    "CompiledDecisionEngine",
    "CompiledEngineStats",
    "compiled_artifact_store",
    "resolve_engine",
]

_M_ARTIFACT_HITS = METRICS.counter("compiled.artifact_hits")
_M_ARTIFACT_MISSES = METRICS.counter("compiled.artifact_misses")
_M_ARTIFACT_INVALIDATIONS = METRICS.counter("compiled.artifact_invalidations")
_M_COMPILE_FAILURES = METRICS.counter("compiled.compile_failures")
_M_DECISIONS = METRICS.counter("compiled.decisions")
_M_FALLBACKS = METRICS.counter("compiled.fallbacks")

#: Compilation refuses schemas whose roots have more complete
#: subhierarchies than this - the artifact would be larger than the
#: search it replaces; the engine falls back to the interpreted kernel.
DEFAULT_MAX_SUBHIERARCHIES = 4096


class CompilationError(ReproError):
    """A schema (or query) the compiled tier cannot soundly serve.

    Raising this is always safe: every caller degrades to the
    interpreted kernel, so a compilation failure costs time, never
    correctness.
    """


# ----------------------------------------------------------------------
# Structural enumeration: the (C1)-(C7) side, done once per root
# ----------------------------------------------------------------------


def _complete_subhierarchies(
    schema: DimensionSchema, root: Category, limit: int
) -> List[Subhierarchy]:
    """Every complete subhierarchy of ``G`` rooted at ``root``.

    Drives the kernel's own EXPAND branching (cycle, shortcut, and into
    pruning all enabled), so the enumeration matches the interpreted
    search exactly; into pruning stays sound for the whole ``SIGMA |
    {NOT alpha}`` family because a negated query never adds an into
    constraint.  Raises :class:`CompilationError` past ``limit``.
    """
    search = _Search(schema, root, DimsatOptions())
    out: List[Subhierarchy] = []

    def walk(
        state: _GState, current: Category, chosen: FrozenSet[Category]
    ) -> None:
        if chosen:
            state = state.extend(current, chosen)
        if state.top == frozenset({ALL}):
            out.append(state.to_subhierarchy())
            if len(out) > limit:
                raise CompilationError(
                    f"root {root!r} has more than {limit} complete "
                    "subhierarchies; compilation would not pay off"
                )
            return
        for job in search._branch_jobs(state):
            walk(*job)

    walk(_GState.initial(root), root, frozenset())
    return out


# ----------------------------------------------------------------------
# Generated CHECK closures (Proposition 2, inlined)
# ----------------------------------------------------------------------


def _py_expr(node: Node) -> str:
    """A Python expression evaluating a residual constraint against a
    ``names`` dict (category -> constant; absent means ``nk``)."""
    if node is TRUE or node == TRUE:
        return "True"
    if node is FALSE or node == FALSE:
        return "False"
    if isinstance(node, EqualityAtom):
        if node.category == ALL:
            return "True" if node.constant == TOP_MEMBER else "False"
        return f"names.get({node.category!r}) == {node.constant!r}"
    if isinstance(node, ComparisonAtom):
        raise CompilationError(
            "comparison atoms (numeric categories) are not compilable"
        )
    if isinstance(node, Not):
        return f"(not {_py_expr(node.child)})"
    if isinstance(node, And):
        if not node.operands:
            return "True"
        return "(" + " and ".join(_py_expr(op) for op in node.operands) + ")"
    if isinstance(node, Or):
        if not node.operands:
            return "False"
        return "(" + " or ".join(_py_expr(op) for op in node.operands) + ")"
    if isinstance(node, Implies):
        return (
            f"((not {_py_expr(node.antecedent)}) or "
            f"{_py_expr(node.consequent)})"
        )
    if isinstance(node, Iff):
        return f"(bool({_py_expr(node.left)}) == bool({_py_expr(node.right)}))"
    if isinstance(node, Xor):
        return f"(bool({_py_expr(node.left)}) != bool({_py_expr(node.right)}))"
    if isinstance(node, ExactlyOne):
        parts = ", ".join(f"bool({_py_expr(op)})" for op in node.operands)
        return f"(sum([{parts}]) == 1)"
    raise CompilationError(f"cannot compile node type {type(node).__name__}")


def _compile_check(
    residual: Optional[Sequence[Node]],
) -> Callable[[Dict[Category, str]], bool]:
    """The per-subhierarchy CHECK closure: generated Python source
    compiled once, evaluating the residual constraint conjunction
    directly against a name map (no AST walk at decision time)."""
    if residual is None:
        return lambda names: False
    if not residual:
        return lambda names: True
    body = " and ".join(f"({_py_expr(node)})" for node in residual)
    source = f"def _check(names):\n    return {body}\n"
    namespace: Dict[str, object] = {}
    exec(  # noqa: S102 - source is generated from our own AST
        compile(source, "<compiled-check>", "exec"),
        {"__builtins__": {}, "sum": sum, "bool": bool},
        namespace,
    )
    return namespace["_check"]  # type: ignore[return-value]


def _eval_reduced(node: Node, names: Dict[Category, str]) -> bool:
    """Interpreted evaluation of a reduced (equality-only) node; used to
    re-verify query residuals on decoded witnesses."""
    from repro.constraints.simplify import evaluate

    def atom_truth(atom: object) -> bool:
        if isinstance(atom, EqualityAtom):
            if atom.category == ALL:
                return atom.constant == TOP_MEMBER
            return names.get(atom.category) == atom.constant
        raise CompilationError(f"unexpected residual atom {atom!r}")

    return evaluate(node, atom_truth)


# ----------------------------------------------------------------------
# Per-root compilation: one incremental SAT instance per (schema, root)
# ----------------------------------------------------------------------


@dataclass
class _CompiledSubhierarchy:
    """One complete subhierarchy: its selector literal in the root's CNF
    and its generated CHECK closure."""

    sub: Subhierarchy
    selector: int
    check: Callable[[Dict[Category, str]], bool]


class _RootCompilation:
    """The compiled decision surface for one ``(schema, root)`` pair.

    The solver holds, permanently: the at-least-one clause over
    subhierarchy selectors, each subhierarchy's guarded SIGMA residual
    clauses, at-most-one clauses over each category's assignment
    variables, and every clause learned by past queries.  Queries add
    activation-guarded clauses and solve under one assumption.
    """

    def __init__(
        self, schema: DimensionSchema, root: Category, limit: int
    ) -> None:
        self.schema = schema
        self.root = root
        # One compiled root is shared by every thread deciding on its
        # schema (the decision server multiplexes clients over one
        # engine); queries mutate the incremental solver, so the whole
        # assume-solve-decode sequence is a critical section.
        self._lock = threading.Lock()
        self.solver = Solver()
        # A constant-true variable lets TRUE/FALSE fold into literals.
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._eq_vars: Dict[Tuple[Category, str], int] = {}
        self._by_category: Dict[Category, List[int]] = {}
        self._gates: Dict[Tuple[object, ...], int] = {}
        #: Hash-consed query node -> (activation literal, negated query).
        self._queries: Dict[Node, Tuple[int, Node]] = {}
        self.subs: List[_CompiledSubhierarchy] = []
        self._build(limit)

    # -- construction ---------------------------------------------------

    def _build(self, limit: int) -> None:
        cache = circle_cache()
        selectors: List[int] = []
        for sub in _complete_subhierarchies(self.schema, self.root, limit):
            selector = self.solver.new_var()
            residual = reduced_constraints(
                self.schema, self.root, sub, None, cache
            )
            if residual is None:
                # Some SIGMA constraint folded to FALSE: dead for the
                # whole implication family (it only adds constraints).
                self.solver.add_clause([-selector])
            else:
                for node in residual:
                    self.solver.add_clause([-selector, self._encode(node)])
            self.subs.append(
                _CompiledSubhierarchy(sub, selector, _compile_check(residual))
            )
            selectors.append(selector)
        # No complete subhierarchy at all makes the root unsatisfiable
        # outright; the empty clause records exactly that.
        self.solver.add_clause(selectors)

    def _eq_var(self, category: Category, constant: str) -> int:
        key = (category, constant)
        var = self._eq_vars.get(key)
        if var is None:
            var = self.solver.new_var()
            siblings = self._by_category.setdefault(category, [])
            # A member has one name: at most one equality var per
            # category holds (all false = the anonymous ``nk``).  New
            # constants from later queries slot in monotonically.
            for other in siblings:
                self.solver.add_clause([-var, -other])
            siblings.append(var)
            self._eq_vars[key] = var
        return var

    def _gate_or(self, literals: Iterable[int]) -> int:
        out: List[int] = []
        seen = set()
        for lit in literals:
            if lit == self._true:
                return self._true
            if lit == -self._true:
                continue
            if -lit in seen:
                return self._true
            if lit in seen:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            return -self._true
        if len(out) == 1:
            return out[0]
        key = ("or", tuple(sorted(out)))
        gate = self._gates.get(key)
        if gate is None:
            gate = self.solver.new_var()
            self.solver.add_clause([-gate] + out)
            for lit in out:
                self.solver.add_clause([gate, -lit])
            self._gates[key] = gate
        return gate

    def _gate_and(self, literals: Iterable[int]) -> int:
        return -self._gate_or([-lit for lit in literals])

    def _encode(self, node: Node) -> int:
        """Tseitin-encode one reduced constraint into a literal that is
        true exactly when the constraint holds (both polarities, so the
        encoding is sound under any surrounding negation)."""
        if node is TRUE or node == TRUE:
            return self._true
        if node is FALSE or node == FALSE:
            return -self._true
        if isinstance(node, EqualityAtom):
            if node.category == ALL:
                return (
                    self._true
                    if node.constant == TOP_MEMBER
                    else -self._true
                )
            return self._eq_var(node.category, node.constant)
        if isinstance(node, ComparisonAtom):
            raise CompilationError(
                "comparison atoms (numeric categories) are not compilable"
            )
        if isinstance(node, Not):
            return -self._encode(node.child)
        if isinstance(node, And):
            return self._gate_and([self._encode(op) for op in node.operands])
        if isinstance(node, Or):
            return self._gate_or([self._encode(op) for op in node.operands])
        if isinstance(node, Implies):
            return self._gate_or(
                [-self._encode(node.antecedent), self._encode(node.consequent)]
            )
        if isinstance(node, Iff):
            left = self._encode(node.left)
            right = self._encode(node.right)
            return self._gate_and(
                [self._gate_or([-left, right]), self._gate_or([left, -right])]
            )
        if isinstance(node, Xor):
            left = self._encode(node.left)
            right = self._encode(node.right)
            return -self._gate_and(
                [self._gate_or([-left, right]), self._gate_or([left, -right])]
            )
        if isinstance(node, ExactlyOne):
            lits = [self._encode(op) for op in node.operands]
            terms = [self._gate_or(lits)]
            for a, b in itertools.combinations(lits, 2):
                terms.append(self._gate_or([-a, -b]))
            return self._gate_and(terms)
        raise CompilationError(f"cannot encode node type {type(node).__name__}")

    # -- queries --------------------------------------------------------

    def assume_query(self, node: Node) -> Tuple[int, Node]:
        """Register ``NOT node`` with the solver (Theorem 2's extension)
        and return its activation literal.

        The clauses are guarded by a fresh activation variable, so they
        constrain nothing unless assumed - one solver serves the whole
        implication family, and clauses learned under one query remain
        sound for every other.  The memo keys on the node itself
        (frozen, hash-cached), so repeat queries cost one dict probe.
        """
        known = self._queries.get(node)
        if known is not None:
            return known
        for atom in node.atoms():
            if isinstance(atom, ComparisonAtom):
                raise CompilationError(
                    "query mentions comparison atoms; deciding interpreted"
                )
        negated = hash_cons(Not(node))
        activation = self.solver.new_var()
        cache = circle_cache()
        for compiled in self.subs:
            folded = cache.reduce(negated, compiled.sub)
            if folded is FALSE or folded == FALSE:
                self.solver.add_clause([-activation, -compiled.selector])
            elif folded is TRUE or folded == TRUE:
                continue
            else:
                self.solver.add_clause(
                    [-activation, -compiled.selector, self._encode(folded)]
                )
        self._queries[node] = (activation, negated)
        return activation, negated

    # -- solving --------------------------------------------------------

    def decide(
        self, query: Optional[Node] = None
    ) -> Tuple[bool, Optional[FrozenDimension]]:
        """Satisfiability of the root - plain (``query=None``) or in the
        schema extended with ``NOT query`` (the Theorem 2 test).

        A positive verdict is re-verified: the decoded witness must pass
        the selected subhierarchy's generated CHECK closure (and the
        reduced query, when present).  Verification failure raises
        :class:`CompilationError`, so a solver or encoding defect can
        only ever cost a fallback, never a wrong "satisfiable".
        """
        with self._lock:
            assumptions: List[int] = []
            negated: Optional[Node] = None
            if query is not None:
                activation, negated = self.assume_query(query)
                assumptions.append(activation)
            if not self.solver.solve(assumptions):
                return False, None
            witness = self._decode_witness(negated)
            return True, witness

    def _decode_witness(self, negated: Optional[Node]) -> FrozenDimension:
        model_value = self.solver.model_value
        selected: Optional[_CompiledSubhierarchy] = None
        for compiled in self.subs:
            if model_value(compiled.selector):
                selected = compiled
                break
        if selected is None:
            raise CompilationError("SAT model selects no subhierarchy")
        names = {
            category: constant
            for (category, constant), var in self._eq_vars.items()
            if model_value(var) and category in selected.sub.categories
        }
        if not selected.check(names):
            raise CompilationError(
                "decoded witness fails the compiled CHECK closure"
            )
        if negated is not None:
            folded = circle_cache().reduce(negated, selected.sub)
            if not _eval_reduced(folded, names):
                raise CompilationError(
                    "decoded witness fails the reduced query constraint"
                )
        return FrozenDimension(selected.sub, names)

    # -- introspection --------------------------------------------------

    def describe(self) -> Dict[str, int]:
        return {
            "subhierarchies": len(self.subs),
            "variables": self.solver.num_vars,
            "clauses": self.solver.num_clauses,
            "learned_clauses": self.solver.num_learned,
            "queries": len(self._queries),
            "conflicts": self.solver.stats.conflicts,
        }


# ----------------------------------------------------------------------
# The per-schema artifact and its process-wide store
# ----------------------------------------------------------------------


class CompiledArtifact:
    """Everything compiled for one schema fingerprint.

    Roots compile lazily on first use (a navigator may only ever decide
    over a few bottom categories) and stay resident - with their solvers
    and learned clauses - for the lifetime of the artifact.
    """

    def __init__(
        self,
        schema: DimensionSchema,
        max_subhierarchies: int = DEFAULT_MAX_SUBHIERARCHIES,
    ) -> None:
        for category in schema.hierarchy.categories:
            if schema.is_numeric(category):
                raise CompilationError(
                    f"category {category!r} carries order predicates; "
                    "numeric domains are decided by the interpreted kernel"
                )
        self.schema = schema
        self.fingerprint = schema.fingerprint()
        self.max_subhierarchies = max_subhierarchies
        self._roots: Dict[Category, _RootCompilation] = {}
        self._lock = threading.Lock()

    def root(self, category: Category) -> _RootCompilation:
        """The compiled surface for one root, building it on first use."""
        with self._lock:
            compiled = self._roots.get(category)
            if compiled is None:
                with TRACER.span(
                    "compile.root", root=category, fingerprint=self.fingerprint
                ) as span:
                    compiled = _RootCompilation(
                        self.schema, category, self.max_subhierarchies
                    )
                    span.set(
                        subhierarchies=len(compiled.subs),
                        variables=compiled.solver.num_vars,
                        clauses=compiled.solver.num_clauses,
                    )
                self._roots[category] = compiled
            return compiled

    def compile_all_roots(self) -> Dict[Category, Dict[str, int]]:
        """Eagerly compile every category (the CLI ``compile`` command);
        returns per-root artifact statistics."""
        report: Dict[Category, Dict[str, int]] = {}
        for category in sorted(self.schema.hierarchy.categories):
            if category == ALL:
                continue
            report[category] = self.root(category).describe()
        return report

    def describe(self) -> Dict[str, object]:
        roots = {root: rc.describe() for root, rc in sorted(self._roots.items())}
        return {
            "fingerprint": self.fingerprint,
            "roots_compiled": len(roots),
            "learned_clauses": sum(r["learned_clauses"] for r in roots.values()),
            "roots": roots,
        }


@dataclass
class ArtifactStoreStats:
    """Counters for the process-wide artifact store (``--cache-stats``
    and the telemetry operator report surface these)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    compile_failures: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "compile_failures": self.compile_failures,
        }


class CompiledArtifactStore:
    """Fingerprint-keyed registry of compiled artifacts.

    Failures are cached too (as their reason string): a schema the
    compiler rejects once is rejected cheaply forever - the engine's
    fallback path does the actual deciding.  ``SchemaEditor`` mutations
    call :meth:`invalidate`, mirroring the decision-cache hygiene;
    correctness never depends on it because an edited schema has a new
    fingerprint.
    """

    def __init__(
        self,
        max_entries: int = 64,
        max_subhierarchies: int = DEFAULT_MAX_SUBHIERARCHIES,
    ) -> None:
        self.max_entries = max_entries
        self.max_subhierarchies = max_subhierarchies
        self.stats = ArtifactStoreStats()
        self._lock = threading.Lock()
        self._artifacts: Dict[str, object] = {}

    def get(self, schema: DimensionSchema) -> CompiledArtifact:
        """The artifact for this schema, compiling on first sight."""
        fingerprint = schema.fingerprint()
        with self._lock:
            entry = self._artifacts.get(fingerprint)
            if entry is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if entry is not None:
            _M_ARTIFACT_HITS.inc()
            if isinstance(entry, str):
                raise CompilationError(entry)
            return entry  # type: ignore[return-value]
        _M_ARTIFACT_MISSES.inc()
        try:
            with TRACER.span("compile.schema", fingerprint=fingerprint):
                artifact: object = CompiledArtifact(
                    schema, self.max_subhierarchies
                )
        except CompilationError as error:
            with self._lock:
                self.stats.compile_failures += 1
                self._store(fingerprint, str(error))
            _M_COMPILE_FAILURES.inc()
            raise
        with self._lock:
            self._store(fingerprint, artifact)
        return artifact  # type: ignore[return-value]

    def _store(self, fingerprint: str, entry: object) -> None:
        if fingerprint not in self._artifacts:
            if len(self._artifacts) >= self.max_entries:
                self._artifacts.pop(next(iter(self._artifacts)))
            self._artifacts[fingerprint] = entry

    def invalidate(self, schema_or_fingerprint: object) -> int:
        """Drop the artifact (or cached failure) for one schema version;
        returns the number of entries removed."""
        fingerprint = (
            schema_or_fingerprint
            if isinstance(schema_or_fingerprint, str)
            else schema_or_fingerprint.fingerprint()  # type: ignore[union-attr]
        )
        with self._lock:
            dropped = 1 if self._artifacts.pop(fingerprint, None) is not None else 0
            self.stats.invalidations += dropped
        if dropped:
            _M_ARTIFACT_INVALIDATIONS.inc(dropped)
            if TRACER.enabled:
                TRACER.event(
                    "compiled.invalidate", fingerprint=fingerprint
                )
        return dropped

    def holds(self, fingerprint: str) -> bool:
        """Whether an artifact (or cached failure) exists for
        ``fingerprint``."""
        with self._lock:
            return fingerprint in self._artifacts

    def clear(self) -> None:
        with self._lock:
            self._artifacts.clear()
            self.stats = ArtifactStoreStats()

    def __len__(self) -> int:
        return len(self._artifacts)

    def report_lines(self) -> List[str]:
        """The ``--cache-stats`` block for the artifact store."""
        return [
            "compiled artifacts:",
            f"  entries        {len(self)}",
            f"  hits           {self.stats.hits}",
            f"  misses         {self.stats.misses}",
            f"  invalidations  {self.stats.invalidations}",
            f"  compile fails  {self.stats.compile_failures}",
        ]


_ARTIFACT_STORE = CompiledArtifactStore()


def compiled_artifact_store() -> CompiledArtifactStore:
    """The process-wide artifact store (shared by every
    :class:`CompiledDecisionEngine` unless one is injected)."""
    return _ARTIFACT_STORE


# ----------------------------------------------------------------------
# The engine rung
# ----------------------------------------------------------------------


@dataclass
class CompiledEngineStats:
    """Work counters for one :class:`CompiledDecisionEngine`."""

    compiled_decisions: int = 0
    fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "compiled_decisions": self.compiled_decisions,
            "fallbacks": self.fallbacks,
        }


class CompiledDecisionEngine(DecisionEngine):
    """The compiled rung of the decision stack.

    A :class:`~repro.core.engine.DecisionEngine` whose cold verdicts come
    from the compiled artifact: the navigator and view selection batch
    through the inherited :meth:`decide_many_outcomes`, and
    :class:`~repro.core.resilience.ResilientDecisionEngine` can wrap it
    as its primary rung (compile failures then ride the existing
    degradation ladder).  Verdicts memoize through the shared
    :class:`~repro.core.decisioncache.DecisionCache` under the *same
    keys* as the sequential engine - the compiled tier changes where
    cold verdicts come from, never what they are.

    The compiled tier always decides under default
    :class:`~repro.core.dimsat.DimsatOptions` (``options`` is pinned to
    ``None``), which also keeps its audit records replayable by
    ``repro-olap audit-verify``.
    """

    def __init__(
        self,
        cache: object = USE_DEFAULT_CACHE,
        budget: Optional[DecisionBudget] = None,
        store: Optional[CompiledArtifactStore] = None,
    ) -> None:
        super().__init__(budget=budget, cache=cache)
        self.store = store if store is not None else compiled_artifact_store()
        self.stats = CompiledEngineStats()
        self._lock = threading.Lock()

    def _note_fallback(self, kind: str, error: CompilationError) -> None:
        with self._lock:
            self.stats.fallbacks += 1
        _M_FALLBACKS.inc()
        if TRACER.enabled:
            TRACER.event("compiled.fallback", kind=kind, reason=str(error))

    # -- the three decision procedures ----------------------------------

    def dimsat(
        self, schema: DimensionSchema, category: Category
    ) -> DimsatResult:
        """Category satisfiability through the compiled artifact."""
        if not schema.hierarchy.has_category(category):
            raise SchemaError(f"unknown category {category!r}")
        if category == ALL:
            return _trivial_all_result(DimsatOptions())
        key = ("dimsat", category, self._options_key)
        return self._memoized(  # type: ignore[return-value]
            schema, key, lambda: self._dimsat_uncached(schema, category)
        )

    def _dimsat_uncached(
        self, schema: DimensionSchema, category: Category
    ) -> DimsatResult:
        try:
            root = self.store.get(schema).root(category)
            with TRACER.span(
                "compiled.decide", kind="dimsat", category=category
            ) as span:
                satisfiable, witness = root.decide()
                span.set(satisfiable=satisfiable)
        except CompilationError as error:
            self._note_fallback("dimsat", error)
            return run_dimsat(schema, category, None, self.fresh_budget())
        # Advisory hot-path counter: a plain increment (GIL-coalesced)
        # instead of a lock round-trip on every served decision.
        self.stats.compiled_decisions += 1
        _M_DECISIONS.inc()
        return DimsatResult(
            satisfiable=satisfiable, witness=witness, stats=DimsatStats()
        )

    def implies(
        self, schema: DimensionSchema, constraint: object
    ) -> ImplicationResult:
        """Theorem 2 through the artifact: assume the query's activation
        literal over the root's persistent solver."""
        node: Node = (
            parse(constraint) if isinstance(constraint, str) else constraint  # type: ignore[assignment]
        )
        root_category = validate_constraint(schema.hierarchy, node)
        if self.cache is None and not AUDIT.enabled:
            # Nothing will consume the memo key; skip serializing it.
            return self._implies_uncached(schema, node, root_category)
        key = ("implies", unparse(node), self._options_key)
        return self._memoized(  # type: ignore[return-value]
            schema,
            key,
            lambda: self._implies_uncached(schema, node, root_category),
        )

    def _implies_uncached(
        self,
        schema: DimensionSchema,
        node: Node,
        root_category: Optional[Category] = None,
    ) -> ImplicationResult:
        if root_category is None:
            root_category = validate_constraint(schema.hierarchy, node)
        try:
            root = self.store.get(schema).root(root_category)
            with TRACER.span(
                "compiled.decide", kind="implies", root=root_category
            ) as span:
                satisfiable, witness = root.decide(query=node)
                span.set(implied=not satisfiable)
        except CompilationError as error:
            self._note_fallback("implies", error)
            return run_implies(
                schema, node, None, cache=None, budget=self.fresh_budget()
            )
        # Advisory hot-path counter: a plain increment (GIL-coalesced)
        # instead of a lock round-trip on every served decision.
        self.stats.compiled_decisions += 1
        _M_DECISIONS.inc()
        return ImplicationResult(
            implied=not satisfiable,
            counterexample=witness,
            dimsat_result=DimsatResult(
                satisfiable=satisfiable, witness=witness, stats=DimsatStats()
            ),
        )

    def is_summarizable(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Iterable[Category],
    ) -> bool:
        """Theorem 1: one compiled implication test per bottom category.

        All bottoms share the artifact, so the per-bottom tests reuse
        each other's learned clauses within each root solver, and
        repeated source sets hit the registered-query memo outright.
        """
        from repro.core.summarizability import _check_categories

        source_key = tuple(sorted(set(sources)))
        _check_categories(schema.hierarchy, target, source_key)
        key = ("summarizable", target, source_key, self._options_key)
        return self._memoized(  # type: ignore[return-value]
            schema,
            key,
            lambda: self._summarizable_uncached(schema, target, source_key),
        )

    def _summarizable_uncached(
        self,
        schema: DimensionSchema,
        target: Category,
        sources: Tuple[Category, ...],
    ) -> bool:
        from repro.core.summarizability import summarizability_constraints

        with TRACER.span(
            "compiled.decide", kind="summarizable", target=target
        ) as span:
            for bottom, node in summarizability_constraints(
                schema.hierarchy, target, sources
            ):
                if bottom == ALL:
                    continue
                # The generated constraint is rooted at its bottom, so
                # re-validation (and its hierarchy walk) is redundant.
                if not self._implies_uncached(schema, node, bottom).implied:
                    span.set(summarizable=False)
                    return False
            span.set(summarizable=True)
        return True


def resolve_engine(engine: object, cache: object = USE_DEFAULT_CACHE) -> object:
    """Resolve the ``engine=`` argument the OLAP layers accept.

    The string ``"compiled"`` becomes a :class:`CompiledDecisionEngine`
    over the given cache; any other value (an engine object or ``None``)
    passes through unchanged.
    """
    if engine == "compiled":
        return CompiledDecisionEngine(cache=cache)
    return engine
