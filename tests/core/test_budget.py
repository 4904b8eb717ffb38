"""Budget exhaustion semantics.

The contract under test: a blown budget raises the typed
:class:`~repro.errors.BudgetExceeded` - it never produces a wrong verdict
- and an aborted decision leaves every cache verdict-clean, so re-asking
without (or with a larger) budget returns the correct answer.
"""

from __future__ import annotations

import pytest

from repro.core.budget import DecisionBudget
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import DimsatOptions, SearchBudgetExceeded, dimsat
from repro.core.implication import implies, is_category_satisfiable, is_implied
from repro.core.engine import DecisionEngine
from repro.core.summarizability import is_summarizable_in_schema
from repro.errors import BudgetExceeded, ReproError, SchemaError
from repro.generators.location import location_schema


@pytest.fixture()
def schema():
    return location_schema()


class TestDecisionBudget:
    def test_zero_node_budget_raises_on_first_charge(self):
        budget = DecisionBudget(max_nodes=0)
        with pytest.raises(BudgetExceeded):
            budget.charge()

    def test_node_ceiling_counts_across_charges(self):
        budget = DecisionBudget(max_nodes=3)
        budget.charge()
        budget.charge(2)
        with pytest.raises(BudgetExceeded):
            budget.charge()
        assert budget.nodes_charged == 4

    def test_expired_deadline_raises(self):
        budget = DecisionBudget(time_ms=0.0)
        with pytest.raises(BudgetExceeded):
            budget.charge()

    def test_unbounded_budget_never_raises(self):
        budget = DecisionBudget()
        for _ in range(1000):
            budget.charge()
        assert budget.nodes_charged == 1000

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            DecisionBudget(max_nodes=-1)
        with pytest.raises(ValueError):
            DecisionBudget(time_ms=-1.0)

    def test_fresh_copies_ceilings_not_state(self):
        budget = DecisionBudget(max_nodes=5, time_ms=60_000.0)
        budget.charge(5)
        copy = budget.fresh()
        assert copy.max_nodes == 5 and copy.time_ms == 60_000.0
        assert copy.nodes_charged == 0
        copy.charge(5)


class TestKernelBudgets:
    """Budgets threaded through the sequential decision procedures."""

    def test_dimsat_zero_budget_raises_never_wrong(self, schema):
        with pytest.raises(BudgetExceeded):
            dimsat(schema, "Store", budget=DecisionBudget(max_nodes=0))

    def test_implication_zero_budget_raises(self, schema):
        with pytest.raises(BudgetExceeded):
            implies(
                schema,
                "Store.City.Country",
                cache=None,
                budget=DecisionBudget(max_nodes=0),
            )

    def test_summarizability_zero_budget_raises(self, schema):
        with pytest.raises(BudgetExceeded):
            is_summarizable_in_schema(
                schema,
                "Country",
                ["City"],
                cache=None,
                budget=DecisionBudget(max_nodes=0),
            )

    def test_budget_exceeded_is_typed_and_catchable(self, schema):
        try:
            dimsat(schema, "Store", budget=DecisionBudget(max_nodes=0))
        except BudgetExceeded as error:
            assert isinstance(error, ReproError)
        else:  # pragma: no cover
            pytest.fail("expected BudgetExceeded")

    def test_generous_budget_changes_nothing(self, schema):
        generous = DecisionBudget(max_nodes=1_000_000, time_ms=60_000.0)
        assert dimsat(schema, "Store", budget=generous).satisfiable
        assert is_implied(schema, "Store.City.Country", cache=None, budget=generous.fresh())
        assert is_summarizable_in_schema(
            schema, "Country", ["City"], cache=None, budget=generous.fresh()
        )

    def test_max_expansions_is_budget_exceeded(self, schema):
        """The legacy options-level ceiling raises the same typed error."""
        with pytest.raises(BudgetExceeded):
            dimsat(schema, "Store", DimsatOptions(max_expansions=0))
        assert issubclass(SearchBudgetExceeded, BudgetExceeded)
        assert issubclass(SearchBudgetExceeded, SchemaError)


class TestCachesStayVerdictClean:
    """An aborted decision must not leave a wrong (or any) cache entry."""

    def test_aborted_dimsat_not_cached(self, schema):
        cache = DecisionCache()
        with pytest.raises(BudgetExceeded):
            cache.dimsat(schema, "Store", budget=DecisionBudget(max_nodes=0))
        assert len(cache) == 0
        # Re-query without a budget: correct verdict, computed fresh.
        assert cache.dimsat(schema, "Store").satisfiable
        assert cache.stats.misses == 2  # the abort counted as a miss too
        assert cache.stats.hits == 0

    def test_aborted_implication_then_correct_verdict(self, schema):
        cache = DecisionCache()
        with pytest.raises(BudgetExceeded):
            cache.is_implied(
                schema, "Store.City.Country", budget=DecisionBudget(max_nodes=0)
            )
        assert cache.is_implied(schema, "Store.City.Country") is True

    def test_aborted_summarizability_then_correct_verdict(self, schema):
        cache = DecisionCache()
        with pytest.raises(BudgetExceeded):
            cache.is_summarizable(
                schema, "Country", ["City"], budget=DecisionBudget(max_nodes=0)
            )
        assert cache.is_summarizable(schema, "Country", ["City"]) is True
        assert cache.is_summarizable(schema, "Country", ["State", "Province"]) is False

    def test_engine_abort_leaves_cache_clean(self, schema):
        """A budget abort inside the engine must leave the shared cache
        verdict-clean."""
        cache = DecisionCache()
        engine = DecisionEngine(budget=DecisionBudget(max_nodes=0), cache=cache)
        with pytest.raises(BudgetExceeded):
            engine.is_satisfiable(schema, "Store")
        with pytest.raises(BudgetExceeded):
            engine.is_summarizable(schema, "Country", ["City"])
        assert len(cache) == 0
        engine = DecisionEngine(cache=cache)
        assert engine.is_satisfiable(schema, "Store") is True
        assert engine.is_summarizable(schema, "Country", ["City"]) is True

    def test_engine_batch_budget_abort_propagates(self, schema):
        cache = DecisionCache()
        engine = DecisionEngine(budget=DecisionBudget(max_nodes=0), cache=cache)
        with pytest.raises(BudgetExceeded):
            engine.decide_many(
                [(schema, ("dimsat", "Store")), (schema, ("dimsat", "City"))]
            )
        assert len(cache) == 0
