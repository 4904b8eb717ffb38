"""Aggregate navigator tests: plan selection, correctness of rewrites,
cost accounting, and the rewrites-only mode."""

from __future__ import annotations

import pytest

from repro.errors import NavigationError
from repro.olap import SUM, AggregateNavigator, FactTable, cube_view, views_equal

ROWS = [
    ("s1", {"sales": 10.0}),
    ("s2", {"sales": 7.0}),
    ("s3", {"sales": 4.0}),
    ("s4", {"sales": 9.0}),
    ("s5", {"sales": 2.0}),
    ("s6", {"sales": 1.0}),
]


@pytest.fixture()
def facts(loc_instance):
    return FactTable(loc_instance, ROWS)


@pytest.fixture()
def navigator(facts, loc_schema):
    return AggregateNavigator(facts, schema=loc_schema)


class TestPlans:
    def test_materialized_hit(self, navigator):
        navigator.materialize("Country", SUM, "sales")
        view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "materialized"
        assert plan.cost == 0
        assert navigator.stats.materialized_hits == 1

    def test_rewrite_from_city(self, navigator, facts):
        navigator.materialize("City", SUM, "sales")
        view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"
        assert plan.sources == ("City",)
        direct = cube_view(facts, "Country", SUM, "sales")
        assert views_equal(view, direct)

    def test_unsafe_views_not_used(self, navigator, facts):
        navigator.materialize("State", SUM, "sales")
        navigator.materialize("Province", SUM, "sales")
        view, plan = navigator.answer("Country", SUM, "sales")
        # {State, Province} is not summarizable: must fall back to a scan.
        assert plan.kind == "base-scan"
        direct = cube_view(facts, "Country", SUM, "sales")
        assert views_equal(view, direct)

    def test_cheapest_correct_rewrite_preferred(self, navigator):
        navigator.materialize("City", SUM, "sales")       # 6 cells
        navigator.materialize("SaleRegion", SUM, "sales") # 3 cells
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"
        assert plan.sources == ("SaleRegion",)

    def test_base_scan_when_nothing_materialized(self, navigator):
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "base-scan"
        assert navigator.stats.base_scans == 1

    def test_rewrites_only_raises(self, facts, loc_schema):
        navigator = AggregateNavigator(facts, schema=loc_schema, rewrites_only=True)
        with pytest.raises(NavigationError):
            navigator.answer("Country", SUM, "sales")

    def test_drop_forgets_view(self, navigator):
        navigator.materialize("City", SUM, "sales")
        navigator.drop("City", SUM, "sales")
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "base-scan"


class TestInstanceLevelNavigation:
    def test_instance_mode_allows_instance_safe_rewrites(self, facts):
        # Without a schema, the navigator trusts the current instance; in
        # the figure every store reaches Country through a sale region.
        navigator = AggregateNavigator(facts, schema=None)
        navigator.materialize("SaleRegion", SUM, "sales")
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"


class TestResilientEngine:
    def test_unknown_degrades_to_base_scan_then_recovers(self, facts, loc_schema):
        from repro.core.decisioncache import DecisionCache
        from repro.core.faults import inject_faults
        from repro.core.resilience import ResilientDecisionEngine, RetryPolicy

        engine = ResilientDecisionEngine(
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0),
            cache=DecisionCache(),
        )
        try:
            navigator = AggregateNavigator(
                facts, schema=loc_schema, engine=engine
            )
            navigator.materialize("City", SUM, "sales")
            # Every summarizability probe degrades to UNKNOWN: the
            # navigator must fall back to the always-correct base scan
            # rather than guess or crash.
            with inject_faults("worker-crash:p=1.0;seed=3"):
                view, plan = navigator.answer("Country", SUM, "sales")
            assert plan.kind == "base-scan"
            assert navigator.stats.unknown_verdicts > 0
            assert views_equal(view, cube_view(facts, "Country", SUM, "sales"))
            # The abstention was not cached: the next healthy query
            # proves City -> Country summarizable and rewrites.
            _view, plan = navigator.answer("Country", SUM, "sales")
            assert plan.kind == "rewritten"
        finally:
            engine.shutdown()


class TestStats:
    def test_counters_accumulate(self, navigator):
        navigator.materialize("City", SUM, "sales")
        navigator.answer("Country", SUM, "sales")
        navigator.answer("Province", SUM, "sales")
        stats = navigator.stats
        assert stats.queries == 2
        assert stats.rewrites >= 1
        assert stats.rows_read > 0

    def test_summarizability_checks_cached(self, navigator):
        navigator.materialize("City", SUM, "sales")
        navigator.answer("Country", SUM, "sales")
        first = navigator.stats.summarizability_checks
        navigator.drop("Country", SUM, "sales")
        navigator.answer("Country", SUM, "sales")
        assert navigator.stats.summarizability_checks == first

    def test_materialized_categories_filtered(self, navigator):
        from repro.olap import COUNT

        navigator.materialize("City", SUM, "sales")
        navigator.materialize("City", COUNT, "sales")
        assert navigator.materialized_categories(SUM, "sales") == ["City"]
