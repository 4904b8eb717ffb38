"""Tests for the compiled decision tier (artifact, store, engine).

Correctness anchors:

* verdict parity with the sequential kernel on every suite schema (the
  hot schemas the compiled tier exists for);
* witnesses materialize into valid, SIGMA-satisfying instances (the
  generated CHECK closures agree with the real semantics);
* compile failures (numeric categories, comparison-atom queries) fall
  back to the interpreted kernel, never a wrong or missing verdict;
* the engine's cache keys and audit records are byte-compatible with the
  sequential path, so ``audit-verify`` can replay a compiled run.
"""

from __future__ import annotations

import pytest

from repro.constraints import satisfies_all
from repro.constraints.ast import Not
from repro.constraints.parser import parse
from repro.core import (
    ALL,
    CompilationError,
    CompiledArtifactStore,
    CompiledDecisionEngine,
    ResilientDecisionEngine,
    compiled_artifact_store,
    dimsat,
    implies,
    is_summarizable_in_schema,
    resolve_engine,
)
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import DimsatOptions
from repro.errors import SchemaError
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from repro.generators.suite import suite_schemas


@pytest.fixture()
def engine():
    """A compiled engine with a private store and no decision cache, so
    every test decision really exercises the artifact."""
    return CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())


@pytest.fixture(scope="module")
def schemas():
    return suite_schemas()


class TestVerdictParity:
    def test_dimsat_matches_sequential_on_suite(self, engine, schemas):
        for name, schema in schemas.items():
            for category in sorted(schema.hierarchy.categories):
                assert (
                    engine.dimsat(schema, category).satisfiable
                    == dimsat(schema, category).satisfiable
                ), (name, category)
        assert engine.stats.fallbacks == 0

    def test_implies_matches_sequential_on_suite(self, engine, schemas):
        for name, schema in schemas.items():
            for node in schema.constraints:
                assert (
                    engine.implies(schema, node).implied
                    == implies(schema, node).implied
                ), (name, node)
        assert engine.stats.fallbacks == 0

    def test_summarizable_matches_sequential(self, engine, schemas):
        schema = schemas["retail"]
        categories = sorted(schema.hierarchy.categories - {ALL})
        for target in categories:
            for source in categories:
                assert engine.is_summarizable(
                    schema, target, [source]
                ) == is_summarizable_in_schema(
                    schema, target, [source], cache=None
                ), (target, source)

    def test_textual_constraint_accepted(self, engine, schemas):
        schema = schemas["retail"]
        node = schema.constraints[0]
        from repro.constraints.printer import unparse

        text = unparse(node)
        assert engine.implies(schema, text).implied == implies(schema, text).implied


class TestWitnesses:
    def test_dimsat_witness_materializes(self, engine, schemas):
        for name, schema in schemas.items():
            for category in sorted(schema.hierarchy.categories - {ALL}):
                result = engine.dimsat(schema, category)
                if not result.satisfiable:
                    continue
                assert result.witness is not None
                assert result.witness.root == category
                instance = result.witness.to_instance(schema)
                assert instance.is_valid(), (name, category)
                assert satisfies_all(instance, schema.constraints), (name, category)

    def test_implication_counterexample_violates_query(self, engine, schemas):
        """A refuted implication's counterexample satisfies SIGMA but not
        the query (Theorem 2's witness contract)."""
        schema = schemas["retail"]
        query = parse("Store -> SaleRegion")
        result = engine.implies(schema, query)
        sequential = implies(schema, query)
        assert result.implied == sequential.implied
        assert not result.implied, "expected a refutable query for this test"
        instance = result.counterexample.to_instance(schema)
        assert instance.is_valid()
        assert satisfies_all(instance, schema.constraints)
        assert not satisfies_all(instance, [query])


class TestDegradation:
    def test_numeric_schema_falls_back(self):
        config = RandomSchemaConfig(
            n_categories=5,
            numeric_fraction=1.0,
            attributed_fraction=1.0,
            equality_constraint_prob=1.0,
            seed=7,
        )
        schema = random_schema(config)
        engine = CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
        for category in sorted(schema.hierarchy.categories):
            assert (
                engine.dimsat(schema, category).satisfiable
                == dimsat(schema, category).satisfiable
            )
        assert engine.stats.fallbacks > 0
        assert engine.store.stats.compile_failures >= 1

    def test_failure_is_cached(self):
        config = RandomSchemaConfig(
            n_categories=4, numeric_fraction=1.0, attributed_fraction=1.0, seed=3
        )
        schema = random_schema(config)
        store = CompiledArtifactStore()
        with pytest.raises(CompilationError):
            store.get(schema)
        assert store.stats.compile_failures == 1
        with pytest.raises(CompilationError):
            store.get(schema)
        # Second rejection is a cache hit, not a re-compilation attempt.
        assert store.stats.compile_failures == 1
        assert store.stats.hits == 1

    def test_subhierarchy_limit_falls_back(self, schemas):
        schema = schemas["retail"]
        store = CompiledArtifactStore(max_subhierarchies=1)
        engine = CompiledDecisionEngine(cache=None, store=store)
        for category in sorted(schema.hierarchy.categories):
            assert (
                engine.dimsat(schema, category).satisfiable
                == dimsat(schema, category).satisfiable
            )

    def test_unknown_category_raises(self, engine, schemas):
        with pytest.raises(SchemaError):
            engine.dimsat(schemas["retail"], "Nope")

    def test_all_category_is_trivial(self, engine, schemas):
        result = engine.dimsat(schemas["retail"], ALL)
        assert result.satisfiable
        assert result.witness.root == ALL


class TestArtifactStore:
    def test_hit_miss_counters(self, schemas):
        store = CompiledArtifactStore()
        schema = schemas["time"]
        store.get(schema)
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        store.get(schema)
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_invalidate_drops_artifact(self, schemas):
        store = CompiledArtifactStore()
        schema = schemas["time"]
        store.get(schema)
        assert len(store) == 1
        assert store.invalidate(schema) == 1
        assert len(store) == 0
        assert store.stats.invalidations == 1
        # Idempotent on a missing fingerprint.
        assert store.invalidate(schema) == 0
        assert store.stats.invalidations == 1

    def test_invalidate_accepts_fingerprint(self, schemas):
        store = CompiledArtifactStore()
        schema = schemas["time"]
        store.get(schema)
        assert store.invalidate(schema.fingerprint()) == 1

    def test_bounded_entries(self, schemas):
        store = CompiledArtifactStore(max_entries=2)
        for schema in list(schemas.values())[:3]:
            store.get(schema)
        assert len(store) == 2

    def test_report_lines(self, schemas):
        store = CompiledArtifactStore()
        store.get(schemas["time"])
        text = "\n".join(store.report_lines())
        assert "compiled artifacts:" in text
        assert "misses         1" in text

    def test_learned_clause_state_is_reused(self, schemas):
        """The same engine deciding the whole implication family of one
        schema funnels every query into one persistent per-root solver."""
        schema = schemas["retail"]
        store = CompiledArtifactStore()
        engine = CompiledDecisionEngine(cache=None, store=store)
        for node in schema.constraints:
            engine.implies(schema, node)
        artifact = store.get(schema)
        description = artifact.describe()
        assert description["roots_compiled"] >= 1
        total_queries = sum(
            root["queries"] for root in description["roots"].values()
        )
        assert total_queries >= 1

    def test_default_store_is_process_wide(self):
        assert compiled_artifact_store() is compiled_artifact_store()


class TestEngineIntegration:
    def test_decide_many_alignment(self, engine, schemas):
        schema = schemas["retail"]
        categories = sorted(schema.hierarchy.categories - {ALL})
        requests = [(schema, ("dimsat", c)) for c in categories]
        doubled = requests + list(reversed(requests))
        expected = [dimsat(schema, c).satisfiable for c in categories]
        assert engine.decide_many(doubled) == expected + list(reversed(expected))

    def test_decide_many_raises_schema_error(self, engine, schemas):
        schema = schemas["retail"]
        with pytest.raises(SchemaError):
            engine.decide_many(
                [(schema, ("dimsat", "Store")), (schema, ("dimsat", "Nope"))]
            )

    def test_shares_decision_cache_keys_with_sequential(self, schemas):
        """A verdict cached by the sequential path is served to the
        compiled engine and vice versa - the tier changes the computation,
        not the cache identity."""
        from repro.core import is_category_satisfiable

        schema = schemas["time"]
        cache = DecisionCache()
        sequential = is_category_satisfiable(schema, "Day", cache=cache)
        engine = CompiledDecisionEngine(cache=cache, store=CompiledArtifactStore())
        hits_before = cache.stats.hits
        compiled = engine.dimsat(schema, "Day")
        assert cache.stats.hits == hits_before + 1
        assert compiled.satisfiable == sequential
        # No artifact was ever needed for the warm decision.
        assert engine.store.stats.misses == 0

    def test_resilient_wrapping(self, schemas):
        schema = schemas["retail"]
        engine = ResilientDecisionEngine(
            CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
        )
        assert (
            engine.dimsat(schema, "Store").satisfiable
            == dimsat(schema, "Store").satisfiable
        )
        outcomes = engine.decide_many_outcomes(
            [(schema, ("dimsat", "Store")), (schema, ("dimsat", "City"))]
        )
        assert [o.verdict for o in outcomes] == [
            dimsat(schema, "Store").satisfiable,
            dimsat(schema, "City").satisfiable,
        ]

    def test_resolve_engine_strings(self):
        assert isinstance(resolve_engine("compiled"), CompiledDecisionEngine)
        assert resolve_engine(None) is None
        sentinel = object()
        assert resolve_engine(sentinel) is sentinel

    def test_audit_records_are_replayable(self, schemas, tmp_path):
        """Compiled verdicts audit with empty options keys, so
        ``verify_audit_log`` replays them against the sequential kernel
        with zero divergences."""
        import json

        from repro.core.auditlog import AUDIT, verify_audit_log
        from repro.io.json_io import schema_to_json

        class CollectingSink:
            def __init__(self):
                self.records = []
                self.schemas = []

            def export_audit(self, record):
                self.records.append(record)

            def export_schema(self, fingerprint, schema_json):
                self.schemas.append((fingerprint, schema_json))

        schema = schemas["time"]
        sink = CollectingSink()
        AUDIT.attach(sink)
        try:
            engine = CompiledDecisionEngine(
                cache=None, store=CompiledArtifactStore()
            )
            for category in sorted(schema.hierarchy.categories - {ALL}):
                engine.dimsat(schema, category)
            engine.implies(schema, schema.constraints[0])
        finally:
            AUDIT.detach()
        assert sink.records
        assert all(record["options"] == [] for record in sink.records)
        (tmp_path / "audit.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in sink.records)
        )
        (tmp_path / "schemas.jsonl").write_text(
            json.dumps(
                {
                    "fingerprint": schema.fingerprint(),
                    "schema_json": schema_to_json(schema),
                }
            )
            + "\n"
        )
        report = verify_audit_log(str(tmp_path))
        assert report.ok
        assert report.divergences == []
        assert report.verified == len(sink.records)

    def test_options_pinned_to_none(self, engine):
        assert engine.options is None


class TestNavigatorViewselect:
    def test_navigator_accepts_compiled_string(self, schemas):
        from repro.core.instance import DimensionInstance
        from repro.olap.facttable import FactTable
        from repro.olap.navigator import AggregateNavigator
        from repro.generators.location import location_instance

        instance = location_instance()
        facts = FactTable(
            instance,
            [(m, {"amount": 1.0}) for m in instance.members("Store")],
        )
        navigator = AggregateNavigator(
            facts, schema=schemas["retail"], cache=None, engine="compiled"
        )
        assert isinstance(navigator.engine, CompiledDecisionEngine)

    def test_viewselect_accepts_compiled_string(self, schemas):
        from repro.olap.viewselect import ViewSelectionProblem, evaluate_selection

        schema = schemas["retail"]
        problem = ViewSelectionProblem(
            schema=schema,
            targets={"SaleRegion": 1.0, "Country": 1.0},
            view_sizes={"Store": 100, "City": 20, "SaleRegion": 5, "Country": 3},
            base_size=100,
        )
        with_engine = evaluate_selection(
            problem, {"City"}, cache=None, engine="compiled"
        )
        without = evaluate_selection(problem, {"City"}, cache=None)
        assert with_engine.answerable == without.answerable
        assert with_engine.query_cost == without.query_cost
