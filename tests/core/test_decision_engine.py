"""Unit tests for the sequential :class:`~repro.core.engine.DecisionEngine`.

The differential harness (:mod:`tests.test_differential`) covers verdict
agreement on random schemas; this file pins down the engine's mechanics -
request normalization, batch dedup and alignment, the cache across
batches, witness validity, and that a decision's work counters are the
kernel's.
"""

from __future__ import annotations

import pytest

from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.engine import DecisionEngine, normalize_request
from repro.errors import ReproError, SchemaError
from repro.generators.location import location_schema
from repro.generators.random_schema import make_unsatisfiable


@pytest.fixture()
def schema():
    return location_schema()


class TestNormalizeRequest:
    def test_dimsat(self):
        assert normalize_request(("dimsat", "Store")) == ("dimsat", "Store")

    def test_implies_canonicalizes_text(self):
        from repro.constraints.parser import parse

        text_key = normalize_request(("implies", "Store.City.Country"))
        node_key = normalize_request(("implies", parse("Store.City.Country")))
        assert text_key == node_key
        assert text_key[0] == "implies" and isinstance(text_key[1], str)

    def test_summarizable_sorts_and_dedups_sources(self):
        a = normalize_request(("summarizable", "Country", ["State", "City", "City"]))
        b = normalize_request(("summarizable", "Country", ("City", "State")))
        assert a == b == ("summarizable", "Country", ("City", "State"))

    def test_rejects_malformed_requests(self):
        for bad in [(), ("dimsat",), ("implies",), ("summarizable", "X"), ("nope", 1)]:
            with pytest.raises(ReproError):
                normalize_request(bad)


class TestBatchAPI:
    def test_dedup_counts_and_alignment(self, schema):
        cache = DecisionCache()
        engine = DecisionEngine(cache=cache)
        batch = [
            (schema, ("dimsat", "Store")),
            (schema, ("dimsat", "City")),
            (schema, ("dimsat", "Store")),
            (schema, ("summarizable", "Country", ["City"])),
            (schema, ("summarizable", "Country", ("City",))),
        ]
        verdicts = engine.decide_many(batch)
        assert verdicts == [True, True, True, True, True]
        # Three unique questions, each looked up once: the duplicates
        # are answered by the batch dedup, not by the cache.
        assert cache.stats.hits == 0
        kinds = [key[1] for key in cache.entries_for(schema.fingerprint())]
        assert kinds.count("dimsat") == 2 and kinds.count("summarizable") == 1

    def test_cross_batch_dedup_via_cache(self, schema):
        cache = DecisionCache()
        engine = DecisionEngine(cache=cache)
        batch = [(schema, ("dimsat", "Store")), (schema, ("implies", "Store.City"))]
        engine.decide_many(batch)
        before = cache.stats.misses
        engine.decide_many(batch)
        # Second batch hits the decision cache: no new misses.
        assert cache.stats.misses == before
        assert cache.stats.hits >= 2

    def test_rebuilt_equal_schema_shares_verdicts(self, schema):
        from repro.io.json_io import schema_from_json, schema_to_json

        rebuilt = schema_from_json(schema_to_json(schema))
        assert rebuilt is not schema
        cache = DecisionCache()
        engine = DecisionEngine(cache=cache)
        batch = [
            (schema, ("dimsat", "Store")),
            (rebuilt, ("dimsat", "Store")),
        ]
        assert engine.decide_many(batch) == [True, True]
        # Equal fingerprints dedupe across distinct schema objects: one
        # lookup, no hit.
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_empty_batch(self, schema):
        assert DecisionEngine().decide_many([]) == []

    def test_uncached_engine(self, schema):
        engine = DecisionEngine(cache=None)
        assert engine.is_satisfiable(schema, "Store") is True
        assert engine.decide_many([(schema, ("dimsat", "Store"))]) == [True]


class TestSequentialPath:
    def test_single_worker_runs_sequentially(self, schema):
        """Decisions run on the calling thread: no thread is started."""
        import threading

        before = {thread.ident for thread in threading.enumerate()}
        engine = DecisionEngine(cache=DecisionCache())
        assert engine.is_satisfiable(schema, "Store") is True
        assert engine.is_summarizable(schema, "Country", ["City"]) is True
        assert engine.decide_many([(schema, ("dimsat", "City"))]) == [True]
        started = [
            thread.name
            for thread in threading.enumerate()
            if thread.ident not in before
        ]
        assert started == []

    def test_unknown_category_raises(self, schema):
        engine = DecisionEngine(cache=None)
        with pytest.raises(SchemaError):
            engine.is_satisfiable(schema, "Galaxy")


class TestWitnessValidity:
    def test_witness_materializes(self, schema):
        """The witness is a real frozen dimension whose instance conforms
        to the schema."""
        from repro.constraints.semantics import satisfies_all

        engine = DecisionEngine(cache=None)
        result = engine.dimsat(schema, "Store")
        assert result.satisfiable
        instance = result.witness.to_instance(schema)
        assert satisfies_all(instance, schema.constraints)


class TestStats:
    def test_check_totals_match_kernel(self, schema):
        """On an unsatisfiable category the search runs to exhaustion;
        the engine's result carries exactly the kernel's work counters."""
        doomed = make_unsatisfiable(schema, "Store")
        sequential = dimsat(doomed, "Store")
        assert not sequential.satisfiable
        result = DecisionEngine(cache=None).dimsat(doomed, "Store")
        assert not result.satisfiable
        assert result.stats.expand_calls == sequential.stats.expand_calls
        assert result.stats.check_calls == sequential.stats.check_calls
        assert (
            result.stats.subhierarchies_completed
            == sequential.stats.subhierarchies_completed
        )
