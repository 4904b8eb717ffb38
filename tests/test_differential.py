"""Differential tests: decision engine == sequential kernel == brute force.

The :class:`~repro.core.engine.DecisionEngine` must be observationally
identical to the uncached sequential kernel, which in turn must agree
with the first-principles brute-force oracle
(:mod:`repro.baselines.bruteforce`).  On hypothesis-generated random
schemas this file checks that three-way agreement for all three decision
problems - category satisfiability, implication, and summarizability -
through both the batch and the single-decision surface.

The engine gets its *own* decision cache, so it never serves a verdict a
kernel call cached: it really computes its answers.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._types import ALL
from repro.baselines.bruteforce import brute_force_implies, brute_force_satisfiable
from repro.errors import ConstraintError
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.implication import is_implied
from repro.core.engine import DecisionEngine
from repro.core.schema import DimensionSchema
from repro.core.summarizability import (
    is_summarizable_in_schema,
    summarizability_constraints,
)
from repro.generators.location import location_hierarchy
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from tests.property.strategies import constraints

SETTINGS = settings(max_examples=40, deadline=None)

@pytest.fixture(scope="module")
def engine():
    """One long-lived engine with a private cache."""
    return DecisionEngine(cache=DecisionCache())


@st.composite
def small_schemas(draw):
    """Random small schemas, every generator knob randomized (kept small
    enough for the exponential brute-force oracle)."""
    config = RandomSchemaConfig(
        n_categories=draw(st.integers(min_value=3, max_value=6)),
        n_layers=draw(st.integers(min_value=2, max_value=3)),
        extra_edge_prob=draw(st.sampled_from([0.0, 0.3, 0.6])),
        skip_edge_prob=draw(st.sampled_from([0.0, 0.2])),
        into_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        choice_constraint_prob=draw(st.sampled_from([0.0, 0.7])),
        n_constants=draw(st.integers(min_value=1, max_value=2)),
        attributed_fraction=draw(st.sampled_from([0.0, 0.5])),
        equality_constraint_prob=draw(st.sampled_from([0.0, 0.7])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    return random_schema(config)


@st.composite
def summarizability_cases(draw):
    """A random schema plus a (target, sources) question over it."""
    schema = draw(small_schemas())
    categories = sorted(schema.hierarchy.categories - {ALL})
    target = draw(st.sampled_from(categories))
    pool = [c for c in categories if c != target]
    sources = (
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
        if pool
        else []
    )
    return schema, target, sources


def _brute_force_summarizable(schema, target, sources):
    """Theorem 1 on top of the brute-force implication oracle."""
    for bottom, node in summarizability_constraints(
        schema.hierarchy, target, sources
    ):
        if bottom == ALL:
            continue
        if not brute_force_implies(schema, node):
            return False
    return True


@SETTINGS
@given(small_schemas())
def test_dimsat_differential(engine, schema):
    """The engine's batch verdicts == sequential == brute force."""
    categories = sorted(schema.hierarchy.categories - {ALL})
    oracle = [brute_force_satisfiable(schema, c) for c in categories]
    sequential = [dimsat(schema, c).satisfiable for c in categories]
    assert sequential == oracle
    batch = [(schema, ("dimsat", c)) for c in categories]
    assert engine.decide_many(batch) == oracle


@SETTINGS
@given(small_schemas())
def test_dimsat_single_decision_differential(engine, schema):
    """The single-decision path agrees too."""
    categories = sorted(schema.hierarchy.categories - {ALL})
    for category in categories:
        expected = dimsat(schema, category).satisfiable
        assert engine.is_satisfiable(schema, category) == expected, category


@settings(max_examples=60, deadline=None)
@given(constraints(), st.lists(constraints(), max_size=2))
def test_implication_differential(engine, query, sigma):
    """Implication over the location hierarchy with random constraints."""
    try:
        # Random atom mixes can violate the numeric-consistency rule (an
        # order predicate and a symbolic constant on the same category);
        # those schemas are rejected uniformly by every path, so skip them.
        schema = DimensionSchema(location_hierarchy(), sigma)
        oracle = brute_force_implies(schema, query)
    except ConstraintError:
        assume(False)
    assert is_implied(schema, query, cache=None) == oracle
    batch = [(schema, ("implies", query))]
    assert engine.is_implied(schema, query) == oracle
    assert engine.decide_many(batch) == [oracle]


@SETTINGS
@given(summarizability_cases())
def test_summarizability_differential(engine, case):
    schema, target, sources = case
    oracle = _brute_force_summarizable(schema, target, sources)
    assert is_summarizable_in_schema(schema, target, sources, cache=None) == oracle
    batch = [(schema, ("summarizable", target, sources))]
    assert engine.is_summarizable(schema, target, sources) == oracle
    assert engine.decide_many(batch) == [oracle]


@SETTINGS
@given(small_schemas())
def test_batch_dedup_preserves_alignment(engine, schema):
    """Duplicated and permuted requests come back aligned with the input,
    identical to asking one by one."""
    categories = sorted(schema.hierarchy.categories - {ALL})
    requests = [(schema, ("dimsat", c)) for c in categories]
    doubled = requests + list(reversed(requests))
    expected = [dimsat(schema, c).satisfiable for c in categories]
    expected = expected + list(reversed(expected))
    assert engine.decide_many(doubled) == expected
