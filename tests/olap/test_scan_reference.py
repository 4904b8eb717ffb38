"""The column scan behind ``cube_view`` against a per-fact reference.

``cube_view`` rolls facts up through the instance's memoized base map;
the reference below walks each fact's ancestors with ``ancestor_in``, as
the scan did before the map existed.  On random heterogeneous instances
(partial roll-ups and several bottom categories included) the cells must
be exactly equal - not within a tolerance - for SUM, COUNT, MIN and MAX
at every category, because other checks (the benchmark's among them) use
``cube_view`` as their oracle.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.instance import TOP_MEMBER, DimensionInstance
from repro.errors import SchemaError
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from repro.generators.workloads import instance_from_frozen
from repro.olap import FactTable, all_aggregates, cube_view
from repro.olap.cubeview import cube_views

SETTINGS = settings(max_examples=25, deadline=None)

FOLDS = {"SUM": sum, "COUNT": lambda values: float(len(values)), "MIN": min, "MAX": max}


def disjoint_union(instances):
    """One instance holding disjoint copies of several, sharing only
    ``all``: with one part per bottom category, facts sit in several
    bottom categories at once."""
    members, names, edges = {}, {}, []

    def tag(index, member):
        return member if member == TOP_MEMBER else f"{index}:{member}"

    for index, part in enumerate(instances):
        for member in part.all_members():
            members[tag(index, member)] = part.category_of(member)
            names[tag(index, member)] = part.name(member)
        edges.extend((tag(index, c), tag(index, p)) for c, p in part.member_edges())
    return DimensionInstance(instances[0].hierarchy, members, edges, names=names)


@st.composite
def generated_instances(draw):
    config = RandomSchemaConfig(
        n_categories=draw(st.integers(min_value=3, max_value=7)),
        n_layers=draw(st.integers(min_value=2, max_value=4)),
        extra_edge_prob=draw(st.sampled_from([0.0, 0.4])),
        into_fraction=draw(st.sampled_from([0.3, 0.7, 1.0])),
        choice_constraint_prob=draw(st.sampled_from([0.0, 0.7])),
        seed=draw(st.integers(min_value=0, max_value=5_000)),
    )
    schema = random_schema(config)
    copies = draw(st.integers(min_value=1, max_value=3))
    fan_out = draw(st.integers(min_value=1, max_value=3))
    parts = []
    for bottom in sorted(schema.hierarchy.bottom_categories()):
        try:
            parts.append(instance_from_frozen(schema, bottom, copies=copies, fan_out=fan_out))
        except SchemaError:
            pass
    assume(parts)
    return disjoint_union(parts)


@st.composite
def fact_tables(draw):
    instance = draw(generated_instances())
    base = sorted(instance.base_members(), key=repr)
    n = draw(st.integers(min_value=0, max_value=40))
    values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    rows = [(draw(st.sampled_from(base)), {"v": draw(values)}) for _ in range(n)]
    return instance, rows


def reference_cells(instance, rows, category, aggregate):
    """Per-fact roll-up with ``ancestor_in``, groups in row order."""
    groups = {}
    for member, measures in rows:
        target = instance.ancestor_in(member, category)
        if target is not None:
            groups.setdefault(target, []).append(measures["v"])
    fold = FOLDS[aggregate.name]
    return {member: fold(values) for member, values in groups.items()}


@SETTINGS
@given(fact_tables())
def test_cells_equal_reference_scan(case):
    instance, rows = case
    facts = FactTable(instance, rows)
    for category in instance.hierarchy.categories:
        for aggregate in all_aggregates():
            view = cube_view(facts, category, aggregate, "v")
            assert view.cells == reference_cells(instance, rows, category, aggregate)
            assert view.rows_scanned == len(rows)


@SETTINGS
@given(fact_tables())
def test_one_scan_for_many_aggregates(case):
    instance, rows = case
    facts = FactTable(instance, rows)
    for category in instance.hierarchy.categories:
        views = cube_views(facts, category, all_aggregates(), "v")
        for view, aggregate in zip(views, all_aggregates()):
            assert view.aggregate is aggregate
            assert view.cells == cube_view(facts, category, aggregate, "v").cells


@SETTINGS
@given(generated_instances())
def test_empty_table(instance):
    facts = FactTable(instance, [])
    for category in instance.hierarchy.categories:
        for aggregate in all_aggregates():
            view = cube_view(facts, category, aggregate, "v")
            assert view.cells == {}
            assert view.rows_scanned == 0


@SETTINGS
@given(generated_instances())
def test_memoized_rollup_maps(instance):
    categories = sorted(instance.hierarchy.categories)
    for lower in categories:
        for upper in categories:
            fresh = {}
            for member in instance.members(lower):
                target = instance.ancestor_in(member, upper)
                if target is not None:
                    fresh[member] = target
            mapping = instance.rollup_mapping(lower, upper)
            assert mapping == fresh
            assert instance.rollup_mapping(lower, upper) == fresh
            with pytest.raises(TypeError):
                mapping["x"] = "y"  # type: ignore[index]
    for category in categories:
        base_map = instance.base_rollup(category)
        assert base_map == {
            member: instance.ancestor_in(member, category)
            for member in instance.base_members()
            if instance.ancestor_in(member, category) is not None
        }
        with pytest.raises(TypeError):
            base_map["x"] = "y"  # type: ignore[index]
    # The memoized maps do not stop the instance from being pickled.
    copy = pickle.loads(pickle.dumps(instance))
    assert copy.base_rollup(categories[0]) == instance.base_rollup(categories[0])
