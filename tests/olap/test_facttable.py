"""Fact table tests: construction checks, accessors, grouping."""

from __future__ import annotations

import pytest

from repro.errors import OlapError
from repro.olap import FactTable


class TestConstruction:
    def test_accepts_base_members(self, loc_instance):
        facts = FactTable(loc_instance, [("s1", {"sales": 1.0})])
        assert len(facts) == 1
        assert facts.measures == frozenset({"sales"})

    def test_rejects_non_base_member(self, loc_instance):
        with pytest.raises(OlapError):
            FactTable(loc_instance, [("Toronto", {"sales": 1.0})])

    def test_rejects_unknown_member(self, loc_instance):
        with pytest.raises(OlapError):
            FactTable(loc_instance, [("ghost", {"sales": 1.0})])

    def test_rejects_inconsistent_measures(self, loc_instance):
        with pytest.raises(OlapError):
            FactTable(
                loc_instance,
                [("s1", {"sales": 1.0}), ("s2", {"profit": 1.0})],
            )

    def test_rejects_extra_measure(self, loc_instance):
        with pytest.raises(OlapError, match=r"expected \['sales'\]"):
            FactTable(
                loc_instance,
                [("s1", {"sales": 1.0}), ("s2", {"sales": 1.0, "profit": 1.0})],
            )

    def test_first_bad_row_is_reported(self, loc_instance):
        """Errors name the first failing row, in row order."""
        with pytest.raises(OlapError, match="fact for 's2' has measures"):
            FactTable(
                loc_instance,
                [("s1", {"sales": 1.0}), ("s2", {}), ("Toronto", {"sales": 1.0})],
            )
        with pytest.raises(OlapError, match="'Toronto', which is not"):
            FactTable(
                loc_instance,
                [("s1", {"sales": 1.0}), ("Toronto", {"sales": 1.0}), ("s2", {})],
            )

    def test_empty_table(self, loc_instance):
        facts = FactTable(loc_instance, [])
        assert len(facts) == 0
        assert facts.measures == frozenset()


class TestAccessors:
    @pytest.fixture()
    def facts(self, loc_instance):
        return FactTable(
            loc_instance,
            [
                ("s1", {"sales": 1.0, "profit": 0.1}),
                ("s1", {"sales": 2.0, "profit": 0.2}),
                ("s4", {"sales": 3.0, "profit": 0.3}),
            ],
        )

    def test_members_with_multiplicity(self, facts):
        assert facts.members() == ["s1", "s1", "s4"]

    def test_values_in_row_order(self, facts):
        assert facts.values("sales") == [1.0, 2.0, 3.0]

    def test_missing_measure_raises(self, facts):
        with pytest.raises(OlapError):
            facts.values("weight")

    def test_group_by_member(self, facts):
        grouped = facts.group_by_member("sales")
        assert grouped == {"s1": [1.0, 2.0], "s4": [3.0]}

    def test_restrict(self, facts):
        smaller = facts.restrict(["s1"])
        assert len(smaller) == 2
        assert smaller.members() == ["s1", "s1"]
        assert smaller.values("profit") == [0.1, 0.2]

    def test_restrict_to_nothing_has_no_measures(self, facts):
        empty = facts.restrict(["s2"])
        assert len(empty) == 0
        assert empty.measures == frozenset()

    def test_iteration_rebuilds_rows(self, facts):
        assert [(fact.member, dict(fact.measures)) for fact in facts] == [
            ("s1", {"sales": 1.0, "profit": 0.1}),
            ("s1", {"sales": 2.0, "profit": 0.2}),
            ("s4", {"sales": 3.0, "profit": 0.3}),
        ]

    def test_concat(self, facts, loc_instance):
        delta = FactTable(loc_instance, [("s2", {"sales": 4.0, "profit": 0.4})])
        both = facts.concat(delta)
        assert both.members() == ["s1", "s1", "s4", "s2"]
        assert both.values("sales") == [1.0, 2.0, 3.0, 4.0]
        assert len(facts) == 3

    def test_concat_rejects_other_measures(self, facts, loc_instance):
        delta = FactTable(loc_instance, [("s2", {"sales": 4.0})])
        with pytest.raises(OlapError, match="fact for 's2' has measures"):
            facts.concat(delta)

    def test_concat_rejects_other_instance(self, facts):
        from repro.generators.location import location_instance

        other = FactTable(location_instance(), [("s2", {"sales": 4.0, "profit": 0.4})])
        with pytest.raises(OlapError):
            facts.concat(other)

    def test_repr(self, facts):
        assert "3 facts" in repr(facts)


class TestReadOnly:
    def test_fact_measures_reject_writes(self, loc_instance):
        facts = FactTable(loc_instance, [("s1", {"sales": 1.0})])
        fact = next(iter(facts))
        with pytest.raises(TypeError):
            fact.measures["sales"] = 0.0  # type: ignore[index]
        assert facts.values("sales") == [1.0]
        assert next(iter(facts)).measures == {"sales": 1.0}

    def test_rows_are_copied_on_load(self, loc_instance):
        measures = {"sales": 1.0}
        facts = FactTable(loc_instance, [("s1", measures)])
        measures["sales"] = 99.0
        assert facts.values("sales") == [1.0]

    def test_fact_detaches_from_its_dict(self):
        from repro.olap.facttable import Fact

        measures = {"sales": 1.0}
        fact = Fact("s1", measures)
        measures["sales"] = 99.0
        assert fact.value("sales") == 1.0
