"""Fact tables (Section 3.3).

A fact table ``F`` holds facts at the *base* granularity of a dimension:
each row references a member of a bottom category and carries one or more
numeric measures.  The paper's cube views are single-dimension aggregates,
so the fact table is keyed by one dimension; multi-dimensional cubes are a
cartesian composition the engine does not need for any experiment.

Rows are stored as columns - one tuple of members and one tuple per
measure - so a scan is a ``zip`` over two tuples; :class:`Fact` objects
are built only when a caller iterates the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro._types import Member
from repro.core.instance import DimensionInstance
from repro.errors import OlapError

Row = Tuple[Member, Mapping[str, float]]


@dataclass(frozen=True)
class Fact:
    """One row: a base member plus its measures (a read-only copy)."""

    member: Member
    measures: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "measures", MappingProxyType(dict(self.measures)))

    def value(self, measure: str) -> float:
        try:
            return self.measures[measure]
        except KeyError:
            raise OlapError(f"fact has no measure {measure!r}") from None


class FactTable:
    """An immutable collection of facts over one dimension instance.

    Construction verifies that every fact references a member of a bottom
    category (the paper requires facts at the base granularity) and that
    all rows carry the same measure names.

    Examples
    --------
    >>> from repro.generators.location import location_instance
    >>> d = location_instance()
    >>> facts = FactTable(d, [("s1", {"sales": 10.0}), ("s3", {"sales": 5.0})])
    >>> len(facts)
    2
    """

    __slots__ = ("instance", "member_column", "_columns")

    def __init__(self, instance: DimensionInstance, rows: Iterable[Row]) -> None:
        rows = list(rows)
        members = tuple(map(itemgetter(0), rows))
        values = tuple(map(itemgetter(1), rows))
        names = tuple(values[0]) if values else ()
        # Batch checks: every row has all of the first row's measure names
        # (else a KeyError) and no others (same count), and every member
        # is a base member.
        try:
            columns = {name: tuple(map(itemgetter(name), values)) for name in names}
        except KeyError:
            columns = None
        if (
            columns is None
            or set(map(len, values)) - {len(names)}
            or not instance.base_members().issuperset(members)
        ):
            _reject_first_bad_row(instance, rows)
        self.instance = instance
        #: The base member of every row, in row order.
        self.member_column: Tuple[Member, ...] = members
        self._columns: Dict[str, Tuple[float, ...]] = columns

    @classmethod
    def _from_columns(
        cls,
        instance: DimensionInstance,
        members: Tuple[Member, ...],
        columns: Dict[str, Tuple[float, ...]],
    ) -> "FactTable":
        """A table over columns that are already known to be valid.  An
        empty table carries no measures, as one built from no rows."""
        table = cls.__new__(cls)
        table.instance = instance
        table.member_column = members
        table._columns = columns if members else {}
        return table

    @property
    def measures(self) -> frozenset:
        """The measure names all rows carry."""
        return frozenset(self._columns)

    def column(self, measure: str) -> Tuple[float, ...]:
        """All values of one measure, in row order (empty for an empty
        table, whatever the measure)."""
        try:
            return self._columns[measure]
        except KeyError:
            if not self.member_column:
                return ()
            raise OlapError(f"fact has no measure {measure!r}") from None

    def __iter__(self) -> Iterator[Fact]:
        names = tuple(self._columns)
        for member, *values in zip(self.member_column, *self._columns.values()):
            yield Fact(member, dict(zip(names, values)))

    def __len__(self) -> int:
        return len(self.member_column)

    def members(self) -> List[Member]:
        """The base members referenced, with multiplicity."""
        return list(self.member_column)

    def values(self, measure: str) -> List[float]:
        """All values of one measure, in row order."""
        return list(self.column(measure))

    def group_by_member(self, measure: str) -> Dict[Member, List[float]]:
        """Measure values grouped by base member."""
        grouped: Dict[Member, List[float]] = {}
        for member, value in zip(self.member_column, self.column(measure)):
            grouped.setdefault(member, []).append(value)
        return grouped

    def restrict(self, members: Sequence[Member]) -> "FactTable":
        """A new fact table with only the rows of the given members."""
        wanted = set(members)
        keep = [i for i, member in enumerate(self.member_column) if member in wanted]
        return FactTable._from_columns(
            self.instance,
            tuple(self.member_column[i] for i in keep),
            {name: tuple(col[i] for i in keep) for name, col in self._columns.items()},
        )

    def concat(self, delta: "FactTable") -> "FactTable":
        """This table followed by the rows of ``delta``, over the same
        instance.  Only the measure names are checked: both tables were
        validated when they were built."""
        if delta.instance is not self.instance:
            raise OlapError("cannot concatenate fact tables over different instances")
        if not delta.member_column:
            return self
        if not self.member_column:
            return delta
        if delta.measures != self.measures:
            raise OlapError(
                f"fact for {delta.member_column[0]!r} has measures "
                f"{sorted(delta.measures)}, expected {sorted(self.measures)}"
            )
        return FactTable._from_columns(
            self.instance,
            self.member_column + delta.member_column,
            {name: col + delta._columns[name] for name, col in self._columns.items()},
        )

    def __repr__(self) -> str:
        return f"FactTable({len(self)} facts, measures={sorted(self.measures)})"


def _reject_first_bad_row(instance: DimensionInstance, rows: Sequence[Row]) -> None:
    """Raise the error of the first row that fails a check, in row order."""
    base = instance.base_members()
    expected = None
    for member, values in rows:
        if member not in base:
            raise OlapError(
                f"fact references {member!r}, which is not a member of a "
                f"bottom category"
            )
        if expected is not None and set(values) != expected:
            raise OlapError(
                f"fact for {member!r} has measures {sorted(values)}, "
                f"expected {sorted(expected)}"
            )
        expected = set(values)
