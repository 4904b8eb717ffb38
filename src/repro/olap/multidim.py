"""Multi-dimensional cubes: several dimensions, one fact table.

The paper works with single-dimension cube views (Definition 6); a real
data cube crosses several dimensions (the introduction's example: items x
stores x time).  This module provides the natural generalization, with
the key property that makes it sound: rollups are performed one dimension
at a time, and a rollup along dimension ``d`` from level ``c_1`` to level
``c_2`` is exactly a single-dimension recombination with source set
``{c_1}`` - so the Theorem 1 test applies per dimension, and a
multi-dimensional rewrite is correct iff *every* per-dimension step is
summarizable.

Vocabulary: a *level assignment* maps each dimension name to a category;
the cube view at a level assignment groups facts by the tuple of rollup
targets (facts whose member does not reach the level on some dimension
drop out, exactly as in the one-dimensional case).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro._types import Category, Member
from repro.core.instance import DimensionInstance
from repro.core.schema import DimensionSchema
from repro.core.summarizability import (
    is_summarizable_in_instance,
    is_summarizable_in_schema,
)
from repro.errors import NavigationError, OlapError
from repro.olap.aggregates import AggregateFunction

#: A level assignment: one category per dimension name.
Levels = Mapping[str, Category]
#: A cell key: one member per dimension, in the cube's dimension order.
CellKey = Tuple[Member, ...]


@dataclass(frozen=True)
class MultiFact:
    """One row: a member per dimension plus measures."""

    coordinates: Mapping[str, Member]
    measures: Mapping[str, float]


class Cube:
    """A star schema: named dimensions plus a shared fact table.

    Parameters
    ----------
    dimensions:
        Mapping from dimension name to its instance.
    schemas:
        Optional mapping from dimension name to its dimension schema;
        when present, navigation uses schema-level summarizability.
    """

    def __init__(
        self,
        dimensions: Mapping[str, DimensionInstance],
        schemas: Optional[Mapping[str, DimensionSchema]] = None,
    ) -> None:
        if not dimensions:
            raise OlapError("a cube needs at least one dimension")
        self.dimensions: Dict[str, DimensionInstance] = dict(dimensions)
        self.schemas: Dict[str, DimensionSchema] = dict(schemas or {})
        for name, schema in self.schemas.items():
            if name not in self.dimensions:
                raise OlapError(f"schema for unknown dimension {name!r}")
            if schema.hierarchy != self.dimensions[name].hierarchy:
                raise OlapError(
                    f"dimension {name!r}: instance and schema hierarchies differ"
                )
        self.dimension_order: Tuple[str, ...] = tuple(sorted(self.dimensions))
        self._facts: List[MultiFact] = []

    # ------------------------------------------------------------------
    # Facts
    # ------------------------------------------------------------------

    def load(
        self, rows: Iterable[Tuple[Mapping[str, Member], Mapping[str, float]]]
    ) -> "Cube":
        """Append fact rows; each row names a base member per dimension."""
        bases = {name: d.base_members() for name, d in self.dimensions.items()}
        for coordinates, measures in rows:
            if set(coordinates) != set(self.dimensions):
                raise OlapError(
                    f"fact coordinates {sorted(coordinates)} do not match "
                    f"dimensions {sorted(self.dimensions)}"
                )
            for name, member in coordinates.items():
                if member not in bases[name]:
                    raise OlapError(
                        f"dimension {name!r}: {member!r} is not a base member"
                    )
            self._facts.append(MultiFact(dict(coordinates), dict(measures)))
        return self

    def __len__(self) -> int:
        return len(self._facts)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def _check_levels(self, levels: Levels) -> None:
        if set(levels) != set(self.dimensions):
            raise OlapError(
                f"level assignment {sorted(levels)} does not match "
                f"dimensions {sorted(self.dimensions)}"
            )
        for name, category in levels.items():
            if not self.dimensions[name].hierarchy.has_category(category):
                raise OlapError(
                    f"dimension {name!r} has no category {category!r}"
                )

    def view(
        self, levels: Levels, aggregate: AggregateFunction, measure: str
    ) -> "MultiCubeView":
        """The cube view at a level assignment, straight from the facts."""
        self._check_levels(levels)
        rollups = [
            (name, self.dimensions[name].base_rollup(levels[name]))
            for name in self.dimension_order
        ]
        groups: Dict[CellKey, List[float]] = {}
        scanned = 0
        for fact in self._facts:
            scanned += 1
            key = tuple(rollup.get(fact.coordinates[name]) for name, rollup in rollups)
            if None in key:
                continue
            try:
                value = fact.measures[measure]
            except KeyError:
                raise OlapError(f"fact has no measure {measure!r}") from None
            groups.setdefault(key, []).append(value)
        cells = {
            key: aggregate.aggregate(values) for key, values in groups.items()
        }
        return MultiCubeView(
            levels=dict(levels),
            aggregate=aggregate,
            measure=measure,
            cells=cells,
            dimension_order=self.dimension_order,
            rows_scanned=scanned,
        )

    # ------------------------------------------------------------------
    # Safe rollups
    # ------------------------------------------------------------------

    def _step_summarizable(
        self, name: str, lower: Category, upper: Category
    ) -> bool:
        """Whether rolling dimension ``name`` up from ``lower`` to
        ``upper`` is proven correct (single-source Theorem 1)."""
        if lower == upper:
            return True
        schema = self.schemas.get(name)
        if schema is not None:
            return is_summarizable_in_schema(schema, upper, [lower])
        return is_summarizable_in_instance(self.dimensions[name], upper, [lower])

    def rollup_is_safe(self, stored: Levels, requested: Levels) -> bool:
        """Whether a stored view at ``stored`` may answer ``requested``."""
        self._check_levels(stored)
        self._check_levels(requested)
        for name in self.dimension_order:
            lower, upper = stored[name], requested[name]
            if lower == upper:
                continue
            if not self.dimensions[name].hierarchy.reaches(lower, upper):
                return False
            if not self._step_summarizable(name, lower, upper):
                return False
        return True

    def rollup(self, view: "MultiCubeView", requested: Levels) -> "MultiCubeView":
        """Derive a coarser view from a finer one, dimension by dimension.

        Raises :class:`NavigationError` when some per-dimension step is
        not summarizable - the caller should fall back to :meth:`view`.
        """
        self._check_levels(requested)
        if not self.rollup_is_safe(view.levels, requested):
            raise NavigationError(
                f"rolling up from {dict(view.levels)} to {dict(requested)} "
                f"is not proven correct"
            )
        current = view
        for name in self.dimension_order:
            if current.levels[name] != requested[name]:
                current = self._rollup_one(current, name, requested[name])
        return current

    def _rollup_one(
        self, view: "MultiCubeView", name: str, upper: Category
    ) -> "MultiCubeView":
        axis = self.dimension_order.index(name)
        instance = self.dimensions[name]
        mapping = instance.rollup_mapping(view.levels[name], upper)
        partials: Dict[CellKey, List[float]] = {}
        scanned = 0
        for key, value in view.cells.items():
            scanned += 1
            target = mapping.get(key[axis])
            if target is None:
                continue
            new_key = key[:axis] + (target,) + key[axis + 1 :]
            partials.setdefault(new_key, []).append(value)
        cells = {
            key: view.aggregate.recombine(values)
            for key, values in partials.items()
        }
        levels = dict(view.levels)
        levels[name] = upper
        return MultiCubeView(
            levels=levels,
            aggregate=view.aggregate,
            measure=view.measure,
            cells=cells,
            dimension_order=self.dimension_order,
            rows_scanned=view.rows_scanned + scanned,
        )


@dataclass(frozen=True)
class MultiCubeView:
    """A materialized multi-dimensional view.

    ``cells`` maps member tuples (in ``dimension_order``) to aggregates.
    """

    levels: Mapping[str, Category]
    aggregate: AggregateFunction
    measure: str
    cells: Mapping[CellKey, float]
    dimension_order: Tuple[str, ...]
    rows_scanned: int = 0

    def value(self, **members: Member) -> float:
        """Cell lookup by dimension name, e.g. ``view.value(location="Canada",
        time="2021")``."""
        key = tuple(members[name] for name in self.dimension_order)
        try:
            return self.cells[key]
        except KeyError:
            raise OlapError(f"no cell for {key!r}") from None

    def __len__(self) -> int:
        return len(self.cells)


def multi_views_equal(
    left: MultiCubeView, right: MultiCubeView, tolerance: float = 1e-9
) -> bool:
    """Cell-by-cell equality within floating tolerance."""
    if set(left.cells) != set(right.cells):
        return False
    return all(
        abs(left.cells[key] - right.cells[key]) <= tolerance
        for key in left.cells
    )


class MultiNavigator:
    """Aggregate navigation over a cube: answer level assignments from the
    cheapest materialized view whose per-dimension rollups are all proven
    correct, else scan the facts."""

    def __init__(self, cube: Cube) -> None:
        self.cube = cube
        self._views: Dict[Tuple[Tuple[str, Category], ...], MultiCubeView] = {}

    @staticmethod
    def _key(levels: Levels, aggregate: AggregateFunction, measure: str):
        return (tuple(sorted(levels.items())), aggregate.name, measure)

    def materialize(
        self, levels: Levels, aggregate: AggregateFunction, measure: str
    ) -> MultiCubeView:
        view = self.cube.view(levels, aggregate, measure)
        self._views[self._key(levels, aggregate, measure)] = view
        return view

    def answer(
        self, levels: Levels, aggregate: AggregateFunction, measure: str
    ) -> Tuple[MultiCubeView, str]:
        """The view plus the plan kind (``materialized`` / ``rolled-up`` /
        ``base-scan``)."""
        exact = self._views.get(self._key(levels, aggregate, measure))
        if exact is not None:
            return exact, "materialized"
        candidates = [
            view
            for (stored_levels, agg_name, m), view in self._views.items()
            if agg_name == aggregate.name
            and m == measure
            and self.cube.rollup_is_safe(dict(stored_levels), levels)
        ]
        if candidates:
            best = min(candidates, key=len)
            return self.cube.rollup(best, levels), "rolled-up"
        return self.cube.view(levels, aggregate, measure), "base-scan"
