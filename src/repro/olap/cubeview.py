"""Cube views and their recombination (Definition 6).

A single-category cube view ``CubeView(d, F, c, af(m))`` aggregates the
fact table to the granularity of category ``c``::

    PI_{c, af(m)} ( F  JOIN  GAMMA_{c_b}^{c} d )

In heterogeneous dimensions the rollup mapping is partial - facts whose
base member does not reach ``c`` silently drop out of the view, which is
exactly why summarizability is subtle: recombining from an intermediate
category loses (or double counts) those facts unless Theorem 1's condition
holds.  :func:`recombine` implements the right-hand side of Definition 6
so the cross-validation experiment (E12) can compare both sides on real
data.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

from repro._types import Category, Member
from repro.core.instance import DimensionInstance
from repro.errors import OlapError
from repro.olap.aggregates import AggregateFunction
from repro.olap.facttable import FactTable


@dataclass(frozen=True)
class CubeView:
    """A materialized single-category cube view.

    ``cells`` maps each member of ``category`` that received at least one
    fact to its aggregate value.  ``rows_scanned`` records the work done
    to build the view, which the navigator benchmarks use as the cost
    model (row count is the standard I/O proxy for aggregate views).
    """

    category: Category
    aggregate: AggregateFunction
    measure: str
    cells: Mapping[Member, float]
    rows_scanned: int = 0

    def value(self, member: Member) -> float:
        try:
            return self.cells[member]
        except KeyError:
            raise OlapError(
                f"cube view at {self.category!r} has no cell for {member!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.cells)


def cube_view(
    facts: FactTable,
    category: Category,
    aggregate: AggregateFunction,
    measure: str,
) -> CubeView:
    """Compute a cube view directly from the fact table (Definition 6 LHS).

    >>> from repro.generators.location import location_instance
    >>> from repro.olap.aggregates import SUM
    >>> d = location_instance()
    >>> f = FactTable(d, [("s1", {"sales": 10.0}), ("s2", {"sales": 7.0})])
    >>> cube_view(f, "Country", SUM, "sales").cells
    {'Canada': 17.0}
    """
    return cube_views(facts, category, (aggregate,), measure)[0]


def cube_views(
    facts: FactTable,
    category: Category,
    aggregates: Sequence[AggregateFunction],
    measure: str,
) -> List[CubeView]:
    """The cube views of several aggregates at one category, from one
    scan of the facts.  Each group keeps its values in row order, so every
    view equals its own :func:`cube_view` exactly."""
    # A plain dict's ``get`` is faster per row than the read-only proxy's.
    rollup = dict(facts.instance.base_rollup(category))
    groups: Dict[Member, List[float]] = defaultdict(list)
    # The rollup mapping is partial in heterogeneous dimensions: facts
    # whose member reaches no member of ``category`` drop out.
    targets = map(rollup.get, facts.member_column)
    for target, value in zip(targets, facts.column(measure)):
        if target is not None:
            groups[target].append(value)
    return [
        CubeView(
            category,
            aggregate,
            measure,
            {member: aggregate.aggregate(values) for member, values in groups.items()},
            rows_scanned=len(facts),
        )
        for aggregate in aggregates
    ]


def recombine(
    instance: DimensionInstance,
    target: Category,
    source_views: Iterable[CubeView],
    aggregate: AggregateFunction,
) -> CubeView:
    """Definition 6 RHS: derive the cube view at ``target`` from views at
    source categories.

    For each source view at ``c_i``, every cell is mapped up through
    ``GAMMA_{c_i}^{target}`` and the mapped partials are merged with the
    combiner ``af^c``.  The result equals the direct
    :func:`cube_view` for *every* fact table exactly when ``target`` is
    summarizable from the source categories (Theorem 1); otherwise facts
    can be lost (no source on their path) or double counted (two sources
    on their path).
    """
    views = tuple(source_views)
    if not views:
        raise OlapError("recombination needs at least one source view")
    measures = {view.measure for view in views}
    if len(measures) > 1:
        raise OlapError(f"source views mix measures: {sorted(measures)}")

    partials: Dict[Member, List[float]] = {}
    scanned = 0
    for view in views:
        if view.aggregate.name != aggregate.name:
            raise OlapError(
                f"source view at {view.category!r} was built with "
                f"{view.aggregate.name}, cannot recombine with {aggregate.name}"
            )
        mapping = instance.rollup_mapping(view.category, target)
        for member, value in view.cells.items():
            scanned += 1
            up = mapping.get(member)
            if up is None:
                continue
            partials.setdefault(up, []).append(value)
    cells = {
        member: aggregate.recombine(values) for member, values in partials.items()
    }
    return CubeView(target, aggregate, views[0].measure, cells, rows_scanned=scanned)


def views_equal(left: CubeView, right: CubeView, tolerance: float = 1e-9) -> bool:
    """Whether two views agree cell by cell (within floating tolerance)."""
    if set(left.cells) != set(right.cells):
        return False
    return all(
        abs(left.cells[member] - right.cells[member]) <= tolerance
        for member in left.cells
    )
