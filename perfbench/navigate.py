"""The navigate-facts workload: the aggregate navigator's data path, in
process, with no server.

A replicated ``location`` instance carries a seeded fact table; SUM, MAX
and COUNT views are materialized at City and SaleRegion.  Queries are a
seeded stream, uniform over the seven categories and three aggregates
in rounds that ask each of the 21 shapes once, so 2/7 are served from a
stored view, 4/7 are rewritten from stored views (Theorem 1 decides
which rewrites are sound) and 1/7 scan the base facts.  Every
``reload_every`` queries a fresh seeded fact table is loaded and every
view rebuilt - the workload's writes.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, Iterator, List, Tuple

from repro.core.decisioncache import DecisionCache
from repro.core.hierarchy import ALL
from repro.core.summarizability import is_summarizable_in_schema
from repro.generators.location import location_instance, location_schema
from repro.generators.workloads import replicated_instance
from repro.olap.aggregates import COUNT, MAX, SUM
from repro.olap.cubeview import cube_view, views_equal
from repro.olap.facttable import FactTable
from repro.olap.navigator import AggregateNavigator, NavigatorStats

from common import cap_s, median, self_cpu_s, self_hwm_mb
from served import Phase

#: Every category, ``All`` included.  With an odd number of equally
#: likely categories the median falls inside one category's latencies,
#: not on the edge between two plans.
CATEGORIES = ("Store", "City", "State", "Province", "SaleRegion", "Country", ALL)
AGGREGATES = (SUM, MAX, COUNT)
#: Stored views: 2 of 7 categories are view hits, 4 are rewritten from
#: them and Store queries scan the base facts.
MATERIALIZED = ("City", "SaleRegion")
MEASURE = "amount"
#: Measured seconds between samples of this process's CPU time.
BUSY_EVERY = 0.1


class NavigateFacts:
    """The navigator over ``copies`` replicas of ``location`` with
    ``facts`` facts per generation."""

    name = "navigate-facts"

    def __init__(self, seed: int, copies: int = 50,
                 facts: int = 30_000, reload_every: int = 100, setups: int = 5) -> None:
        self.seed = seed
        self.n_facts = facts
        self.reload_every = reload_every
        self.setups = setups
        self.schema = location_schema()
        self.instance = replicated_instance(location_instance(), copies)
        self._base = sorted(self.instance.base_members(), key=repr)
        self._queries = self._query_stream(random.Random(seed))
        self.generation = 0
        self.navigator: AggregateNavigator = None  # type: ignore[assignment]
        #: Rewritten answers of the current fact generation, checked
        #: (outside the timed phase) before the next reload.
        self._pending: List[Tuple[str, object, Tuple[str, ...], object]] = []
        self._proven: Dict[Tuple[str, Tuple[str, ...]], bool] = {}
        self.mismatches: List[str] = []
        self.checked = 0
        self.setup_failures = 0
        self.lie = False

    @staticmethod
    def _query_stream(rng: random.Random) -> Iterator[Tuple[str, object]]:
        """Every (category, aggregate) pair once per round, each round in
        a fresh seeded order: uniform like independent picks, but every
        run and every stretch of a run asks the same mix, so a run's
        speed does not follow how many base scans its seed drew."""
        shapes = [(c, a) for c in CATEGORIES for a in AGGREGATES]
        while True:
            rng.shuffle(shapes)
            yield from shapes

    def rows(self, generation: int) -> List[Tuple[str, Dict[str, float]]]:
        rng = random.Random(self.seed * 1_000_003 + generation)
        return [
            (rng.choice(self._base), {MEASURE: round(rng.uniform(1.0, 100.0), 2)})
            for _ in range(self.n_facts)
        ]

    def setup(self) -> float:
        rows = self.rows(0)
        times = []
        for _attempt in range(self.setups):
            self.navigator = None  # type: ignore[assignment]
            gc.collect()  # every set-up starts from the same heap
            start = time.perf_counter()
            navigator = AggregateNavigator(
                FactTable(self.instance, rows), schema=self.schema, cache=DecisionCache()
            )
            for category in MATERIALIZED:
                for aggregate in AGGREGATES:
                    navigator.materialize(category, aggregate, MEASURE)
            # One answer per query shape pays the cold summarizability
            # decisions before timing.
            for category in CATEGORIES:
                for aggregate in AGGREGATES:
                    navigator.answer(category, aggregate, MEASURE)
            times.append(time.perf_counter() - start)
            self.navigator = navigator
        return median(times)

    def measure(self, seconds: float, tracer, min_reads: int = 1000,
                min_writes: int = 20, stats_every: int = 0) -> Phase:
        """Query stream with periodic reloads for ``seconds`` of measured
        time.  Checking answers and generating the next fact table are
        kept out of the phase's wall and CPU time."""
        phase = Phase()
        navigator = self.navigator
        before = NavigatorStats(**vars(navigator.stats))
        excluded_wall = excluded_cpu = 0.0
        cpu_start = self_cpu_s()
        start = phase.began = time.perf_counter()
        since_reload = 0
        count = 0
        phase.busy.append((0.0, 0.0))
        next_sample = BUSY_EVERY
        while True:
            count += 1
            category, aggregate = next(self._queries)
            began = time.perf_counter()
            with tracer.span("request.read", count):
                with tracer.span("navigator.answer"):
                    view, plan = navigator.answer(category, aggregate, MEASURE)
            ended = time.perf_counter()
            phase.reads.append(ended - began)
            phase.read_ends.append(ended - start - excluded_wall)
            if plan.kind == "rewritten":
                self._pending.append((category, aggregate, plan.sources, view))
            since_reload += 1
            if since_reload == self.reload_every:
                since_reload = 0
                paused, paused_cpu = time.perf_counter(), self_cpu_s()
                self.check_generation()
                self.generation += 1
                rows = self.rows(self.generation)
                excluded_wall += time.perf_counter() - paused
                excluded_cpu += self_cpu_s() - paused_cpu
                began = time.perf_counter()
                with tracer.span("request.write", count):
                    with tracer.span("facttable.load"):
                        facts = FactTable(self.instance, rows)
                    with tracer.span("navigator.reload_facts"):
                        navigator.reload_facts(facts)
                ended = time.perf_counter()
                phase.writes.append(ended - began)
                phase.write_ends.append(ended - start - excluded_wall)
            measured = time.perf_counter() - start - excluded_wall
            if measured >= next_sample:
                phase.busy.append((measured, self_cpu_s() - cpu_start - excluded_cpu))
                next_sample += BUSY_EVERY
            if measured >= cap_s(seconds) or (measured >= seconds and len(phase.reads) >= min_reads
                                           and len(phase.writes) >= min_writes):
                break
        phase.ended = time.perf_counter()
        phase.elapsed = phase.ended - start - excluded_wall
        phase.cpu_s = self_cpu_s() - cpu_start - excluded_cpu
        phase.hwm_mb = self_hwm_mb()
        phase.attempted = len(phase.reads) + len(phase.writes)
        after = navigator.stats
        phase.stats_before, phase.stats_after = vars(before), dict(vars(after))
        self.check_generation()
        return phase

    def check_generation(self) -> None:
        """Every rewritten answer of the current generation must equal a
        base scan of the same facts, from sources the kernel proves
        summarizable."""
        base: Dict[Tuple[str, str], object] = {}
        for category, aggregate, sources, view in self._pending:
            key = (category, sources)
            if key not in self._proven:
                self._proven[key] = is_summarizable_in_schema(
                    self.schema, category, sources, cache=None)
            if (category, aggregate.name) not in base:
                base[(category, aggregate.name)] = cube_view(
                    self.navigator.facts, category, aggregate, MEASURE)
            expected = base[(category, aggregate.name)]
            # views_equal's default tolerance is absolute (1e-9); a float
            # SUM over all facts (about 1.5e6 at All) differs from the
            # base scan by about 4e-9 from summation order alone, so the
            # tolerance is scaled to the largest cell (relative 1e-9).
            scale = max([1.0] + [abs(v) for v in expected.cells.values()])
            ok = self._proven[key] and views_equal(view, expected, tolerance=1e-9 * scale)
            if self.lie and not self.checked:
                ok = not ok
            self.checked += 1
            if not ok:
                self.mismatches.append(
                    f"{aggregate.name}({MEASURE}) at {category} rewritten from "
                    f"{list(sources)} in generation {self.generation} differs "
                    "from the base scan")
        self._pending = []

    def check(self) -> bool:
        return not self.mismatches

    def close(self) -> None:
        self.navigator = None  # type: ignore[assignment]
