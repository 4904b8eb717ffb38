"""Per-layer metrics for the traced run, measured from outside the
program: spans the benchmark puts around its own calls into each
module's public functions, diffs of the server's ``stats`` op, and the
navigator's public counters.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.core.cachestore import cache_file_path, load_cache, save_cache
from repro.core.compile import CompilationError, CompiledArtifactStore, CompiledDecisionEngine
from repro.core.decisioncache import DecisionCache
from repro.core.resilience import ResilientDecisionEngine
from repro.core.soak import oracle_decide
from repro.generators.workloads import mixed_trace
from repro.olap.cubeview import cube_view, recombine
from repro.olap.maintenance import SchemaEditor

from common import Metrics, Tracer, mean, percentile
from navigate import AGGREGATES, CATEGORIES, MEASURE, NavigateFacts
from served import Phase, engine_call

#: Caps on the in-process probes, so a long churn run stays bounded.
MAX_DECISIONS = 200
MAX_SCHEMAS = 20
#: Warm engine calls per probe (the request set is repeated to reach it).
WARM_CALLS = 3000
#: Parse calls per probe.
MAX_PARSES = 5000


def _us(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e6


def _diff(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    for key in path[:-1]:
        after, before = after.get(key, {}), before.get(key, {})
    return after.get(path[-1], 0) - before.get(path[-1], 0)


def _mean_self(tracer: Tracer, name: str) -> Optional[float]:
    times = tracer.self_times().get(name)
    return mean(times) if times else None


def _mean_duration(tracer: Tracer, name: str) -> Optional[float]:
    durations = tracer.durations(name)
    return mean(durations) if durations else None


def _compiled_call(engine: CompiledDecisionEngine, schema, request) -> bool:
    kind = request[0]
    if kind == "dimsat":
        return engine.dimsat(schema, request[1]).satisfiable
    if kind == "implies":
        return engine.implies(schema, request[1]).implied
    return engine.is_summarizable(schema, request[1], request[2])


# ----------------------------------------------------------------------
# The decision layers, in process
# ----------------------------------------------------------------------


def decision_probes(
    decisions: Sequence[Tuple[Any, Tuple[object, ...]]],
    texts: Sequence[str],
    seed: int,
    workdir: Path,
    tracer: Tracer,
    metrics: Metrics,
) -> Dict[str, float]:
    """Parser, kernel, engine (cold and warm), compiled tier, cache store
    and schema edits, each timed on the workload's own decisions.
    Returns the in-process engine costs (seconds) the served breakdown
    subtracts."""
    span = tracer.span
    decisions = list(decisions)[:MAX_DECISIONS]
    as_text = [
        (schema, ("implies", unparse(r[1])) if r[0] == "implies" else r)
        for schema, r in decisions
    ]

    # constraints.parser: each implies text of the run, in order.
    seen, repeats = set(), 0
    for text in texts:
        repeats += text in seen
        seen.add(text)
    for text in texts[:MAX_PARSES]:
        with span("parser.parse"):
            parse(text)
    metrics.set("parser.parse_us", _us(_mean_self(tracer, "parser.parse")), "us")
    metrics.set("parser.repeat_frac", repeats / len(texts) if texts else None, "ratio")

    # The kernel: uncached sequential calls, the oracle every verdict is
    # checked against.
    verdicts: Dict[int, object] = {}
    kernel_s = cold_s = 0.0
    for index, (schema, request) in enumerate(decisions):
        if request[0] == "navigate":
            continue
        started = time.perf_counter()
        with span("kernel." + str(request[0])):
            verdicts[index] = oracle_decide(schema, request)
        kernel_s += time.perf_counter() - started
    for kind in ("dimsat", "implies", "summarizable"):
        metrics.set(f"kernel.{kind}_us", _us(_mean_self(tracer, "kernel." + kind)), "us")

    # The server's miss path: the default resilient engine on a fresh cache.
    cache = DecisionCache()
    engine = ResilientDecisionEngine(max_workers=2, cache=cache)
    try:
        for index, (schema, request) in enumerate(as_text):
            started = time.perf_counter()
            with span("engine.cold"):
                engine_call(engine, schema, request)
            if index in verdicts:
                cold_s += time.perf_counter() - started
    finally:
        engine.shutdown()
    metrics.set("engine.cold_us", _us(_mean_self(tracer, "engine.cold")), "us")
    metrics.set("parallel.gain", kernel_s / cold_s if cold_s else None, "ratio")

    # core.cachestore on the working set the cold pass just built.
    store_dir = workdir / "probe-cache"
    shutil.rmtree(store_dir, ignore_errors=True)
    with span("cachestore.save"):
        save_cache(cache, str(store_dir))
    size = os.path.getsize(cache_file_path(str(store_dir)))
    warm = DecisionCache()
    with span("cachestore.load"):
        load_cache(warm, str(store_dir), verify_replay=True)
    metrics.set("cachestore.save_ms", _mean_self(tracer, "cachestore.save") * 1e3, "ms")
    metrics.set("cachestore.load_ms", _mean_self(tracer, "cachestore.load") * 1e3, "ms")
    metrics.set("cachestore.bytes_per_entry", size / max(1, len(cache)), "B")

    # Warm hits: the constraint as the server receives it vs pre-parsed.
    engine = ResilientDecisionEngine(max_workers=2, cache=warm)
    rounds = max(1, WARM_CALLS // max(1, len(decisions)))
    try:
        for name, requests in (("engine.warm", as_text), ("engine.warm_node", decisions)):
            for _ in range(rounds):
                for schema, request in requests:
                    with span(name):
                        engine_call(engine, schema, request)
    finally:
        engine.shutdown()
    warm_s = _mean_self(tracer, "engine.warm")
    metrics.set("engine.warm_us", _us(warm_s), "us")
    metrics.set("engine.warm_node_us", _us(_mean_self(tracer, "engine.warm_node")), "us")

    # The compiled tier on the same decisions (not the serve default).
    schemas: Dict[str, Any] = {}
    for schema, _request in decisions:
        if len(schemas) < MAX_SCHEMAS:
            schemas.setdefault(schema.fingerprint(), schema)
    artifacts = CompiledArtifactStore()
    for schema in schemas.values():
        with span("compile.artifact"):
            try:
                artifacts.get(schema).compile_all_roots()
            except CompilationError:
                pass
    compiled = CompiledDecisionEngine(cache=None, store=artifacts)
    for index, (schema, request) in enumerate(decisions):
        if index in verdicts and schema.fingerprint() in schemas:
            with span("kernel.compiled"):
                verdict = _compiled_call(compiled, schema, request)
            if verdict != verdicts[index]:
                raise AssertionError(
                    f"compiled tier answered {verdict} for {request!r}, "
                    f"kernel {verdicts[index]}")
    artifact_s = _mean_self(tracer, "compile.artifact")
    metrics.set("compile.artifact_ms", None if artifact_s is None else artifact_s * 1e3, "ms")
    metrics.set("kernel.compiled_us", _us(_mean_self(tracer, "kernel.compiled")), "us")

    # Schema edits over the cold cache: add an implied constraint, drop it.
    entries = rekeyed = 0
    for index, schema in enumerate(schemas.values()):
        edit = mixed_trace(schema, 1, seed=seed + index, weights={"edit": 1.0})[0]
        if edit[0] != "edit":
            continue  # no constraints to weaken
        editor = SchemaEditor(schema, cache=cache)
        entries += len(cache.entries_for(schema.fingerprint()))
        before = cache.stats.rekeyed
        with span("edit"):
            editor.add_constraint(edit[2])
        rekeyed += cache.stats.rekeyed - before
        with span("edit"):
            editor.drop_constraint(edit[2])
    edit_s = _mean_self(tracer, "edit")
    metrics.set("edit.ms", None if edit_s is None else edit_s * 1e3, "ms")
    metrics.set("edit.survival_frac", rekeyed / entries if entries else None, "ratio")
    return {"warm": warm_s or 0.0, "cold": _mean_self(tracer, "engine.cold") or 0.0}


# ----------------------------------------------------------------------
# The served layers
# ----------------------------------------------------------------------


def served_metrics(phase: Phase, tracer: Tracer, engine_s: float, metrics: Metrics) -> None:
    """Wire, loop and hop costs from the traced closed loop's spans, and
    cache/resilience/server counters from the ``stats`` diff."""
    metrics.set("wire.encode_us", _us(_mean_self(tracer, "wire.encode")), "us")
    metrics.set("wire.decode_us", _us(_mean_self(tracer, "wire.decode")), "us")
    loop = _mean_duration(tracer, "server.roundtrip.stats")
    rtt = _mean_duration(tracer, "server.roundtrip.read")
    metrics.set("server.loop_rtt_us", _us(loop), "us")
    metrics.set("server.decision_rtt_us", _us(rtt), "us")
    if loop is not None and rtt is not None:
        # The remainder: what neither the loop nor the engine explains.
        metrics.set("server.hop_us", _us(rtt - loop - engine_s), "us")
    after, before = phase.stats_after, phase.stats_before
    hits = _diff(after, before, "cache", "hits")
    misses = _diff(after, before, "cache", "misses")
    metrics.set("cache.hit_frac", hits / (hits + misses) if hits + misses else None, "ratio")
    metrics.set("cache.entries", after.get("cache", {}).get("entries"), "count")
    for name in ("rekeyed", "invalidations", "evictions"):
        metrics.set(f"cache.{name}", _diff(after, before, "cache", name), "count")
    for name, key in (("retries", "retries"), ("degraded", "degraded_sequential"),
                      ("unknown", "unknown_verdicts")):
        metrics.set(f"resilience.{name}", _diff(after, before, "resilience", key), "count")
    metrics.set("server.busy", _diff(after, before, "busy_responses"), "count")
    metrics.set("server.errors", _diff(after, before, "errors"), "count")
    metrics.set("server.schemas", after.get("schemas"), "count")


# ----------------------------------------------------------------------
# The data path
# ----------------------------------------------------------------------


def data_metrics(workload: NavigateFacts, phase: Phase, tracer: Tracer,
                 metrics: Metrics) -> None:
    """Fact load, view rebuild, scan and recombine costs, and the plan
    mix from the navigator's counters over the traced phase."""
    span = tracer.span
    load = _mean_self(tracer, "facttable.load")
    rebuild = _mean_self(tracer, "navigator.reload_facts")
    metrics.set("facttable.load_us_per_fact",
                None if load is None else load * 1e6 / workload.n_facts, "us")
    metrics.set("navigator.rebuild_ms", None if rebuild is None else rebuild * 1e3, "ms")

    facts = workload.navigator.facts
    rows = 0
    views = {}
    for category in CATEGORIES:
        for aggregate in AGGREGATES:
            with span("cubeview.scan"):
                view = cube_view(facts, category, aggregate, MEASURE)
            rows += view.rows_scanned
            views[(category, aggregate.name)] = view
    scan = tracer.self_times()["cubeview.scan"]
    metrics.set("cubeview.scan_us_per_row", sum(scan) * 1e6 / max(1, rows), "us")
    instance = workload.instance
    for category in CATEGORIES:
        for aggregate in AGGREGATES:
            _view, plan = workload.navigator.answer(category, aggregate, MEASURE)
            if plan.kind != "rewritten":
                continue
            sources = [views[(c, aggregate.name)] for c in plan.sources]
            with span("cubeview.recombine"):
                recombine(instance, category, sources, aggregate)
    metrics.set("cubeview.recombine_us", _us(_mean_self(tracer, "cubeview.recombine")), "us")

    after, before = phase.stats_after, phase.stats_before
    queries = _diff(after, before, "queries")
    for name, key in (("materialized_frac", "materialized_hits"),
                      ("rewritten_frac", "rewrites"), ("base_scan_frac", "base_scans")):
        metrics.set(f"navigator.plan.{name}",
                    _diff(after, before, key) / queries if queries else None, "ratio")
    metrics.set("navigator.rows_per_query",
                _diff(after, before, "rows_read") / queries if queries else None, "count")
    metrics.set("navigator.decisions", _diff(after, before, "summarizability_checks"), "count")


def overhead_metrics(untraced: Phase, traced: Phase, metrics: Metrics) -> None:
    """Tracing overhead: the traced half against the untraced half."""
    p50_u, p50_t = percentile(untraced.reads, 50), percentile(traced.reads, 50)
    metrics.set("trace.overhead_p50_frac", p50_t / p50_u - 1.0, "ratio")
    rate_u = len(untraced.reads) / untraced.elapsed
    rate_t = len(traced.reads) / traced.elapsed
    metrics.set("trace.overhead_throughput_frac", rate_u / rate_t - 1.0, "ratio")
