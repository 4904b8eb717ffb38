"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload served-warm --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` times the workload and
prints every end-to-end metric; ``--trace 1`` is the separate traced run:
half the time untraced, half with benchmark-side spans around every call
into a layer, then in-process probes of each layer, and it prints every
per-layer metric plus the tracing overhead.  The last line of standard
output is the JSON result; progress goes to standard error.  The exit
code is non-zero if any verdict or cube view is wrong, or if the program
under test is missing.

Workloads (see ``perfbench/design.json`` for the full record):

``served-churn``   closed loop of 1 client on ``repro-olap serve``; fresh
                   random schemas, mixed traces and edits, so decisions
                   are cache misses.
``navigate-facts`` the aggregate navigator in process over ~1.1k members
                   and 30k facts, with periodic fact reloads.
``served-warm``    the same server under a closed loop of 2 clients, but
                   every decision is a hit of a persisted-and-reloaded
                   cache.  Not listed in
                   BENCHMARK.json: its sub-millisecond tail follows the
                   host's CPU contention rather than the program.  It runs
                   by hand, and the navigate-facts traced run probes it.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> bool:
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


def build_workload(name: str, seed: int, workdir: Path, tiny: bool = False):
    from navigate import NavigateFacts
    from served import ServedChurn, ServedWarm

    if name == "served-warm":
        return ServedWarm(seed, workdir, per_schema=10 if tiny else 30,
                          setups=1 if tiny else 3)
    if name == "served-churn":
        return ServedChurn(seed, workdir, categories=6 if tiny else 10,
                           setups=1 if tiny else 5, rss_sessions=5 if tiny else 250)
    if name == "navigate-facts":
        return NavigateFacts(seed, copies=5 if tiny else 50,
                             facts=2_000 if tiny else 30_000, setups=1 if tiny else 5)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("served-churn", "navigate-facts", "served-warm")


def end_to_end(phase, setup_s: float, metrics) -> None:
    """Rates and percentiles pool every op that completed in the phase's
    steady stretches (:func:`common.steady_spans`), or in the whole phase
    when those hold too few reads for a p99 or too few writes for a p50.
    CPU per op and peak RSS cover the whole phase."""
    from common import log, min_samples, percentile, steady_spans, within

    spans = steady_spans(phase.busy)
    reads = within(phase.read_ends, phase.reads, spans)
    log(f"steady stretches: {sum(b - a for a, b in spans):.1f}s of {phase.elapsed:.1f}s, "
        f"{len(reads)} of {len(phase.reads)} reads")
    seconds = sum(end - start for start, end in spans)
    if len(reads) < min_samples(99):
        reads, seconds = phase.reads, phase.elapsed
    writes = within(phase.write_ends, phase.writes, spans)
    if len(writes) < min_samples(50):
        writes = phase.writes
    ops = len(phase.reads) + len(phase.writes)
    metrics.set("setup_s", setup_s, "s")
    metrics.set("throughput_ops_s", len(reads) / seconds, "1/s")
    metrics.set("latency_p50_ms", percentile(reads, 50) * 1e3, "ms")
    metrics.set("latency_p99_ms", percentile(reads, 99) * 1e3, "ms")
    metrics.set("write_p50_ms", percentile(writes, 50) * 1e3, "ms")
    metrics.set("cpu_ms_per_op", None if phase.cpu_s is None else phase.cpu_s * 1e3 / ops, "ms")
    metrics.set("peak_rss_mb", phase.hwm_mb, "MB")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False, lie: bool = False):
    """Run one workload; returns ``(correct, attempted, failed, metrics,
    problems)``."""
    from common import Metrics, NullTracer, Tracer, log, steal_mark, steal_share
    from layers import data_metrics, decision_probes, overhead_metrics, served_metrics
    from navigate import NavigateFacts
    from served import ServedChurn, ServedWarm

    workload = build_workload(name, seed, workdir, tiny)
    workload.lie = lie
    metrics = Metrics()
    phases = []
    try:
        log(f"{name}: setting up")
        setup_s = workload.setup()
        if not trace:
            log(f"{name}: measuring {seconds:g}s")
            mark = steal_mark()
            phase = workload.measure(seconds, NullTracer())
            stolen = steal_share(mark)
            phases.append(phase)
            end_to_end(phase, setup_s, metrics)
            log(f"{name}: {len(phase.reads)} reads, {len(phase.writes)} writes "
                f"in {phase.elapsed:.2f}s; host steal "
                f"{'n/a' if stolen is None else f'{stolen:.1%}'}")
        else:
            tracer = Tracer()
            log(f"{name}: untraced then traced, {seconds / 2:g}s each")
            untraced = workload.measure(seconds / 2, NullTracer(), stats_every=10)
            mark = steal_mark()
            traced = workload.measure(seconds / 2, tracer, stats_every=10)
            metrics.set("host.steal_frac", steal_share(mark), "ratio")
            phases += [untraced, traced]
            overhead_metrics(untraced, traced, metrics)
            # The other side of the system, on a small probe, so every
            # traced run reports every layer.
            if isinstance(workload, NavigateFacts):
                other = ServedWarm(seed, workdir, per_schema=10 if tiny else 30, setups=1)
            else:
                other = NavigateFacts(seed, copies=5, facts=3_000, setups=1)
            log(f"{name}: probing {other.name} on a small input")
            try:
                other.setup()
                side = other.measure(min(4.0, seconds / 2), tracer, min_reads=0,
                                     min_writes=2, stats_every=10)
                phases.append(side)
                if not other.check():
                    workload.mismatches.extend(other.mismatches)
                log(f"{name}: probing layers")
                if isinstance(workload, NavigateFacts):
                    served, served_phase, data, data_phase = other, side, workload, traced
                else:
                    served, served_phase, data, data_phase = workload, traced, other, side
                engine_s = decision_probes(served.decisions(), served.implies_texts(),
                                           seed, workdir, tracer, metrics)
                served_metrics(served_phase, tracer,
                               engine_s["cold" if isinstance(served, ServedChurn) else "warm"],
                               metrics)
                data_metrics(data, data_phase, tracer, metrics)
            finally:
                other.close()
            attempted = sum(p.attempted for p in phases)
            metrics.set("failed_frac", sum(p.failed for p in phases) / max(1, attempted),
                        "ratio")
            tracer.dump(str(workdir.parent / "traces" / f"{name}-seed{seed}.json"))
        log(f"{name}: checking verdicts")
        correct = workload.check() and not any(p.crashed for p in phases)
    finally:
        workload.close()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + workload.setup_failures
    problems = list(workload.mismatches)
    for phase in phases:
        problems += phase.errors
    return correct, attempted, failed, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the server subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not _import_program():
        print(f"error: the program is missing (no {SRC / 'repro'})", file=sys.stderr)
        return 2
    from common import log, pin_to_one_cpu, result_line

    cpu = pin_to_one_cpu()
    log(f"pinned to CPU {cpu}" if cpu is not None else "not pinned: no CPU affinity here")
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics, problems = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:10]:
        log(f"problem: {problem}")
    for name, (value, unit) in metrics.values.items():
        log(f"  {name:36s} {value:14.4f} {unit}")
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
