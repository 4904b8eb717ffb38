"""Shared pieces of the benchmark: percentiles, resource sampling,
benchmark-side spans, and the result line.

Nothing here imports ``repro``: these helpers measure the program from
outside, so they must not depend on it.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import re
import resource
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: A metric name: ``[A-Za-z0-9_.-]+``, starting with a letter or digit,
#: at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def cap_s(seconds: float) -> float:
    """The longest a phase of ``seconds`` runs while it waits for its
    fewest reads and writes: four times as long, and at least 20 s so a
    short phase can reach them too."""
    return 4 * max(seconds, 5.0)


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to have ``MIN_BEYOND``
    of them beyond it."""


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def min_samples(q: float) -> int:
    """The fewest samples for which percentile ``q`` has ``MIN_BEYOND``
    samples beyond it."""
    return math.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``values``.

    Raises :class:`TooFewSamples` unless at least ``MIN_BEYOND`` samples
    lie beyond the returned rank, so a p99 needs 1,000 samples and a
    p50 needs 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} is outside (0, 100)")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)"
        )
    return sorted(values)[rank - 1]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


# ----------------------------------------------------------------------
# Resource sampling
# ----------------------------------------------------------------------

_ON_LINUX = sys.platform.startswith("linux")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if _ON_LINUX else 0


def proc_cpu_s(pid: int) -> Optional[float]:
    """utime + stime of process ``pid`` in seconds, from
    ``/proc/<pid>/stat``; ``None`` off Linux."""
    if not _ON_LINUX:
        return None
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_hwm_mb(pid: int) -> Optional[float]:
    """``VmHWM`` (peak resident set) of process ``pid`` in MB, from
    ``/proc/<pid>/status``; ``None`` off Linux."""
    if not _ON_LINUX:
        return None
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return None


def steal_ticks() -> Optional[int]:
    """Time the host ran something else while this machine's CPUs wanted
    to run (the ``steal`` column of ``/proc/stat``), in clock ticks;
    ``None`` off Linux."""
    if not _ON_LINUX:
        return None
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else None


def steal_mark() -> Tuple[float, Optional[int]]:
    """Now, and the host's steal ticks now, for :func:`steal_share`."""
    return time.perf_counter(), steal_ticks()


def steal_share(mark: Tuple[float, Optional[int]]) -> Optional[float]:
    """Share of all CPUs' time the host stole since ``mark``."""
    (start, before), (now, after) = mark, steal_mark()
    if before is None or after is None or now <= start:
        return None
    return (after - before) / ((now - start) * _CLOCK_TICKS * (os.cpu_count() or 1))


class CpuSampler:
    """Samples the CPU time of the process doing the work (``read``
    returns it in seconds) every ``interval`` seconds, in a thread, while
    a phase runs."""

    def __init__(self, read: Callable[[], Optional[float]], interval: float = 0.1) -> None:
        self.read = read
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        cpu = self.read()
        if cpu is not None:
            self.samples.append((time.perf_counter(), cpu))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "CpuSampler":
        self._sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        assert self._thread is not None
        self._thread.join()
        self._sample()


#: A stretch of a phase counts when the process doing the work got at
#: least this share of the CPU it got in the phase's busiest stretches.
STEADY_SHARE = 0.9


def steady_spans(busy: Sequence[Tuple[float, float]],
                 width: float = 1.0) -> List[Tuple[float, float]]:
    """The stretches of a phase in which the process doing the work ran
    unhindered.

    ``busy`` holds ``(seconds into the phase, CPU seconds of that
    process)`` samples.  They are cut into stretches of about ``width``
    seconds, and a stretch counts when the process's share of one CPU in
    it is at least ``STEADY_SHARE`` of the share in the busiest tenth of
    the stretches.  On a shared host another tenant can take the CPU the
    program wants for seconds at a time; such a stretch says how busy the
    host was, not how fast the program is.  The bar is relative to the
    run, so a program that waits more everywhere keeps every stretch and
    shows it.  No samples (off Linux): no stretches.
    """
    spans: List[Tuple[float, float]] = []
    shares: List[float] = []
    first = 0
    for last in range(1, len(busy)):
        (t0, c0), (t1, c1) = busy[first], busy[last]
        if t1 - t0 >= width or last == len(busy) - 1:
            if t1 > t0:
                spans.append((t0, t1))
                shares.append((c1 - c0) / (t1 - t0))
            first = last
    if not spans:
        return []
    top = sorted(shares)[math.ceil(0.9 * len(shares)) - 1]
    return [span for span, share in zip(spans, shares) if share >= STEADY_SHARE * top]


def within(ends: Sequence[float], values: Sequence[float],
           spans: Sequence[Tuple[float, float]]) -> List[float]:
    """The ``values`` whose ``ends`` fall inside one of ``spans``."""
    starts = [a for a, _b in spans]
    kept = []
    for end, value in zip(ends, values):
        index = bisect.bisect_right(starts, end) - 1
        if index >= 0 and end < spans[index][1]:
            kept.append(value)
    return kept


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process, and every thread and process it starts from now
    on, on one CPU (the highest-numbered it may use); returns that CPU,
    or ``None`` where affinity cannot be set.

    A served request hops between the client, the server's event loop
    and its executor; each hop wakes a thread, and on a shared virtual
    machine a wake-up sent to another CPU waits whenever the host has
    taken that CPU away.  On one CPU every hop is local, and the closed
    loop, which never runs two things at once, loses nothing by it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_hwm_mb() -> Optional[float]:
    """Peak resident set of this process in MB (``ru_maxrss`` is KB on
    Linux); ``None`` off Linux, where the unit differs."""
    if not _ON_LINUX:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Benchmark-side spans
# ----------------------------------------------------------------------


class Tracer:
    """Spans recorded by the benchmark around its calls into each layer.

    A span is ``(id, name, start, end, parent id, request id)``.  The
    parent is the innermost open span of the same thread; a span opened
    with no request id inherits its parent's.  Spans stay in memory
    until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, object]] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._self_times: Tuple[int, Dict[str, List[float]]] = (0, {})

    @contextmanager
    def span(self, name: str, rid: object = None) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent, parent_rid = stack[-1] if stack else (0, None)
        with self._lock:
            span_id = next(self._ids)
        rid = parent_rid if rid is None else rid
        stack.append((span_id, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid))

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus what its children
        cover, in seconds (recomputed only when spans were added)."""
        if self._self_times[0] == len(self.spans):
            return self._self_times[1]
        covered: Dict[int, float] = {}
        for _sid, _name, start, end, parent, _rid in self.spans:
            if parent:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        result: Dict[str, List[float]] = {}
        for sid, name, start, end, _parent, _rid in self.spans:
            result.setdefault(name, []).append(end - start - covered.get(sid, 0.0))
        self._self_times = (len(self.spans), result)
        return result

    def durations(self, name: str) -> List[float]:
        return [end - start for _s, n, start, end, _p, _r in self.spans if n == name]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                [
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "request": rid}
                    for sid, name, start, end, parent, rid in self.spans
                ],
                handle,
            )


class NullTracer:
    """The untraced stand-in: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str, rid: object = None) -> Iterator[None]:
        yield


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class Metrics:
    """Named metrics with units, in the order they were set."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}

    def set(self, name: str, value: Optional[float], unit: str) -> None:
        """Record a metric; ``None`` (not measurable here) leaves it absent."""
        if value is not None:
            self.values[check_metric_name(name)] = (float(value), unit)

    def as_json(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in self.values.items()
        }


def result_line(correct: bool, attempted: int, failed: int, metrics: Metrics) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(max(1, attempted)),
            "failed": int(failed),
            "metrics": metrics.as_json(),
        }
    )


def log(message: str) -> None:
    """Progress to stderr; stdout carries only the result."""
    print(message, file=sys.stderr, flush=True)
