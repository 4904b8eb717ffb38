"""The served workloads: the real ``repro-olap serve`` under a closed loop.

``served-warm`` replays a fixed set of distinct decision requests that
are all cache hits after a persisted-and-reloaded warm pass.
``served-churn`` streams fresh schemas, each with its own mixed trace of
decisions and constraint edits, so almost nothing repeats.

The server runs as a subprocess with its default engine.  The load
generator is this process: a closed loop of client threads (each
workload's ``clients``), one connection each, because the wire protocol
answers one request at a time per connection and every caller waits for
its verdict.  Verdicts are
checked against the uncached sequential kernel after the timed phase.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.constraints.printer import unparse
from repro.core.client import DecisionClient, ServerClosed
from repro.core.soak import oracle_decide
from repro.core.summarizability import is_summarizable_in_schema
from repro.core.wire import WireError, decode_frame, encode_frame
from repro.generators.location import location_schema
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from repro.generators.suite import suite_schemas
from repro.generators.workloads import mixed_trace
from repro.io.json_io import schema_to_json
from repro.olap.maintenance import SchemaEditor

from common import CpuSampler, NullTracer, cap_s, median, proc_cpu_s, proc_hwm_mb

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Trace weights with edits switched off (served-warm never writes a schema).
READ_WEIGHTS = {"dimsat": 0.30, "implies": 0.25, "summarizable": 0.20,
                "navigate": 0.15, "edit": 0.0}

#: On served-warm every ``WARM_WRITE_EVERY``-th op of a client re-sends
#: ``load-schema`` for a registered schema: an idempotent write that
#: leaves the cache warm.
WARM_WRITE_EVERY = 200

#: ``max_sources`` sent with every ``navigate`` op (the server's default).
NAVIGATE_MAX_SOURCES = 3


# ----------------------------------------------------------------------
# Requests, the oracle, and the engine-level mirror of each op
# ----------------------------------------------------------------------


def request_key(request: Sequence[object]) -> Tuple[object, ...]:
    """A hashable identity for a trace request."""
    if request[0] == "implies":
        return ("implies", unparse(request[1]))  # type: ignore[arg-type]
    return tuple(request)


def to_doc(request: Sequence[object], fingerprint: str) -> Dict[str, Any]:
    """The wire document the server receives for one trace request."""
    kind = request[0]
    if kind == "dimsat":
        return {"op": "decide", "fingerprint": fingerprint,
                "request": ["dimsat", request[1]]}
    if kind == "implies":
        return {"op": "implies", "fingerprint": fingerprint,
                "constraint": unparse(request[1])}  # type: ignore[arg-type]
    if kind == "summarizable":
        return {"op": "summarizable", "fingerprint": fingerprint,
                "target": request[1], "sources": list(request[2])}  # type: ignore[arg-type]
    if kind == "navigate":
        return {"op": "navigate", "fingerprint": fingerprint,
                "target": request[1], "materialized": list(request[2]),  # type: ignore[arg-type]
                "max_sources": NAVIGATE_MAX_SOURCES}
    raise ValueError(f"not a read request: {request!r}")


def navigate_plan(schema, target, materialized, decide) -> Tuple[str, List[str]]:
    """The schema-level navigation plan, searched in the server's
    documented order (size, then lexical) with ``decide`` answering each
    summarizability question."""
    if target in materialized:
        return "materialized", [target]
    hierarchy = schema.hierarchy
    reachable = sorted(
        c for c in set(materialized)
        if c != target and c in hierarchy.categories and hierarchy.reaches(c, target)
    )
    for size in range(1, min(NAVIGATE_MAX_SOURCES, len(reachable)) + 1):
        for combo in combinations(reachable, size):
            if decide(schema, target, combo):
                return "rewritten", list(combo)
    return "base-scan", []


def _kernel_summarizable(schema, target, sources) -> bool:
    return is_summarizable_in_schema(schema, target, sources, cache=None)


def expected(schema, request: Sequence[object]) -> object:
    """The uncached sequential kernel's answer: a boolean verdict, or a
    ``(plan, sources)`` pair for ``navigate``."""
    if request[0] == "navigate":
        return navigate_plan(schema, request[1], request[2], _kernel_summarizable)
    return oracle_decide(schema, request)


def outcome(response: Dict[str, Any]) -> object:
    """The comparable part of an ok response (witnesses are not compared:
    they depend on search order)."""
    if "plan" in response:
        return response["plan"], list(response["sources"])
    return response.get("verdict")


def engine_call(engine, schema, request: Sequence[object]) -> object:
    """What the server's executor does for one request, called in
    process on ``engine``.  An ``implies`` constraint is passed as given:
    text, as the server receives it, or a pre-parsed node."""
    kind = request[0]
    if kind == "dimsat":
        return engine.decide(schema, ("dimsat", request[1])).verdict
    if kind == "implies":
        return engine.implies(schema, request[1]).implied
    if kind == "summarizable":
        return engine.is_summarizable(schema, request[1], list(request[2]))
    return navigate_plan(schema, request[1], list(request[2]), engine.is_summarizable)


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------


class ServerProcess:
    """``python -m repro.cli [--cache-dir D] serve`` on an ephemeral port."""

    def __init__(self, workdir: Path, cache_dir: Optional[Path] = None) -> None:
        self.workdir = workdir
        self.cache_dir = cache_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        port_file = self.workdir / f"port-{time.monotonic_ns()}"
        argv = [sys.executable, "-m", "repro.cli"]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
        argv += ["serve", "--port", "0", "--port-file", str(port_file)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        with open(self.workdir / "server.log", "ab") as log_file:
            self.proc = subprocess.Popen(
                argv, cwd=str(REPO_ROOT), env=env,
                stdout=subprocess.DEVNULL, stderr=log_file,
            )
        deadline = time.monotonic() + timeout
        while True:
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.port = int(text)
                port_file.unlink()
                return self
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("the decision server did not start")
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def client(self) -> DecisionClient:
        return DecisionClient("127.0.0.1", self.port, timeout=120.0)

    def stats(self) -> Dict[str, Any]:
        with self.client() as client:
            return client.stats()

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful ``shutdown`` (which persists the cache), then wait."""
        if self.proc is None:
            return
        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=timeout)
        except (ServerClosed, OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

_HEADER = struct.Struct(">I")


class Connection:
    """One client connection.  Untraced it is the program's own
    :class:`DecisionClient`; traced, the same frames are written by hand
    so encode, round trip and decode each get a span."""

    def __init__(self, port: int, tracer) -> None:
        self.tracer = tracer
        self.traced = not isinstance(tracer, NullTracer)
        if self.traced:
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        else:
            self.client = DecisionClient("127.0.0.1", port, timeout=120.0)

    def call(self, doc: Dict[str, Any], kind: str, rid: object) -> Dict[str, Any]:
        if not self.traced:
            payload = dict(doc)
            return self.client.call(payload.pop("op"), **payload)
        span = self.tracer.span
        with span("request." + kind, rid):
            with span("wire.encode"):
                frame = encode_frame(doc)
            with span("server.roundtrip." + kind):
                self.sock.sendall(frame)
                (length,) = _HEADER.unpack(self._recv(_HEADER.size))
                payload = self._recv(length)
            with span("wire.decode"):
                return decode_frame(payload)

    def _recv(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self.sock.recv(n)
            if not chunk:
                raise ServerClosed("server closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        if self.traced:
            self.sock.close()
        else:
            self.client.close()


@dataclass
class Phase:
    """One measured phase of a closed loop."""

    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    #: When each read and write completed, in measured seconds from the
    #: start of the phase.
    read_ends: List[float] = field(default_factory=list)
    write_ends: List[float] = field(default_factory=list)
    #: ``(measured seconds, CPU seconds)`` samples of the process doing
    #: the work, for :func:`common.steady_spans`.
    busy: List[Tuple[float, float]] = field(default_factory=list)
    #: Wall-clock start and end of the phase.
    began: float = 0.0
    ended: float = 0.0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    cpu_s: Optional[float] = None
    hwm_mb: Optional[float] = None
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: A client thread died of an unexpected error: the run is not valid.
    crashed: bool = False


#: A client's op source: yields ``(document, is_write)`` and is sent
#: each response.
OpSource = Iterator[Tuple[Dict[str, Any], bool]]


def closed_loop(
    port: int,
    sources: Sequence[OpSource],
    seconds: float,
    min_reads: int,
    min_writes: int,
    tracer,
    stats_every: int = 0,
    until: Optional[Callable[[], bool]] = None,
) -> Phase:
    """Run one closed loop per source until ``seconds`` have passed, at
    least ``min_reads``/``min_writes`` ops completed and ``until`` (if
    given) holds, capped at ``cap_s(seconds)``.  With ``stats_every``
    each client also sends a ``stats`` op (answered on the loop thread)
    every that many ops.

    Any response other than ``ok`` (busy, unknown, error,
    budget-exceeded) or a lost connection counts as a failed op."""
    phase = Phase()
    lock = threading.Lock()
    barrier = threading.Barrier(len(sources) + 1)
    clock: Dict[str, float] = {}

    def enough(now: float) -> bool:
        if now >= clock["cap"]:
            return True
        return (now >= clock["end"] and len(phase.reads) >= min_reads
                and len(phase.writes) >= min_writes and (until is None or until()))

    def client(index: int, source: OpSource) -> None:
        attempted = failed = 0
        connection = None
        try:
            connection = Connection(port, tracer)
            barrier.wait()
            doc, is_write = next(source)
            count = 0
            while True:
                count += 1
                if stats_every and count % stats_every == 0:
                    connection.call({"op": "stats"}, "stats", (index, -count))
                kind = "write" if is_write else "read"
                start = time.perf_counter()
                response = connection.call(doc, kind, (index, count))
                end = time.perf_counter()
                attempted += 1
                if response.get("status") == "ok":
                    with lock:
                        if is_write:
                            phase.writes.append(end - start)
                            phase.write_ends.append(end - clock["start"])
                        else:
                            phase.reads.append(end - start)
                            phase.read_ends.append(end - clock["start"])
                else:
                    failed += 1
                    if len(phase.errors) < 10:
                        phase.errors.append(f"{doc.get('op')}: {response}")
                if enough(time.perf_counter()):
                    break
                doc, is_write = source.send(response)
        except StopIteration:
            pass
        except (ServerClosed, WireError, OSError, threading.BrokenBarrierError) as error:
            barrier.abort()
            failed += 1
            attempted += 1
            phase.errors.append(f"client {index}: {error!r}")
        except Exception:  # the thread boundary: report, never hang the run
            barrier.abort()
            phase.crashed = True
            phase.errors.append(f"client {index} crashed:\n{traceback.format_exc()}")
        finally:
            if connection is not None:
                connection.close()
            with lock:
                phase.attempted += attempted
                phase.failed += failed

    threads = [
        threading.Thread(target=client, args=(i, s), daemon=True)
        for i, s in enumerate(sources)
    ]
    for thread in threads:
        thread.start()
    start = phase.began = clock["start"] = time.perf_counter()
    clock["end"] = start + seconds
    clock["cap"] = start + cap_s(seconds)
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    phase.ended = time.perf_counter()
    phase.elapsed = phase.ended - start
    return phase


def served_phase(server: ServerProcess, run: Callable[[], Phase]) -> Phase:
    """Run ``run`` with ``stats`` and ``/proc`` samples at its boundaries,
    and the server's CPU time sampled throughout."""
    before_stats = server.stats()
    before_cpu = proc_cpu_s(server.pid)
    with CpuSampler(lambda: proc_cpu_s(server.pid)) as sampler:
        phase = run()
    after_cpu = proc_cpu_s(server.pid)
    phase.busy = [(at - phase.began, cpu) for at, cpu in sampler.samples]
    phase.stats_after = server.stats()
    phase.stats_before = before_stats
    if before_cpu is not None and after_cpu is not None:
        phase.cpu_s = after_cpu - before_cpu
    phase.hwm_mb = proc_hwm_mb(server.pid)
    return phase


# ----------------------------------------------------------------------
# served-warm
# ----------------------------------------------------------------------


def warm_schemas() -> Dict[str, Any]:
    """The four suite schemas plus ``location``."""
    schemas = {"location": location_schema()}
    schemas.update((k, v) for k, v in suite_schemas().items() if k != "retail")
    return schemas


def distinct_reads(schema, count: int, seed: int) -> List[Tuple[object, ...]]:
    """Up to ``count`` distinct read requests from ``mixed_trace`` with
    edits weighted 0."""
    seen, picked = set(), []
    for request in mixed_trace(schema, 40 * count, seed=seed, weights=READ_WEIGHTS):
        key = request_key(request)
        if key not in seen:
            seen.add(key)
            picked.append(request)
            if len(picked) == count:
                break
    return picked


class ServedWarm:
    """Every request is a cache hit of a persisted-and-reloaded cache."""

    name = "served-warm"
    #: Closed-loop clients, one connection each; the box has two cores.
    clients = 2

    def __init__(self, seed: int, workdir: Path, per_schema: int = 30,
                 schemas: Optional[Dict[str, Any]] = None, setups: int = 3) -> None:
        self.seed = seed
        self.workdir = workdir
        self.setups = setups
        self.schemas = schemas if schemas is not None else warm_schemas()
        #: (schema, request, wire document) per distinct request.
        self.requests: List[Tuple[Any, Tuple[object, ...], Dict[str, Any]]] = []
        for index, (name, schema) in enumerate(sorted(self.schemas.items())):
            fingerprint = schema.fingerprint()
            for request in distinct_reads(schema, per_schema, seed * 7919 + index):
                self.requests.append((schema, request, to_doc(request, fingerprint)))
        self.loads = [
            ({"op": "load-schema", "schema_json": schema_to_json(schema)},
             schema.fingerprint())
            for _name, schema in sorted(self.schemas.items())
        ]
        self.server: Optional[ServerProcess] = None
        #: (request index, outcome) of every ok read.
        self.answers: List[Tuple[int, object]] = []
        self.mismatches: List[str] = []
        self.setup_failures = 0
        self.phases = 0
        #: Flip one expected verdict (the lying-oracle self-test).
        self.lie = False

    def _register(self, server: ServerProcess) -> None:
        with server.client() as client:
            for doc, fingerprint in self.loads:
                response = client.call("load-schema", schema_json=doc["schema_json"])
                if response.get("fingerprint") != fingerprint:
                    self.mismatches.append(f"load-schema answered {response!r}")

    def _setup_once(self, cache_dir: Path) -> ServerProcess:
        server = ServerProcess(self.workdir, cache_dir).start()
        try:
            self._register(server)
            with server.client() as client:
                for _schema, _request, doc in self.requests:
                    payload = dict(doc)
                    if client.call(payload.pop("op"), **payload).get("status") != "ok":
                        self.setup_failures += 1
        finally:
            server.stop()  # persists the warm cache
        server = ServerProcess(self.workdir, cache_dir).start()  # replay-verified load
        try:
            self._register(server)
        except BaseException:
            server.kill()
            raise
        return server

    def setup(self) -> float:
        times = []
        for attempt in range(self.setups):
            cache_dir = self.workdir / f"warm-cache-{attempt}"
            shutil.rmtree(cache_dir, ignore_errors=True)
            start = time.perf_counter()
            server = self._setup_once(cache_dir)
            times.append(time.perf_counter() - start)
            if self.server is not None:
                self.server.stop()
            self.server = server
        return median(times)

    def _source(self, rng: random.Random) -> OpSource:
        count = 0
        while True:
            count += 1
            if count % WARM_WRITE_EVERY == 0:
                doc, fingerprint = self.loads[rng.randrange(len(self.loads))]
                response = yield doc, True
                if response.get("status") == "ok" and response.get("fingerprint") != fingerprint:
                    self.mismatches.append(f"load-schema answered {response!r}")
                continue
            index = rng.randrange(len(self.requests))
            response = yield self.requests[index][2], False
            if response.get("status") == "ok":
                self.answers.append((index, outcome(response)))

    def measure(self, seconds: float, tracer, min_reads: int = 1000,
                min_writes: int = 20, stats_every: int = 0) -> Phase:
        assert self.server is not None
        self.phases += 1
        sources = [
            self._source(random.Random(self.seed * 1_000_003 + self.phases * 101 + i))
            for i in range(self.clients)
        ]
        return served_phase(self.server, lambda: closed_loop(
            self.server.port, sources, seconds, min_reads, min_writes, tracer,
            stats_every))

    def implies_texts(self) -> List[str]:
        """The ``implies`` texts in the order the server received them."""
        return [self.requests[i][2]["constraint"] for i, _ in self.answers
                if self.requests[i][1][0] == "implies"]

    def decisions(self) -> List[Tuple[Any, Tuple[object, ...]]]:
        return [(schema, request) for schema, request, _doc in self.requests]

    def check(self) -> bool:
        truth = {}
        for index, _answer in self.answers:
            if index not in truth:
                schema, request, _doc = self.requests[index]
                truth[index] = expected(schema, request)
        if self.lie and self.answers:
            first = self.answers[0][0]
            truth[first] = _flip(truth[first])
        wrong = [(i, a) for i, a in self.answers if a != truth[i]]
        for index, answer in wrong[:5]:
            self.mismatches.append(
                f"{self.requests[index][1]!r}: served {answer!r}, "
                f"kernel {truth[index]!r}")
        return not self.mismatches

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _flip(truth: object) -> object:
    if isinstance(truth, bool):
        return not truth
    plan, sources = truth  # type: ignore[misc]
    return ("base-scan", []) if plan != "base-scan" else ("rewritten", ["?"])


# ----------------------------------------------------------------------
# served-churn
# ----------------------------------------------------------------------


def churn_session(seed: int, index: int, categories: int = 10, ops: int = 25):
    """Session ``index``: a fresh seeded random schema and its
    default-weight mixed trace."""
    session_seed = seed * 1_000_003 + index
    schema = random_schema(RandomSchemaConfig(n_categories=categories, seed=session_seed))
    return schema, mixed_trace(schema, ops, seed=session_seed)


class ServedChurn:
    """Fresh sessions: ``load-schema``, then a mixed trace with edits."""

    name = "served-churn"
    #: One closed-loop client.  The server is bound to one core (one
    #: interpreter lock), so a second client adds a few percent of
    #: throughput and triples the read latency: the two requests take
    #: turns on that core.  With one client the loop never wants more
    #: than one of the box's two cores, so a neighbour holding the other
    #: core does not show in its figures; with two it moved throughput
    #: and p99 by 10 to 50%.
    clients = 1

    def __init__(self, seed: int, workdir: Path, categories: int = 10,
                 ops: int = 25, setups: int = 5, rss_sessions: int = 250) -> None:
        self.seed = seed
        self.workdir = workdir
        self.categories = categories
        self.ops = ops
        self.setups = setups
        self.server: Optional[ServerProcess] = None
        self._next = 0
        #: The server's ``VmHWM`` when session ``rss_sessions`` starts.
        #: Tenants are never evicted, so the peak grows with the sessions
        #: served; read at a fixed session it does not follow how fast
        #: the host ran the run.
        self.rss_sessions = rss_sessions
        self.rss_mb: Optional[float] = None
        self._lock = threading.Lock()
        #: (schema version, request, outcome) of every ok read.
        self.answers: List[Tuple[Any, Tuple[object, ...], object]] = []
        self.mismatches: List[str] = []
        self.setup_failures = 0
        self.lie = False

    def setup(self) -> float:
        probe_schema, _trace = churn_session(self.seed, -1, self.categories, 1)
        times = []
        for _attempt in range(self.setups):
            start = time.perf_counter()
            server = ServerProcess(self.workdir).start()
            try:
                with server.client() as client:
                    fingerprint = client.load_schema(probe_schema)
                    doc = to_doc(("dimsat", sorted(probe_schema.hierarchy.categories)[0]),
                                 fingerprint)
                    payload = dict(doc)
                    if client.call(payload.pop("op"), **payload).get("status") != "ok":
                        self.setup_failures += 1
            except BaseException:
                server.kill()
                raise
            times.append(time.perf_counter() - start)
            if self.server is not None:
                self.server.stop()
            self.server = server
        return median(times)

    def _session(self):
        with self._lock:
            index = self._next
            self._next += 1
            if index == self.rss_sessions and self.server is not None:
                self.rss_mb = proc_hwm_mb(self.server.pid)
        return churn_session(self.seed, index, self.categories, self.ops)

    def _source(self) -> OpSource:
        while True:
            schema, trace = self._session()
            response = yield {"op": "load-schema", "schema_json": schema_to_json(schema)}, True
            if response.get("status") != "ok":
                continue
            fingerprint = response["fingerprint"]
            if fingerprint != schema.fingerprint():
                self.mismatches.append(f"load-schema answered {fingerprint}")
            editor = SchemaEditor(schema, cache=None)
            added: List[object] = []
            for request in trace:
                if request[0] != "edit":
                    response = yield to_doc(request, fingerprint), False
                    if response.get("status") == "ok":
                        self.answers.append((editor.schema, request, outcome(response)))
                    continue
                adding = request[1] == "add-implied"
                if not adding:
                    # Dropping removes every copy of a text, so a text
                    # added twice is gone after its first drop: skip the
                    # second rather than send an edit that must fail.
                    present = {unparse(c) for c in editor.schema.constraints}
                    while added and unparse(added[-1]) not in present:
                        added.pop()
                    if not added:
                        continue
                node = request[2] if adding else added[-1]
                response = yield {
                    "op": "edit", "fingerprint": fingerprint,
                    "action": "add-constraint" if adding else "drop-constraint",
                    "constraint": unparse(node),
                }, True
                if response.get("status") != "ok":
                    continue
                # Mirror the edit locally so expected verdicts are
                # computed against the edited schema.
                if adding:
                    editor.add_constraint(node)
                    added.append(node)
                else:
                    editor.drop_constraint(node)
                    added.pop()
                fingerprint = response["fingerprint"]
                if fingerprint != editor.schema.fingerprint():
                    self.mismatches.append(
                        f"edit produced {fingerprint}, local mirror "
                        f"{editor.schema.fingerprint()}")

    def measure(self, seconds: float, tracer, min_reads: int = 1000,
                min_writes: int = 20, stats_every: int = 0) -> Phase:
        assert self.server is not None
        sources = [self._source() for _ in range(self.clients)]
        phase = served_phase(self.server, lambda: closed_loop(
            self.server.port, sources, seconds, min_reads, min_writes, tracer,
            stats_every, until=lambda: self._next > self.rss_sessions))
        if self.rss_mb is not None:
            phase.hwm_mb = self.rss_mb
        return phase

    def implies_texts(self) -> List[str]:
        return [unparse(r[1]) for _s, r, _a in self.answers if r[0] == "implies"]

    def decisions(self) -> List[Tuple[Any, Tuple[object, ...]]]:
        seen, result = set(), []
        for schema, request, _answer in self.answers:
            key = (schema.fingerprint(), request_key(request))
            if key not in seen:
                seen.add(key)
                result.append((schema, request))
        return result

    def check(self) -> bool:
        for position, (schema, request, answer) in enumerate(self.answers):
            truth = expected(schema, request)
            if self.lie and position == 0:
                truth = _flip(truth)
            if answer != truth:
                self.mismatches.append(
                    f"{request!r} on {schema.fingerprint()[:12]}: served "
                    f"{answer!r}, kernel {truth!r}")
                if len(self.mismatches) >= 5:
                    break
        return not self.mismatches

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
