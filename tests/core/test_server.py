"""The decision server under concurrency: many clients over one shared
engine, byte-identical to the sequential kernel; edits rekey warm state
mid-traffic without a stale verdict; BUSY is backpressure, never a wrong
answer; warm state survives a stop/start cycle through the cache dir.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.decisioncache import DecisionCache
from repro.core.implication import is_implied
from repro.core.engine import DecisionEngine
from repro.core.resilience import ResilientDecisionEngine
from repro.core.faults import inject_faults
from repro.core.server import ALL_OPS, DecisionServer
from repro.core.client import DecisionClient, ServerClosed
from repro.core.summarizability import is_summarizable_in_schema
from repro.core.wire import encode_frame
from repro.generators.location import location_schema
from repro.io.json_io import schema_to_json


def _engine() -> ResilientDecisionEngine:
    """A resilient engine over a private cache (no global-state bleed)."""
    return ResilientDecisionEngine(DecisionEngine(cache=DecisionCache()))


@contextmanager
def running_server(**kwargs):
    kwargs.setdefault("engine", _engine())
    server = DecisionServer(**kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.started.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive(), "server thread did not stop"
        server.engine.shutdown()


def _client(server: DecisionServer, **kwargs) -> DecisionClient:
    return DecisionClient(server.host, server.port, timeout=30.0, **kwargs)


@pytest.fixture()
def loc_schema():
    return location_schema()


# A mixed decision workload over the location schema.  Truth values are
# never hardcoded here - every test compares against the sequential
# kernel run with cache=None.
IMPLIES_WORKLOAD = [
    "Store.City",
    "City.State.Country",
    "Store.SaleRegion",
    "City.Country",
    "State.Country",
]
SUMMARIZABLE_WORKLOAD = [
    ("Country", ["City"]),
    ("Country", ["City", "SaleRegion"]),
    ("Country", ["State", "Province"]),
    ("State", ["City"]),
]


class TestWireOpsEndToEnd:
    def test_load_schema_and_every_decision_op(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                assert fp == loc_schema.fingerprint()

                for constraint in IMPLIES_WORKLOAD:
                    response = client.implies(fp, constraint)
                    assert response["status"] == "ok"
                    assert response["verdict"] == is_implied(
                        loc_schema, constraint, cache=None
                    )

                for target, sources in SUMMARIZABLE_WORKLOAD:
                    response = client.summarizable(fp, target, sources)
                    assert response["status"] == "ok"
                    assert response["verdict"] == is_summarizable_in_schema(
                        loc_schema, target, sources, cache=None
                    )

                response = client.decide(fp, ("dimsat", "Store"))
                assert response["status"] == "ok"
                assert response["verdict"] is True
                assert response["rung"] == "primary"

    def test_decisions_make_no_hop_past_the_executor(self, loc_schema):
        """A decision runs on the ``decision-*`` executor thread that
        picked it up: serving starts no other thread."""
        with running_server() as server:
            before = {thread.ident for thread in threading.enumerate()}
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                assert client.decide(fp, ("dimsat", "Store"))["verdict"]
                assert client.implies(fp, "Store.City")["verdict"]
                assert client.summarizable(fp, "Country", ["City"])["verdict"]
            started = [
                thread.name
                for thread in threading.enumerate()
                if thread.ident not in before
            ]
        assert started
        assert all(name.startswith("decision") for name in started), started

    def test_navigate_plans(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                assert client.navigate(fp, "City", ["City"])["plan"] == (
                    "materialized"
                )
                rewritten = client.navigate(
                    fp, "Country", ["City", "SaleRegion"]
                )
                assert rewritten["plan"] == "rewritten"
                for source in rewritten["sources"]:
                    assert loc_schema.hierarchy.reaches(source, "Country")
                assert is_summarizable_in_schema(
                    loc_schema, "Country", rewritten["sources"], cache=None
                )
                # Nothing materialized reaches the target: full base scan.
                assert client.navigate(fp, "Country", [])["plan"] == "base-scan"

    def test_unknown_fingerprint_is_typed_error(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                response = client.implies("0" * 64, "Store.City")
                assert response["status"] == "error"
                assert "load-schema" in response["error"]

    def test_unknown_op_is_typed_error(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                response = client.call("frobnicate")
                assert response["status"] == "error"
                for op in ALL_OPS:
                    assert op in response["error"]

    def test_request_id_is_echoed(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                response = client.call(
                    "implies", fingerprint=fp, constraint="Store.City", id=42
                )
                assert response["id"] == 42

    def test_malformed_frame_poisons_only_its_connection(self, loc_schema):
        with running_server() as server:
            raw = socket.create_connection(
                (server.host, server.port), timeout=10
            )
            try:
                raw.sendall(b"\x00\x00\x00\x05nope!")
                # The server answers once (best effort) then hangs up.
                raw.settimeout(10)
                assert raw.recv(4096)
                assert raw.recv(4096) == b""
            finally:
                raw.close()
            # A fresh connection is unharmed.
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                assert client.implies(fp, "Store.City")["status"] == "ok"

    def test_stats_op_reports_the_surface(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                client.implies(fp, "Store.City")
                stats = client.stats()
                assert stats["status"] == "ok"
                assert stats["requests"] >= 2
                assert stats["served"]["implies"] == 1
                assert stats["schemas"] == 1
                assert stats["connections_open"] >= 1
                assert stats["cache"]["entries"] >= 1
                assert stats["resilience"]["decisions"] >= 1


class TestConcurrentClients:
    def test_concurrent_verdicts_byte_identical_to_sequential(
        self, loc_schema
    ):
        """N simultaneous clients must serve byte-for-byte the frames a
        fresh single-threaded server produces for the same requests."""

        def workload(client, fp):
            frames = []
            for constraint in IMPLIES_WORKLOAD:
                response = client.implies(fp, constraint)
                frames.append(encode_frame(response))
            for target, sources in SUMMARIZABLE_WORKLOAD:
                response = client.summarizable(fp, target, sources)
                frames.append(encode_frame(response))
            return frames

        # Reference: a fresh server, one client, strictly sequential.
        with running_server(engine=_engine()) as server:
            with _client(server) as client:
                reference = workload(client, client.load_schema(loc_schema))

        # Contender: 8 clients hammering one shared warm engine.
        with running_server() as server:
            results = [None] * 8
            errors = []

            def run(slot):
                try:
                    with _client(server) as client:
                        fp = client.load_schema(loc_schema)
                        results[slot] = workload(client, fp)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not errors
            for frames in results:
                assert frames == reference

    def test_shared_cache_serves_warm_hits_across_clients(self, loc_schema):
        with running_server() as server:
            with _client(server) as warmer:
                fp = warmer.load_schema(loc_schema)
                warmer.implies(fp, "Store.City")
            cache = server.cache
            hits_before = cache.stats.hits
            with _client(server) as reader:
                assert reader.implies(fp, "Store.City")["status"] == "ok"
            assert cache.stats.hits > hits_before

    def test_busy_is_never_a_wrong_verdict(self, loc_schema):
        """Saturate a max_inflight=1 server: some calls get BUSY, and
        every non-busy response still matches the sequential kernel."""
        engine = _engine()
        real_implies = engine.implies

        def slow_implies(schema, constraint):
            time.sleep(0.05)
            return real_implies(schema, constraint)

        engine.implies = slow_implies  # type: ignore[method-assign]
        with running_server(engine=engine, max_inflight=1) as server:
            with _client(server) as setup:
                fp = setup.load_schema(loc_schema)
            responses = []
            lock = threading.Lock()

            def hammer():
                # busy_retries=0: record raw BUSY responses instead of
                # retrying them away.
                with _client(server, busy_retries=0) as client:
                    for constraint in IMPLIES_WORKLOAD:
                        response = client.call(
                            "implies", fingerprint=fp, constraint=constraint
                        )
                        with lock:
                            responses.append((constraint, response))

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)

            busy = [r for _, r in responses if r["status"] == "busy"]
            served = [
                (c, r) for c, r in responses if r["status"] == "ok"
            ]
            assert busy, "saturation never triggered the BUSY gate"
            assert served, "every request was refused"
            for response in busy:
                # A BUSY carries backpressure data and no verdict.
                assert "verdict" not in response
                assert response["max_inflight"] == 1
            for constraint, response in served:
                assert response["verdict"] == is_implied(
                    loc_schema, constraint, cache=None
                )
            assert server.stats.busy_responses == len(busy)

    def test_mid_traffic_edit_rekeys_without_stale_verdict(self):
        """Readers hammer ``implies`` while an edit lands; afterwards the
        new fingerprint answers with the edited schema's truth, the old
        fingerprint still answers with the original truth, and a verdict
        whose dependency cone is disjoint from the delta survives the
        rekey as a warm hit."""
        from repro.core.hierarchy import HierarchySchema
        from repro.core.schema import DimensionSchema

        # Base -> {A, C} -> T -> All: the edit adds "Base -> A" (delta
        # cone on the Base/A branch); the warmed "C -> T" verdict lives
        # in the disjoint {C, T, All} cone, so it must be rekeyed.
        schema = DimensionSchema(
            HierarchySchema(
                ["Base", "A", "C", "T"],
                [
                    ("Base", "A"),
                    ("Base", "C"),
                    ("A", "T"),
                    ("C", "T"),
                    ("T", "All"),
                ],
            ),
            ["C -> T"],
        )
        flipping = "Base -> A"  # False originally...
        untouched = "C -> T"
        assert not is_implied(schema, flipping, cache=None)

        with running_server() as server:
            with _client(server) as editor:
                fp = editor.load_schema(schema)
                editor.implies(fp, flipping)
                editor.implies(fp, untouched)

                stop = threading.Event()
                observed = []
                errors = []

                def reader():
                    try:
                        with _client(server) as client:
                            while not stop.is_set():
                                response = client.implies(fp, flipping)
                                observed.append(response["verdict"])
                    except Exception as error:  # pragma: no cover
                        errors.append(error)

                threads = [
                    threading.Thread(target=reader) for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                time.sleep(0.05)
                edited = editor.edit(
                    fp, "add-constraint", constraint=flipping
                )
                assert edited["status"] == "ok"
                new_fp = edited["fingerprint"]
                assert new_fp != fp
                time.sleep(0.05)
                stop.set()
                for thread in threads:
                    thread.join(30)
                assert not errors

                # ...True under the edited schema; the readers queried
                # the OLD fingerprint throughout, so every observation
                # must be the old schema's verdict - an edit never makes
                # a registered fingerprint lie.
                assert observed and all(v is False for v in observed)
                assert editor.implies(new_fp, flipping)["verdict"] is True
                assert editor.implies(fp, flipping)["verdict"] is False

                # The delta-scoped rekey carried the untouched verdict
                # to the new fingerprint: warm hit, no recompute.
                cache = server.cache
                misses_before = cache.stats.misses
                response = editor.implies(new_fp, untouched)
                assert response["verdict"] is True
                assert cache.stats.misses == misses_before


class TestLifecycleAndPersistence:
    def test_ephemeral_port_is_assigned(self):
        with running_server(port=0) as server:
            assert server.port and server.port > 0

    def test_shutdown_op_acks_then_stops(self, loc_schema):
        server = DecisionServer(engine=_engine())
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10)
        with _client(server) as client:
            ack = client.shutdown()
            assert ack["status"] == "ok" and ack["stopping"] is True
        thread.join(10)
        assert not thread.is_alive()
        server.engine.shutdown()
        with pytest.raises((ServerClosed, OSError)):
            DecisionClient(server.host, server.port, timeout=2).stats()

    def test_warm_state_survives_a_restart(self, loc_schema, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with running_server(cache_dir=cache_dir) as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                for constraint in IMPLIES_WORKLOAD:
                    client.implies(fp, constraint)
        # running_server's exit path is the graceful stop: cache saved.

        with running_server(cache_dir=cache_dir) as server:
            cache = server.cache
            assert len(cache) >= len(IMPLIES_WORKLOAD)
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                misses_before = cache.stats.misses
                for constraint in IMPLIES_WORKLOAD:
                    response = client.implies(fp, constraint)
                    assert response["verdict"] == is_implied(
                        loc_schema, constraint, cache=None
                    )
                assert cache.stats.misses == misses_before

    def test_request_shutdown_from_another_thread_persists(
        self, loc_schema, tmp_path
    ):
        """The signal path: request_shutdown called off-loop (exactly
        what the SIGINT handler does) still lands the cache on disk."""
        cache_dir = str(tmp_path / "cache")
        server = DecisionServer(engine=_engine(), cache_dir=cache_dir)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10)
        with _client(server) as client:
            fp = client.load_schema(loc_schema)
            client.implies(fp, "Store.City")
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive()
        server.engine.shutdown()
        assert (tmp_path / "cache" / "decisions.cache").exists()

    def test_writes_honor_the_busy_gate(self, loc_schema):
        """A ``load-schema`` arriving while a decision holds the only
        in-flight slot is refused BUSY and registers nothing; ``stats``
        is answered on the loop regardless."""
        fresh = loc_schema.with_constraints(["City -> Province"])
        with running_server(max_inflight=1) as server:
            with _client(server) as setup:
                fp = setup.load_schema(loc_schema)

            def decide():
                with _client(server) as reader:
                    reader.implies(fp, "Store.City")

            held = threading.Thread(target=decide)
            with inject_faults("slow-worker:delay_ms=1000,p=1.0,times=1"):
                held.start()
                deadline = time.monotonic() + 10
                while server._inflight < 1 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert server._inflight == 1, "the decision never started"
                with _client(server, busy_retries=0) as writer:
                    response = writer.call(
                        "load-schema", schema_json=schema_to_json(fresh)
                    )
                    assert writer.call("stats")["status"] == "ok"
                held.join(30)
            assert response["status"] == "busy"
            assert "fingerprint" not in response
            assert fresh.fingerprint() not in server._schemas
            assert server.stats.busy_responses == 1
