"""Tests for the HTTP/WebSocket serving edge (repro.serve.http).

Three contracts hold the edge to the rest of the stack:

* **parity** — a session driven over HTTP or WebSocket produces a
  transcript byte-identical to a sequential ``DiscoverySession.run``
  (the same golden serialization the engine tests use);
* **validation** — malformed requests get clear 4xx JSON errors, never
  hangs or 500s: missing/wrong bearer tokens, unknown sessions and
  routes, wrong methods, bad JSON, double answers; a request the
  embedded server cannot frame gets a bare status line and a close;
* **drain** — a draining server rejects new sessions with 503, lets
  in-flight sessions finish, and rejects waiters stranded by ``aclose``
  with 503 too (the HTTP mirror of ``ServiceClosed``).

Everything runs against the real :class:`EmbeddedServer` over loopback
TCP via the stdlib client (:mod:`repro.serve.client`) — no ASGI
test-double, so the HTTP/1.1 and RFC 6455 bridging is exercised as
deployed.  Loops are driven with ``asyncio.run`` inside sync tests, so
no pytest-asyncio dependency.
"""

from __future__ import annotations

import asyncio
import json
from contextlib import asynccontextmanager

import pytest

from repro.core.discovery import DiscoverySession
from repro.core.selection import MostEvenSelector
from repro.data.synthetic import SyntheticConfig, generate_collection
from repro.oracle import SimulatedUser
from repro.serve import (
    AsyncDiscoveryService,
    DiscoveryApp,
    EmbeddedServer,
    FlushPolicy,
    LatencyReservoir,
    ScanScheduler,
    SessionRegistry,
)
from repro.serve.client import (
    HttpConnection,
    HttpSessionClient,
    ServerBusy,
    WsSessionClient,
)
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    MAX_HEADER_LINES,
    read_ws_frame,
    websocket_accept_key,
)
from repro.serve.metrics import quantile_sorted


def make_collection(n_sets: int = 60, seed: int = 7):
    return generate_collection(
        SyntheticConfig(
            n_sets=n_sets, size_lo=10, size_hi=16, overlap=0.8, seed=seed
        ),
        backend="bigint",
    )


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


@asynccontextmanager
async def serve(
    collection,
    *,
    flush_after_ms: float = 1.0,
    max_batch: "int | None" = 64,
    require_auth: bool = True,
    service_kwargs: "dict | None" = None,
    app_kwargs: "dict | None" = None,
):
    """A live embedded server over loopback; yields (app, host, port)."""
    async with AsyncDiscoveryService(
        collection,
        flush_after_ms=flush_after_ms,
        max_batch=max_batch,
        **(service_kwargs or {}),
    ) as service:
        app = DiscoveryApp(service, require_auth=require_auth, **(app_kwargs or {}))
        async with EmbeddedServer(app, port=0) as server:
            yield app, server.host, server.port


def serialize_payloads(payloads) -> bytes:
    """Golden serialization of HTTP result payloads (mirrors
    tests/test_engine.serialize_results field for field)."""
    out = [
        {
            "candidates": p["candidates"],
            "n_questions": p["n_questions"],
            "transcript": [
                [
                    i["entity"],
                    i["answer"],
                    i["candidates_before"],
                    i["candidates_after"],
                ]
                for i in p["transcript"]
            ],
        }
        for p in payloads
    ]
    return json.dumps(out, sort_keys=True).encode()


def serialize_results(results) -> bytes:
    out = [
        {
            "candidates": r.candidates,
            "n_questions": r.n_questions,
            "transcript": [
                [i.entity, i.answer, i.candidates_before, i.candidates_after]
                for i in r.transcript
            ],
        }
        for r in results
    ]
    return json.dumps(out, sort_keys=True).encode()


def sequential_golden(collection, targets) -> bytes:
    results = []
    for target in targets:
        session = DiscoverySession(collection, MostEvenSelector())
        results.append(
            session.run(SimulatedUser(collection, target_index=target))
        )
    return serialize_results(results)


# --------------------------------------------------------------------- #
# Transcript parity over the wire
# --------------------------------------------------------------------- #


class TestTranscriptParity:
    TARGETS = [0, 7, 19, 33, 41, 52]

    def test_http_sessions_match_sequential_golden(self):
        collection = make_collection()
        golden = sequential_golden(collection, self.TARGETS)

        async def scenario():
            async with serve(collection) as (_, host, port):

                async def one(target):
                    oracle = SimulatedUser(collection, target_index=target)
                    async with HttpSessionClient(host, port) as client:
                        await client.create(selector="most-even")
                        return await client.run(oracle)

                return await asyncio.gather(
                    *(one(t) for t in self.TARGETS)
                )

        payloads = run(scenario())
        assert serialize_payloads(payloads) == golden
        assert all(p["resolved"] for p in payloads)

    def test_websocket_sessions_match_sequential_golden(self):
        collection = make_collection()
        golden = sequential_golden(collection, self.TARGETS)

        async def scenario():
            async with serve(collection) as (_, host, port):

                async def one(target):
                    oracle = SimulatedUser(collection, target_index=target)
                    async with WsSessionClient(host, port) as client:
                        await client.create(selector="most-even")
                        return await client.run(oracle)

                return await asyncio.gather(
                    *(one(t) for t in self.TARGETS)
                )

        payloads = run(scenario())
        assert serialize_payloads(payloads) == golden

    def test_http_and_ws_mixed_still_match(self):
        collection = make_collection()
        golden = sequential_golden(collection, self.TARGETS)

        async def scenario():
            async with serve(collection) as (_, host, port):

                async def one(i, target):
                    oracle = SimulatedUser(collection, target_index=target)
                    cls = HttpSessionClient if i % 2 else WsSessionClient
                    async with cls(host, port) as client:
                        await client.create(selector="most-even")
                        return await client.run(oracle)

                return await asyncio.gather(
                    *(one(i, t) for i, t in enumerate(self.TARGETS))
                )

        payloads = run(scenario())
        assert serialize_payloads(payloads) == golden


# --------------------------------------------------------------------- #
# Request validation: clear 4xx errors
# --------------------------------------------------------------------- #


class TestValidation:
    def test_auth_and_route_errors(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (_, host, port):
                async with HttpConnection(host, port) as conn:
                    status, created = await conn.request(
                        "POST", "/sessions", {"selector": "most-even"}
                    )
                    assert status == 201
                    sid, token = created["session"], created["token"]

                    # no token at all
                    status, body = await conn.request(
                        "GET", f"/sessions/{sid}/question"
                    )
                    assert (status, body["error"]) == (401, "missing-token")

                    # malformed Authorization header
                    status, body = await conn.request(
                        "GET", f"/sessions/{sid}/question", token=""
                    )
                    assert status in (401, 403)

                    # wrong token
                    status, body = await conn.request(
                        "GET", f"/sessions/{sid}/question", token="nope"
                    )
                    assert (status, body["error"]) == (403, "wrong-token")

                    # unknown session (404 before any token check)
                    status, body = await conn.request(
                        "GET", "/sessions/ghost/question", token=token
                    )
                    assert (status, body["error"]) == (
                        404,
                        "unknown-session",
                    )

                    # unknown route and wrong method
                    status, body = await conn.request("GET", "/nope")
                    assert (status, body["error"]) == (404, "not-found")
                    status, body = await conn.request("GET", "/sessions")
                    assert (status, body["error"]) == (
                        405,
                        "method-not-allowed",
                    )
                    status, body = await conn.request(
                        "POST", f"/sessions/{sid}/question", token=token
                    )
                    assert status == 405

        run(scenario())

    def test_create_validation(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (_, host, port):
                async with HttpConnection(host, port) as conn:
                    status, body = await conn.request(
                        "POST", "/sessions", {"selector": "quantum"}
                    )
                    assert (status, body["error"]) == (400, "bad-selector")

                    status, body = await conn.request(
                        "POST", "/sessions", {"initial": "e3"}
                    )
                    assert (status, body["error"]) == (400, "bad-initial")

                    status, body = await conn.request(
                        "POST", "/sessions", {"max_questions": 0}
                    )
                    assert (status, body["error"]) == (
                        400,
                        "bad-max-questions",
                    )

        run(scenario())

    def test_answer_validation(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (_, host, port):
                async with HttpSessionClient(host, port) as client:
                    await client.create(selector="most-even")
                    sid, token = client.session, client.token
                    conn = client.conn

                    # answer with no pending question
                    status, body = await conn.request(
                        "POST",
                        f"/sessions/{sid}/answer",
                        {"answer": True},
                        token=token,
                    )
                    assert (status, body["error"]) == (
                        409,
                        "no-pending-question",
                    )

                    assert await client.next_question() is not None

                    # body missing the field / wrong type
                    status, body = await conn.request(
                        "POST",
                        f"/sessions/{sid}/answer",
                        {},
                        token=token,
                    )
                    assert (status, body["error"]) == (
                        400,
                        "missing-answer",
                    )
                    status, body = await conn.request(
                        "POST",
                        f"/sessions/{sid}/answer",
                        {"answer": "yes"},
                        token=token,
                    )
                    assert (status, body["error"]) == (400, "bad-answer")

                    # Finish the session, then answer again: the handle
                    # still exists, so this is the session-finished 409
                    # (not unknown-session).  Finishing first keeps the
                    # check deterministic — right after a *recorded*
                    # answer the scheduler races to pre-select the next
                    # question, so a double answer may legitimately land
                    # on the new question instead of conflicting.
                    await client.send_answer(True)
                    await client.run(SimulatedUser(collection, target_index=3))
                    status, body = await conn.request(
                        "POST",
                        f"/sessions/{sid}/answer",
                        {"answer": False},
                        token=token,
                    )
                    assert (status, body["error"]) == (
                        409,
                        "session-finished",
                    )

        run(scenario())

    def test_bad_json_body(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (_, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                payload = b"{not json"
                writer.write(
                    b"POST /sessions HTTP/1.1\r\nhost: x\r\n"
                    b"content-length: "
                    + str(len(payload)).encode()
                    + b"\r\n\r\n"
                    + payload
                )
                await writer.drain()
                status_line = await reader.readline()
                assert b" 400 " in status_line
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_websocket_attach_and_protocol_errors(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (_, host, port):
                # attach with a bogus session -> error + close 1008
                async with WsSessionClient(host, port) as ws:
                    await ws.send_json(
                        {"type": "attach", "session": "ghost", "token": "x"}
                    )
                    message = await ws.receive_json()
                    assert message["type"] == "error"
                    assert message["error"] == "unknown-session"
                    assert await ws.receive_json() is None

                # first message must be create/attach
                async with WsSessionClient(host, port) as ws:
                    await ws.send_json({"type": "subscribe"})
                    message = await ws.receive_json()
                    assert message["type"] == "error"

                # create then attach over HTTP-minted credentials works
                async with HttpSessionClient(host, port) as http:
                    created = await http.create(selector="most-even")
                async with WsSessionClient(host, port) as ws:
                    await ws.send_json(
                        {
                            "type": "attach",
                            "session": created["session"],
                            "token": created["token"],
                        }
                    )
                    message = await ws.receive_json()
                    assert message["type"] == "attached"

        run(scenario())

    def test_accept_key_is_rfc6455(self):
        # The RFC 6455 worked example.
        assert (
            websocket_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )


# --------------------------------------------------------------------- #
# Request framing: strict and bounded before the app sees anything
# --------------------------------------------------------------------- #


async def raw_exchange(request: bytes) -> bytes:
    """Send raw bytes to a fresh embedded server; return its first line."""
    async with serve(make_collection(n_sets=40)) as (_, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(request)
        try:
            return await reader.readline()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def post_sessions(*headers: bytes, body: bytes = b"{}") -> bytes:
    head = b"".join(h + b"\r\n" for h in headers)
    return b"POST /sessions HTTP/1.1\r\nhost: x\r\n" + head + b"\r\n" + body


def get_healthz(*headers: bytes) -> bytes:
    head = b"".join(h + b"\r\n" for h in headers)
    return b"GET /healthz HTTP/1.1\r\nhost: x\r\n" + head + b"\r\n"


#: (case, raw request, status).  Past each cap the server answers and
#: closes; at the header-line cap it still serves the request.
FRAMING_CASES = [
    ("negative-content-length", post_sessions(b"content-length: -1"), 400),
    ("signed-content-length", post_sessions(b"content-length: +2"), 400),
    (
        "conflicting-content-lengths",
        post_sessions(b"content-length: 2", b"content-length: 3"),
        400,
    ),
    (
        "body-past-cap",
        post_sessions(b"content-length: %d" % (MAX_BODY_BYTES + 1), body=b""),
        413,
    ),
    (
        "request-line-past-stream-limit",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        400,
    ),
    (
        "header-line-past-stream-limit",
        get_healthz(b"x-big: " + b"a" * 70_000),
        431,
    ),
    (
        "header-lines-at-cap",  # host plus MAX_HEADER_LINES - 1 more
        get_healthz(*(b"x-h%d: v" % i for i in range(MAX_HEADER_LINES - 1))),
        200,
    ),
    (
        "header-lines-past-cap",
        get_healthz(*(b"x-h%d: v" % i for i in range(MAX_HEADER_LINES))),
        431,
    ),
    (
        "header-bytes-past-cap",  # each line far inside the stream limit
        get_healthz(
            *(
                b"x-h%03d: " % i + b"a" * 1000
                for i in range(MAX_HEADER_BYTES // 1000 + 1)
            )
        ),
        431,
    ),
    (
        "transfer-encoding",
        post_sessions(b"transfer-encoding: chunked", body=b"2\r\n{}\r\n0\r\n\r\n"),
        501,
    ),
]


class TestRequestFraming:
    """A request the embedded server cannot frame gets a status line,
    never a dropped connection, an unhandled loop error or unbounded
    buffering."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [pytest.param(r, st, id=case) for case, r, st in FRAMING_CASES],
    )
    def test_status_line(self, request_bytes, status):
        status_line = run(raw_exchange(request_bytes))
        assert status_line.startswith(b"HTTP/1.1 %d " % status)

    def test_websocket_frame_past_the_cap_closes_1009(self):
        async def scenario():
            async with serve(make_collection(n_sets=40)) as (_, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"GET /ws HTTP/1.1\r\nhost: x\r\nupgrade: websocket\r\n"
                    b"connection: Upgrade\r\nsec-websocket-version: 13\r\n"
                    b"sec-websocket-key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n"
                )
                assert b" 101 " in await reader.readline()
                await reader.readuntil(b"\r\n\r\n")
                # Only the head of a masked text frame one byte past the
                # cap: the close must come before any payload is sent.
                writer.write(
                    bytes([0x81, 0x80 | 127])
                    + (MAX_BODY_BYTES + 1).to_bytes(8, "big")
                )
                frame = await asyncio.wait_for(read_ws_frame(reader), 5)
                writer.close()
                await writer.wait_closed()
                return frame

        assert run(scenario()) == (0x8, (1009).to_bytes(2, "big"))


# --------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------- #


class TestDrain:
    def test_drain_rejects_new_sessions_but_finishes_inflight(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (app, host, port):
                oracle = SimulatedUser(collection, target_index=5)
                async with HttpSessionClient(host, port) as client:
                    await client.create(selector="most-even")
                    entity = await client.next_question()

                    app.begin_drain()

                    # new sessions: 503 over HTTP ...
                    async with HttpConnection(host, port) as conn:
                        status, body = await conn.request(
                            "POST", "/sessions", {}
                        )
                        assert (status, body["error"]) == (503, "draining")
                    # ... and a websocket create is refused pre-accept
                    with pytest.raises(ConnectionError):
                        async with WsSessionClient(host, port):
                            pass

                    # the in-flight session runs to completion
                    await client.send_answer(oracle(entity))
                    payload = await client.run(oracle)
                    assert payload["resolved"]

                    status, health = await client.conn.request(
                        "GET", "/healthz"
                    )
                    assert health["status"] == "draining"
                    assert health["active_sessions"] == 0

        run(scenario())

    def test_aclose_rejects_stranded_waiters_with_503(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            # A huge budget and no watermark: with two sessions and only
            # one asking, the policy never fires, so the long-poll hangs
            # until drain's aclose() rejects it -> 503, not a dead socket.
            async with serve(
                collection, flush_after_ms=60_000.0, max_batch=None
            ) as (app, host, port):
                async with (
                    HttpSessionClient(host, port) as asker,
                    HttpSessionClient(host, port) as idler,
                ):
                    await asker.create(selector="most-even")
                    await idler.create(selector="most-even")
                    poll = asyncio.create_task(
                        asker.conn.request(
                            "GET",
                            f"/sessions/{asker.session}/question",
                            token=asker.token,
                        )
                    )
                    await asyncio.sleep(0.05)
                    assert not poll.done()

                    await app.drain(grace_s=0.2)

                    status, body = await poll
                    assert (status, body["error"]) == (503, "draining")

        run(scenario())


# --------------------------------------------------------------------- #
# Metrics endpoint + ServiceMetrics plumbing
# --------------------------------------------------------------------- #


class TestMetrics:
    def test_metrics_exposition_after_traffic(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (app, host, port):
                oracle = SimulatedUser(collection, target_index=3)
                async with HttpSessionClient(host, port) as client:
                    await client.create(selector="most-even")
                    await client.run(oracle)
                    status, text = await client.conn.request(
                        "GET", "/metrics"
                    )
                assert status == 200
                return app, text

        app, text = run(scenario())
        for needle in [
            'repro_ask_latency_seconds{quantile="0.5"}',
            'repro_ask_latency_seconds{quantile="0.95"}',
            'repro_ask_latency_seconds{quantile="0.99"}',
            "repro_ask_latency_seconds_count",
            "repro_queue_depth 0",
            "repro_flush_occupancy",
            'repro_sessions{phase="finished"} 1',
            'repro_sessions{phase="needs-scan"} 0',
            "repro_websocket_sessions 0",
            "repro_flushes_total",
            "repro_flushed_requests_total",
            'repro_http_requests_total{route="/sessions",status="201"} 1',
            'repro_http_requests_total{route="/sessions/{id}/question"'
            ',status="200"}',
        ]:
            assert needle in text, needle
        # every ask was observed, occupancy is a sane mean
        assert app.metrics.ask_latency.count > 0
        assert app.metrics.flush_occupancy > 0.0
        snapshot = app.metrics.snapshot()
        assert set(snapshot["ask_latency_ms"]) == {"p50", "p95", "p99"}
        assert snapshot["sessions"]["finished"] == 1

    def test_ws_session_gauge_tracks_live_connections(self):
        collection = make_collection(n_sets=40)

        async def scenario():
            async with serve(collection) as (app, host, port):
                async with WsSessionClient(host, port) as ws:
                    await ws.create(selector="most-even")
                    assert app.metrics.ws_sessions == 1
                await asyncio.sleep(0.05)
                assert app.metrics.ws_sessions == 0

        run(scenario())


class TestMetricsUnits:
    def test_quantile_sorted(self):
        assert quantile_sorted([], 0.5) == 0.0
        assert quantile_sorted([3.0], 0.99) == 3.0
        values = [float(i) for i in range(1, 101)]
        assert quantile_sorted(values, 0.0) == 1.0
        assert quantile_sorted(values, 1.0) == 100.0
        assert quantile_sorted(values, 0.5) == 51.0  # nearest rank

    def test_latency_reservoir_window_and_lifetime(self):
        reservoir = LatencyReservoir(window=4)
        for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
            reservoir.observe(value)
        assert len(reservoir) == 4  # window kept the newest four
        assert reservoir.count == 6  # lifetime count never resets
        assert reservoir.total_seconds == pytest.approx(21.0)
        quantiles = reservoir.quantiles((0.5, 1.0))
        assert quantiles[1.0] == 6.0


# --------------------------------------------------------------------- #
# FlushPolicy: the one home of the flush decision
# --------------------------------------------------------------------- #


class TestFlushPolicy:
    def test_watermark_and_deadline(self):
        policy = FlushPolicy(flush_after_ms=5.0, max_batch=3)
        assert not policy.watermark_hit(2)
        assert policy.watermark_hit(3)
        assert policy.deadline(None) is None
        assert policy.deadline(10.0) == pytest.approx(10.005)
        assert not policy.due(10.0, 10.004)
        assert policy.due(10.0, 10.005)
        assert policy.should_flush(queued=3, first_at=None, now=0.0)
        assert policy.should_flush(queued=1, first_at=0.0, now=1.0)
        assert not policy.should_flush(queued=1, first_at=1.0, now=1.001)

    def test_disabled_arms(self):
        manual = FlushPolicy(flush_after_ms=None, max_batch=None)
        # both arms off: the policy never fires on its own — flushing is
        # the front-end's job (lock-step ticks / all-waiting shortcut)
        assert manual.deadline(5.0) is None
        assert not manual.due(first_at=5.0, now=1e9)
        assert not manual.watermark_hit(10_000)
        assert not manual.should_flush(
            queued=10_000, first_at=5.0, now=1e9
        )

    def test_scheduler_delegates_to_its_policy(self):
        collection = make_collection(n_sets=30)
        now = 100.0
        scheduler = ScanScheduler(
            SessionRegistry(collection),
            flush_after_ms=4.0,
            max_batch=2,
            clock=lambda: now,
        )
        assert scheduler.policy == FlushPolicy(
            flush_after_ms=4.0, max_batch=2
        )
        assert scheduler.flush_after_ms == 4.0
        assert scheduler.max_batch == 2
        key = scheduler.registry.spawn(MostEvenSelector())
        scheduler.submit(scheduler.registry.state(key))
        # one queued request: policy and scheduler agree at every clock
        assert scheduler.should_flush() == scheduler.policy.should_flush(
            scheduler.pending_requests, now, now
        )
        assert not scheduler.should_flush()
        now = 100.0041
        assert scheduler.should_flush()  # budget elapsed

    def test_flushed_requests_counter_feeds_occupancy(self):
        collection = make_collection(n_sets=30)
        scheduler = ScanScheduler(
            SessionRegistry(collection), flush_after_ms=None, max_batch=None
        )
        for _ in range(3):
            key = scheduler.registry.spawn(MostEvenSelector())
            scheduler.submit(scheduler.registry.state(key))
        scheduler.flush()
        # flush() counts served requests; the front-end counts the round
        # (ticks) — together they give ServiceMetrics.flush_occupancy.
        assert scheduler.stats.flushed_requests == 3
        scheduler.stats.ticks = 1

        class Source:
            stats = scheduler.stats
            registry = scheduler.registry

        Source.scheduler = scheduler
        from repro.serve import ServiceMetrics

        assert ServiceMetrics(Source()).flush_occupancy == 3.0


# --------------------------------------------------------------------- #
# Backpressure (429 / busy) and WebSocket reconnect
# --------------------------------------------------------------------- #


class TestBackpressureAndReconnect:
    def test_http_429_with_retry_after_header_at_session_cap(self):
        collection = make_collection()

        async def scenario():
            async with serve(
                collection,
                service_kwargs={"max_sessions": 1, "retry_after_s": 2.5},
            ) as (app, host, port):
                async with HttpSessionClient(host, port) as first:
                    await first.create(selector="most-even")
                    # The typed client surfaces the shed as ServerBusy
                    # with the server's body hint.
                    async with HttpSessionClient(host, port) as second:
                        with pytest.raises(ServerBusy) as excinfo:
                            await second.create(selector="most-even")
                        assert excinfo.value.retry_after_s == 2.5
                    # Raw socket: the Retry-After header must be present
                    # and integral (ceil of the configured hint).
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        b"POST /sessions HTTP/1.1\r\nhost: t\r\n"
                        b"content-type: application/json\r\n"
                        b"content-length: 2\r\nconnection: close\r\n\r\n{}"
                    )
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b"429" in status_line
                    headers = {}
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        name, _, value = line.decode().partition(":")
                        headers[name.strip().lower()] = value.strip()
                    writer.close()
                    assert headers["retry-after"] == "3"
                    # Both sheds were counted, none admitted.
                    async with HttpConnection(host, port) as conn:
                        _, text = await conn.request("GET", "/metrics")
                    assert (
                        'repro_backpressure_rejections_total{kind="sessions"} 2'
                        in text
                    )
                    # The first session is still fully usable.
                    assert await first.next_question() is not None

        run(scenario())

    def test_ws_create_busy_close_at_session_cap(self):
        collection = make_collection()

        async def scenario():
            async with serve(
                collection, service_kwargs={"max_sessions": 1}
            ) as (app, host, port):
                async with HttpSessionClient(host, port) as occupant:
                    await occupant.create(selector="most-even")
                    ws = WsSessionClient(host, port)
                    await ws.connect()
                    with pytest.raises(ServerBusy):
                        await ws.create(selector="most-even")
                    await ws.aclose()
                    async with HttpConnection(host, port) as conn:
                        _, text = await conn.request("GET", "/metrics")
                    # Counted at the service (kind="sessions") and at the
                    # websocket edge (kind="ws-busy").
                    assert (
                        'repro_backpressure_rejections_total{kind="sessions"} 1'
                        in text
                    )
                    assert (
                        'repro_backpressure_rejections_total{kind="ws-busy"} 1'
                        in text
                    )

        run(scenario())

    def test_ws_attach_reconnect_replays_pending_question(self):
        collection = make_collection()
        target = 23

        async def scenario():
            oracle = SimulatedUser(collection, target_index=target)
            async with serve(collection) as (app, host, port):
                ws = WsSessionClient(host, port)
                await ws.connect()
                await ws.create(selector="most-even")
                session, token = ws.session, ws.token
                # Answer two questions, receive a third... and vanish
                # without answering it.
                for _ in range(2):
                    message = await ws.receive_json()
                    assert message["type"] == "question"
                    await ws.send_json(
                        {"type": "answer", "value": oracle(message["entity"])}
                    )
                pending = await ws.receive_json()
                assert pending["type"] == "question"
                await ws.aclose()

                # Reconnect on a fresh socket with the bearer token: the
                # pending question is replayed verbatim, and the session
                # runs to completion as if nothing happened.
                fresh = WsSessionClient(host, port)
                await fresh.connect()
                reply = await fresh.attach(session, token)
                assert reply["session"] == session
                replayed = await fresh.receive_json()
                assert replayed["type"] == "question"
                assert replayed["entity"] == pending["entity"]
                await fresh.send_json(
                    {"type": "answer", "value": oracle(replayed["entity"])}
                )
                payload = await fresh.run(oracle)
                await fresh.aclose()
                # Byte-identical to the sequential in-process run.
                assert serialize_payloads([payload]) == sequential_golden(
                    collection, [target]
                )
                # A wrong token can never attach.
                intruder = WsSessionClient(host, port)
                await intruder.connect()
                with pytest.raises(RuntimeError):
                    await intruder.attach(session, "wrong-token")
                await intruder.aclose()

        run(scenario())
