"""Minimal asyncio client for the HTTP/WebSocket serving edge.

The soak harness (``repro.soak``) and the edge workloads of the
benchmark (``perfbench/edge.py``) drive concurrent sessions against a
real server process; a third-party HTTP client would be a new
dependency and a synchronous one would serialize the load.  This module
is the smallest useful client instead: one
keep-alive HTTP/1.1 connection per :class:`HttpSessionClient`, one
websocket per :class:`WsSessionClient`, JSON verbs matching the routes of
:class:`~repro.serve.http.DiscoveryApp`.  The tests reuse it, and it
doubles as the quickstart Python client in ``docs/serving.md``.

It understands exactly what :class:`~repro.serve.http.EmbeddedServer`
and uvicorn emit for this app — Content-Length JSON bodies, no chunked
responses — which is all a session client needs.
"""

from __future__ import annotations

import asyncio
import base64
import json
import secrets

from .http import encode_ws_frame, read_ws_frame

__all__ = [
    "AdminClient",
    "HttpConnection",
    "HttpSessionClient",
    "ServerBusy",
    "SessionExpiredError",
    "WorkerLostError",
    "WsSessionClient",
]


class ServerBusy(RuntimeError):
    """The server shed this request under load (HTTP 429 / WS ``busy``).

    Carries ``retry_after_s``, the server's back-off hint (the
    ``Retry-After`` value on HTTP, the ``retry_after_s`` body field on
    either transport; 1.0 when the server sent none).  The soak harness
    and well-behaved clients sleep that long and retry.
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SessionExpiredError(RuntimeError):
    """The server reaped this session via its idle TTL (``session_expired``).

    Retrying will not help — the session and its state are gone; start a
    new session instead.
    """


class WorkerLostError(RuntimeError):
    """The engine worker owning this session died (``worker_lost``).

    Only a ``--workers N`` server emits it: HTTP 503 with error
    ``worker_lost``, or the same code on a WebSocket error frame before
    a 1011 close.  The session's state died with its worker — start a
    new session; the supervisor restarts the worker in the background.
    """


def _busy_from_body(body) -> ServerBusy:
    retry_after = 1.0
    if isinstance(body, dict):
        try:
            retry_after = float(body.get("retry_after_s", 1.0))
        except (TypeError, ValueError):
            pass
    return ServerBusy(
        f"server overloaded: {body!r}", retry_after_s=retry_after
    )


class HttpConnection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        token: str | None = None,
    ) -> tuple[int, dict | str]:
        """One round-trip; returns ``(status, parsed body)``.

        Reconnects transparently if the server closed the idle keep-alive
        connection between requests.
        """
        if self._writer is None:
            await self.connect()
        try:
            return await self._round_trip(method, path, body, token)
        except (ConnectionError, asyncio.IncompleteReadError):
            await self.aclose()
            await self.connect()
            return await self._round_trip(method, path, body, token)

    async def _round_trip(
        self,
        method: str,
        path: str,
        body: dict | None,
        token: str | None,
    ) -> tuple[int, dict | str]:
        assert self._reader is not None and self._writer is not None
        payload = b"" if body is None else json.dumps(body).encode()
        head = [
            f"{method} {path} HTTP/1.1".encode(),
            f"host: {self.host}:{self.port}".encode(),
            b"content-length: " + str(len(payload)).encode(),
        ]
        if body is not None:
            head.append(b"content-type: application/json")
        if token is not None:
            head.append(b"authorization: Bearer " + token.encode())
        self._writer.write(b"\r\n".join(head) + b"\r\n\r\n" + payload)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        headers: dict[bytes, bytes] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get(b"content-length", b"0"))
        raw = await self._reader.readexactly(length) if length else b""
        if headers.get(b"connection", b"").lower() == b"close":
            await self.aclose()
        content_type = headers.get(b"content-type", b"")
        if content_type.startswith(b"application/json") and raw:
            return status, json.loads(raw)
        return status, raw.decode("utf-8", "replace")

    async def __aenter__(self) -> "HttpConnection":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


class _UnexpectedStatus(RuntimeError):
    def __init__(self, status: int, body) -> None:
        super().__init__(f"unexpected HTTP {status}: {body!r}")
        self.status = status
        self.body = body


class HttpSessionClient:
    """One discovery session over the HTTP routes (pull-style).

    Backpressure surfaces as typed exceptions: HTTP 429 raises
    :class:`ServerBusy` (with the server's ``retry_after_s`` hint) and a
    404 ``session_expired`` raises :class:`SessionExpiredError`; other
    unexpected statuses stay the generic internal error.
    """

    def __init__(self, host: str, port: int) -> None:
        self.conn = HttpConnection(host, port)
        self.session: str | None = None
        self.token: str | None = None

    async def __aenter__(self) -> "HttpSessionClient":
        await self.conn.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.conn.aclose()

    @staticmethod
    def _check(status: int, body, expected: int) -> None:
        if status == expected:
            return
        if status == 429:
            raise _busy_from_body(body)
        if (
            status == 404
            and isinstance(body, dict)
            and body.get("error") == "session_expired"
        ):
            raise SessionExpiredError(str(body.get("message", body)))
        if (
            status == 503
            and isinstance(body, dict)
            and body.get("error") == "worker_lost"
        ):
            raise WorkerLostError(str(body.get("message", body)))
        raise _UnexpectedStatus(status, body)

    async def create(self, **spec) -> dict:
        """``POST /sessions``; remembers the session id and token."""
        status, body = await self.conn.request("POST", "/sessions", spec)
        self._check(status, body, 201)
        assert isinstance(body, dict)
        self.session = body["session"]
        self.token = body["token"]
        return body

    async def next_question(self) -> int | None:
        """``GET .../question``: the entity id, ``None`` once finished."""
        status, body = await self.conn.request(
            "GET", f"/sessions/{self.session}/question", token=self.token
        )
        self._check(status, body, 200)
        assert isinstance(body, dict)
        return body["entity"]

    async def send_answer(self, value: "bool | None") -> None:
        status, body = await self.conn.request(
            "POST",
            f"/sessions/{self.session}/answer",
            {"answer": value},
            token=self.token,
        )
        self._check(status, body, 200)

    async def result(self) -> dict:
        status, body = await self.conn.request(
            "GET", f"/sessions/{self.session}/result", token=self.token
        )
        self._check(status, body, 200)
        assert isinstance(body, dict)
        return body

    async def run(self, oracle) -> dict:
        """Drive the whole session with ``oracle`` answering (bench core)."""
        while (entity := await self.next_question()) is not None:
            await self.send_answer(oracle(entity))
        return await self.result()


class AdminClient:
    """Operator-side client for the admin surface (``POST /admin/delta``).

    Speaks the JSON delta shape of
    :func:`~repro.serve.http.delta_batch_from_spec`, authorized by the
    server's ``admin_token`` (never a session token)::

        async with AdminClient(host, port, token) as admin:
            info = await admin.apply_delta(
                add={"S9": ["milk", "eggs"]},
                remove=["S3"],
                update={"S1": {"add": ["butter"]}},
            )
            # info["epoch"] is the collection epoch now serving spawns
    """

    def __init__(self, host: str, port: int, token: str) -> None:
        self.conn = HttpConnection(host, port)
        self.token = token

    async def __aenter__(self) -> "AdminClient":
        await self.conn.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.conn.aclose()

    async def apply_delta(
        self,
        add: "dict | None" = None,
        remove: "list | None" = None,
        update: "dict | None" = None,
    ) -> dict:
        """Apply one delta batch; returns the server's epoch summary."""
        body: dict = {}
        if add:
            body["add"] = add
        if remove:
            body["remove"] = remove
        if update:
            body["update"] = update
        status, payload = await self.conn.request(
            "POST", "/admin/delta", body, token=self.token
        )
        if status != 200:
            raise _UnexpectedStatus(status, payload)
        assert isinstance(payload, dict)
        return payload


class WsSessionClient:
    """One push-style discovery session over the ``/ws`` endpoint."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self.session: str | None = None
        self.token: str | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        key = base64.b64encode(secrets.token_bytes(16)).decode()
        self._writer.write(
            (
                f"GET /ws HTTP/1.1\r\nhost: {self.host}:{self.port}\r\n"
                f"upgrade: websocket\r\nconnection: Upgrade\r\n"
                f"sec-websocket-key: {key}\r\n"
                f"sec-websocket-version: 13\r\n\r\n"
            ).encode()
        )
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        while True:  # drain the handshake headers
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        if status != 101:
            raise ConnectionError(f"websocket upgrade refused: {status}")

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "WsSessionClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def send_json(self, payload: dict) -> None:
        assert self._writer is not None
        self._writer.write(
            encode_ws_frame(0x1, json.dumps(payload).encode(), mask=True)
        )
        await self._writer.drain()

    async def receive_json(self) -> "dict | None":
        """Next JSON message; ``None`` once the server closed."""
        assert self._reader is not None and self._writer is not None
        while True:
            frame = await read_ws_frame(self._reader)
            if frame is None:
                return None
            opcode, payload = frame
            if opcode == 0x1:
                return json.loads(payload.decode())
            if opcode == 0x8:
                try:
                    self._writer.write(encode_ws_frame(0x8, payload[:2]))
                    await self._writer.drain()
                except (ConnectionError, OSError):
                    pass
                return None
            if opcode == 0x9:
                self._writer.write(encode_ws_frame(0xA, payload, mask=True))
                await self._writer.drain()

    async def create(self, **spec) -> dict:
        """Create the session as the first message of the connection."""
        await self.send_json({"type": "create", **spec})
        created = await self.receive_json()
        if created is not None and created.get("type") == "error":
            self._raise_ws_error(created)
        if created is None or created.get("type") != "created":
            raise ConnectionError(f"create refused: {created!r}")
        self.session = created["session"]
        self.token = created["token"]
        return created

    async def attach(self, session: str, token: str) -> dict:
        """Re-attach to an existing session (the reconnect path).

        The first message of a *fresh* connection: presents the session
        id and the bearer token minted at creation.  On success the
        server replies ``attached`` and immediately replays the pending
        question (if one was in flight when the previous connection
        dropped), so :meth:`run` resumes exactly where the session left
        off.
        """
        await self.send_json(
            {"type": "attach", "session": session, "token": token}
        )
        reply = await self.receive_json()
        if reply is not None and reply.get("type") == "error":
            self._raise_ws_error(reply)
        if reply is None or reply.get("type") != "attached":
            raise ConnectionError(f"attach refused: {reply!r}")
        self.session = session
        self.token = token
        return reply

    @staticmethod
    def _raise_ws_error(message: dict) -> None:
        code = message.get("error")
        detail = str(message.get("message", message))
        if code == "busy":
            raise ServerBusy(detail)
        if code == "session_expired":
            raise SessionExpiredError(detail)
        if code == "worker_lost":
            raise WorkerLostError(detail)
        raise RuntimeError(f"server error: {detail!r}")

    async def run(self, oracle) -> dict:
        """Answer pushed questions with ``oracle`` until the result."""
        while True:
            message = await self.receive_json()
            if message is None:
                raise ConnectionError("server closed before the result")
            kind = message.get("type")
            if kind == "question":
                await self.send_json(
                    {"type": "answer", "value": oracle(message["entity"])}
                )
            elif kind == "result":
                return message
            elif kind == "error":
                self._raise_ws_error(message)
