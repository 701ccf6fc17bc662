"""HTTP/WebSocket serving edge over :class:`AsyncDiscoveryService`.

The in-process async stack (``docs/serving.md``) simulates "millions of
users" inside one interpreter; this module is the real network edge.  Two
pieces, deliberately separable:

* :class:`DiscoveryApp` — a standard **ASGI 3** application wrapping one
  :class:`~repro.serve.async_service.AsyncDiscoveryService`.  Routes::

      POST /sessions                  create a session -> {session, token}
      GET  /sessions/{id}/question    await the next question (long-poll)
      POST /sessions/{id}/answer      record the user's reply
      GET  /sessions/{id}/result      await the session's outcome
      POST /admin/delta               apply a collection delta batch
      GET  /metrics                   Prometheus text exposition
      GET  /healthz                   liveness/drain status
      GET  /ws                        WebSocket push-style sessions

  Every session-scoped route requires the bearer token minted at
  creation (``Authorization: Bearer <token>``); requests are validated
  with clear 4xx JSON errors and a drain rejects *new* sessions with 503
  while in-flight sessions finish.  Being plain ASGI, the app runs under
  ``uvicorn`` unchanged (the ``http`` extra) — production deployments
  should prefer that.

  ``POST /admin/delta`` is the mutation edge of the epoch-versioned
  collection model (``docs/collections.md``): it takes a JSON delta
  batch, applies it through
  :meth:`~repro.serve.async_service.AsyncDiscoveryService.apply_delta`,
  and answers with the new epoch.  It is disabled unless the app was
  constructed with an ``admin_token``, which the request must present as
  its bearer token — the per-session tokens never authorize it.

  Abandoned sessions no longer leak: give the app a ``session_ttl_s``
  and a lazy sweep (piggy-backed on request handling and on the drain
  poll loop) expires handles idle past the TTL, provided the service
  agrees the session is not mid-interaction.  Expired ids answer 404
  ``session_expired`` — deliberately distinct from ``unknown-session``
  so clients can tell "come back later won't help" from a typo.

* :class:`EmbeddedServer` — a stdlib-only ``asyncio`` HTTP/1.1 +
  WebSocket (RFC 6455) server hosting any ASGI app, so tests, CI and the
  default ``python -m repro serve`` need **no** third-party dependency.
  It supports keep-alive connections, Content-Length bodies and the
  subset of the websocket protocol the app speaks (text frames,
  ping/pong, close handshake); it does not implement chunked uploads or
  frame fragmentation.

The WebSocket protocol is session-per-connection (push-style): the
client's first JSON message either ``{"type": "create", ...}`` (same
fields as ``POST /sessions``) or ``{"type": "attach", "session": id,
"token": t}``; the server then pushes ``question`` messages and expects
``{"type": "answer", "value": true|false|null}`` replies, closing with a
final ``result`` message.  Transcripts over either transport are
byte-identical to in-process runs — ``tests/test_http.py`` holds them to
the same golden-serialization the engine tests use.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import math
import re
import secrets
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Hashable, Mapping
from urllib.parse import unquote

from ..core.bounds import metric_by_name
from ..core.collection import DeltaBatch, DeltaError, DuplicateSetError
from ..core.lookahead import KLPSelector
from ..core.selection import (
    InfoGainSelector,
    MostEvenSelector,
    RandomSelector,
)
from .async_service import (
    AsyncDiscoveryService,
    ServiceClosed,
    ServiceOverloaded,
    SessionExpired,
    WorkerLost,
)

__all__ = [
    "DiscoveryApp",
    "EmbeddedServer",
    "build_selector_from_spec",
    "delta_batch_from_spec",
    "result_payload",
]

#: request bodies past this size are rejected with 413 (no legitimate
#: create/answer payload comes close; a cap keeps the edge bounded), and
#: websocket frames past it are closed with 1009 before being read
MAX_BODY_BYTES = 1 << 20

#: the embedded server answers 431 past either header cap; a single line
#: is further bounded by the stream limit (64 KiB), beyond which the
#: request line gets 400 and a header line 431
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 32 * 1024

_PHRASES = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_SESSION_ROUTE = re.compile(r"^/sessions/([^/]+)/(question|answer|result)$")


class _HTTPError(Exception):
    """Internal control flow: abort the request with a JSON error."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def build_selector_from_spec(spec: Mapping) -> object:
    """An entity selector from a JSON session-creation spec.

    ``{"selector": "infogain" | "most-even" | "random" | "klp",
    "k": int, "q": int, "variable": bool, "metric": "AD" | "H",
    "seed": int}`` — unknown names and malformed knobs raise
    ``ValueError`` (mapped to 400 by the route handler).
    """
    name = spec.get("selector", "infogain")
    if name == "infogain":
        return InfoGainSelector()
    if name == "most-even":
        return MostEvenSelector()
    if name == "random":
        return RandomSelector(seed=int(spec.get("seed", 0)))
    if name == "klp":
        q = spec.get("q")
        variable = bool(spec.get("variable", False))
        if variable and q is None:
            q = 10
        return KLPSelector(
            k=int(spec.get("k", 2)),
            metric=metric_by_name(str(spec.get("metric", "AD"))),
            q=None if q is None else int(q),
            variable=variable,
        )
    raise ValueError(f"unknown selector {name!r}")


def delta_batch_from_spec(spec: Mapping) -> DeltaBatch:
    """A :class:`DeltaBatch` from the ``POST /admin/delta`` JSON shape.

    ``{"add": {name: [labels]}, "remove": [names],
    "update": {name: {"add": [labels], "remove": [labels]}}}`` — every
    key optional, malformed shapes raise ``ValueError`` (mapped to 400
    by the route handler; unknown names/labels surface later as
    :class:`~repro.core.collection.DeltaError`).
    """
    batch = DeltaBatch()
    adds = spec.get("add", {})
    if not isinstance(adds, Mapping):
        raise ValueError("'add' must be an object of {name: [labels]}")
    for name, members in adds.items():
        if not isinstance(members, (list, tuple)):
            raise ValueError(f"'add' members of {name!r} must be a list")
        batch.add_sets({name: members})
    removes = spec.get("remove", ())
    if not isinstance(removes, (list, tuple)):
        raise ValueError("'remove' must be a list of set names")
    if removes:
        batch.remove_sets(removes)
    updates = spec.get("update", {})
    if not isinstance(updates, Mapping):
        raise ValueError("'update' must be an object of {name: {...}}")
    for name, change in updates.items():
        if not isinstance(change, Mapping):
            raise ValueError(f"'update' entry {name!r} must be an object")
        add = change.get("add", ())
        drop = change.get("remove", ())
        if not isinstance(add, (list, tuple)) or not isinstance(
            drop, (list, tuple)
        ):
            raise ValueError(
                f"'update' entry {name!r} needs list-valued add/remove"
            )
        batch.update_membership(name, add=add, remove=drop)
    return batch


def result_payload(key: Hashable, result) -> dict:
    """JSON shape of a finished session's ``DiscoveryResult``.

    The transcript serialization mirrors the golden-transcript tests
    (entity/answer/candidate counts per interaction) so HTTP results can
    be compared byte-for-byte against in-process runs.
    """
    return {
        "session": str(key),
        "resolved": result.resolved,
        "candidates": list(result.candidates),
        "n_questions": result.n_questions,
        "n_unanswered": result.n_unanswered,
        "seconds": result.seconds,
        "transcript": [
            {
                "entity": i.entity,
                "answer": i.answer,
                "candidates_before": i.candidates_before,
                "candidates_after": i.candidates_after,
            }
            for i in result.transcript
        ],
    }


@dataclass
class _SessionHandle:
    """One HTTP-created session: its registry key and bearer token."""

    key: Hashable
    token: str
    created_at: float = field(default_factory=time.monotonic)
    last_seen: float = field(default_factory=time.monotonic)

    def touch(self) -> None:
        self.last_seen = time.monotonic()


#: how many expired session ids are remembered for the 404
#: ``session_expired`` distinction (bounded so the memory of expired
#: sessions cannot itself become the leak the TTL sweep removes)
EXPIRED_IDS_REMEMBERED = 4096


class DiscoveryApp:
    """ASGI 3 application exposing one async discovery service.

    Parameters
    ----------
    service:
        The :class:`AsyncDiscoveryService` this edge fronts — or a
        :class:`~repro.serve.cluster.ClusterService` sharding sessions
        across worker processes.  The app duck-types the differences
        (spec-level spawn/delta, awaitable verbs, async metrics render)
        so the single-process path stays byte-identical.
    require_auth:
        When true (default), session-scoped routes demand the bearer
        token minted by ``POST /sessions``.  ``False`` is for trusted
        loopback setups (the load bench still authenticates).
    collection_info:
        Optional static facts merged into ``GET /healthz`` (the CLI puts
        the collection shape and backend here).
    session_ttl_s:
        Idle TTL for HTTP session handles.  A session not touched by any
        authorized request for this long is expired by a lazy sweep
        (requests and the drain loop trigger it) *if* the service agrees
        it is idle — mid-interaction sessions are never reaped.  Expired
        ids answer 404 ``session_expired``; ``None`` (default) keeps the
        pre-TTL behaviour of remembering every handle forever.
    admin_token:
        Bearer token authorizing ``POST /admin/delta``.  ``None``
        (default) disables the admin surface entirely (403
        ``admin-disabled``); session tokens never authorize it.
    """

    def __init__(
        self,
        service: AsyncDiscoveryService,
        *,
        require_auth: bool = True,
        collection_info: Mapping | None = None,
        session_ttl_s: float | None = None,
        admin_token: str | None = None,
    ) -> None:
        if session_ttl_s is not None and session_ttl_s <= 0:
            raise ValueError("session_ttl_s must be positive (or None)")
        self.service = service
        self.metrics = service.metrics
        self.require_auth = require_auth
        self.collection_info = dict(collection_info or {})
        self.session_ttl_s = session_ttl_s
        self.admin_token = admin_token
        self._sessions: dict[str, _SessionHandle] = {}
        #: expired sid -> None, insertion-ordered so the oldest memories
        #: fall off first once EXPIRED_IDS_REMEMBERED is reached
        self._expired: dict[str, None] = {}
        self._next_sweep = 0.0
        self._draining = False

    # ------------------------------------------------------------------ #
    # Drain / lifecycle
    # ------------------------------------------------------------------ #

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Reject new sessions (503) while in-flight ones keep serving."""
        self._draining = True
        self.service.begin_drain()

    async def drain(
        self, grace_s: float | None = 5.0, poll_s: float = 0.05
    ) -> None:
        """Graceful shutdown: drain, wait for active sessions, close.

        New sessions are rejected immediately; live sessions get up to
        ``grace_s`` seconds to finish (``None`` waits forever).  Then the
        service closes — its running flush completes first, and any still
        -pending waiter is rejected with :class:`ServiceClosed`, which
        in-flight HTTP requests surface as 503.
        """
        self.begin_drain()
        deadline = None if grace_s is None else time.monotonic() + grace_s
        while await self._active_sessions() and (
            deadline is None or time.monotonic() < deadline
        ):
            # The drain poll doubles as the TTL sweeper's last chance:
            # abandoned sessions past their TTL are reaped here instead
            # of pinning the drain until its grace deadline.
            await self.sweep_expired()
            await asyncio.sleep(poll_s)
        await self.service.aclose()

    async def _active_sessions(self) -> int:
        """Active sessions, local or summed across cluster workers."""
        counter = getattr(self.service, "active_count", None)
        if counter is not None:
            return await counter()
        return self.service.n_active

    # ------------------------------------------------------------------ #
    # Session TTL sweep
    # ------------------------------------------------------------------ #

    async def sweep_expired(self, force: bool = False) -> int:
        """Expire session handles idle past ``session_ttl_s``.

        Lazy by design: piggy-backed on request handling (throttled to at
        most one pass per quarter-TTL) and on the drain poll loop, so no
        background task is needed.  A handle is reaped only when the
        service's :meth:`~repro.serve.async_service.AsyncDiscoveryService.expire`
        agrees the session is idle — queued scan work and undelivered
        replies veto it.  A still-waiting long-poll does *not* veto
        (after a full idle TTL its client is gone): the expiry wakes it
        with ``404 session_expired`` immediately.  Returns the number of
        sessions expired by this pass.
        """
        ttl = self.session_ttl_s
        if ttl is None:
            return 0
        now = time.monotonic()
        if not force and now < self._next_sweep:
            return 0
        self._next_sweep = now + max(ttl / 4.0, 0.05)
        reaped = 0
        registry = getattr(self.service, "registry", None)
        for sid, handle in list(self._sessions.items()):
            if now - handle.last_seen < ttl:
                continue
            if (
                registry is not None
                and registry.result_of(handle.key) is not None
            ):
                # Finished but never collected: the handle is all that
                # leaks (the result map is drainable separately), so just
                # forget it.  (Cluster services have no edge registry;
                # their expire() answers True for finished sessions.)
                pass
            elif not await self.service.expire(handle.key):
                continue  # mid-interaction; retry next sweep
            if self._sessions.get(sid) is handle:
                del self._sessions[sid]
            self._expired[sid] = None
            self.metrics.sessions_expired += 1
            reaped += 1
        while len(self._expired) > EXPIRED_IDS_REMEMBERED:
            self._expired.pop(next(iter(self._expired)))
        return reaped

    # ------------------------------------------------------------------ #
    # ASGI entry point
    # ------------------------------------------------------------------ #

    async def __call__(self, scope, receive, send) -> None:
        kind = scope["type"]
        if kind == "lifespan":
            await self._lifespan(receive, send)
        elif kind == "http":
            await self._handle_http(scope, receive, send)
        elif kind == "websocket":
            await self._handle_websocket(scope, receive, send)
        else:  # pragma: no cover - no other scope types exist today
            raise RuntimeError(f"unsupported ASGI scope type {kind!r}")

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                # A cluster service boots its worker processes here, so
                # hosting under uvicorn needs no CLI-side setup hook.
                starter = getattr(self.service, "start_workers", None)
                if starter is not None:
                    await starter()
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                # The host server (uvicorn) already stopped accepting
                # connections and waited for handlers; no further grace.
                try:
                    await self.drain(grace_s=0.0)
                finally:
                    await send({"type": "lifespan.shutdown.complete"})
                return

    # ------------------------------------------------------------------ #
    # HTTP routing
    # ------------------------------------------------------------------ #

    async def _handle_http(self, scope, receive, send) -> None:
        method = scope["method"].upper()
        path = scope["path"]
        route = path
        status = 500
        sid: str | None = None
        retry_after: float | None = None
        await self.sweep_expired()
        try:
            if path == "/sessions":
                route = "/sessions"
                self._require_method(method, "POST")
                body = await self._read_json(receive)
                status, payload = await self._create_session(body)
            elif path == "/admin/delta":
                route = "/admin/delta"
                self._require_method(method, "POST")
                self._authorize_admin(scope)
                body = await self._read_json(receive)
                status, payload = await self._apply_delta(body)
            elif match := _SESSION_ROUTE.match(path):
                sid, verb = match.group(1), match.group(2)
                route = f"/sessions/{{id}}/{verb}"
                handle = self._authorize(scope, sid)
                if verb == "question":
                    self._require_method(method, "GET")
                    status, payload = await self._next_question(handle)
                elif verb == "answer":
                    self._require_method(method, "POST")
                    body = await self._read_json(receive)
                    status, payload = await self._record_answer(handle, body)
                else:
                    self._require_method(method, "GET")
                    status, payload = await self._session_result(handle)
            elif path == "/metrics":
                route = "/metrics"
                self._require_method(method, "GET")
                arender = getattr(self.metrics, "arender_prometheus", None)
                text = (
                    await arender()
                    if arender is not None
                    else self.metrics.render_prometheus()
                )
                await self._send_text(send, 200, text)
                self.metrics.observe_http(route, 200)
                return
            elif path == "/healthz":
                route = "/healthz"
                self._require_method(method, "GET")
                status, payload = 200, await self._health()
            else:
                raise _HTTPError(404, "not-found", f"no route {path}")
        except _HTTPError as exc:
            status = exc.status
            payload = {"error": exc.code, "message": exc.message}
        except ServiceOverloaded as exc:
            # Backpressure: the service shed this call to keep its queues
            # bounded.  429 with Retry-After is the client's back-off
            # contract; the hint also rides in the body for clients that
            # only read JSON.
            status = 429
            retry_after = exc.retry_after_s
            payload = {
                "error": "overloaded",
                "message": str(exc),
                "retry_after_s": exc.retry_after_s,
            }
        except SessionExpired as exc:
            # A long-poll woken because the TTL sweep reaped its session
            # mid-wait: same 404 session_expired as a post-expiry request,
            # delivered now instead of after the poll times out.
            status = 404
            payload = {"error": "session_expired", "message": str(exc)}
            if sid is not None:
                self._sessions.pop(sid, None)
                self._expired[sid] = None
        except ServiceClosed as exc:
            # The drain path's mirror of the aclose() waiter rejection:
            # an in-flight request caught by shutdown ends with a clear
            # 503, never a hang or a naked connection reset.
            status = 503
            payload = {"error": "draining", "message": str(exc)}
        except WorkerLost as exc:
            # Cluster topology only: the engine worker owning this
            # session died (or died before replying to this parked
            # long-poll).  Its shared-nothing state is gone, so the
            # client must start a fresh session — which lands on a live
            # worker while the supervisor restarts the dead one.  The
            # handle stays; the TTL sweep reclaims it.
            status = 503
            payload = {"error": "worker_lost", "message": str(exc)}
        headers = None
        if retry_after is not None:
            headers = [
                (
                    b"retry-after",
                    str(max(1, math.ceil(retry_after))).encode(),
                )
            ]
        await self._send_json(send, status, payload, headers=headers)
        self.metrics.observe_http(route, status)

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(
                405, "method-not-allowed", f"use {expected} on this route"
            )

    async def _read_json(self, receive) -> dict:
        chunks: list[bytes] = []
        total = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise _HTTPError(
                    400, "disconnected", "client went away mid-request"
                )
            chunks.append(message.get("body", b""))
            total += len(chunks[-1])
            if total > MAX_BODY_BYTES:
                raise _HTTPError(
                    413, "payload-too-large", "request body too large"
                )
            if not message.get("more_body"):
                break
        raw = b"".join(chunks)
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HTTPError(
                400, "bad-json", f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise _HTTPError(
                400, "bad-json", "request body must be a JSON object"
            )
        return body

    # ------------------------------------------------------------------ #
    # Session auth
    # ------------------------------------------------------------------ #

    def _bearer_token(self, scope) -> str | None:
        for name, value in scope["headers"]:
            if name == b"authorization":
                text = value.decode("latin-1")
                if text.lower().startswith("bearer "):
                    return text[7:].strip()
                raise _HTTPError(
                    401,
                    "bad-authorization",
                    "Authorization header must be 'Bearer <token>'",
                )
        return None

    def _authorize(self, scope, sid: str) -> _SessionHandle:
        handle = self._sessions.get(sid)
        if handle is None:
            if sid in self._expired:
                raise _HTTPError(
                    404,
                    "session_expired",
                    f"session {sid!r} expired after "
                    f"{self.session_ttl_s}s idle",
                )
            raise _HTTPError(404, "unknown-session", f"no session {sid!r}")
        if not self.require_auth:
            handle.touch()
            return handle
        token = self._bearer_token(scope)
        if token is None:
            raise _HTTPError(
                401, "missing-token", "this route needs a bearer token"
            )
        if not secrets.compare_digest(token, handle.token):
            raise _HTTPError(
                403, "wrong-token", f"token does not match session {sid!r}"
            )
        handle.touch()
        return handle

    def _authorize_admin(self, scope) -> None:
        """Gate ``/admin/delta``: only the configured admin token passes."""
        if self.admin_token is None:
            raise _HTTPError(
                403, "admin-disabled", "no admin token configured"
            )
        token = self._bearer_token(scope)
        if token is None:
            raise _HTTPError(
                401, "missing-token", "admin routes need a bearer token"
            )
        if not secrets.compare_digest(token, self.admin_token):
            raise _HTTPError(403, "wrong-token", "not the admin token")

    # ------------------------------------------------------------------ #
    # Route handlers
    # ------------------------------------------------------------------ #

    def _check_accepting_sessions(self) -> None:
        if self._draining or not self.service.accepting:
            raise _HTTPError(
                503, "draining", "server is draining; no new sessions"
            )

    async def _spawn_session(
        self, body: Mapping
    ) -> "tuple[_SessionHandle, dict]":
        """Create a session; returns its handle plus placement facts.

        Validation happens here at the edge (clear 400s without a worker
        round trip); construction happens in-process or — when the
        service shards — inside the hash-routed owning worker via
        ``spawn_from_spec``, which reports the key/epoch/candidate count
        in its single round trip.
        """
        self._check_accepting_sessions()
        try:
            build_selector_from_spec(body)
        except (ValueError, TypeError) as exc:
            raise _HTTPError(400, "bad-selector", str(exc)) from None
        initial = body.get("initial", ())
        if not isinstance(initial, (list, tuple)):
            raise _HTTPError(
                400, "bad-initial", "'initial' must be a list of entities"
            )
        max_questions = body.get("max_questions")
        if max_questions is not None and (
            not isinstance(max_questions, int) or max_questions < 1
        ):
            raise _HTTPError(
                400,
                "bad-max-questions",
                "'max_questions' must be a positive integer",
            )
        spawner = getattr(self.service, "spawn_from_spec", None)
        try:
            if spawner is not None:
                info = await spawner(body)
                key = info["session"]
            else:
                key = self.service.spawn(
                    build_selector_from_spec(body),
                    initial=initial,
                    max_questions=max_questions,
                )
                state = self.service.registry.state(key)
                info = {
                    "session": str(key),
                    "n_candidates": state.session.n_candidates,
                    "epoch": state.session.collection.epoch,
                }
        except KeyError as exc:
            raise _HTTPError(
                400, "bad-initial", f"unknown initial entity: {exc}"
            ) from None
        handle = _SessionHandle(key=key, token=secrets.token_urlsafe(24))
        self._sessions[str(key)] = handle
        return handle, info

    async def _create_session(self, body: Mapping) -> tuple[int, dict]:
        handle, info = await self._spawn_session(body)
        return 201, {
            "session": str(handle.key),
            "token": handle.token,
            "n_candidates": info["n_candidates"],
            # The collection epoch this session is pinned to — replay
            # tooling (the soak harness) needs it to pick the right
            # collection replica for a byte-identical sequential rerun.
            "epoch": info["epoch"],
        }

    async def _next_question(self, handle: _SessionHandle) -> tuple[int, dict]:
        entity = await self.service.ask(handle.key)
        if entity is None:
            return 200, {
                "session": str(handle.key),
                "entity": None,
                "finished": True,
            }
        label = self.service.collection.universe.label(entity)
        return 200, {
            "session": str(handle.key),
            "entity": entity,
            "label": label if isinstance(label, (str, int, float)) else str(label),
            "finished": False,
        }

    async def _record_answer(
        self, handle: _SessionHandle, body: Mapping
    ) -> tuple[int, dict]:
        if "answer" not in body:
            raise _HTTPError(
                400, "missing-answer", "body needs {'answer': true|false|null}"
            )
        value = body["answer"]
        if value is not None and not isinstance(value, bool):
            raise _HTTPError(
                400, "bad-answer", "'answer' must be true, false or null"
            )
        try:
            reply = self.service.answer(handle.key, value)
            if reply is not None:
                # Cluster services validate on the owning worker, so the
                # verb is a coroutine there; in-process it stays sync.
                await reply
        except KeyError:
            # The handle exists, so the key is not unknown — the session
            # finished between the question and this answer.
            raise _HTTPError(
                409, "session-finished", "session already finished"
            ) from None
        except ValueError as exc:
            raise _HTTPError(409, "no-pending-question", str(exc)) from None
        return 200, {"session": str(handle.key), "recorded": True}

    async def _session_result(self, handle: _SessionHandle) -> tuple[int, dict]:
        result = await self.service.result(handle.key)
        if isinstance(result, dict):
            # A cluster worker already rendered the payload (the
            # DiscoveryResult never crosses the pipe).
            return 200, result
        return 200, result_payload(handle.key, result)

    async def _apply_delta(self, body: Mapping) -> tuple[int, dict]:
        applier = getattr(self.service, "apply_delta_spec", None)
        try:
            if applier is not None:
                # Cluster: the edge parses/applies its replica and fans
                # the spec out to every worker with per-worker epoch acks.
                return 200, await applier(body)
            batch = delta_batch_from_spec(body)
        except (DeltaError, DuplicateSetError) as exc:
            raise _HTTPError(400, "bad-delta", str(exc)) from None
        except (ValueError, TypeError) as exc:
            raise _HTTPError(400, "bad-delta", str(exc)) from None
        try:
            collection = await self.service.apply_delta(batch)
        except (DeltaError, DuplicateSetError) as exc:
            raise _HTTPError(400, "bad-delta", str(exc)) from None
        return 200, {
            "epoch": collection.epoch,
            "n_sets": len(collection),
            "n_entities": collection.n_entities,
            "applied": bool(batch),
        }

    async def _health(self) -> dict:
        reporter = getattr(self.service, "health_info", None)
        if reporter is not None:
            base = await reporter()
        else:
            base = {
                "active_sessions": self.service.n_active,
                "finished_sessions": len(self.service.registry.results),
                "epoch": self.service.collection.epoch,
            }
        return {
            "status": "draining" if self._draining else "ok",
            **base,
            "tracked_sessions": len(self._sessions),
            **self.collection_info,
        }

    # ------------------------------------------------------------------ #
    # WebSocket push-style sessions
    # ------------------------------------------------------------------ #

    async def _handle_websocket(self, scope, receive, send) -> None:
        message = await receive()
        assert message["type"] == "websocket.connect"
        if scope["path"] != "/ws":
            await send({"type": "websocket.close", "code": 4004})
            return
        if self._draining or not self.service.accepting:
            # 1013 = "try again later": the drain rejection, ws flavour.
            await send({"type": "websocket.close", "code": 1013})
            return
        await send({"type": "websocket.accept"})
        self.metrics.ws_sessions += 1
        try:
            await self._websocket_session(receive, send)
        except ServiceClosed:
            await self._ws_close(send, 1013)
        except WorkerLost as exc:
            # The owning engine worker died mid-session (cluster only):
            # tell the client plainly, then close with "internal error" —
            # re-attaching cannot help, only a fresh session can.
            await self._ws_error(send, "worker_lost", str(exc))
            await self._ws_close(send, 1011)
        except asyncio.CancelledError:  # pragma: no cover - host teardown
            raise
        finally:
            self.metrics.ws_sessions -= 1

    async def _ws_json(self, send, payload: dict) -> None:
        await send({"type": "websocket.send", "text": json.dumps(payload)})

    async def _ws_close(self, send, code: int) -> None:
        try:
            await send({"type": "websocket.close", "code": code})
        except Exception:  # pragma: no cover - peer already gone
            pass

    async def _ws_error(self, send, code: str, message: str) -> None:
        await self._ws_json(
            send, {"type": "error", "error": code, "message": message}
        )

    async def _websocket_session(self, receive, send) -> None:
        """One push-style session: create/attach, then serve to the end."""
        first = await receive()
        if first["type"] == "websocket.disconnect":
            return
        try:
            request = json.loads(first.get("text") or "")
        except (json.JSONDecodeError, TypeError):
            await self._ws_error(send, "bad-json", "first message not JSON")
            await self._ws_close(send, 1008)
            return
        kind = request.get("type")
        if kind == "create":
            try:
                handle, info = await self._spawn_session(request)
            except ServiceOverloaded as exc:
                # The WS flavour of the HTTP 429: tell the client it is
                # load, not protocol, and close with "try again later".
                self.metrics.observe_rejection("ws-busy")
                await self._ws_error(send, "busy", str(exc))
                await self._ws_close(send, 1013)
                return
            except _HTTPError as exc:
                await self._ws_error(send, exc.code, exc.message)
                await self._ws_close(send, 1013 if exc.status == 503 else 1008)
                return
            await self._ws_json(
                send,
                {
                    "type": "created",
                    "session": str(handle.key),
                    "token": handle.token,
                    "epoch": info["epoch"],
                },
            )
        elif kind == "attach":
            handle = self._sessions.get(str(request.get("session")))
            token = str(request.get("token", ""))
            if handle is None or (
                self.require_auth
                and not secrets.compare_digest(token, handle.token)
            ):
                code = (
                    "session_expired"
                    if handle is None
                    and str(request.get("session")) in self._expired
                    else "unknown-session"
                )
                await self._ws_error(send, code, "bad session or token")
                await self._ws_close(send, 1008)
                return
            handle.touch()
            await self._ws_json(
                send, {"type": "attached", "session": str(handle.key)}
            )
        else:
            await self._ws_error(
                send, "bad-request", "first message must be create or attach"
            )
            await self._ws_close(send, 1008)
            return

        key = handle.key
        while True:
            try:
                entity = await self.service.ask(key)
                if entity is None:
                    result = await self.service.result(key)
                    if not isinstance(result, dict):
                        # In-process: render the DiscoveryResult; cluster
                        # workers already shipped the payload as a dict.
                        result = result_payload(key, result)
                    await self._ws_json(
                        send,
                        {"type": "result", **result},
                    )
                    await self._ws_close(send, 1000)
                    return
            except ServiceOverloaded as exc:
                # Shed mid-session: the session itself survives (nothing
                # was consumed) — the client may re-attach once load
                # drops and the pending question will be replayed.
                self.metrics.observe_rejection("ws-busy")
                await self._ws_error(send, "busy", str(exc))
                await self._ws_close(send, 1013)
                return
            except SessionExpired as exc:
                await self._ws_error(send, "session_expired", str(exc))
                await self._ws_close(send, 1008)
                return
            label = self.service.collection.universe.label(entity)
            await self._ws_json(
                send,
                {
                    "type": "question",
                    "session": str(key),
                    "entity": entity,
                    "label": label
                    if isinstance(label, (str, int, float))
                    else str(label),
                },
            )
            reply = await receive()
            if reply["type"] == "websocket.disconnect":
                return
            try:
                answer = json.loads(reply.get("text") or "")
                if answer.get("type") != "answer":
                    raise ValueError("expected an answer message")
                value = answer.get("value")
                if value is not None and not isinstance(value, bool):
                    raise ValueError("'value' must be true, false or null")
                recorded = self.service.answer(key, value)
                if recorded is not None:
                    await recorded  # cluster: validated on the worker
            except (json.JSONDecodeError, TypeError, AttributeError):
                await self._ws_error(send, "bad-json", "reply was not JSON")
                await self._ws_close(send, 1008)
                return
            except (KeyError, ValueError) as exc:
                await self._ws_error(send, "bad-answer", str(exc))
                await self._ws_close(send, 1008)
                return

    # ------------------------------------------------------------------ #
    # Response helpers
    # ------------------------------------------------------------------ #

    async def _send_json(
        self,
        send,
        status: int,
        payload: dict,
        headers: "list[tuple[bytes, bytes]] | None" = None,
    ) -> None:
        body = json.dumps(payload).encode()
        await self._send_body(
            send, status, body, b"application/json", headers=headers
        )

    async def _send_text(self, send, status: int, text: str) -> None:
        await self._send_body(
            send, status, text.encode(), b"text/plain; version=0.0.4"
        )

    async def _send_body(
        self,
        send,
        status: int,
        body: bytes,
        content_type: bytes,
        headers: "list[tuple[bytes, bytes]] | None" = None,
    ) -> None:
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", content_type),
                    (b"content-length", str(len(body)).encode()),
                    *(headers or []),
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})


# --------------------------------------------------------------------- #
# Embedded stdlib ASGI server (HTTP/1.1 + WebSocket)
# --------------------------------------------------------------------- #

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


def websocket_accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a handshake key (RFC 6455)."""
    digest = hashlib.sha1((client_key + _WS_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


def encode_ws_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """One final websocket frame (clients must set ``mask=True``)."""
    head = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += length.to_bytes(2, "big")
    else:
        head.append(mask_bit | 127)
        head += length.to_bytes(8, "big")
    if mask:
        key = secrets.token_bytes(4)
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


class _FrameTooLarge(ValueError):
    """A websocket frame announced a payload past ``MAX_BODY_BYTES``."""


async def read_ws_frame(
    reader: asyncio.StreamReader,
) -> "tuple[int, bytes] | None":
    """Read one frame; ``None`` on EOF.  Assumes unfragmented frames.

    Raises :class:`_FrameTooLarge` before reading a payload longer than
    ``MAX_BODY_BYTES``.
    """
    try:
        head = await reader.readexactly(2)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    if length > MAX_BODY_BYTES:
        raise _FrameTooLarge(length)
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length) if length else b""
    if key:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload


@dataclass
class _Request:
    """One parsed HTTP/1.1 request off an embedded-server connection."""

    method: str
    target: str
    version: str
    headers: list[tuple[bytes, bytes]]
    body: bytes

    def header(self, name: bytes) -> bytes | None:
        for key, value in self.headers:
            if key == name:
                return value
        return None

    @property
    def wants_websocket(self) -> bool:
        upgrade = (self.header(b"upgrade") or b"").lower()
        connection = (self.header(b"connection") or b"").lower()
        return upgrade == b"websocket" and b"upgrade" in connection


class _BadRequest(Exception):
    """The request cannot be framed; answered with ``status`` and closed."""

    def __init__(self, status: int = 400) -> None:
        super().__init__(status)
        self.status = status


class EmbeddedServer:
    """Stdlib asyncio HTTP/1.1 + WebSocket host for an ASGI application.

    The zero-dependency fallback runner behind ``python -m repro serve``
    (and the tests/CI server-smoke): binds ``host:port`` (port ``0``
    picks a free one — read :attr:`port` after :meth:`start`), speaks
    keep-alive HTTP/1.1 with Content-Length bodies plus the RFC 6455
    handshake/framing subset the app needs.  Production setups should
    run the same app under ``uvicorn`` instead (``--uvicorn``).
    """

    def __init__(
        self, app: Callable[..., Awaitable], host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: "asyncio.Server | None" = None

    async def start(self) -> None:
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self._server = server
        self.port = server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting connections (in-flight handlers finish)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "EmbeddedServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    writer.write(
                        f"HTTP/1.1 {exc.status} {_PHRASES[exc.status]}\r\n".encode()
                        + b"content-length: 0\r\nconnection: close\r\n\r\n"
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.wants_websocket:
                    await self._serve_websocket(request, reader, writer)
                    break
                if not await self._serve_http(request, writer):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to clean beyond the writer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "_Request | None":
        # readline() raises ValueError once a line outgrows the stream limit
        try:
            request_line = await reader.readline()
        except ValueError:
            raise _BadRequest from None
        if not request_line:
            return None
        try:
            method, target, version = (
                request_line.decode("latin-1").rstrip("\r\n").split(" ", 2)
            )
        except ValueError:
            raise _BadRequest from None
        headers: list[tuple[bytes, bytes]] = []
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise _BadRequest(431) from None
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if len(headers) == MAX_HEADER_LINES or header_bytes > MAX_HEADER_BYTES:
                raise _BadRequest(431)
            name, _, value = line.partition(b":")
            headers.append((name.strip().lower(), value.strip()))
        length_raw = None
        for name, value in headers:
            if name == b"transfer-encoding":  # chunked bodies are not framed
                raise _BadRequest(501)
            if name == b"content-length":
                if length_raw not in (None, value):
                    raise _BadRequest
                length_raw = value
        if length_raw is None:
            length_raw = b"0"
        # RFC 9110 §8.6: digits only, so no sign, no blanks, no empty value
        if not length_raw.isdigit():
            raise _BadRequest
        length = int(length_raw)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413)
        body = await reader.readexactly(length) if length else b""
        return _Request(
            method=method,
            target=target,
            version=version,
            headers=headers,
            body=body,
        )

    def _base_scope(self, request: _Request, kind: str, scheme: str) -> dict:
        path, _, query = request.target.partition("?")
        return {
            "type": kind,
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "scheme": scheme,
            "path": unquote(path),
            "raw_path": request.target.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "root_path": "",
            "headers": request.headers,
            "client": None,
            "server": (self.host, self.port),
        }

    async def _serve_http(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Run one request through the app; returns keep-alive."""
        scope = {
            **self._base_scope(request, "http", "http"),
            "method": request.method.upper(),
        }
        sent_body = False

        async def receive() -> dict:
            nonlocal sent_body
            if not sent_body:
                sent_body = True
                return {
                    "type": "http.request",
                    "body": request.body,
                    "more_body": False,
                }
            return {"type": "http.disconnect"}

        status = 500
        response_headers: list[tuple[bytes, bytes]] = []
        chunks: list[bytes] = []
        done = asyncio.Event()

        async def send(message: dict) -> None:
            nonlocal status, response_headers
            if message["type"] == "http.response.start":
                status = message["status"]
                response_headers = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b""))
                if not message.get("more_body"):
                    done.set()

        await self.app(scope, receive, send)
        if not done.is_set():  # pragma: no cover - app bug guard
            raise RuntimeError("ASGI app never completed the response")
        body = b"".join(chunks)
        keep_alive = (
            request.version.upper() != "HTTP/1.0"
            and (request.header(b"connection") or b"").lower() != b"close"
        )
        phrase = _PHRASES.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {phrase}".encode()]
        for name, value in response_headers:
            if name.lower() != b"content-length":
                head.append(name + b": " + value)
        head.append(b"content-length: " + str(len(body)).encode())
        head.append(
            b"connection: keep-alive" if keep_alive else b"connection: close"
        )
        writer.write(b"\r\n".join(head) + b"\r\n\r\n" + body)
        await writer.drain()
        return keep_alive

    # ------------------------------------------------------------------ #
    # WebSocket bridging
    # ------------------------------------------------------------------ #

    async def _serve_websocket(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        scope = self._base_scope(request, "websocket", "ws")
        scope["subprotocols"] = []
        client_key = (request.header(b"sec-websocket-key") or b"").decode()
        connected = False
        accepted = False
        closed = False

        async def receive() -> dict:
            nonlocal connected, closed
            if not connected:
                connected = True
                return {"type": "websocket.connect"}
            while True:
                try:
                    frame = await read_ws_frame(reader)
                except _FrameTooLarge:
                    if not closed:
                        closed = True
                        writer.write(encode_ws_frame(0x8, (1009).to_bytes(2, "big")))
                        await writer.drain()
                    return {"type": "websocket.disconnect", "code": 1009}
                if frame is None:
                    return {"type": "websocket.disconnect", "code": 1006}
                opcode, payload = frame
                if opcode == 0x1:
                    return {
                        "type": "websocket.receive",
                        "text": payload.decode("utf-8", "replace"),
                    }
                if opcode == 0x2:
                    return {"type": "websocket.receive", "bytes": payload}
                if opcode == 0x8:
                    code = (
                        int.from_bytes(payload[:2], "big")
                        if len(payload) >= 2
                        else 1005
                    )
                    if not closed:
                        writer.write(encode_ws_frame(0x8, payload[:2]))
                        await writer.drain()
                    return {"type": "websocket.disconnect", "code": code}
                if opcode == 0x9:  # ping -> pong, stay in the read loop
                    writer.write(encode_ws_frame(0xA, payload))
                    await writer.drain()

        async def send(message: dict) -> None:
            nonlocal accepted, closed
            kind = message["type"]
            if kind == "websocket.accept":
                accepted = True
                writer.write(
                    b"HTTP/1.1 101 Switching Protocols\r\n"
                    b"upgrade: websocket\r\nconnection: Upgrade\r\n"
                    b"sec-websocket-accept: "
                    + websocket_accept_key(client_key).encode()
                    + b"\r\n\r\n"
                )
            elif kind == "websocket.close" and not accepted:
                # ASGI: rejecting before accept becomes a plain HTTP 403
                # (there is no websocket to close yet).
                closed = True
                writer.write(
                    b"HTTP/1.1 403 Forbidden\r\n"
                    b"content-length: 0\r\nconnection: close\r\n\r\n"
                )
            elif kind == "websocket.send":
                if "text" in message and message["text"] is not None:
                    frame = encode_ws_frame(0x1, message["text"].encode())
                else:
                    frame = encode_ws_frame(0x2, message.get("bytes") or b"")
                writer.write(frame)
            elif kind == "websocket.close":
                if not closed:
                    closed = True
                    code = message.get("code", 1000)
                    writer.write(encode_ws_frame(0x8, code.to_bytes(2, "big")))
            await writer.drain()

        await self.app(scope, receive, send)
