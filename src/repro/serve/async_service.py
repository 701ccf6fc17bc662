"""Asyncio serving front-end (layer 3 of 3): questions as awaitables.

An :class:`AsyncDiscoveryService` serves many concurrent discovery sessions
over one shared collection with three coroutine-shaped verbs:

* ``entity = await service.ask(key)`` — the next question for session
  ``key`` (``None`` once the session finished);
* ``service.answer(key, value)`` — record the user's reply
  (``True``/``False``/``None`` for "don't know"), plain and synchronous;
* ``result = await service.result(key)`` — the session's
  :class:`~repro.core.discovery.DiscoveryResult` once it finishes.

Sessions join (:meth:`add`/:meth:`spawn`), answer and finish completely
independently — no lock-step rounds.  Under the hood every ``ask`` queues
a scan request on the shared
:class:`~repro.serve.scheduler.ScanScheduler`; the service flushes the
scheduler when either ``max_batch`` requests have accumulated or the
oldest request has waited ``flush_after_ms`` — so the kernel still sees
large stacked scans while no user waits longer than the latency budget
plus one batched pass.

Flushes run in a single-worker thread executor: all session/kernel
mutation is serialized on that thread while the event loop stays free to
accept joins, answers and asks — and because the numpy/native/sharded
backends release the GIL inside their scans, kernel work genuinely
overlaps network-style I/O.  Transcripts remain bit-identical to
sequential ``DiscoverySession.run`` calls, whatever the arrival order —
selection is deterministic per session state, which the parity tests
(``tests/test_async_service.py``) enforce.

The service binds to the first event loop that uses it; drive it from one
loop only (the normal ``asyncio.run(main())`` shape) and close it with
``await service.aclose()`` or ``async with AsyncDiscoveryService(...)``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Hashable, Iterable, Mapping

from ..core.collection import SetCollection
from ..core.discovery import DiscoveryResult, DiscoverySession
from .metrics import ServiceMetrics
from .scheduler import FlushReport, ScanScheduler
from .state import SessionRegistry

__all__ = [
    "AsyncDiscoveryService",
    "ServiceClosed",
    "ServiceOverloaded",
    "SessionExpired",
]


class ServiceClosed(RuntimeError):
    """The service was closed (or is draining) and cannot serve this call.

    Raised by every verb after :meth:`AsyncDiscoveryService.aclose`, by
    :meth:`~AsyncDiscoveryService.add`/:meth:`~AsyncDiscoveryService.spawn`
    once a drain began, and *delivered to* any ``ask()``/``result()``
    waiter still pending when the service closes — a waiter must end with
    a clear error, never hang forever.  The HTTP edge
    (:mod:`repro.serve.http`) maps it to ``503 Service Unavailable``.
    """


class ServiceOverloaded(RuntimeError):
    """The service shed this call to keep its queues bounded.

    Raised by :meth:`AsyncDiscoveryService.add`/:meth:`spawn` when
    ``max_sessions`` active sessions already exist, and by
    :meth:`ask`/:meth:`result` under the ``"shed"`` overload policy when
    ``max_queued`` requests are already waiting for the next flush.
    Carries ``retry_after_s``, the service's hint for when capacity is
    likely back; the HTTP edge maps this to ``429 Too Many Requests``
    with a ``Retry-After`` header, the WebSocket edge to a ``busy``
    close.  Recorded replies (:meth:`answer`) are never shed — a reply
    frees capacity, it does not consume it.
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SessionExpired(RuntimeError):
    """The session was reaped (TTL expiry) while this call waited on it.

    Delivered to any ``ask()``/``result()`` waiter still pending when
    :meth:`AsyncDiscoveryService.expire` discards the session — a
    long-poll on an expired session must learn its fate immediately, not
    wait out its poll timeout.  The HTTP edge maps it to
    ``404 session_expired``.
    """


class WorkerLost(RuntimeError):
    """The engine worker owning this session died mid-call.

    Only the multi-worker topology (:mod:`repro.serve.cluster`) raises
    this: the owning worker process exited (pipe EOF / waitpid) before
    replying, so the session's in-memory state is gone — shared-nothing
    replicas hold no session state for their siblings.  Delivered to any
    parked long-poll waiting on the dead worker and to every later call
    routed to one of its sessions.  The HTTP edge maps it to
    ``503 worker_lost``; clients start a fresh session (which lands on a
    live worker — the supervisor restarts the dead one in place).

    Defined here rather than in :mod:`repro.serve.cluster` so the edge
    (:mod:`repro.serve.http`) can catch it without importing the cluster
    machinery it otherwise never touches.
    """


class AsyncDiscoveryService:
    """Latency-budgeted asyncio service over a shared :class:`ScanScheduler`.

    Parameters
    ----------
    collection:
        The shared closed collection all sessions discover over.
    flush_after_ms:
        Latency budget: a queued question request waits at most this long
        before a batched kernel pass answers it (plus the pass itself).
        Smaller = snappier single-user latency; larger = bigger stacked
        scans under load.
    max_batch:
        Batch watermark: this many queued requests trigger an immediate
        flush without waiting for the budget.  ``None`` disables the
        watermark (budget-only flushing).
    release_caches:
        As for :class:`~repro.serve.engine.SessionEngine`: release a
        finished session's cached scan stats once no active session
        shares them.
    max_sessions:
        Admission bound: :meth:`add`/:meth:`spawn` raise
        :class:`ServiceOverloaded` while this many sessions are active.
        ``None`` (the default) keeps today's unbounded behavior.
    max_queued:
        Queue bound: once this many requests wait for the next flush, a
        *new* ``ask()``/``result()`` request is shed (``"shed"`` policy)
        or parks until a flush drains the queue (``"wait"`` policy).
        Requests for keys already queued, and replies, always pass —
        they cannot grow the queue.  ``None`` disables the bound.
    overload_policy:
        ``"shed"`` (raise :class:`ServiceOverloaded`, the HTTP edge's
        429) or ``"wait"`` (block the caller until there is room —
        bounded memory, unbounded caller patience).
    retry_after_s:
        The back-off hint carried by every :class:`ServiceOverloaded`
        this service raises (the HTTP ``Retry-After`` value).
    """

    def __init__(
        self,
        collection: SetCollection,
        *,
        flush_after_ms: float = 2.0,
        max_batch: int | None = 64,
        release_caches: bool = True,
        max_sessions: int | None = None,
        max_queued: int | None = None,
        overload_policy: str = "shed",
        retry_after_s: float = 1.0,
    ) -> None:
        if overload_policy not in ("shed", "wait"):
            raise ValueError(
                f"overload_policy must be 'shed' or 'wait', "
                f"not {overload_policy!r}"
            )
        self.registry = SessionRegistry(
            collection, release_caches=release_caches
        )
        self.scheduler = ScanScheduler(
            self.registry,
            flush_after_ms=flush_after_ms,
            max_batch=max_batch,
        )
        self.stats = self.scheduler.stats
        self.metrics = ServiceMetrics(self)
        #: keys awaiting advancement (ordered set; the loop thread owns it)
        self._needy: dict[Hashable, None] = {}
        #: clock reading when the oldest entry of ``_needy`` arrived — the
        #: ``first_at`` the shared :class:`FlushPolicy` evaluates against
        self._needy_first_at: float | None = None
        #: recorded replies not yet applied (applied at the next flush, on
        #: the flush thread, so ALL session mutation is single-threaded)
        self._replies: dict[Hashable, bool | None] = {}
        #: keys whose reply is being applied by the running flush — the
        #: ask() fast path must not trust their stale pending question
        self._inflight_replies: frozenset[Hashable] = frozenset()
        self._ask_waiters: dict[Hashable, list[asyncio.Future]] = {}
        self._result_waiters: dict[Hashable, list[asyncio.Future]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._flush_timer: asyncio.TimerHandle | None = None
        self._flush_task: asyncio.Task | None = None
        self._flushing = False
        self._draining = False
        self._closed = False
        #: collection deltas applied through this service (metrics counter)
        self.deltas_applied = 0
        self.max_sessions = max_sessions
        self.max_queued = max_queued
        self.overload_policy = overload_policy
        self.retry_after_s = retry_after_s
        #: deepest the loop-side queue has ever been (metrics gauge)
        self.queued_high_watermark = 0
        #: set whenever a flush drains ``_needy`` — "wait" admissions park
        #: on it (recreated per wake so every parked caller re-checks room)
        self._room: asyncio.Event | None = None

    @property
    def collection(self) -> SetCollection:
        """The *current* collection epoch (what new sessions spawn on).

        :meth:`apply_delta` advances it; sessions already running stay
        pinned to the epoch they started on.  The shared universe never
        changes across epochs, so label translation through this property
        is valid for questions of any epoch's session.
        """
        return self.registry.collection

    # ------------------------------------------------------------------ #
    # Session attachment (delegated to the registry)
    # ------------------------------------------------------------------ #

    def add(
        self, session: DiscoverySession, key: Hashable | None = None
    ) -> Hashable:
        """Attach a session; returns its key.  Sessions may join at any
        time — including while a flush for other sessions is running."""
        self._check_accepting()
        self._check_capacity()
        return self.registry.add(session, key=key)

    def spawn(
        self,
        selector,
        initial: Iterable[Hashable] = (),
        initial_ids: Iterable[int] | None = None,
        max_questions: int | None = None,
        key: Hashable | None = None,
    ) -> Hashable:
        """Construct a :class:`DiscoverySession` over the service's
        collection and :meth:`add` it in one call."""
        self._check_accepting()
        self._check_capacity()
        return self.registry.spawn(
            selector,
            initial=initial,
            initial_ids=initial_ids,
            max_questions=max_questions,
            key=key,
        )

    @property
    def n_active(self) -> int:
        return self.registry.n_active

    @property
    def queued_requests(self) -> int:
        """Loop-side requests awaiting the next flush (metrics gauge)."""
        return len(self._needy)

    @property
    def accepting(self) -> bool:
        """True while new sessions may join (not closed, not draining)."""
        return not (self._closed or self._draining)

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop accepting new sessions; keep serving the attached ones.

        The graceful-shutdown first step: after this, :meth:`add` and
        :meth:`spawn` raise :class:`ServiceClosed` while every live
        session still asks, answers and finishes normally.  Follow with
        :meth:`aclose` once :attr:`n_active` drains (or a grace deadline
        passes) — the HTTP edge's drain sequence does exactly that.
        """
        self._draining = True

    @property
    def results(self) -> Mapping[Hashable, DiscoveryResult]:
        return self.registry.results

    # ------------------------------------------------------------------ #
    # Collection mutation (epoch versioning)
    # ------------------------------------------------------------------ #

    async def apply_delta(self, batch) -> SetCollection:
        """Apply a :class:`~repro.core.collection.DeltaBatch` live.

        Runs ``collection.apply_delta(batch)`` on the flush executor —
        the single thread that owns all session/kernel mutation — so the
        delta is strictly ordered against in-flight flushes: every stacked
        scan runs entirely before or entirely after it, never across it.
        New sessions spawned after this returns start on the new epoch;
        running sessions keep their pinned epoch and finish with
        transcripts byte-identical to a delta-free run.  An old epoch's
        collection (and kernel) is garbage-collected once its last pinned
        session finishes — nothing else holds a reference.

        Returns the new current collection.  Raises whatever
        :meth:`~repro.core.collection.SetCollection.apply_delta` raises on
        an inconsistent batch, leaving the current epoch in place.
        """
        self._check_open()
        self._bind_loop()
        registry = self.registry

        def _apply() -> "tuple[SetCollection, bool]":
            current = registry.collection
            new = current.apply_delta(batch)
            if new is current:  # empty batch: no new epoch
                return new, False
            registry.advance_collection(new)
            return new, True

        assert self._loop is not None
        new, advanced = await self._loop.run_in_executor(
            self._ensure_executor(), _apply
        )
        if advanced:
            self.deltas_applied += 1
        return new

    async def expire(self, key: Hashable) -> bool:
        """Discard an abandoned live session (the TTL-expiry path).

        Refuses (returns ``False``) when the session is unknown, already
        finished, or has *queued work* — a request awaiting the next
        flush, an unapplied reply, or a reply being applied right now —
        so a session actively being advanced is never expired mid-step.
        A pending ``ask``/``result`` waiter does NOT veto expiry: a
        waiter with no queued work is a long-poll whose client has
        typically vanished (the TTL is what decided the session is
        abandoned), and holding the session alive for it would leak the
        session — and its epoch pin — forever.  Instead, any such waiter
        is woken with :class:`SessionExpired` the moment the discard
        lands, which the HTTP edge maps to ``404 session_expired``.

        The discard itself runs on the flush executor, serialized with
        all other session mutation, and releases the session's epoch pin
        (the discarded state held the only session→collection reference),
        so expiring the last session of an old epoch lets that epoch be
        garbage-collected.  No result is recorded.
        """
        self._check_open()
        self._bind_loop()
        if (
            key in self._needy
            or key in self._replies
            or key in self._inflight_replies
        ):
            return False
        if self.registry.result_of(key) is not None:
            return False  # finished normally; the result map owns it
        assert self._loop is not None
        discarded = await self._loop.run_in_executor(
            self._ensure_executor(), self.registry.discard, key
        )
        if discarded:
            self._expire_waiters(key)
        return discarded

    def _expire_waiters(self, key: Hashable) -> None:
        """Wake ``key``'s pending waiters with :class:`SessionExpired`."""
        expired = SessionExpired(
            f"session {key!r} expired while this wait was pending"
        )
        for waiters in (self._ask_waiters, self._result_waiters):
            for fut in waiters.pop(key, []):
                if not fut.done():
                    fut.set_exception(expired)
                    # As in aclose(): an abandoned waiter must not log an
                    # "exception was never retrieved" warning at GC.
                    fut.exception()

    # ------------------------------------------------------------------ #
    # The three serving verbs
    # ------------------------------------------------------------------ #

    async def ask(self, key: Hashable) -> int | None:
        """Await the next question for session ``key`` (an entity id).

        Returns ``None`` once the session is finished (fetch the outcome
        with :meth:`result`).  Idempotent while an answer is outstanding:
        asking again returns the same pending entity.  Cancelling a
        pending ``ask`` is safe — the session itself still advances with
        the next flush; only the waiter is abandoned.  Under a
        ``max_queued`` bound a *new* request may be shed with
        :class:`ServiceOverloaded` (``"shed"``) or parked until a flush
        makes room (``"wait"``); the fast path and already-queued keys
        are exempt.
        """
        self._check_open()
        self._bind_loop()
        if self.registry.result_of(key) is not None:
            return None
        state = self.registry.state(key)
        if (
            state.session.pending_entity is not None
            and key not in self._replies
            and key not in self._inflight_replies
        ):
            return state.session.pending_entity
        await self._admit_request(key)
        start = time.perf_counter()
        future = self._wait_on(self._ask_waiters, key)
        self._request(key)
        entity = await future
        # The user-observed ask-to-question latency (the SLO the flush
        # policy budgets): only waits are recorded — the fast path above
        # returns an already-selected question and costs nothing.
        self.metrics.observe_ask(time.perf_counter() - start)
        return entity

    def answer(self, key: Hashable, value: bool | None) -> None:
        """Record the user's reply to session ``key``'s pending question.

        Replies are applied on the flush thread (keeping every session
        mutation single-threaded), which then immediately pre-selects the
        session's *next* question in the same batched pass — a later
        :meth:`ask` usually returns without waiting.  Raises ``KeyError``
        for unknown/finished keys and ``ValueError`` when no question is
        pending or a reply was already recorded.
        """
        self._check_open()
        self._bind_loop()
        state = self.registry.state(key)
        if key in self._replies or key in self._inflight_replies:
            raise ValueError(
                f"session {key!r} already has a recorded reply; await "
                f"ask() for the next question before answering again"
            )
        if state.session.pending_entity is None:
            raise ValueError(
                f"session {key!r} has no pending question to answer"
            )
        self._replies[key] = value
        self._request(key)

    async def result(self, key: Hashable) -> DiscoveryResult:
        """Await session ``key``'s outcome (resolves when it finishes)."""
        self._check_open()
        self._bind_loop()
        done = self.registry.result_of(key)
        if done is not None:
            return done
        self.registry.state(key)  # clear KeyError for unknown keys
        await self._admit_request(key)
        future = self._wait_on(self._result_waiters, key)
        self._request(key)
        return await future

    # ------------------------------------------------------------------ #
    # Backpressure (admission control)
    # ------------------------------------------------------------------ #

    def _check_capacity(self) -> None:
        if (
            self.max_sessions is not None
            and self.registry.n_active >= self.max_sessions
        ):
            self.metrics.observe_rejection("sessions")
            raise ServiceOverloaded(
                f"session limit reached ({self.max_sessions} active); "
                f"retry once a session finishes or expires",
                retry_after_s=self.retry_after_s,
            )

    async def _admit_request(self, key: Hashable) -> None:
        """Gate one new ``ask``/``result`` request on queue room.

        A key already queued rides the existing request for free — it
        cannot grow the queue.  Otherwise, at ``max_queued``: shed raises
        :class:`ServiceOverloaded`; wait parks on an event the next flush
        sets when it drains the queue (then re-checks — several parked
        callers may race for the freed room).
        """
        if self.max_queued is None or key in self._needy:
            return
        while len(self._needy) >= self.max_queued:
            if self.overload_policy == "shed":
                self.metrics.observe_rejection("asks")
                raise ServiceOverloaded(
                    f"request queue full ({self.max_queued} waiting for "
                    f"the next flush); retry after the flush budget",
                    retry_after_s=self.retry_after_s,
                )
            if self._room is None:
                self._room = asyncio.Event()
            room = self._room
            await room.wait()
            self._check_open()
            if key in self._needy:
                return

    def _signal_room(self) -> None:
        if self._room is not None:
            self._room.set()
            self._room = None

    # ------------------------------------------------------------------ #
    # Flush scheduling (event-loop side)
    # ------------------------------------------------------------------ #

    def _request(self, key: Hashable) -> None:
        if key not in self._needy:
            self._needy[key] = None
            if self._needy_first_at is None:
                self._needy_first_at = time.perf_counter()
            if len(self._needy) > self.queued_high_watermark:
                self.queued_high_watermark = len(self._needy)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._closed or self._flushing or not self._needy:
            # Closed: aclose() owns shutdown — a post-close flush would
            # recreate the executor it just shut down.  Flushing: the
            # running flush re-arms scheduling when it ends.
            return
        assert self._loop is not None
        # The watermark/budget decision is the scheduler's FlushPolicy,
        # evaluated over THIS loop-side queue (requests keep accumulating
        # here while a flush runs on the worker thread) — one rule, two
        # queues, no drift.
        now = time.perf_counter()
        policy = self.scheduler.policy
        if policy.should_flush(len(self._needy), self._needy_first_at, now):
            self._start_flush()
            return
        if len(self._needy) >= self.registry.n_active:
            # Every active session is already waiting on us — no request
            # can join the batch, so waiting out the budget is pure idle
            # time (the lock-step engine's "everyone answered" moment).
            self._start_flush()
            return
        if self._flush_timer is None:
            deadline = policy.deadline(self._needy_first_at)
            delay = 0.0 if deadline is None else max(0.0, deadline - now)
            self._flush_timer = self._loop.call_later(delay, self._on_timer)

    def _on_timer(self) -> None:
        self._flush_timer = None
        if self._needy and not self._closed:
            self._start_flush()

    def _start_flush(self) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        assert self._loop is not None
        self._flushing = True
        self._flush_task = self._loop.create_task(self._flush())

    async def _flush(self) -> None:
        needy = list(self._needy)
        self._needy.clear()
        self._needy_first_at = None
        # The queue just drained: parked "wait"-policy admissions may race
        # for the freed room while the flush runs on the worker thread.
        self._signal_room()
        replies, self._replies = self._replies, {}
        self._inflight_replies = frozenset(replies)
        start = time.perf_counter()
        failure: BaseException | None = None
        try:
            assert self._loop is not None
            report, prefinished, vanished = await self._loop.run_in_executor(
                self._ensure_executor(), self._advance_sync, needy, replies
            )
        except BaseException as exc:
            failure = exc
        finally:
            self._inflight_replies = frozenset()
            self._flushing = False
        if failure is not None:
            # A kernel/selector bug must fail this batch's waiters loudly,
            # not leave them hanging forever — and requests that queued
            # while the doomed flush ran still deserve their own flush.
            for key in needy:
                for fut in self._ask_waiters.pop(key, []):
                    if not fut.done():
                        fut.set_exception(failure)
                for fut in self._result_waiters.pop(key, []):
                    if not fut.done():
                        fut.set_exception(failure)
            self._flush_task = None
            self._maybe_flush()
            raise failure
        self.stats.ticks += 1
        self.stats.seconds += time.perf_counter() - start
        for key in vanished:
            # Discarded (expired) between request and flush: only this
            # key's waiters fail, with the precise exception — the rest of
            # the batch already advanced normally.
            self._expire_waiters(key)
        self._resolve(report, prefinished)
        # Requests that arrived while this flush ran start the next cycle.
        self._flush_task = None
        self._maybe_flush()

    # ------------------------------------------------------------------ #
    # Flush work (executor-thread side: the only session mutator)
    # ------------------------------------------------------------------ #

    def _advance_sync(
        self,
        needy: list[Hashable],
        replies: dict[Hashable, bool | None],
    ) -> tuple[
        FlushReport, dict[Hashable, DiscoveryResult], list[Hashable]
    ]:
        registry = self.registry
        vanished: list[Hashable] = []
        for key, value in replies.items():
            try:
                state = registry.state(key)
            except KeyError:
                # Discarded between answer() and this flush (expire() only
                # vetoes on keys it can see queued; a reply recorded in the
                # same loop turn as its discard check can slip past).  The
                # reply dies with the session; only this key's waiters
                # fail, not the whole batch.
                vanished.append(key)
                continue
            state.session.answer(value)
        prefinished: dict[Hashable, DiscoveryResult] = {}
        for key in needy:
            done = registry.result_of(key)
            if done is not None:  # retired by an earlier flush
                prefinished[key] = done
                continue
            try:
                state = registry.state(key)
            except KeyError:  # expired between request and flush
                if key not in vanished:
                    vanished.append(key)
                continue
            # flush() re-checks each request's phase itself, so a request
            # whose state changed since submission is always dispatched
            # correctly (DONE -> retired, QUESTION_PENDING -> re-reported).
            self.scheduler.submit(state)
        return self.scheduler.flush(), prefinished, vanished

    # ------------------------------------------------------------------ #
    # Waiter resolution (event-loop side)
    # ------------------------------------------------------------------ #

    def _resolve(
        self,
        report: FlushReport,
        prefinished: dict[Hashable, DiscoveryResult],
    ) -> None:
        for key, entity in report.questions.items():
            self._resolve_ask(key, entity)
        for key, entity in report.already_pending.items():
            if key in self._replies:
                # The user answered this very question while the flush ran
                # (the same staleness the ask() fast path guards against):
                # the waiters want the NEXT question, and the recorded
                # reply already re-queued the key, so the follow-up flush
                # resolves them with the fresh selection.
                continue
            self._resolve_ask(key, entity)
        finished = dict(prefinished)
        finished.update(report.finished)
        for key, result in finished.items():
            self._resolve_ask(key, None)
            for fut in self._result_waiters.pop(key, []):
                if not fut.done():
                    fut.set_result(result)

    def _resolve_ask(self, key: Hashable, entity: int | None) -> None:
        for fut in self._ask_waiters.pop(key, []):
            if not fut.done():
                fut.set_result(entity)

    def _wait_on(
        self, waiters: dict[Hashable, list[asyncio.Future]], key: Hashable
    ) -> asyncio.Future:
        # Cancelled waiters are not unlinked eagerly (a done-callback per
        # future would double the call_soon traffic on the hot path);
        # resolution skips done futures and pops the whole bucket, so a
        # cancelled ask lingers only until its key's next flush.
        assert self._loop is not None
        future = self._loop.create_future()
        waiters.setdefault(key, []).append(future)
        return future

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError(
                "AsyncDiscoveryService is bound to a different event loop; "
                "create one service per loop"
            )

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            # One worker by design: it serializes every session/kernel
            # mutation while the GIL-releasing kernel scans inside it
            # overlap the event loop's I/O.
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-flush"
            )
        return self._executor

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("AsyncDiscoveryService is closed")

    def _check_accepting(self) -> None:
        self._check_open()
        if self._draining:
            raise ServiceClosed(
                "AsyncDiscoveryService is draining; not accepting new "
                "sessions"
            )

    async def aclose(self) -> None:
        """Stop flushing, reject outstanding waiters, free the executor.

        Waiters still pending — including ``result()`` waiters of sessions
        that were never asked a question, which no future flush would ever
        resolve — are rejected with a clear :class:`ServiceClosed` instead
        of being left to hang (or die with an anonymous cancellation).
        """
        if self._closed:
            return
        self._closed = True
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        task = self._flush_task
        if task is not None and not task.done():
            try:
                await task
            except Exception:
                pass  # the flush already failed its waiters
        # Parked "wait"-policy admissions must wake and see the close.
        self._signal_room()
        closed = ServiceClosed(
            "AsyncDiscoveryService closed while this wait was pending"
        )
        for waiters in (self._ask_waiters, self._result_waiters):
            for bucket in list(waiters.values()):
                for fut in list(bucket):
                    if not fut.done():
                        fut.set_exception(closed)
                        # An abandoned waiter (its ask() was cancelled and
                        # nobody will ever await it) must not log an
                        # "exception was never retrieved" warning at GC;
                        # live awaiters still receive the exception.
                        fut.exception()
            waiters.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "AsyncDiscoveryService":
        self._check_open()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return (
            f"<AsyncDiscoveryService active={self.n_active} "
            f"finished={len(self.registry.results)} "
            f"queued={len(self._needy)} "
            f"flush_after_ms={self.scheduler.flush_after_ms} "
            f"max_batch={self.scheduler.max_batch}>"
        )
