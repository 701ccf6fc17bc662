"""Traced mode: spans recorded from benchmark code around each layer's entry points.

:func:`install` wraps the public entry points of every layer the workloads
reach, without editing the program:

* ``core.collection`` / ``core.kernels`` — ``SetCollection.__init__``,
  ``informative_stats`` (unrestricted and restricted), ``informative_stats_many``,
  ``partition``, ``apply_delta``;
* ``core.lookahead`` — ``KLPSelector.select``;
* ``serve.scheduler`` — ``ScanScheduler.flush`` and, as called from it,
  ``plan_stacked_scan``, ``group_for_scoring``, ``select_best_many``
  (plus ``EngineStats`` deltas per flush);
* ``serve.async_service`` — ``AsyncDiscoveryService.spawn`` / ``ask`` /
  ``answer`` / ``result`` / ``apply_delta`` and every task its flush
  executor runs (the flush thread's busy time);
* ``serve.http`` — ``DiscoveryApp.__call__``, one span per HTTP request and
  one per WebSocket client message (until the server's reply is sent);
* ``serve.cluster`` — the ``ClusterService`` verbs;
* the process — garbage-collector pauses through ``gc.callbacks``.

Each span records its start, duration and *self time*: duration minus the
part of it its child spans cover.  Synchronous children are found on a
per-thread stack; a coroutine span passes itself to the spans it awaits
through a context variable.  The wrappers' own bookkeeping (hit checks,
row-pass byte counts) is charged to neither the span nor its parent but
summed per span, so self times plus bookkeeping add up to the wall time of
a root span.

Spans are kept in memory in compact arrays and written out at exit
(:meth:`Tracer.dump`); the benchmark process merges the files of the
server and its workers and keeps the spans that started inside the
measured phase.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import gc
import json
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

now = time.perf_counter

#: Environment variable naming the directory a traced child writes into.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# http.request "route" extra
ROUTE_SESSION, ROUTE_ADMIN, ROUTE_OTHER = 0, 1, 2
# cluster.call "verb" extra
CLUSTER_VERBS = ("spawn_from_spec", "ask", "answer", "result", "apply_delta_spec")


class Frame:
    """An open span: the time its children cover plus per-kind counters."""

    __slots__ = (
        "kind", "child", "book", "scans", "partitions", "masks",
        "root_mask", "root_exclude", "root_informative", "root_partitions",
    )

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.child = 0.0
        #: wrapper bookkeeping inside this span (its descendants' hooks)
        self.book = 0.0
        self.scans = 0
        self.partitions = 0
        self.masks = 0
        self.root_mask: int | None = None
        self.root_exclude: Any = ()
        self.root_informative = -1
        self.root_partitions = 0


class Call:
    """What an ``after`` hook sees of one finished call."""

    __slots__ = ("args", "kwargs", "result", "frame", "parent", "t0", "dur", "state")

    def __init__(self, args, kwargs, result, frame, parent, t0, dur, state) -> None:
        self.args = args
        self.kwargs = kwargs
        self.result = result
        self.frame = frame
        self.parent = parent
        self.t0 = t0
        self.dur = dur
        self.state = state


class SpanLog:
    """Spans of one kind as parallel arrays (start is ``perf_counter``)."""

    def __init__(self, extras: tuple[str, ...] = ()) -> None:
        self.start = array("d")
        self.dur = array("d")
        self.self_ = array("d")
        self.extras = {name: array("d") for name in extras}

    def add(self, start: float, dur: float, self_s: float, **extras: float) -> None:
        self.start.append(start)
        self.dur.append(dur)
        self.self_.append(self_s)
        for name, column in self.extras.items():
            column.append(extras.get(name, 0.0))

    def to_json(self) -> dict:
        return {
            "start": list(self.start),
            "dur": list(self.dur),
            "self": list(self.self_),
            "extras": {k: list(v) for k, v in self.extras.items()},
        }


#: kind -> extra columns
KINDS: dict[str, tuple[str, ...]] = {
    "collection.build": (),
    "collection.scan": ("hit", "bytes"),
    "collection.scan_restricted": ("bytes",),
    "collection.scan_many": ("masks", "miss", "bytes"),
    "collection.first_scan_after_delta": (),
    "collection.partition": (),
    "collection.delta": (),
    "lookahead.select": ("scans", "partitions", "root_informative", "root_partitions"),
    "scheduler.flush": (
        "requests", "masks", "scanned", "hits", "selections", "groups", "fallback",
    ),
    "scheduler.plan": (),
    "scheduler.group": (),
    "scheduler.score": (),
    "async_service.spawn": (),
    "async_service.ask": (),
    "async_service.answer": (),
    "async_service.result": (),
    "async_service.apply_delta": (),
    "async_service.flush_task": (),
    "http.request": ("route", "status"),
    "http.ws_message": ("error",),
    "cluster.call": ("verb",),
    "process.gc": (),
    # the in-process measured phase itself (the root of its spans)
    "bench.measured": ("book",),
}


class Tracer:
    """In-memory span store plus the machinery the wrappers share."""

    def __init__(self) -> None:
        self.logs = {kind: SpanLog(extras) for kind, extras in KINDS.items()}
        self.flush_tids: set[int] = set()
        #: ids of collections produced by apply_delta and not yet scanned
        self.fresh: set[int] = set()
        #: every AsyncDiscoveryService created (for its queue high watermark)
        self.services: list = []
        self._local = threading.local()
        self.async_frame: contextvars.ContextVar[Frame | None] = (
            contextvars.ContextVar("perfbench_frame", default=None)
        )
        self._gc_start = 0.0

    def stack(self) -> list[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> Frame | None:
        stack = self.stack()
        return stack[-1] if stack else self.async_frame.get()

    # ------------------------------------------------------------------ #
    # Wrapper factories
    # ------------------------------------------------------------------ #

    def wrap_sync(
        self,
        kind: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """Span around a plain call.

        ``before(args, kwargs, frame)`` runs before the timed call and
        returns a state; ``after(call)`` runs after it and returns the
        span's extras.  Both count as bookkeeping, not as span time.
        """
        log_of = self.logs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tw0 = now()
            parent = self.parent()
            frame = Frame(kind)
            state = before(args, kwargs, frame) if before is not None else None
            stack = self.stack()
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
            extras = {}
            if after is not None:
                extras = after(Call(args, kwargs, result, frame, parent, t0, t1 - t0, state))
            log_of[kind].add(t0, t1 - t0, t1 - t0 - frame.child, **extras)
            if parent is not None:
                cover = now() - tw0
                parent.child += cover
                parent.book += frame.book + cover - (t1 - t0)
            return result

        return wrapper

    def wrap_async(self, kind: str, fn: Callable, **extras: float) -> Callable:
        """Span around a coroutine function, visible to what it awaits."""
        log_of = self.logs

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            tw0 = now()
            parent = self.async_frame.get()
            frame = Frame(kind)
            token = self.async_frame.set(frame)
            t0 = now()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = now()
                self.async_frame.reset(token)
                log_of[kind].add(t0, t1 - t0, t1 - t0 - frame.child, **extras)
                if parent is not None:
                    cover = now() - tw0
                    parent.child += cover
                    parent.book += frame.book + cover - (t1 - t0)

        return wrapper

    # ------------------------------------------------------------------ #
    # Process-level hooks
    # ------------------------------------------------------------------ #

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = now()
        else:
            t1 = now()
            self.logs["process.gc"].add(self._gc_start, t1 - self._gc_start, 0.0)

    def dump(self, path: Path) -> None:
        """Write every span, plus the clock offset that maps ``perf_counter``
        starts onto ``time.monotonic`` for cross-process windows."""
        payload = {
            "pid": os.getpid(),
            "clock_offset": time.monotonic() - now(),
            "flush_tids": sorted(self.flush_tids),
            "queued_high_watermark": max(
                (s.queued_high_watermark for s in self.services), default=0
            ),
            "kinds": {k: log.to_json() for k, log in self.logs.items()},
        }
        path.write_text(json.dumps(payload))


# --------------------------------------------------------------------- #
# Layer wrappers
# --------------------------------------------------------------------- #


def _nonzero_words(mask: int, n_words: int) -> int:
    import numpy as np

    if n_words == 0:
        return 0
    words = np.frombuffer(mask.to_bytes(n_words * 8, "little"), dtype=np.uint64)
    return int(np.count_nonzero(words))


def _rows(candidates, n_entities: int) -> int:
    if candidates is None:
        return n_entities
    return len(candidates) if hasattr(candidates, "__len__") else n_entities


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points so calls record spans into ``tracer``."""
    from repro.core.collection import SetCollection
    from repro.core.lookahead import KLPSelector
    from repro.serve import async_service, cluster, http, scheduler

    # -- core.collection / core.kernels --------------------------------- #
    def note_fresh_scan(call: Call) -> None:
        coll = call.args[0]
        if id(coll) in tracer.fresh:
            tracer.fresh.discard(id(coll))
            tracer.logs["collection.first_scan_after_delta"].add(
                call.t0, call.dur, call.dur - call.frame.child
            )

    def scan_before(args, kwargs, frame):
        cands = _arg(args, kwargs, 2, "candidates")
        return cands is None and args[0].is_cached(args[1])

    def scan_after(call: Call) -> dict:
        coll, mask = call.args[0], call.args[1]
        note_fresh_scan(call)
        parent = call.parent
        if parent is not None and parent.kind == "lookahead.select":
            parent.scans += 1
            if mask == parent.root_mask:
                eids = call.result[0]
                eids = eids.tolist() if hasattr(eids, "tolist") else eids
                excl = parent.root_exclude
                parent.root_informative = (
                    sum(1 for e in eids if e not in excl) if excl else len(eids)
                )
        if call.state:
            return {"hit": 1.0, "bytes": 0.0}
        cands = _arg(call.args, call.kwargs, 2, "candidates")
        n_words = (coll.n_sets + 63) // 64
        rows = _rows(cands, coll.n_entities)
        return {"hit": 0.0, "bytes": float(rows * _nonzero_words(mask, n_words) * 8)}

    def scan_many_before(args, kwargs, frame):
        coll, masks = args[0], args[1]
        cands_list = _arg(args, kwargs, 2, "candidates_list")
        seen: set[int] = set()
        misses = []
        for i, mask in enumerate(masks):
            if mask in seen or coll.is_cached(mask):
                continue
            seen.add(mask)
            misses.append((mask, None if cands_list is None else cands_list[i]))
        return misses

    def scan_many_after(call: Call) -> dict:
        coll = call.args[0]
        note_fresh_scan(call)
        n_words = (coll.n_sets + 63) // 64
        total = sum(
            _rows(c, coll.n_entities) * _nonzero_words(m, n_words) * 8
            for m, c in call.state
        )
        return {
            "masks": float(len(call.args[1])),
            "miss": float(len(call.state)),
            "bytes": float(total),
        }

    def partition_after(call: Call) -> dict:
        parent = call.parent
        if parent is not None and parent.kind == "lookahead.select":
            parent.partitions += 1
            if call.args[1] == parent.root_mask:
                parent.root_partitions += 1
        return {}

    def delta_after(call: Call) -> dict:
        if call.result is not call.args[0]:
            tracer.fresh.add(id(call.result))
        return {}

    SetCollection.__init__ = tracer.wrap_sync("collection.build", SetCollection.__init__)
    original_scan = SetCollection.informative_stats
    unrestricted = tracer.wrap_sync(
        "collection.scan", original_scan, scan_before, scan_after
    )
    restricted = tracer.wrap_sync(
        "collection.scan_restricted",
        original_scan,
        scan_before,
        lambda call: {"bytes": scan_after(call)["bytes"]},
    )

    @functools.wraps(original_scan)
    def informative_stats(*args, **kwargs):
        if _arg(args, kwargs, 2, "candidates") is None:
            return unrestricted(*args, **kwargs)
        return restricted(*args, **kwargs)

    SetCollection.informative_stats = informative_stats
    SetCollection.informative_stats_many = tracer.wrap_sync(
        "collection.scan_many",
        SetCollection.informative_stats_many,
        scan_many_before,
        scan_many_after,
    )
    SetCollection.partition = tracer.wrap_sync(
        "collection.partition", SetCollection.partition, None, partition_after
    )
    SetCollection.apply_delta = tracer.wrap_sync(
        "collection.delta", SetCollection.apply_delta, None, delta_after
    )

    # -- core.lookahead --------------------------------------------------- #
    def select_before(args, kwargs, frame):
        frame.root_mask = _arg(args, kwargs, 2, "mask")
        frame.root_exclude = _arg(args, kwargs, 4, "exclude", ())

    def select_after(call: Call) -> dict:
        frame = call.frame
        return {
            "scans": float(frame.scans),
            "partitions": float(frame.partitions),
            "root_informative": float(frame.root_informative),
            "root_partitions": float(frame.root_partitions),
        }

    KLPSelector.select = tracer.wrap_sync(
        "lookahead.select", KLPSelector.select, select_before, select_after
    )

    # -- serve.scheduler --------------------------------------------------- #
    stat_fields = (
        "scanned_masks", "scan_cache_hits", "batched_selections",
        "scoring_groups", "fallback_selections",
    )

    def flush_before(args, kwargs, frame):
        sched = args[0]
        return sched.pending_requests, [getattr(sched.stats, f) for f in stat_fields]

    def flush_after(call: Call) -> dict:
        requests, before = call.state
        after = [getattr(call.args[0].stats, f) for f in stat_fields]
        d = [a - b for a, b in zip(after, before)]
        return {
            "requests": float(requests), "masks": float(call.frame.masks),
            "scanned": float(d[0]), "hits": float(d[1]), "selections": float(d[2]),
            "groups": float(d[3]), "fallback": float(d[4]),
        }

    def plan_after(call: Call) -> dict:
        if call.parent is not None:
            call.parent.masks += len(call.result[0])
        return {}

    scheduler.ScanScheduler.flush = tracer.wrap_sync(
        "scheduler.flush", scheduler.ScanScheduler.flush, flush_before, flush_after
    )
    scheduler.plan_stacked_scan = tracer.wrap_sync(
        "scheduler.plan", scheduler.plan_stacked_scan, None, plan_after
    )
    scheduler.group_for_scoring = tracer.wrap_sync(
        "scheduler.group", scheduler.group_for_scoring
    )
    scheduler.select_best_many = tracer.wrap_sync(
        "scheduler.score", scheduler.select_best_many
    )

    # -- serve.async_service --------------------------------------------- #
    svc = async_service.AsyncDiscoveryService
    service_init = svc.__init__

    @functools.wraps(service_init)
    def register(self, *args, **kwargs):
        service_init(self, *args, **kwargs)
        tracer.services.append(self)

    svc.__init__ = register
    svc.spawn = tracer.wrap_sync("async_service.spawn", svc.spawn)
    svc.answer = tracer.wrap_sync("async_service.answer", svc.answer)
    svc.ask = tracer.wrap_async("async_service.ask", svc.ask)
    svc.result = tracer.wrap_async("async_service.result", svc.result)
    svc.apply_delta = tracer.wrap_async("async_service.apply_delta", svc.apply_delta)
    ensure_executor = svc._ensure_executor

    def flush_task(fn):
        def run(*args, **kwargs):
            tracer.flush_tids.add(threading.get_native_id())
            return fn(*args, **kwargs)

        return tracer.wrap_sync("async_service.flush_task", run)

    @functools.wraps(ensure_executor)
    def traced_executor(self):
        executor = ensure_executor(self)
        if not getattr(executor, "_perfbench_traced", False):
            submit = executor.submit
            executor.submit = lambda fn, *a, **kw: submit(flush_task(fn), *a, **kw)
            executor._perfbench_traced = True
        return executor

    svc._ensure_executor = traced_executor

    # -- serve.http ------------------------------------------------------- #
    app_call = http.DiscoveryApp.__call__
    request_log = tracer.logs["http.request"]
    message_log = tracer.logs["http.ws_message"]

    @functools.wraps(app_call)
    async def traced_call(self, scope, receive, send):
        kind = scope["type"]
        if kind == "http":
            path = scope["path"]
            route = (
                ROUTE_SESSION if path.startswith("/sessions")
                else ROUTE_ADMIN if path == "/admin/delta" else ROUTE_OTHER
            )
            status = [0]

            async def send_status(message):
                if message["type"] == "http.response.start":
                    status[0] = message["status"]
                await send(message)

            frame = Frame("http.request")
            token = tracer.async_frame.set(frame)
            t0 = now()
            try:
                await app_call(self, scope, receive, send_status)
            finally:
                t1 = now()
                tracer.async_frame.reset(token)
                request_log.add(
                    t0, t1 - t0, t1 - t0 - frame.child,
                    route=float(route), status=float(status[0]),
                )
        elif kind == "websocket":
            open_span: list = []

            async def receive_message():
                message = await receive()
                if message["type"] == "websocket.receive":
                    frame = Frame("http.ws_message")
                    tracer.async_frame.set(frame)
                    open_span[:] = [frame, now()]
                return message

            async def send_reply(message):
                await send(message)
                if not open_span:
                    return
                text = message.get("text") or ""
                closing = message["type"] == "websocket.close"
                if closing or text.startswith(
                    ('{"type": "question"', '{"type": "result"', '{"type": "error"')
                ):
                    frame, t0 = open_span
                    t1 = now()
                    message_log.add(
                        t0, t1 - t0, t1 - t0 - frame.child,
                        error=float(closing or text.startswith('{"type": "error"')),
                    )
                    open_span.clear()
                    tracer.async_frame.set(None)

            await app_call(self, scope, receive_message, send_reply)
        else:
            await app_call(self, scope, receive, send)

    http.DiscoveryApp.__call__ = traced_call

    # -- serve.cluster ---------------------------------------------------- #
    for index, verb in enumerate(CLUSTER_VERBS):
        setattr(
            cluster.ClusterService,
            verb,
            tracer.wrap_async(
                "cluster.call", getattr(cluster.ClusterService, verb), verb=float(index)
            ),
        )

    gc.callbacks.append(tracer.on_gc)


def install_from_env() -> Tracer | None:
    """In a server child or cluster worker: trace when the benchmark asked."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    tracer = Tracer()
    install(tracer)
    atexit.register(tracer.dump, Path(directory) / f"trace-{os.getpid()}.json")
    return tracer
