"""In-process workloads: the program runs inside the benchmark process.

* ``klp-webtable`` — one client runs sessions back to back in one thread
  (the paper's protocol), each with a fresh k-LP-family selector.
* ``serve-stacked`` — coroutine clients share one ``AsyncDiscoveryService``
  with its default flush policy; each finished session is replaced by the
  next planned one until the plan is exhausted.

Set-up (timed as ``setup_s``) runs from building the collection, through
starting the service, until the warm-up session's first question is ready;
that question's scans build whatever the kernel builds lazily.  The rest
of the warm-up session runs untimed.  ``peak_rss_mb`` is the peak resident
size minus the resident size just before the first set-up, so the
interpreter, the imports and the generated inputs stay out of it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time

from perfbench import procstat
from perfbench.ledger import Ledger, Phase
from perfbench.inputs import KLP_SELECTORS, Plan, Session

now = time.perf_counter

STACKED_CLIENTS = 256
STACKED_CLIENTS_TOY = 16


def _check_backend(collection) -> None:
    if collection.backend != "native":
        raise SystemExit(
            f"perfbench: collection runs on {collection.backend!r}, not native"
        )


def _answer(entity: int, target: frozenset, index: int, trail: list, wrong: bool) -> bool:
    """The simulated perfect user; ``wrong`` flips session 0's first answer."""
    answer = entity in target
    return (not answer) if wrong and index == 0 and not trail else answer


class _Window:
    """CPU and thread CPU of this process across a measured phase."""

    def __init__(self, ledger: Ledger, traced: bool) -> None:
        self.ledger = ledger
        self.traced = traced

    def __enter__(self) -> "_Window":
        self.threads0 = procstat.thread_cpu_s(os.getpid()) if self.traced else {}
        self.cpu0 = time.process_time()
        self.t0 = now()
        self.ledger.mark(self.t0)
        return self

    def __exit__(self, *exc_info) -> None:
        self.t1 = now()
        self.ledger.mark(self.t1)
        self.cpu_s = time.process_time() - self.cpu0
        threads1 = procstat.thread_cpu_s(os.getpid()) if self.traced else {}
        self.threads = {
            tid: cpu - self.threads0.get(tid, 0.0) for tid, cpu in threads1.items()
        }


def _rss_baseline() -> float:
    """Collect garbage, reset the peak, return the resident size in MiB."""
    gc.collect()
    procstat.reset_peak_rss()
    return procstat.rss_mb(os.getpid())


def _phase(setups, warmup_s, ledger, window: _Window, tracer, baseline: float) -> Phase:
    phase = Phase(
        setups=setups, warmup_s=warmup_s, ledger=ledger,
        wall_s=window.t1 - window.t0, cpu_s=window.cpu_s,
        peak_rss_mb=procstat.peak_rss_mb(os.getpid()) - baseline,
    )
    if tracer is not None:
        phase.logs = {kind: log.to_json() for kind, log in tracer.logs.items()}
        phase.window = (window.t0, window.t1)
        phase.threads = {
            "loop": window.threads.get(os.getpid(), 0.0),
            "flush": sum(window.threads.get(t, 0.0) for t in tracer.flush_tids),
        }
    return phase


def _tracer(traced: bool):
    if not traced:
        return None
    from perfbench import trace

    tracer = trace.Tracer()
    trace.install(tracer)
    return tracer


# --------------------------------------------------------------------- #
# klp-webtable
# --------------------------------------------------------------------- #


def _klp_session(
    collection, session: Session, ledger: Ledger, index: int, wrong: bool
) -> float | None:
    """Run one session; return when its first question was ready."""
    from repro.core.discovery import DiscoverySession
    from repro.core.lookahead import KLPSelector

    target = collection.sets[session.target]
    trail: list = []
    first = None
    t = now()
    try:
        discovery = DiscoverySession(
            collection, KLPSelector(**KLP_SELECTORS[session.selector]),
            initial=session.initial,
        )
        while True:
            finished = discovery.finished
            entity = None if finished else discovery.next_question()
            ready = now()
            ledger.sample(ready - t, not finished)
            first = first or ready
            if finished:
                break
            answer = _answer(entity, target, index, trail, wrong)
            trail.append((entity, answer))
            t = now()
            discovery.answer(answer)
    except Exception as exc:  # a failed operation is counted, not fatal
        ledger.fail(f"session {index}: {type(exc).__name__}: {exc}")
        return first
    ledger.finish(index, trail, discovery.candidates, session.target)
    return first


def run_klp(plan: Plan, setups: int, traced: bool, args) -> Phase:
    from repro.core.collection import SetCollection

    tracer = _tracer(traced)
    sets, names = plan.collection.sets, plan.collection.names
    ledger = Ledger(len(plan.sessions))
    times: list[float] = []
    collection = None
    warmup_s = 0.0
    baseline = _rss_baseline()
    for _ in range(setups):
        collection = None
        gc.collect()
        warm = Ledger()
        t0 = now()
        collection = SetCollection(sets, names=names, backend="native")
        t1 = now()
        ready = _klp_session(collection, plan.warmup[0], warm, -1, False) or now()
        times.append(ready - t0)
        warmup_s = ready - t1
        if warm.errors:
            ledger.error(f"warm-up: {warm.errors[0]}")
    _check_backend(collection)

    def measured() -> None:
        for index, session in enumerate(plan.sessions):
            _klp_session(collection, session, ledger, index, args.wrong_user)

    if tracer is not None:
        # A root span over the whole phase: every span of this one thread
        # nests under it, so their self times must add up to its duration.
        measured = tracer.wrap_sync(
            "bench.measured", measured, after=lambda call: {"book": call.frame.book}
        )
    with _Window(ledger, traced) as window:
        measured()
    return _phase(times, warmup_s, ledger, window, tracer, baseline)


# --------------------------------------------------------------------- #
# serve-stacked
# --------------------------------------------------------------------- #


async def _stacked_session(service, collection, session: Session, ledger: Ledger,
                           index: int, wrong: bool) -> float | None:
    """Run one session; return when its first question was ready."""
    from repro.core.selection import InfoGainSelector

    target = collection.sets[session.target]
    trail: list = []
    first = None
    t = now()
    try:
        key = service.spawn(InfoGainSelector(), initial=session.initial)
        while True:
            entity = await service.ask(key)
            ready = now()
            ledger.sample(ready - t, entity is not None)
            first = first or ready
            if entity is None:
                break
            answer = _answer(entity, target, index, trail, wrong)
            trail.append((entity, answer))
            t = now()
            service.answer(key, answer)
        result = await service.result(key)
    except Exception as exc:  # a failed operation is counted, not fatal
        ledger.fail(f"session {index}: {type(exc).__name__}: {exc}")
        return first
    ledger.finish(index, trail, result.candidates, session.target)
    return first


async def _stacked(plan: Plan, setups: int, tracer, args) -> Phase:
    from repro.core.collection import SetCollection
    from repro.serve.async_service import AsyncDiscoveryService

    sets, names = plan.collection.sets, plan.collection.names
    ledger = Ledger(len(plan.sessions))
    times: list[float] = []
    collection = service = None
    warmup_s = 0.0
    baseline = _rss_baseline()
    for _ in range(setups):
        if service is not None:
            await service.aclose()
        collection = service = None
        gc.collect()
        warm = Ledger()
        t0 = now()
        collection = SetCollection(sets, names=names, backend="native")
        service = AsyncDiscoveryService(collection)
        t1 = now()
        first = await _stacked_session(service, collection, plan.warmup[0], warm, -1, False)
        ready = first or now()
        times.append(ready - t0)
        warmup_s = ready - t1
        if warm.errors:
            ledger.error(f"warm-up: {warm.errors[0]}")
    _check_backend(collection)
    queue = iter(enumerate(plan.sessions))

    async def client() -> None:
        for index, session in queue:
            await _stacked_session(
                service, collection, session, ledger, index, args.wrong_user
            )

    clients = STACKED_CLIENTS_TOY if args.toy else STACKED_CLIENTS
    with _Window(ledger, tracer is not None) as window:
        await asyncio.gather(*(client() for _ in range(clients)))
    phase = _phase(times, warmup_s, ledger, window, tracer, baseline)
    phase.extra["queued_high_watermark"] = service.queued_high_watermark
    await service.aclose()
    return phase


def run_stacked(plan: Plan, setups: int, traced: bool, args) -> Phase:
    return asyncio.run(_stacked(plan, setups, _tracer(traced), args))
