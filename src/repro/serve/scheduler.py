"""Latency-budgeted scan batching for the serving stack (layer 2 of 3).

A :class:`ScanScheduler` accumulates scan requests — sessions in the
``NEEDS_SCAN`` phase, from *any* front-end — and answers all of them with
one stacked kernel pass per :meth:`ScanScheduler.flush`:

1. distinct candidate masks are scanned once, lineage-restricted, through
   :meth:`~repro.core.collection.SetCollection.informative_stats_many`;
2. sessions whose selector is the most-even choice (MostEven, InfoGain,
   Indg, ``LB1[H]``; Lemma 4.3) are grouped by ``(mask, exclusions)``;
   the other sessions the scan revealed to be finished are retired;
3. every group is ranked by the exact integer key ``(|2*n1 - n|, eid)``
   in one :func:`~repro.core.kernels.scoring.select_best_many` pass (a
   group left with nothing to ask after its exclusions is retired
   instead); every other selector (k-LP, ``LB1[AD]``, random) falls back
   to its own ``select`` over the just-primed cache.

*When* to flush is policy the front-end chooses:

* the lock-step :class:`~repro.serve.engine.SessionEngine` flushes every
  ``tick()`` — submit-then-flush, no budget;
* the :class:`~repro.serve.async_service.AsyncDiscoveryService` flushes
  when either the batch-size watermark (``max_batch``) is hit or the
  oldest queued request has waited ``flush_after_ms`` — large stacked
  scans *and* a bounded per-question latency.

The decision itself lives in exactly one place: :class:`FlushPolicy`, a
pure function of ``(queued, first_at, now)``.  The scheduler applies it
to its own queue (:meth:`due`, :attr:`watermark_hit`, :meth:`deadline`,
:meth:`should_flush`, over an injectable ``clock`` — which is also how
the tests drive the budget with a fake clock); the async service applies
the *same* policy object to its event-loop-side queue (requests must
keep accumulating there while a flush runs on the worker thread), plus
an all-sessions-waiting shortcut of its own.  Whatever the cadence, one
flush is bit-identical to the lock-step engine advancing the same
sessions — selection is deterministic given each session's own state, so
transcripts never depend on how requests were batched (the
golden-transcript tests enforce this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable

from ..core.collection import SetCollection
from ..core.discovery import DiscoveryResult
from ..core.kernels import filter_excluded, select_best_many
from ..core.selection import NoInformativeEntityError
from .state import (
    Phase,
    SessionRegistry,
    SessionState,
    group_for_scoring,
    plan_stacked_scan,
)


@dataclass(frozen=True)
class FlushPolicy:
    """*When* to flush, as a pure function — the single home of the rule.

    Both the scheduler (over its own request queue) and the async service
    (over its event-loop-side queue) answer "should we flush now?" by
    calling this object, so the two can never drift apart.

    ``flush_after_ms`` is the latency budget: the oldest queued request
    waits at most this long before a batched pass answers it (``None``
    disables the budget — the front-end flushes explicitly).
    ``max_batch`` is the batch-size watermark: this many queued requests
    trigger an immediate flush (``None`` disables the watermark).
    """

    flush_after_ms: float | None = None
    max_batch: int | None = None

    def watermark_hit(self, queued: int) -> bool:
        """True once ``queued`` requests fill the watermark."""
        return self.max_batch is not None and queued >= self.max_batch

    def deadline(self, first_at: float | None) -> float | None:
        """Clock value at which the oldest request's budget ends.

        ``first_at`` is the clock reading when the oldest currently-queued
        request arrived (``None`` while the queue is empty).
        """
        if first_at is None or self.flush_after_ms is None:
            return None
        return first_at + self.flush_after_ms / 1000.0

    def due(self, first_at: float | None, now: float) -> bool:
        """True once the latency budget of the oldest request expired."""
        deadline = self.deadline(first_at)
        return deadline is not None and now >= deadline

    def should_flush(
        self, queued: int, first_at: float | None, now: float
    ) -> bool:
        """The flush trigger: watermark hit or latency budget due."""
        return self.watermark_hit(queued) or self.due(first_at, now)


class SchedulerSaturated(RuntimeError):
    """A :meth:`ScanScheduler.submit` hit the scheduler's ``max_queue``.

    Only raised when the opt-in bound is set; re-submissions of an
    already-queued key never count against it.  Front-ends that bound
    their own loop-side queue (the async service's ``max_queued``) keep
    the scheduler queue bounded transitively and leave this off.
    """


@dataclass
class EngineStats:
    """Aggregate scheduler/engine work counters (serving metrics)."""

    #: scheduling rounds executed (lock-step ticks or async flushes)
    ticks: int = 0
    #: scan requests those rounds served (flush occupancy numerator —
    #: :class:`~repro.serve.metrics.ServiceMetrics` divides by ticks)
    flushed_requests: int = 0
    #: stacked kernel passes issued (at most one per flush)
    batched_scans: int = 0
    #: distinct sub-collection masks scanned by those passes
    scanned_masks: int = 0
    #: informative scans avoided because another session (or an earlier
    #: flush) already paid for the mask
    scan_cache_hits: int = 0
    #: questions selected in total
    selections: int = 0
    #: selections answered by the batched scoring path
    batched_selections: int = 0
    #: distinct (mask, exclusions) groups actually scored —
    #: the gap to ``batched_selections`` is deduplicated scoring work
    scoring_groups: int = 0
    #: selections that fell back to the selector's own ``select``
    fallback_selections: int = 0
    #: wall-clock seconds spent inside tick()/flush rounds
    seconds: float = 0.0
    #: deepest the scheduler's request queue has ever been (backpressure
    #: gauge: how close the edge came to a bound)
    queue_high_watermark: int = 0
    #: submissions refused because ``max_queue`` was full
    shed_requests: int = 0


@dataclass
class FlushReport:
    """Everything one :meth:`ScanScheduler.flush` decided.

    ``questions`` are the newly selected ``{key: entity id}`` pairs;
    ``finished`` the sessions retired this flush (with their results);
    ``already_pending`` requests that turned out to already hold an
    unanswered question (an async resubmission race, never the lock-step
    path) — reported so the front-end can still deliver that entity.
    """

    questions: dict[Hashable, int] = field(default_factory=dict)
    finished: dict[Hashable, DiscoveryResult] = field(default_factory=dict)
    already_pending: dict[Hashable, int] = field(default_factory=dict)


class ScanScheduler:
    """Accumulate scan requests; answer them in batched kernel passes.

    Parameters
    ----------
    registry:
        The shared :class:`~repro.serve.state.SessionRegistry` whose
        sessions this scheduler advances (finished sessions are retired
        into it).
    flush_after_ms:
        Latency budget: :meth:`due` turns true once the oldest queued
        request has waited this long.  ``None`` (the lock-step default)
        means the front-end flushes explicitly.
    max_batch:
        Batch-size watermark: :attr:`watermark_hit` turns true once this
        many requests are queued.  ``None`` means no watermark.
    clock:
        Monotonic time source for the latency budget (injectable for
        tests; defaults to :func:`time.perf_counter`).
    max_queue:
        Opt-in hard bound on queued requests: :meth:`submit` raises
        :class:`SchedulerSaturated` once this many distinct keys wait
        for a flush.  ``None`` (the default) keeps the queue unbounded —
        the async front-end bounds its own loop-side queue instead.
    """

    def __init__(
        self,
        registry: SessionRegistry,
        flush_after_ms: float | None = None,
        max_batch: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        max_queue: int | None = None,
    ) -> None:
        self.registry = registry
        self.policy = FlushPolicy(
            flush_after_ms=flush_after_ms, max_batch=max_batch
        )
        self.stats = EngineStats()
        self._clock = clock
        self._queue: list[SessionState] = []
        self._queued: set[Hashable] = set()
        self._first_at: float | None = None
        self.max_queue = max_queue

    @property
    def collection(self) -> "SetCollection":
        """The registry's *current* epoch (new sessions' collection).

        A property, not a snapshot: after
        :meth:`~repro.serve.state.SessionRegistry.advance_collection` the
        scheduler follows automatically.  Flushes group work by each
        session's own pinned collection regardless.
        """
        return self.registry.collection

    @property
    def flush_after_ms(self) -> float | None:
        """The policy's latency budget (see :class:`FlushPolicy`)."""
        return self.policy.flush_after_ms

    @property
    def max_batch(self) -> int | None:
        """The policy's batch watermark (see :class:`FlushPolicy`)."""
        return self.policy.max_batch

    # ------------------------------------------------------------------ #
    # Request queue + flush policy
    # ------------------------------------------------------------------ #

    def submit(self, state: SessionState) -> None:
        """Queue one session's scan request (idempotent per key).

        With ``max_queue`` set, a submission that would grow the queue
        past the bound raises :class:`SchedulerSaturated` instead (the
        shed is counted in ``stats.shed_requests``).
        """
        if state.key in self._queued:
            return
        if (
            self.max_queue is not None
            and len(self._queue) >= self.max_queue
        ):
            self.stats.shed_requests += 1
            raise SchedulerSaturated(
                f"scheduler queue full ({self.max_queue} requests "
                f"awaiting a flush)"
            )
        self._queued.add(state.key)
        self._queue.append(state)
        if len(self._queue) > self.stats.queue_high_watermark:
            self.stats.queue_high_watermark = len(self._queue)
        if self._first_at is None:
            self._first_at = self._clock()

    @property
    def pending_requests(self) -> int:
        """Queued scan requests awaiting the next flush."""
        return len(self._queue)

    @property
    def watermark_hit(self) -> bool:
        """True once ``max_batch`` requests are queued."""
        return self.policy.watermark_hit(len(self._queue))

    def deadline(self) -> float | None:
        """Clock value at which the oldest queued request's budget ends."""
        return self.policy.deadline(self._first_at)

    def due(self, now: float | None = None) -> bool:
        """True once the latency budget of the oldest request expired."""
        return self.policy.due(
            self._first_at, self._clock() if now is None else now
        )

    def should_flush(self, now: float | None = None) -> bool:
        """Flush trigger: batch watermark hit or latency budget due."""
        return self.policy.should_flush(
            len(self._queue),
            self._first_at,
            self._clock() if now is None else now,
        )

    # ------------------------------------------------------------------ #
    # The batched pass
    # ------------------------------------------------------------------ #

    def flush(self) -> FlushReport:
        """Advance every queued session with one batched kernel pass.

        Sessions whose phase changed since submission (an answer arrived
        out of band) are re-dispatched by their *current* phase, so a
        flush is always safe to run — it never scans a session that does
        not need one.
        """
        queue, self._queue = self._queue, []
        self._queued.clear()
        self._first_at = None
        self.stats.flushed_requests += len(queue)
        report = FlushReport()
        need: list[SessionState] = []
        for state in queue:
            phase = state.phase
            if phase is Phase.DONE:
                report.finished[state.key] = self.registry.finish(state)
            elif phase is Phase.QUESTION_PENDING:
                entity = state.session.pending_entity
                assert entity is not None
                report.already_pending[state.key] = entity
            else:
                need.append(state)
        if need:
            self._advance(need, report)
        return report

    def _advance(
        self, need: list[SessionState], report: FlushReport
    ) -> None:
        """Advance ``need``, grouped by each session's pinned epoch.

        All sessions usually share the current collection and this is one
        group; after an
        :meth:`~repro.core.collection.SetCollection.apply_delta`, sessions
        pinned to older epochs get their own stacked pass against *their*
        collection — masks are only comparable within one epoch, and this
        is exactly what keeps a pinned session's transcript byte-identical
        across deltas.  Groups run in first-submission order, so the
        common single-epoch case is unchanged.
        """
        by_collection: dict[int, tuple[SetCollection, list[SessionState]]] = {}
        for state in need:
            collection = state.session.collection
            group = by_collection.get(id(collection))
            if group is None:
                by_collection[id(collection)] = (collection, [state])
            else:
                group[1].append(state)
        for collection, group in by_collection.values():
            self._advance_group(collection, group, report)

    def _advance_group(
        self,
        collection: SetCollection,
        need: list[SessionState],
        report: FlushReport,
    ) -> None:
        registry = self.registry
        # -- 1. one stacked scan for every distinct mask ----------------- #
        for state in need:
            registry.note_visit(state, state.session.candidates_mask)
        mask_order, mask_cands = plan_stacked_scan(need)
        hits = sum(1 for m in mask_order if collection.is_cached(m))
        t_batch = time.perf_counter()
        stats_list = collection.informative_stats_many(mask_order, mask_cands)
        stats_by_mask = dict(zip(mask_order, stats_list))
        if len(mask_order) > hits:
            self.stats.batched_scans += 1
            self.stats.scanned_masks += len(mask_order) - hits
        self.stats.scan_cache_hits += hits

        # -- 2. group for scoring, retire finished fallback sessions ---- #
        plan = group_for_scoring(need, stats_by_mask)
        for state in plan.finished:
            report.finished[state.key] = registry.finish(state)

        # -- 3. one batched most-even ranking for every group ------------ #
        batch_served: list[SessionState] = []
        ready: list[list[SessionState]] = []
        eids_list, counts_list, ns = [], [], []
        for (mask, excl), states in plan.groups.items():
            eids, counts = stats_by_mask[mask]
            if excl:
                eids, counts = filter_excluded(eids, counts, excl)
            if len(eids) == 0:  # nothing askable: the sessions are done
                for state in states:
                    report.finished[state.key] = registry.finish(state)
                continue
            ready.append(states)
            eids_list.append(eids)
            counts_list.append(counts)
            ns.append(collection.count(mask))
        if ready:
            chosen = select_best_many(eids_list, counts_list, ns)
            self.stats.scoring_groups += len(ready)
            for states, entity in zip(ready, chosen):
                for state in states:
                    state.session.push_question(entity)
                    report.questions[state.key] = entity
                    batch_served.append(state)
            self.stats.selections += len(batch_served)
            self.stats.batched_selections += len(batch_served)
        # Attribute the batched scan+scoring cost evenly to the sessions it
        # served, so DiscoveryResult.seconds stays comparable to sequential
        # runs (fallback sessions below self-time their select instead).
        if batch_served:
            share = (time.perf_counter() - t_batch) / len(batch_served)
            for state in batch_served:
                state.session.add_seconds(share)

        # -- 4. fallback selectors: per-session select over primed cache - #
        for state in plan.singles:
            try:
                entity = state.session.next_question()
            except (RuntimeError, NoInformativeEntityError):
                report.finished[state.key] = registry.finish(state)
                continue
            report.questions[state.key] = entity
            self.stats.selections += 1
            self.stats.fallback_selections += 1

    def __repr__(self) -> str:
        return (
            f"<ScanScheduler queued={self.pending_requests} "
            f"flush_after_ms={self.flush_after_ms} "
            f"max_batch={self.max_batch}>"
        )
