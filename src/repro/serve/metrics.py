"""SLO metrics for the serving stack: latency percentiles, queue depth.

The scheduler's :class:`~repro.serve.scheduler.EngineStats` counts *work*
(flushes, scans, selections).  A network edge needs *SLO* figures on top:
what latency users actually observe, how deep the request queue runs, and
how full each batched flush is.  :class:`ServiceMetrics` layers those over
an ``EngineStats`` without touching the scheduler's hot path — the only
per-request cost is one :meth:`observe_ask` append into a bounded
reservoir.

The figures exported (pinned by ``tests/test_http.py``; the soak harness
checks the counters against its own ground truth):

* **ask latency p50/p95/p99** — time from ``ask()`` to question delivery,
  over a sliding window of recent observations (count and sum are
  lifetime totals, so Prometheus ``rate()`` works on them);
* **queue depth** — requests waiting for the next batched flush;
* **flush occupancy** — mean requests served per flush, i.e. how well the
  latency budget converts waiting users into stacked kernel work;
* **sessions by phase** — active sessions in ``needs-scan`` /
  ``question-pending`` plus lifetime ``finished``.

:meth:`render_prometheus` serializes everything in the Prometheus text
exposition format (``GET /metrics`` on the HTTP edge,
:mod:`repro.serve.http`); the dict form (:meth:`snapshot`) feeds JSON
consumers like the bench reports.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable

__all__ = [
    "ClusterMetrics",
    "LatencyReservoir",
    "ServiceMetrics",
    "quantile_sorted",
]


def quantile_sorted(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    at = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[at]


class LatencyReservoir:
    """Bounded sliding window of latency observations plus lifetime totals.

    Percentiles are computed over the newest ``window`` observations (a
    long-lived server must reflect *current* tail latency, not its whole
    history); ``count``/``total_seconds`` never reset, which is what
    Prometheus counters want.
    """

    def __init__(self, window: int = 4096) -> None:
        self._window: deque[float] = deque(maxlen=window)
        self.count = 0
        self.total_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self._window.append(seconds)
        self.count += 1
        self.total_seconds += seconds

    def quantiles(self, qs: Iterable[float]) -> dict[float, float]:
        """``{q: seconds}`` for each requested quantile, one sort."""
        ordered = sorted(self._window)
        return {q: quantile_sorted(ordered, q) for q in qs}

    def __len__(self) -> int:
        return len(self._window)


#: the quantiles every latency summary exports (the SLO trio)
SLO_QUANTILES = (0.5, 0.95, 0.99)


class ServiceMetrics:
    """SLO view over one serving front-end (duck-typed, no hard coupling).

    ``source`` is anything exposing the async-service shape used here:
    ``stats`` (an :class:`~repro.serve.scheduler.EngineStats`),
    ``registry`` (a :class:`~repro.serve.state.SessionRegistry`), a
    ``scheduler`` with ``pending_requests``, and optionally
    ``queued_requests`` for loop-side queues the scheduler cannot see
    (:class:`~repro.serve.async_service.AsyncDiscoveryService` keeps its
    request queue on the event loop between flushes).
    """

    def __init__(
        self,
        source,
        *,
        window: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._source = source
        self._clock = clock
        self.ask_latency = LatencyReservoir(window=window)
        self.ws_sessions = 0  # live push-style websocket sessions
        #: sessions reaped by the HTTP edge's TTL sweep (lifetime counter,
        #: incremented by the edge — in-process serving never expires)
        self.sessions_expired = 0
        #: HTTP request counter, ``(route, status) -> count`` — filled by
        #: the HTTP edge; empty (and un-rendered) for in-process serving
        self.http_requests: dict[tuple[str, int], int] = {}
        #: backpressure sheds by kind: ``sessions`` (admission refused at
        #: ``max_sessions``), ``asks`` (request shed at ``max_queued``),
        #: ``ws-busy`` (WebSocket closed with a busy code).  All kinds
        #: render at 0 so dashboards see the series before the first shed.
        self.backpressure_rejections: dict[str, int] = {
            "sessions": 0,
            "asks": 0,
            "ws-busy": 0,
        }
        self._started_at = clock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def observe_ask(self, seconds: float) -> None:
        """Record one user-observed ask-to-question latency."""
        self.ask_latency.observe(seconds)

    def observe_http(self, route: str, status: int) -> None:
        """Count one HTTP request by route template and response status."""
        key = (route, status)
        self.http_requests[key] = self.http_requests.get(key, 0) + 1

    def observe_rejection(self, kind: str) -> None:
        """Count one backpressure shed (see ``backpressure_rejections``)."""
        self.backpressure_rejections[kind] = (
            self.backpressure_rejections.get(kind, 0) + 1
        )

    # ------------------------------------------------------------------ #
    # Derived gauges
    # ------------------------------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the next batched flush (loop + scheduler)."""
        depth = self._source.scheduler.pending_requests
        queued = getattr(self._source, "queued_requests", None)
        if queued is not None:
            depth += queued
        return depth

    def queue_high_watermarks(self) -> dict[str, int]:
        """Deepest each request queue has ever run, by queue name.

        ``scheduler`` is the scheduler-side queue
        (``EngineStats.queue_high_watermark``); ``loop`` is the async
        front-end's event-loop-side queue, present only when the source
        tracks one.  The operator's sizing signal: how close traffic came
        to a ``max_queued`` bound.
        """
        marks = {"scheduler": self._source.stats.queue_high_watermark}
        loop = getattr(self._source, "queued_high_watermark", None)
        if loop is not None:
            marks["loop"] = loop
        return marks

    @property
    def flush_occupancy(self) -> float:
        """Mean scan requests served per flush (0.0 before the first)."""
        stats = self._source.stats
        if stats.ticks == 0:
            return 0.0
        return stats.flushed_requests / stats.ticks

    @property
    def collection_epoch(self) -> int:
        """Epoch number of the collection new sessions currently spawn on."""
        return self._source.registry.collection.epoch

    def live_epochs(self) -> dict[int, int]:
        """Active sessions pinned to each still-referenced epoch."""
        return self._source.registry.live_epochs()

    @property
    def deltas_applied(self) -> int:
        """Delta batches the front-end has applied (0 if it cannot)."""
        return getattr(self._source, "deltas_applied", 0)

    def sessions_by_phase(self) -> dict[str, int]:
        """Active sessions per phase plus lifetime ``finished`` count."""
        counts = {"needs-scan": 0, "question-pending": 0}
        for state in self._source.registry.active_states():
            counts[state.phase.value] = counts.get(state.phase.value, 0) + 1
        counts["finished"] = len(self._source.registry.results)
        return counts

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-friendly summary (the bench reports embed this)."""
        quantiles = self.ask_latency.quantiles(SLO_QUANTILES)
        stats = self._source.stats
        return {
            "ask_latency_ms": {
                f"p{int(q * 100)}": quantiles[q] * 1000.0
                for q in SLO_QUANTILES
            },
            "ask_count": self.ask_latency.count,
            "queue_depth": self.queue_depth,
            "flush_occupancy": self.flush_occupancy,
            "sessions": self.sessions_by_phase(),
            "collection_epoch": self.collection_epoch,
            "live_epochs": {
                str(epoch): count
                for epoch, count in sorted(self.live_epochs().items())
            },
            "deltas_applied": self.deltas_applied,
            "sessions_expired": self.sessions_expired,
            "backpressure_rejections": dict(self.backpressure_rejections),
            "queue_high_watermark": self.queue_high_watermarks(),
            "flushes": stats.ticks,
            "stacked_scans": stats.batched_scans,
            "scan_cache_hits": stats.scan_cache_hits,
            "uptime_s": self._clock() - self._started_at,
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (``GET /metrics``)."""
        stats = self._source.stats
        quantiles = self.ask_latency.quantiles(SLO_QUANTILES)
        lines = [
            "# HELP repro_ask_latency_seconds Time from ask() to question "
            "delivery, sliding window.",
            "# TYPE repro_ask_latency_seconds summary",
        ]
        for q in SLO_QUANTILES:
            lines.append(
                f'repro_ask_latency_seconds{{quantile="{q}"}} '
                f"{quantiles[q]:.9f}"
            )
        lines += [
            f"repro_ask_latency_seconds_sum "
            f"{self.ask_latency.total_seconds:.9f}",
            f"repro_ask_latency_seconds_count {self.ask_latency.count}",
            "# HELP repro_queue_depth Scan requests awaiting the next "
            "batched flush.",
            "# TYPE repro_queue_depth gauge",
            f"repro_queue_depth {self.queue_depth}",
            "# HELP repro_flush_occupancy Mean scan requests served per "
            "flush.",
            "# TYPE repro_flush_occupancy gauge",
            f"repro_flush_occupancy {self.flush_occupancy:.6f}",
            "# HELP repro_sessions Sessions by serving phase (finished is "
            "a lifetime count).",
            "# TYPE repro_sessions gauge",
        ]
        for phase, count in sorted(self.sessions_by_phase().items()):
            lines.append(f'repro_sessions{{phase="{phase}"}} {count}')
        lines += [
            "# HELP repro_collection_epoch Epoch new sessions spawn on "
            "(bumped by each applied delta batch).",
            "# TYPE repro_collection_epoch gauge",
            f"repro_collection_epoch {self.collection_epoch}",
            "# HELP repro_epoch_sessions Active sessions pinned to each "
            "still-referenced collection epoch.",
            "# TYPE repro_epoch_sessions gauge",
        ]
        for epoch, count in sorted(self.live_epochs().items()):
            lines.append(f'repro_epoch_sessions{{epoch="{epoch}"}} {count}')
        lines += [
            "# HELP repro_deltas_applied_total Delta batches applied to "
            "the served collection.",
            "# TYPE repro_deltas_applied_total counter",
            f"repro_deltas_applied_total {self.deltas_applied}",
            "# HELP repro_sessions_expired_total Sessions reaped by the "
            "HTTP edge's idle TTL sweep.",
            "# TYPE repro_sessions_expired_total counter",
            f"repro_sessions_expired_total {self.sessions_expired}",
            "# HELP repro_backpressure_rejections_total Requests shed to "
            "keep queues bounded, by kind.",
            "# TYPE repro_backpressure_rejections_total counter",
        ]
        for kind, count in sorted(self.backpressure_rejections.items()):
            lines.append(
                f'repro_backpressure_rejections_total{{kind="{kind}"}} '
                f"{count}"
            )
        lines += [
            "# HELP repro_queue_high_watermark Deepest each request queue "
            "has ever run.",
            "# TYPE repro_queue_high_watermark gauge",
        ]
        for queue, mark in sorted(self.queue_high_watermarks().items()):
            lines.append(
                f'repro_queue_high_watermark{{queue="{queue}"}} {mark}'
            )
        lines += [
            "# HELP repro_websocket_sessions Live push-style websocket "
            "sessions.",
            "# TYPE repro_websocket_sessions gauge",
            f"repro_websocket_sessions {self.ws_sessions}",
            "# HELP repro_flushes_total Scheduling rounds executed.",
            "# TYPE repro_flushes_total counter",
            f"repro_flushes_total {stats.ticks}",
            "# HELP repro_flushed_requests_total Scan requests served by "
            "those rounds.",
            "# TYPE repro_flushed_requests_total counter",
            f"repro_flushed_requests_total {stats.flushed_requests}",
            "# HELP repro_stacked_scans_total Stacked kernel passes issued.",
            "# TYPE repro_stacked_scans_total counter",
            f"repro_stacked_scans_total {stats.batched_scans}",
            "# HELP repro_scanned_masks_total Distinct sub-collection masks "
            "scanned.",
            "# TYPE repro_scanned_masks_total counter",
            f"repro_scanned_masks_total {stats.scanned_masks}",
            "# HELP repro_scan_cache_hits_total Scans answered from the "
            "stats cache.",
            "# TYPE repro_scan_cache_hits_total counter",
            f"repro_scan_cache_hits_total {stats.scan_cache_hits}",
            "# HELP repro_selections_total Questions selected.",
            "# TYPE repro_selections_total counter",
            f"repro_selections_total {stats.selections}",
            "# HELP repro_flush_seconds_total Wall-clock seconds inside "
            "flush rounds.",
            "# TYPE repro_flush_seconds_total counter",
            f"repro_flush_seconds_total {stats.seconds:.9f}",
        ]
        if self.http_requests:
            lines += [
                "# HELP repro_http_requests_total HTTP requests by route "
                "template and status.",
                "# TYPE repro_http_requests_total counter",
            ]
            for (route, status), count in sorted(self.http_requests.items()):
                lines.append(
                    f'repro_http_requests_total{{route="{route}",'
                    f'status="{status}"}} {count}'
                )
        return "\n".join(lines) + "\n"


class ClusterMetrics:
    """Edge-side metrics for the multi-worker topology
    (:class:`~repro.serve.cluster.ClusterService`).

    Exposes the same recording surface the HTTP edge expects from
    :class:`ServiceMetrics` (``observe_http``/``observe_rejection``,
    ``ws_sessions``, ``sessions_expired``) plus the async renderer
    :meth:`arender_prometheus`, which fans out to every live worker for a
    snapshot and merges.

    Aggregation rules keep the exported families *exact* under worker
    restarts (a restarted worker's counters reset to zero, so naive sums
    would go backwards):

    * lifetime counters users observe — sessions ``finished``,
      ``deltas_applied``, backpressure sheds, expirations — are edge-side
      counters that survive any worker's death;
    * work gauges (queue depth, session phases, pinned epochs) are summed
      across live workers — a dead worker's sessions really are gone;
    * scheduler work counters (flushes, scans, selections) are summed and
      documented as best-effort across restarts;
    * per-worker drill-down rides in new single-label families
      (``repro_worker_up``, ``repro_worker_epoch``, ...) rather than a
      second label on existing ones, so existing scrape tooling keeps
      parsing the aggregate series unchanged.
    """

    def __init__(
        self,
        cluster,
        *,
        window: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._cluster = cluster
        self._clock = clock
        #: end-to-end ask latency as the edge sees it (RPC included) —
        #: the user-observed figure, unlike per-worker service latency
        self.ask_latency = LatencyReservoir(window=window)
        self.ws_sessions = 0
        self.sessions_expired = 0
        self.http_requests: dict[tuple[str, int], int] = {}
        self.backpressure_rejections: dict[str, int] = {
            "sessions": 0,
            "asks": 0,
            "ws-busy": 0,
        }
        #: sessions whose result the edge delivered (counted once per
        #: session, at first result fetch) — survives restarts
        self.sessions_finished = 0
        #: admin deltas accepted by the edge (each one reaches every
        #: worker, so a cross-worker sum would over-count by N)
        self.deltas_applied = 0
        self._started_at = clock()

    # Recording (same surface as ServiceMetrics) ----------------------- #

    def observe_ask(self, seconds: float) -> None:
        self.ask_latency.observe(seconds)

    def observe_http(self, route: str, status: int) -> None:
        key = (route, status)
        self.http_requests[key] = self.http_requests.get(key, 0) + 1

    def observe_rejection(self, kind: str) -> None:
        self.backpressure_rejections[kind] = (
            self.backpressure_rejections.get(kind, 0) + 1
        )

    # Export ----------------------------------------------------------- #

    async def arender_prometheus(self) -> str:
        """Prometheus text exposition, aggregated across the cluster."""
        snapshots = await self._cluster.worker_metrics()
        live = [s for s in snapshots if s is not None]

        def total(key: str) -> float:
            return sum(s.get(key, 0) for s in live)

        def stat_total(key: str) -> float:
            return sum(s.get("stats", {}).get(key, 0) for s in live)

        sessions = {"needs-scan": 0, "question-pending": 0}
        epoch_sessions: dict[int, int] = {
            self._cluster.collection.epoch: 0
        }
        watermarks: dict[str, int] = {}
        for snap in live:
            for phase, count in snap.get("sessions", {}).items():
                if phase != "finished":
                    sessions[phase] = sessions.get(phase, 0) + count
            for epoch, count in snap.get("live_epochs", {}).items():
                epoch = int(epoch)
                epoch_sessions[epoch] = epoch_sessions.get(epoch, 0) + count
            for queue, mark in snap.get("queue_high_watermark", {}).items():
                watermarks[queue] = max(watermarks.get(queue, 0), mark)
        sessions["finished"] = self.sessions_finished
        flushes = total("flushes")
        flushed_requests = stat_total("flushed_requests")
        occupancy = flushed_requests / flushes if flushes else 0.0

        quantiles = self.ask_latency.quantiles(SLO_QUANTILES)
        lines = [
            "# HELP repro_ask_latency_seconds Time from ask() to question "
            "delivery, sliding window.",
            "# TYPE repro_ask_latency_seconds summary",
        ]
        for q in SLO_QUANTILES:
            lines.append(
                f'repro_ask_latency_seconds{{quantile="{q}"}} '
                f"{quantiles[q]:.9f}"
            )
        lines += [
            f"repro_ask_latency_seconds_sum "
            f"{self.ask_latency.total_seconds:.9f}",
            f"repro_ask_latency_seconds_count {self.ask_latency.count}",
            "# HELP repro_queue_depth Scan requests awaiting the next "
            "batched flush.",
            "# TYPE repro_queue_depth gauge",
            f"repro_queue_depth {int(total('queue_depth'))}",
            "# HELP repro_flush_occupancy Mean scan requests served per "
            "flush.",
            "# TYPE repro_flush_occupancy gauge",
            f"repro_flush_occupancy {occupancy:.6f}",
            "# HELP repro_sessions Sessions by serving phase (finished is "
            "a lifetime count).",
            "# TYPE repro_sessions gauge",
        ]
        for phase, count in sorted(sessions.items()):
            lines.append(f'repro_sessions{{phase="{phase}"}} {count}')
        lines += [
            "# HELP repro_collection_epoch Epoch new sessions spawn on "
            "(bumped by each applied delta batch).",
            "# TYPE repro_collection_epoch gauge",
            f"repro_collection_epoch {self._cluster.collection.epoch}",
            "# HELP repro_epoch_sessions Active sessions pinned to each "
            "still-referenced collection epoch.",
            "# TYPE repro_epoch_sessions gauge",
        ]
        for epoch, count in sorted(epoch_sessions.items()):
            lines.append(f'repro_epoch_sessions{{epoch="{epoch}"}} {count}')
        lines += [
            "# HELP repro_deltas_applied_total Delta batches applied to "
            "the served collection.",
            "# TYPE repro_deltas_applied_total counter",
            f"repro_deltas_applied_total {self.deltas_applied}",
            "# HELP repro_sessions_expired_total Sessions reaped by the "
            "HTTP edge's idle TTL sweep.",
            "# TYPE repro_sessions_expired_total counter",
            f"repro_sessions_expired_total {self.sessions_expired}",
            "# HELP repro_backpressure_rejections_total Requests shed to "
            "keep queues bounded, by kind.",
            "# TYPE repro_backpressure_rejections_total counter",
        ]
        for kind, count in sorted(self.backpressure_rejections.items()):
            lines.append(
                f'repro_backpressure_rejections_total{{kind="{kind}"}} '
                f"{count}"
            )
        lines += [
            "# HELP repro_queue_high_watermark Deepest each request queue "
            "has ever run.",
            "# TYPE repro_queue_high_watermark gauge",
        ]
        for queue, mark in sorted(watermarks.items() or {"scheduler": 0}.items()):
            lines.append(
                f'repro_queue_high_watermark{{queue="{queue}"}} {mark}'
            )
        lines += [
            "# HELP repro_websocket_sessions Live push-style websocket "
            "sessions.",
            "# TYPE repro_websocket_sessions gauge",
            f"repro_websocket_sessions {self.ws_sessions}",
            "# HELP repro_flushes_total Scheduling rounds executed "
            "(summed across workers; best-effort across restarts).",
            "# TYPE repro_flushes_total counter",
            f"repro_flushes_total {int(flushes)}",
            "# HELP repro_flushed_requests_total Scan requests served by "
            "those rounds.",
            "# TYPE repro_flushed_requests_total counter",
            f"repro_flushed_requests_total {int(flushed_requests)}",
            "# HELP repro_stacked_scans_total Stacked kernel passes issued.",
            "# TYPE repro_stacked_scans_total counter",
            f"repro_stacked_scans_total {int(total('stacked_scans'))}",
            "# HELP repro_scanned_masks_total Distinct sub-collection masks "
            "scanned.",
            "# TYPE repro_scanned_masks_total counter",
            f"repro_scanned_masks_total {int(stat_total('scanned_masks'))}",
            "# HELP repro_scan_cache_hits_total Scans answered from the "
            "stats cache.",
            "# TYPE repro_scan_cache_hits_total counter",
            f"repro_scan_cache_hits_total {int(total('scan_cache_hits'))}",
            "# HELP repro_selections_total Questions selected.",
            "# TYPE repro_selections_total counter",
            f"repro_selections_total {int(stat_total('selections'))}",
            "# HELP repro_flush_seconds_total Wall-clock seconds inside "
            "flush rounds.",
            "# TYPE repro_flush_seconds_total counter",
            f"repro_flush_seconds_total {stat_total('flush_seconds'):.9f}",
            "# HELP repro_cluster_workers Engine worker processes "
            "configured for this edge.",
            "# TYPE repro_cluster_workers gauge",
            f"repro_cluster_workers {self._cluster.n_workers}",
            "# HELP repro_worker_up Whether each engine worker is serving.",
            "# TYPE repro_worker_up gauge",
        ]
        handles = self._cluster.workers
        for handle, snap in zip(handles, snapshots):
            lines.append(
                f'repro_worker_up{{worker="{handle.index}"}} '
                f"{1 if snap is not None else 0}"
            )
        lines += [
            "# HELP repro_worker_epoch Collection epoch each live worker "
            "replica serves (the replica-divergence signal).",
            "# TYPE repro_worker_epoch gauge",
        ]
        for handle, snap in zip(handles, snapshots):
            if snap is not None:
                lines.append(
                    f'repro_worker_epoch{{worker="{handle.index}"}} '
                    f"{snap.get('collection_epoch', 0)}"
                )
        lines += [
            "# HELP repro_worker_sessions_active Active sessions owned by "
            "each live worker.",
            "# TYPE repro_worker_sessions_active gauge",
        ]
        for handle, snap in zip(handles, snapshots):
            if snap is not None:
                lines.append(
                    f'repro_worker_sessions_active'
                    f'{{worker="{handle.index}"}} {snap.get("active", 0)}'
                )
        lines += [
            "# HELP repro_worker_restarts_total Times each worker was "
            "restarted after dying.",
            "# TYPE repro_worker_restarts_total counter",
        ]
        for handle in handles:
            lines.append(
                f'repro_worker_restarts_total{{worker="{handle.index}"}} '
                f"{handle.restarts}"
            )
        if self.http_requests:
            lines += [
                "# HELP repro_http_requests_total HTTP requests by route "
                "template and status.",
                "# TYPE repro_http_requests_total counter",
            ]
            for (route, status), count in sorted(self.http_requests.items()):
                lines.append(
                    f'repro_http_requests_total{{route="{route}",'
                    f'status="{status}"}} {count}'
                )
        return "\n".join(lines) + "\n"
