"""Per-layer metrics of a traced phase, computed from its spans.

Only spans that started inside the measured phase count, except
``collection.build_s`` (the set-up's collection builds).  ``*_ms`` metrics
are totals over the measured phase unless their name says ``p50``/``p95``/
``p99``, ``per_question`` or describes one event (``queue_wait_ms``,
``first_scan_after_delta_ms``, ``delta_fanout_ms``, ``client_overhead_ms``:
means).  A metric whose layer the workload never reaches is reported as 0
and listed under ``not_exercised`` in the run's detail line.
"""

from __future__ import annotations

import bisect
import math
import statistics

from perfbench.ledger import Phase
from perfbench.trace import CLUSTER_VERBS, ROUTE_SESSION

#: Per-layer metric units, in report order.
UNITS = {
    "collection.build_s": "s",
    "collection.warmup_s": "s",
    "collection.scan_calls": "count",
    "collection.scan_hit_ratio": "ratio",
    "collection.scan_ms": "ms",
    "collection.scan_restricted_calls": "count",
    "collection.scan_restricted_ms": "ms",
    "collection.scan_many_calls": "count",
    "collection.scan_many_miss_masks": "count",
    "collection.scan_many_ms": "ms",
    "kernels.row_pass_bytes": "bytes",
    "collection.partition_calls": "count",
    "collection.partition_ms": "ms",
    "collection.delta_calls": "count",
    "collection.delta_ms": "ms",
    "collection.first_scan_after_delta_ms": "ms",
    "lookahead.select_calls": "count",
    "lookahead.select_p50_ms": "ms",
    "lookahead.select_p95_ms": "ms",
    "lookahead.self_ms": "ms",
    "lookahead.scans_per_select": "calls",
    "lookahead.partitions_per_select": "calls",
    "lookahead.root_pruned_ratio": "ratio",
    "scheduler.flushes": "count",
    "scheduler.requests_per_flush": "requests",
    "scheduler.masks_per_flush": "masks",
    "scheduler.cache_hit_ratio": "ratio",
    "scheduler.flush_p50_ms": "ms",
    "scheduler.flush_p95_ms": "ms",
    "scheduler.scan_share": "ratio",
    "scheduler.scoring_ms": "ms",
    "scheduler.grouping_ms": "ms",
    "scheduler.planning_ms": "ms",
    "scheduler.self_ms": "ms",
    "scheduler.busy_coverage": "ratio",
    "scheduler.scoring_dedup_ratio": "ratio",
    "scheduler.fallback_selections": "count",
    "async_service.ask_p50_ms": "ms",
    "async_service.ask_p95_ms": "ms",
    "async_service.ask_p99_ms": "ms",
    "async_service.queue_wait_ms": "ms",
    "async_service.flush_thread_busy_ratio": "ratio",
    "async_service.queued_high_watermark": "count",
    "http.requests": "count",
    "http.ws_messages": "count",
    "http.request_p50_ms": "ms",
    "http.request_p95_ms": "ms",
    "http.self_ms_per_question": "ms",
    "http.client_overhead_ms": "ms",
    "http.non_2xx": "count",
    "cluster.call_p50_ms": "ms",
    "cluster.call_p95_ms": "ms",
    "cluster.edge_cpu_ms_per_question": "ms",
    "cluster.worker_cpu_ms_per_question": "ms",
    "cluster.delta_fanout_ms": "ms",
    "cluster.worker_restarts": "count",
    "process.loop_thread_cpu_ms_per_question": "ms",
    "process.flush_thread_cpu_ms_per_question": "ms",
    "process.gc_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Spans:
    """The spans of one kind that started inside the measured phase."""

    def __init__(self, log: dict, window: tuple[float, float]) -> None:
        lo, hi = window
        keep = [i for i, s in enumerate(log["start"]) if lo <= s <= hi]
        self.start = [log["start"][i] for i in keep]
        self.dur = [log["dur"][i] for i in keep]
        self.self_ = [log["self"][i] for i in keep]
        self.extras = {
            name: [column[i] for i in keep] for name, column in log["extras"].items()
        }
        # Which traced process a span came from (all 0 in-process).
        self.extras.setdefault("proc", [0.0] * len(keep))

    def __len__(self) -> int:
        return len(self.dur)

    def ms(self) -> float:
        return sum(self.dur) * 1000.0

    def self_ms(self) -> float:
        return sum(self.self_) * 1000.0

    def extra(self, name: str) -> list[float]:
        return self.extras[name]


def _pct_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _queue_wait_s(asks: Spans, tasks: Spans) -> list[float]:
    """Per ask: its time not covered by the flush task that answered it
    (the last flush task of the same process ending before the ask)."""
    by_proc: dict[float, list[tuple[float, float]]] = {}
    for start, dur, proc in zip(tasks.start, tasks.dur, tasks.extra("proc")):
        by_proc.setdefault(proc, []).append((start + dur, start))
    for spans in by_proc.values():
        spans.sort()
    waits = []
    for a0, dur, proc in zip(asks.start, asks.dur, asks.extra("proc")):
        a1 = a0 + dur
        spans = by_proc.get(proc, [])
        i = bisect.bisect_right(spans, (a1, float("inf"))) - 1
        covered = 0.0
        if i >= 0:
            end, start = spans[i]
            covered = max(0.0, min(end, a1) - max(start, a0))
        waits.append(dur - covered)
    return waits


def self_time_check(phase: Phase) -> dict | None:
    """Self times of every span under the in-process root span, summed,
    next to the root's duration and the wrappers' bookkeeping inside it
    (single-threaded workloads only)."""
    root = Spans(phase.logs["bench.measured"], phase.window)
    if len(root) != 1:
        return None
    total = sum(
        sum(Spans(log, phase.window).self_)
        for kind, log in phase.logs.items()
        if kind != "process.gc"
    )
    return {
        "root_s": root.dur[0],
        "self_sum_s": total,
        "bookkeeping_s": root.extra("book")[0],
    }


def per_layer(phase: Phase, overhead: float) -> tuple[dict, dict, list[str]]:
    """Every metric of :data:`UNITS`, its sample counts, and the ones the
    workload never exercised."""
    window = phase.window
    spans = {kind: Spans(log, window) for kind, log in phase.logs.items()}
    wall = window[1] - window[0]
    questions = max(phase.ledger.questions, 1)
    m: dict[str, float] = {}
    n: dict[str, int] = {}

    # -- core.collection / core.kernels ---------------------------------- #
    builds = [
        d for s, d in zip(phase.logs["collection.build"]["start"],
                          phase.logs["collection.build"]["dur"])
        if s < window[0]
    ]
    m["collection.build_s"] = statistics.median(builds) if builds else 0.0
    n["collection.build_s"] = len(builds)
    m["collection.warmup_s"] = phase.warmup_s
    n["collection.warmup_s"] = 1
    scan, restricted, many = (
        spans["collection.scan"], spans["collection.scan_restricted"],
        spans["collection.scan_many"],
    )
    m["collection.scan_calls"] = len(scan)
    m["collection.scan_hit_ratio"] = _ratio(sum(scan.extra("hit")), len(scan))
    m["collection.scan_ms"] = scan.ms()
    m["collection.scan_restricted_calls"] = len(restricted)
    m["collection.scan_restricted_ms"] = restricted.ms()
    m["collection.scan_many_calls"] = len(many)
    m["collection.scan_many_miss_masks"] = sum(many.extra("miss"))
    m["collection.scan_many_ms"] = many.ms()
    m["kernels.row_pass_bytes"] = (
        sum(scan.extra("bytes")) + sum(restricted.extra("bytes"))
        + sum(many.extra("bytes"))
    )
    partition, delta = spans["collection.partition"], spans["collection.delta"]
    first = spans["collection.first_scan_after_delta"]
    m["collection.partition_calls"] = len(partition)
    m["collection.partition_ms"] = partition.ms()
    m["collection.delta_calls"] = len(delta)
    m["collection.delta_ms"] = delta.ms()
    m["collection.first_scan_after_delta_ms"] = _ratio(first.ms(), len(first))
    for name, s in (
        ("scan", scan), ("scan_restricted", restricted), ("scan_many", many),
        ("partition", partition), ("delta", delta),
    ):
        n[f"collection.{name}"] = len(s)
    n["collection.first_scan_after_delta_ms"] = len(first)

    # -- core.lookahead --------------------------------------------------- #
    select = spans["lookahead.select"]
    m["lookahead.select_calls"] = len(select)
    m["lookahead.select_p50_ms"] = _pct_ms(select.dur, 0.50)
    m["lookahead.select_p95_ms"] = _pct_ms(select.dur, 0.95)
    m["lookahead.self_ms"] = select.self_ms()
    m["lookahead.scans_per_select"] = _ratio(sum(select.extra("scans")), len(select))
    m["lookahead.partitions_per_select"] = _ratio(
        sum(select.extra("partitions")), len(select)
    )
    missed = [
        (inf, parts)
        for inf, parts in zip(select.extra("root_informative"),
                              select.extra("root_partitions"))
        if inf >= 0
    ]
    m["lookahead.root_pruned_ratio"] = 1.0 - _ratio(
        sum(p for _, p in missed), sum(i for i, _ in missed)
    ) if missed else 0.0
    n["lookahead.select"] = len(select)
    n["lookahead.root_pruned_ratio"] = len(missed)

    # -- serve.scheduler -------------------------------------------------- #
    flush = spans["scheduler.flush"]
    score, group, plan = (
        spans["scheduler.score"], spans["scheduler.group"], spans["scheduler.plan"]
    )
    tasks = spans["async_service.flush_task"]
    hits, scanned = sum(flush.extra("hits")), sum(flush.extra("scanned"))
    selections = sum(flush.extra("selections"))
    m["scheduler.flushes"] = len(flush)
    m["scheduler.requests_per_flush"] = _ratio(sum(flush.extra("requests")), len(flush))
    m["scheduler.masks_per_flush"] = _ratio(sum(flush.extra("masks")), len(flush))
    m["scheduler.cache_hit_ratio"] = _ratio(hits, hits + scanned)
    m["scheduler.flush_p50_ms"] = _pct_ms(flush.dur, 0.50)
    m["scheduler.flush_p95_ms"] = _pct_ms(flush.dur, 0.95)
    m["scheduler.scan_share"] = _ratio(many.ms(), flush.ms())
    m["scheduler.scoring_ms"] = score.ms()
    m["scheduler.grouping_ms"] = group.ms()
    m["scheduler.planning_ms"] = plan.ms()
    m["scheduler.self_ms"] = flush.self_ms()
    m["scheduler.busy_coverage"] = _ratio(
        flush.self_ms() + many.ms() + score.ms() + group.ms() + plan.ms(), tasks.ms()
    )
    m["scheduler.scoring_dedup_ratio"] = (
        1.0 - _ratio(sum(flush.extra("groups")), selections) if selections else 0.0
    )
    m["scheduler.fallback_selections"] = sum(flush.extra("fallback"))
    n["scheduler.flush"] = len(flush)

    # -- serve.async_service ---------------------------------------------- #
    ask = spans["async_service.ask"]
    waits = _queue_wait_s(ask, tasks)
    m["async_service.ask_p50_ms"] = _pct_ms(ask.dur, 0.50)
    m["async_service.ask_p95_ms"] = _pct_ms(ask.dur, 0.95)
    m["async_service.ask_p99_ms"] = _pct_ms(ask.dur, 0.99)
    m["async_service.queue_wait_ms"] = _ratio(sum(waits), len(waits)) * 1000.0
    n_procs = max(1, len(set(tasks.extra("proc"))))
    m["async_service.flush_thread_busy_ratio"] = _ratio(tasks.ms() / 1000.0, wall * n_procs)
    m["async_service.queued_high_watermark"] = phase.extra.get("queued_high_watermark", 0)
    n["async_service.ask"] = len(ask)
    n["async_service.flush_task"] = len(tasks)

    # -- serve.http -------------------------------------------------------- #
    request, message = spans["http.request"], spans["http.ws_message"]
    session_routes = [
        d for d, route in zip(request.dur, request.extra("route"))
        if route == ROUTE_SESSION
    ]
    rtts = phase.extra.get("client_rtts", [])
    m["http.requests"] = len(request)
    m["http.ws_messages"] = len(message)
    m["http.request_p50_ms"] = _pct_ms(request.dur + message.dur, 0.50)
    m["http.request_p95_ms"] = _pct_ms(request.dur + message.dur, 0.95)
    m["http.self_ms_per_question"] = (request.self_ms() + message.self_ms()) / questions
    m["http.client_overhead_ms"] = (
        _ratio(sum(rtts) - sum(session_routes) - sum(message.dur), len(rtts)) * 1000.0
    )
    m["http.non_2xx"] = (
        sum(1 for status in request.extra("status") if status >= 300)
        + sum(message.extra("error"))
    )
    n["http.request"] = len(request)
    n["http.ws_message"] = len(message)
    n["http.client_rtts"] = len(rtts)

    # -- serve.cluster ----------------------------------------------------- #
    call = spans["cluster.call"]
    fanout = [
        d for d, verb in zip(call.dur, call.extra("verb"))
        if verb == CLUSTER_VERBS.index("apply_delta_spec")
    ]
    clustered = phase.extra.get("workers", 0) > 0
    m["cluster.call_p50_ms"] = _pct_ms(call.dur, 0.50)
    m["cluster.call_p95_ms"] = _pct_ms(call.dur, 0.95)
    m["cluster.edge_cpu_ms_per_question"] = (
        phase.extra["edge_cpu_s"] * 1000.0 / questions if clustered else 0.0
    )
    m["cluster.worker_cpu_ms_per_question"] = (
        phase.extra["worker_cpu_s"] * 1000.0 / questions if clustered else 0.0
    )
    m["cluster.delta_fanout_ms"] = _ratio(sum(fanout), len(fanout)) * 1000.0
    m["cluster.worker_restarts"] = phase.extra.get("worker_restarts", 0)
    n["cluster.call"] = len(call)
    n["cluster.delta_fanout_ms"] = len(fanout)

    # -- the process ------------------------------------------------------- #
    gc_spans = spans["process.gc"]
    m["process.loop_thread_cpu_ms_per_question"] = (
        phase.threads.get("loop", 0.0) * 1000.0 / questions
    )
    m["process.flush_thread_cpu_ms_per_question"] = (
        phase.threads.get("flush", 0.0) * 1000.0 / questions
    )
    m["process.gc_ms"] = gc_spans.ms()
    n["process.gc"] = len(gc_spans)
    n["questions"] = phase.ledger.questions

    m["trace.overhead_ratio"] = overhead

    absent = [
        name for name, kinds in _LAYER_KINDS.items()
        if not any(len(spans[k]) for k in kinds)
    ]
    not_exercised = [
        metric for metric in UNITS
        if any(metric.startswith(prefix) for prefix in absent)
    ]
    return {k: float(m[k]) for k in UNITS}, n, not_exercised


#: metric-name prefix -> the span kinds that show the layer ran
_LAYER_KINDS = {
    "lookahead.": ("lookahead.select",),
    "scheduler.": ("scheduler.flush",),
    "async_service.": ("async_service.ask",),
    "http.": ("http.request", "http.ws_message"),
    "cluster.": ("cluster.call",),
    "collection.delta": ("collection.delta",),
    "collection.first_scan_after_delta": ("collection.first_scan_after_delta",),
    "collection.scan_many": ("collection.scan_many",),
    "process.flush_thread": ("async_service.flush_task",),
}
