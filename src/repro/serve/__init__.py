"""Serving layer: run *many* concurrent discovery sessions efficiently.

The paper evaluates Algorithm 2 one session at a time; serving heavy
interactive traffic means advancing thousands of independent sessions whose
per-step latency budgets are tight.  The stack has three layers
(``docs/serving.md``):

1. :mod:`repro.serve.state` — the session **state machine**
   (``NEEDS_SCAN -> QUESTION_PENDING -> DONE``) and the shared
   :class:`SessionRegistry` bookkeeping;
2. :mod:`repro.serve.scheduler` — the :class:`ScanScheduler`, which
   accumulates scan requests and answers them in stacked kernel passes,
   flushing on a batch watermark or latency budget;
3. front-ends — the lock-step :class:`SessionEngine`
   (:mod:`repro.serve.engine`) and the asyncio
   :class:`AsyncDiscoveryService` (:mod:`repro.serve.async_service`),
   which let sessions join, answer and finish independently while the
   kernel still sees large stacked scans;
4. the network edge — :class:`DiscoveryApp` (:mod:`repro.serve.http`),
   an ASGI app exposing sessions over HTTP and WebSocket with
   :class:`ServiceMetrics` SLO export, hosted by the stdlib
   :class:`EmbeddedServer` or any ASGI server (uvicorn extra);
5. scale-out — :class:`ClusterService` (:mod:`repro.serve.cluster`)
   shards sessions across N shared-nothing engine worker processes by
   consistent hash of the session id, the same ``DiscoveryApp`` acting
   as a thin router (``python -m repro serve --workers N``).

Whatever the front-end, every session's transcript is bit-identical to a
sequential :meth:`~repro.core.discovery.DiscoverySession.run` — the stack
changes how work is batched, never what a session observes.  That
guarantee survives mutation: collections version by epoch
(``docs/collections.md``), every front-end exposes ``apply_delta``, each
session stays pinned to the epoch it started on, and the scheduler groups
stacked flushes per epoch.
"""

from .async_service import (
    AsyncDiscoveryService,
    ServiceClosed,
    ServiceOverloaded,
    SessionExpired,
    WorkerLost,
)
from .cluster import ClusterError, ClusterService, worker_index_for
from .engine import EngineStats, SessionEngine
from .http import DiscoveryApp, EmbeddedServer, delta_batch_from_spec
from .metrics import ClusterMetrics, LatencyReservoir, ServiceMetrics
from .scheduler import FlushPolicy, FlushReport, ScanScheduler, SchedulerSaturated
from .state import Phase, SessionRegistry, SessionState

__all__ = [
    "AsyncDiscoveryService",
    "ClusterError",
    "ClusterMetrics",
    "ClusterService",
    "DiscoveryApp",
    "EmbeddedServer",
    "EngineStats",
    "FlushPolicy",
    "FlushReport",
    "LatencyReservoir",
    "Phase",
    "ScanScheduler",
    "SchedulerSaturated",
    "ServiceClosed",
    "ServiceMetrics",
    "ServiceOverloaded",
    "SessionEngine",
    "SessionExpired",
    "SessionRegistry",
    "SessionState",
    "WorkerLost",
    "delta_batch_from_spec",
    "worker_index_for",
]
