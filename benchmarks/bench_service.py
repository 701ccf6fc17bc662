"""Async serving benchmark: AsyncDiscoveryService vs sequential sessions.

Simulates N concurrent users arriving as a Poisson process over one shared
collection, each answering membership questions as soon as they are asked,
and times two ways of serving them to completion:

* **sequential** — N independent ``DiscoverySession.run`` calls, one after
  another (the paper's one-session-at-a-time evaluation protocol);
* **async** — one :class:`repro.serve.AsyncDiscoveryService` serving all N
  users independently, with scan requests batched by the latency-budgeted
  :class:`~repro.serve.scheduler.ScanScheduler` and flushed on a worker
  thread.

Both paths produce bit-identical transcripts (asserted here before any
timing, and proven selector-by-selector in ``tests/test_async_service.py``);
the figures are aggregate throughput (answered questions per second) and
the per-question ``ask()`` latency distribution (p50/p95) under concurrent
load.  It writes ``benchmarks/out/BENCH_service.json`` — CI uploads it with
the other ``BENCH_artifacts`` and the trajectory history picks up its
top-level ``speedup``.  Run standalone via
``python benchmarks/bench_service.py`` or as part of
``pytest benchmarks/``.  Scale knobs (environment):

* ``REPRO_SERVICE_BENCH_SESSIONS`` — concurrent users (default 256)
* ``REPRO_SERVICE_BENCH_SETS`` — sets in the collection (default 10000)
* ``REPRO_SERVICE_BENCH_UNIVERSE`` — entity universe size (default 6000)
* ``REPRO_SERVICE_BENCH_REPEAT`` — timing repetitions, best-of (default 3)
* ``REPRO_SERVICE_BENCH_ARRIVAL_MS`` — mean Poisson inter-arrival (default 0.05)
* ``REPRO_SERVICE_BENCH_MAX_BATCH`` — flush watermark (default 256)
* ``REPRO_SERVICE_BENCH_FLUSH_MS`` — scheduler latency budget (default 2)
* ``REPRO_SERVICE_BENCH_MIN_SPEEDUP`` — asserted speedup (default 3)
"""

import asyncio
import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.collection import SetCollection
from repro.core.discovery import DiscoverySession
from repro.core.kernels import HAS_NUMPY
from repro.core.selection import InfoGainSelector
from repro.core.universe import Universe
from repro.data.synthetic import SyntheticConfig, generate_sets
from repro.oracle import SimulatedUser
from repro.serve import AsyncDiscoveryService
from repro.serve.metrics import quantile_sorted

_OUT_PATH = Path(__file__).parent / "out" / "BENCH_service.json"


def _bench_config() -> dict:
    return {
        "n_sessions": int(
            os.environ.get("REPRO_SERVICE_BENCH_SESSIONS", "256")
        ),
        "n_sets": int(os.environ.get("REPRO_SERVICE_BENCH_SETS", "10000")),
        "universe_size": int(
            os.environ.get("REPRO_SERVICE_BENCH_UNIVERSE", "6000")
        ),
        "repeat": int(os.environ.get("REPRO_SERVICE_BENCH_REPEAT", "3")),
        "arrival_ms": float(
            os.environ.get("REPRO_SERVICE_BENCH_ARRIVAL_MS", "0.05")
        ),
        "flush_after_ms": float(
            os.environ.get("REPRO_SERVICE_BENCH_FLUSH_MS", "2")
        ),
        # The all-waiting shortcut flushes as soon as every active session
        # is queued, so a watermark at n_sessions degrades gracefully when
        # the session count is scaled down (CI smoke).
        "max_batch": int(
            os.environ.get("REPRO_SERVICE_BENCH_MAX_BATCH", "256")
        ),
        # Wider sets than bench_sessions (150-180 members over a 6000-entity
        # universe): per-question scans are substantial, which is exactly
        # the regime the stacked flush is for — and the regime where the
        # asyncio layer's per-question overhead must stay negligible.
        "size_lo": 150,
        "size_hi": 180,
        "overlap": 0.9,
        "seed": 7,
    }


def _build_collection(cfg: dict) -> SetCollection:
    raw = generate_sets(
        SyntheticConfig(
            n_sets=cfg["n_sets"],
            size_lo=cfg["size_lo"],
            size_hi=cfg["size_hi"],
            overlap=cfg["overlap"],
            universe_size=cfg["universe_size"],
            seed=cfg["seed"],
        )
    )
    return SetCollection(
        (sorted(s) for s in raw), universe=Universe(), backend="numpy"
    )


def _targets(cfg: dict) -> list[int]:
    rng = random.Random(11)
    return [rng.randrange(cfg["n_sets"]) for _ in range(cfg["n_sessions"])]


def _run_sequential(collection: SetCollection, targets: list[int]):
    collection.clear_caches()
    results = []
    for target in targets:
        session = DiscoverySession(collection, InfoGainSelector())
        results.append(
            session.run(SimulatedUser(collection, target_index=target))
        )
    return results


def _run_async(collection: SetCollection, targets: list[int], cfg: dict):
    """Serve all users through the async service; returns (results, asks).

    Users arrive as a Poisson process (seeded exponential inter-arrivals)
    and answer instantly once asked — the same zero think-time protocol
    the sequential baseline uses, so the comparison is purely about how
    the serving stack schedules the kernel work.
    """
    collection.clear_caches()
    arrival_rng = random.Random(13)
    mean_gap = cfg["arrival_ms"] / 1000.0
    arrivals, at = [], 0.0
    for _ in targets:
        at += arrival_rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else 0.0
        arrivals.append(at)
    ask_latencies: list[float] = []

    async def user(service, key, target, arrival):
        await asyncio.sleep(arrival)
        service.add(
            DiscoverySession(collection, InfoGainSelector()), key=key
        )
        oracle = SimulatedUser(collection, target_index=target)
        while True:
            start = time.perf_counter()
            entity = await service.ask(key)
            ask_latencies.append(time.perf_counter() - start)
            if entity is None:
                break
            service.answer(key, oracle(entity))
        return await service.result(key)

    async def serve():
        async with AsyncDiscoveryService(
            collection,
            flush_after_ms=cfg["flush_after_ms"],
            max_batch=cfg["max_batch"],
        ) as service:
            return await asyncio.gather(
                *(
                    user(service, key, target, arrivals[key])
                    for key, target in enumerate(targets)
                )
            )

    return asyncio.run(serve()), ask_latencies


def run_service_comparison(out_path: Path = _OUT_PATH) -> dict:
    """Time both serving strategies; write BENCH_service.json."""
    cfg = _bench_config()
    collection = _build_collection(cfg)
    targets = _targets(cfg)

    # Warmup + parity: one untimed round of each path, transcripts must be
    # bit-identical before any timing happens (it also warms lazily built
    # kernel structures for both strategies alike).
    seq_results = _run_sequential(collection, targets)
    async_results, _ = _run_async(collection, targets, cfg)
    for i in range(len(targets)):
        assert (
            async_results[i].transcript == seq_results[i].transcript
        ), f"async transcript diverged from sequential for session {i}"

    best = {"sequential": float("inf"), "async": float("inf")}
    questions = {}
    latencies: list[float] = []
    for _ in range(cfg["repeat"]):
        start = time.perf_counter()
        seq_results = _run_sequential(collection, targets)
        best["sequential"] = min(
            best["sequential"], time.perf_counter() - start
        )
        questions["sequential"] = sum(r.n_questions for r in seq_results)
        start = time.perf_counter()
        async_results, asks = _run_async(collection, targets, cfg)
        elapsed = time.perf_counter() - start
        if elapsed < best["async"]:
            best["async"] = elapsed
            latencies = asks
        questions["async"] = sum(r.n_questions for r in async_results)
    assert questions["sequential"] == questions["async"], (
        "async service answered a different number of questions than "
        "sequential sessions — parity violation"
    )
    latencies.sort()
    report = {
        "bench": "async-service-vs-sequential",
        "config": cfg,
        "backend": collection.backend,
        "results": {
            name: {
                "seconds": best[name],
                "questions": questions[name],
                "questions_per_s": questions[name] / best[name],
            }
            for name in ("sequential", "async")
        },
        "ask_latency_ms": {
            "p50": quantile_sorted(latencies, 0.50) * 1000,
            "p95": quantile_sorted(latencies, 0.95) * 1000,
        },
        "speedup": best["sequential"] / max(best["async"], 1e-12),
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
def test_service_aggregate_speedup():
    report = run_service_comparison()
    min_speedup = float(
        os.environ.get("REPRO_SERVICE_BENCH_MIN_SPEEDUP", "3")
    )
    # Transcript parity is asserted inside run_service_comparison before
    # timing; this gate is purely about aggregate serving throughput.
    assert report["speedup"] >= min_speedup, (
        f"async service only {report['speedup']:.1f}x faster than "
        f"sequential sessions (required {min_speedup:.1f}x): "
        f"{json.dumps(report, indent=2)}"
    )


def main() -> None:
    report = run_service_comparison()
    print(json.dumps(report, indent=2))
    print(f"written to {_OUT_PATH}")


if __name__ == "__main__":
    main()
