"""Serving hundreds of jittery users with the asyncio discovery service.

Where ``concurrent_sessions.py`` advances every user in lock-step rounds
(all users answer, then one batched tick selects for all of them), this
example serves users who arrive, think and reply on *their own* schedule —
the shape of real interactive traffic.  Each simulated user:

1. joins the service at a random arrival time,
2. awaits ``service.ask(key)`` for their next membership question,
3. "thinks" for a random few milliseconds (the jittery latency),
4. replies via ``service.answer(key, value)``, and loops until done.

No user ever waits for another — yet the kernel still sees large stacked
scans, because the ``ScanScheduler`` under the service accumulates
everyone's scan requests and flushes them together when either a batch
watermark fills or a latency budget (``flush_after_ms``) expires.  The
flush runs on a worker thread, so the GIL-releasing kernel backends scan
while the event loop keeps accepting answers.

Transcripts stay bit-identical to sequential ``DiscoverySession.run``
calls (tests/test_async_service.py proves it); what changes is purely
throughput and latency, which this example prints.

Run:  python examples/async_service.py [n_users] [n_sets]
"""

import asyncio
import random
import sys
import time

from repro import AsyncDiscoveryService, DiscoverySession, InfoGainSelector
from repro.data.synthetic import SyntheticConfig, generate_collection
from repro.oracle import SimulatedUser
from repro.serve.metrics import quantile_sorted


async def simulated_user(
    service: AsyncDiscoveryService,
    key: int,
    oracle: SimulatedUser,
    rng: random.Random,
    latencies: list[float],
) -> int:
    """One user's whole life: arrive, join, answer questions, finish."""
    await asyncio.sleep(rng.random() * 0.02)  # staggered arrival
    service.add(
        DiscoverySession(service.collection, InfoGainSelector()), key=key
    )
    questions = 0
    while True:
        start = time.perf_counter()
        entity = await service.ask(key)
        latencies.append(time.perf_counter() - start)
        if entity is None:
            break
        questions += 1
        await asyncio.sleep(rng.random() * 0.004)  # jittery think-time
        service.answer(key, oracle(entity))
    result = await service.result(key)
    assert result.resolved
    return questions


async def main() -> None:
    n_users = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    n_sets = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    collection = generate_collection(
        SyntheticConfig(
            n_sets=n_sets, size_lo=30, size_hi=40, overlap=0.85, seed=13
        )
    )
    print(f"collection: {collection} (backend={collection.backend})")

    rng = random.Random(99)
    latencies: list[float] = []
    async with AsyncDiscoveryService(
        collection, flush_after_ms=2.0, max_batch=64
    ) as service:
        start = time.perf_counter()
        tasks = [
            asyncio.create_task(
                simulated_user(
                    service,
                    key,
                    SimulatedUser(
                        collection,
                        target_index=rng.randrange(collection.n_sets),
                    ),
                    random.Random(1000 + key),
                    latencies,
                )
            )
            for key in range(n_users)
        ]
        questions = sum(await asyncio.gather(*tasks))
        elapsed = time.perf_counter() - start
        stats = service.stats

    print(
        f"served {n_users} independent users: {questions} questions "
        f"answered in {elapsed * 1000:.0f} ms "
        f"({questions / elapsed:.0f} questions/s aggregate)"
    )
    asks = sorted(latencies)
    print(
        f"ask() latency: p50 {quantile_sorted(asks, 0.5) * 1000:.2f} ms, "
        f"p95 {quantile_sorted(asks, 0.95) * 1000:.2f} ms"
    )
    print(
        f"scheduler: {stats.ticks} flushes, {stats.scanned_masks} masks "
        f"scanned in {stats.batched_scans} stacked passes, "
        f"{stats.scan_cache_hits} cache hits, {stats.scoring_groups} "
        f"scoring groups for {stats.batched_selections} batched selections"
    )


if __name__ == "__main__":
    asyncio.run(main())
