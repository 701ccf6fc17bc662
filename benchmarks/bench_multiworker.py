"""Multi-worker scale-out benchmark: one edge, N engine worker processes.

Boots ``python -m repro serve`` twice as a **separate process** — once
with ``--workers 0`` (the in-process engine: edge and kernel share one
interpreter and one core) and once with ``--workers N`` (session-sharded
cluster: N shared-nothing engine workers behind the same HTTP edge) —
and drives the identical concurrent session load at both.  The headline
figure is the aggregate questions/s ratio, i.e. what the cluster
actually buys on a multi-core box.

The collection is served on the **bigint** backend deliberately: the
pure-Python kernel is GIL-bound, so a single process cannot use more
than one core no matter how well the scheduler batches — exactly the
deployment the cluster exists for.  (On the numpy backend a single
process is already so fast the edge dominates and sharding buys little;
that regime is covered by ``bench_http``.)

Before any timing, a parity round checks that transcripts fetched over
the wire **from the multi-worker server** are byte-identical to
sequential in-process runs for the same targets — worker replicas answer
exactly like the one-process engine or the run aborts.  Both servers are
shut down with SIGTERM, exercising the cluster's graceful drain (worker
reap) on every bench run.

Writes ``benchmarks/out/BENCH_multiworker.json``; its ``speedup`` object
joins the trajectory history with the other benches.
The client count is deliberately high: the scan scheduler amortizes one
shared bit-matrix pass over every session in a flush, so sharding C
sessions four ways quarters each worker's batch width — the per-flush
scan cost is only negligible relative to per-session work once hundreds
of sessions are in flight, which is exactly the cluster's target regime.

Writes ``speedup: {"questions_per_s": ...}`` — the multi/solo aggregate
questions/s *ratio*.  Scale knobs (environment):

* ``REPRO_MW_BENCH_WORKERS`` — cluster size for the timed round (default 4)
* ``REPRO_MW_BENCH_CLIENTS`` — concurrent sessions (default 512)
* ``REPRO_MW_BENCH_SETS`` — sets in the collection (default 12000)
* ``REPRO_MW_BENCH_PARITY_SESSIONS`` — parity pre-check size (default 6)
* ``REPRO_MW_BENCH_MIN_SPEEDUP`` — gated aggregate-qps ratio (default 2.0)
"""

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.discovery import DiscoverySession
from repro.core.selection import InfoGainSelector
from repro.data.synthetic import SyntheticConfig, generate_collection
from repro.oracle import SimulatedUser
from repro.serve.metrics import quantile_sorted
from repro.serve.client import HttpConnection, HttpSessionClient

_OUT_PATH = Path(__file__).parent / "out" / "BENCH_multiworker.json"
_SRC = Path(__file__).resolve().parent.parent / "src"
_READY = re.compile(r"^serving on http://([\d.]+):(\d+)$")


def _bench_config() -> dict:
    return {
        "workers": int(os.environ.get("REPRO_MW_BENCH_WORKERS", "4")),
        "n_clients": int(os.environ.get("REPRO_MW_BENCH_CLIENTS", "512")),
        "n_sets": int(os.environ.get("REPRO_MW_BENCH_SETS", "12000")),
        "parity_sessions": int(
            os.environ.get("REPRO_MW_BENCH_PARITY_SESSIONS", "6")
        ),
        # The GIL-bound kernel the cluster exists to scale out.
        "backend": "bigint",
        # Mirrors the CLI's synthetic defaults so the client-side replica
        # collection (for oracles + parity goldens) matches the server's.
        "size_lo": 30,
        "size_hi": 40,
        "overlap": 0.85,
        "seed": 42,
        "flush_after_ms": 2.0,
        "max_batch": 256,
    }


def _server_command(cfg: dict, workers: int) -> list[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--n-sets",
        str(cfg["n_sets"]),
        "--size-lo",
        str(cfg["size_lo"]),
        "--size-hi",
        str(cfg["size_hi"]),
        "--overlap",
        str(cfg["overlap"]),
        "--seed",
        str(cfg["seed"]),
        "--backend",
        cfg["backend"],
        "--flush-after-ms",
        str(cfg["flush_after_ms"]),
        "--max-batch",
        str(cfg["max_batch"]),
        "--drain-grace-s",
        "10",
    ]
    if workers:
        command += ["--workers", str(workers)]
    return command


class ServerProcess:
    """``python -m repro serve [--workers N]`` in a child process."""

    def __init__(self, cfg: dict, workers: int) -> None:
        self.cfg = cfg
        self.workers = workers
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout_s: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_SRC), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            _server_command(self.cfg, self.workers),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + timeout_s
        assert self.proc.stdout is not None
        while True:
            if time.monotonic() > deadline:
                self.proc.kill()
                raise RuntimeError("server never printed its readiness line")
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early (code {self.proc.returncode})"
                )
            if match := _READY.match(line.strip()):
                self.host, self.port = match.group(1), int(match.group(2))
                return

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM -> graceful drain (cluster: worker reap) -> exit code."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _client_collection(cfg: dict):
    """The exact collection every server replica built (same seed)."""
    return generate_collection(
        SyntheticConfig(
            n_sets=cfg["n_sets"],
            size_lo=cfg["size_lo"],
            size_hi=cfg["size_hi"],
            overlap=cfg["overlap"],
            seed=cfg["seed"],
        )
    )


def _serialize(transcripts) -> bytes:
    return json.dumps(sorted(transcripts), sort_keys=True).encode()


def _check_parity(server: ServerProcess, collection, cfg: dict) -> None:
    """Multi-worker wire transcripts must equal sequential goldens."""
    rng = random.Random(17)
    targets = [
        rng.randrange(cfg["n_sets"]) for _ in range(cfg["parity_sessions"])
    ]

    golden = []
    for target in targets:
        session = DiscoverySession(collection, InfoGainSelector())
        result = session.run(SimulatedUser(collection, target_index=target))
        golden.append(
            [
                [i.entity, i.answer, i.candidates_before, i.candidates_after]
                for i in result.transcript
            ]
        )

    async def over_wire():
        async def one(target):
            oracle = SimulatedUser(collection, target_index=target)
            async with HttpSessionClient(server.host, server.port) as client:
                await client.create(selector="infogain")
                return await client.run(oracle)

        payloads = await asyncio.gather(*(one(t) for t in targets))
        return [
            [
                [
                    i["entity"],
                    i["answer"],
                    i["candidates_before"],
                    i["candidates_after"],
                ]
                for i in p["transcript"]
            ]
            for p in payloads
        ]

    wire = asyncio.run(over_wire())
    assert _serialize(wire) == _serialize(golden), (
        f"--workers {server.workers} transcripts diverged from "
        f"sequential in-process runs"
    )


def _run_load(server: ServerProcess, collection, cfg: dict) -> dict:
    """The timed round: n_clients full HTTP sessions, latency taped."""
    rng = random.Random(23)
    targets = [rng.randrange(cfg["n_sets"]) for _ in range(cfg["n_clients"])]
    latencies: list[float] = []
    questions = 0

    async def user(target: int) -> int:
        oracle = SimulatedUser(collection, target_index=target)
        count = 0
        async with HttpSessionClient(server.host, server.port) as client:
            await client.create(selector="infogain")
            while True:
                start = time.perf_counter()
                entity = await client.next_question()
                latencies.append(time.perf_counter() - start)
                if entity is None:
                    break
                count += 1
                await client.send_answer(oracle(entity))
            await client.result()
        return count

    async def load() -> float:
        nonlocal questions
        start = time.perf_counter()
        counts = await asyncio.gather(*(user(t) for t in targets))
        elapsed = time.perf_counter() - start
        questions = sum(counts)
        return elapsed

    elapsed = asyncio.run(load())
    latencies.sort()

    async def scrape() -> str:
        async with HttpConnection(server.host, server.port) as conn:
            _, text = await conn.request("GET", "/metrics")
            return text

    metrics_text = asyncio.run(scrape())
    workers_up = sum(
        1
        for line in metrics_text.splitlines()
        if line.startswith("repro_worker_up{") and line.rstrip().endswith("1")
    )
    return {
        "seconds": elapsed,
        "questions": questions,
        "questions_per_s": questions / elapsed,
        "question_latency_ms": {
            "p50": quantile_sorted(latencies, 0.50) * 1000,
            "p95": quantile_sorted(latencies, 0.95) * 1000,
            "p99": quantile_sorted(latencies, 0.99) * 1000,
        },
        "workers_up": workers_up,
    }


def run_multiworker_bench(out_path: Path = _OUT_PATH) -> dict:
    """Parity-check the cluster, time both topologies, write the report."""
    cfg = _bench_config()
    collection = _client_collection(cfg)

    with ServerProcess(cfg, cfg["workers"]) as cluster:
        _check_parity(cluster, collection, cfg)
        multi = _run_load(cluster, collection, cfg)
        multi_exit = cluster.stop()
    assert multi_exit == 0, f"cluster drain exited with code {multi_exit}"
    assert multi["workers_up"] == cfg["workers"], (
        f"only {multi['workers_up']}/{cfg['workers']} workers were up "
        "after the timed round"
    )

    with ServerProcess(cfg, 0) as solo:
        single = _run_load(solo, collection, cfg)
        solo_exit = solo.stop()
    assert solo_exit == 0, f"solo drain exited with code {solo_exit}"

    speedup = multi["questions_per_s"] / single["questions_per_s"]
    report = {
        "bench": "multiworker-scaleout",
        "config": cfg,
        "results": {
            "workers_0": single,
            f"workers_{cfg['workers']}": multi,
        },
        # The trajectory headline: what the cluster buys over the
        # in-process engine for the same GIL-bound load.
        "speedup": {"questions_per_s": speedup},
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="scale-out floor needs >= 4 CPUs (shared-nothing workers "
    "cannot beat one GIL-bound process on fewer cores)",
)
def test_multiworker_speedup_floor():
    report = run_multiworker_bench()
    min_speedup = float(os.environ.get("REPRO_MW_BENCH_MIN_SPEEDUP", "2.0"))
    speedup = report["speedup"]["questions_per_s"]
    # Parity, full worker liveness and both clean drain exits are
    # asserted inside run_multiworker_bench; this gate is the scale-out
    # claim itself.
    assert speedup >= min_speedup, (
        f"--workers {report['config']['workers']} served only "
        f"{speedup:.2f}x the --workers 0 aggregate questions/s "
        f"(floor {min_speedup:.1f}x): {json.dumps(report, indent=2)}"
    )


def main() -> None:
    report = run_multiworker_bench()
    print(json.dumps(report, indent=2))
    print(f"written to {_OUT_PATH}")


if __name__ == "__main__":
    main()
