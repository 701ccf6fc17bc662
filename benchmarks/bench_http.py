"""HTTP serving benchmark: concurrent socket clients vs a real server.

Boots ``python -m repro serve`` as a **separate process** (embedded
stdlib server by default; set ``REPRO_HTTP_BENCH_UVICORN=1`` to host the
same app under uvicorn) and drives hundreds-to-thousands of concurrent
clients at it over real loopback sockets — a mix of pull-style HTTP
long-poll sessions and push-style WebSocket sessions.  This measures the
full edge: HTTP parsing, auth, JSON, RFC 6455 framing, the ASGI bridge
and the batched scheduler behind it, none of which the in-process
``bench_service`` numbers include.

Before any timing, a parity round checks that transcripts fetched over
the wire are byte-identical to sequential in-process runs for the same
targets (the same golden the engine/async tests enforce).  After the
timed round the server's ``/metrics`` snapshot is embedded in the
report, and the server is shut down with SIGTERM — exercising the
graceful drain path on every bench run.

Writes ``benchmarks/out/BENCH_http.json``; its ``speedup`` object
(``{"questions_per_s": ...}``) joins the trajectory history with the
other benches.  Scale knobs (environment):

* ``REPRO_HTTP_BENCH_CLIENTS`` — concurrent sessions (default 1000)
* ``REPRO_HTTP_BENCH_WS_FRACTION`` — websocket share of them (default 0.25)
* ``REPRO_HTTP_BENCH_SETS`` — sets in the collection (default 4000)
* ``REPRO_HTTP_BENCH_PARITY_SESSIONS`` — parity pre-check size (default 8)
* ``REPRO_HTTP_BENCH_FLUSH_MS`` — scheduler latency budget (default 2)
* ``REPRO_HTTP_BENCH_MAX_BATCH`` — flush watermark (default 256)
* ``REPRO_HTTP_BENCH_MIN_QPS`` — gated questions/sec floor (default 200)
* ``REPRO_HTTP_BENCH_MAX_P95_MS`` — gated p95 ceiling, ms (default 500)
* ``REPRO_HTTP_BENCH_UVICORN`` — 1 = host under uvicorn (default 0)
* ``REPRO_HTTP_BENCH_WORKERS`` — engine worker processes behind the
  edge (default 0 = the in-process engine; incompatible with uvicorn)
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
from repro.core.kernels import HAS_NUMPY
from repro.core.selection import InfoGainSelector
from repro.data.synthetic import SyntheticConfig, generate_collection
from repro.oracle import SimulatedUser
from repro.serve.metrics import quantile_sorted
from repro.serve.client import (
    HttpConnection,
    HttpSessionClient,
    WsSessionClient,
)

_OUT_PATH = Path(__file__).parent / "out" / "BENCH_http.json"
_SRC = Path(__file__).resolve().parent.parent / "src"
_READY = re.compile(r"^serving on http://([\d.]+):(\d+)$")


def _bench_config() -> dict:
    return {
        "n_clients": int(os.environ.get("REPRO_HTTP_BENCH_CLIENTS", "1000")),
        "ws_fraction": float(
            os.environ.get("REPRO_HTTP_BENCH_WS_FRACTION", "0.25")
        ),
        "n_sets": int(os.environ.get("REPRO_HTTP_BENCH_SETS", "4000")),
        "parity_sessions": int(
            os.environ.get("REPRO_HTTP_BENCH_PARITY_SESSIONS", "8")
        ),
        "flush_after_ms": float(
            os.environ.get("REPRO_HTTP_BENCH_FLUSH_MS", "2")
        ),
        "max_batch": int(os.environ.get("REPRO_HTTP_BENCH_MAX_BATCH", "256")),
        "uvicorn": os.environ.get("REPRO_HTTP_BENCH_UVICORN", "0") == "1",
        "workers": int(os.environ.get("REPRO_HTTP_BENCH_WORKERS", "0")),
        # Mirrors the CLI's synthetic defaults so the client-side replica
        # collection (for oracles + parity) is identical to the server's.
        "size_lo": 30,
        "size_hi": 40,
        "overlap": 0.85,
        "seed": 42,
    }


def _server_command(cfg: dict) -> list[str]:
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
        "--flush-after-ms",
        str(cfg["flush_after_ms"]),
        "--max-batch",
        str(cfg["max_batch"]),
        "--drain-grace-s",
        "10",
    ]
    if cfg["uvicorn"]:
        command.append("--uvicorn")
    if cfg["workers"]:
        command += ["--workers", str(cfg["workers"])]
    return command


class ServerProcess:
    """``python -m repro serve`` in a child process, port parsed from the
    readiness line, SIGTERM (graceful drain) on close."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_SRC), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            _server_command(self.cfg),
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

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM -> graceful drain -> exit code (kills on timeout)."""
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
    """The exact collection the server built (same config, same seed)."""
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
    """HTTP and WS transcripts must equal sequential in-process runs."""
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

    async def over_wire(use_ws: bool):
        async def one(target):
            oracle = SimulatedUser(collection, target_index=target)
            cls = WsSessionClient if use_ws else HttpSessionClient
            async with cls(server.host, server.port) as client:
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

    for use_ws in (False, True):
        wire = asyncio.run(over_wire(use_ws))
        assert _serialize(wire) == _serialize(golden), (
            f"{'websocket' if use_ws else 'http'} transcripts diverged "
            f"from sequential in-process runs"
        )


def _run_load(server: ServerProcess, collection, cfg: dict) -> dict:
    """The timed round: n_clients full sessions, question latency taped."""
    rng = random.Random(23)
    n_ws = int(cfg["n_clients"] * cfg["ws_fraction"])
    plans = [
        (i < n_ws, rng.randrange(cfg["n_sets"]))
        for i in range(cfg["n_clients"])
    ]
    rng.shuffle(plans)
    latencies: list[float] = []
    questions = 0

    async def http_user(target: int) -> int:
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

    async def ws_user(target: int) -> int:
        oracle = SimulatedUser(collection, target_index=target)
        count = 0
        async with WsSessionClient(server.host, server.port) as client:
            await client.create(selector="infogain")
            start = time.perf_counter()
            while True:
                message = await client.receive_json()
                latencies.append(time.perf_counter() - start)
                if message is None or message["type"] != "question":
                    break
                count += 1
                await client.send_json(
                    {"type": "answer", "value": oracle(message["entity"])}
                )
                start = time.perf_counter()
        return count

    async def load() -> float:
        nonlocal questions
        start = time.perf_counter()
        counts = await asyncio.gather(
            *(
                ws_user(target) if use_ws else http_user(target)
                for use_ws, target in plans
            )
        )
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
    server_metrics = {
        line.split(" ")[0]: float(line.rsplit(" ", 1)[1])
        for line in metrics_text.splitlines()
        if line and not line.startswith("#") and "{" not in line
    }
    return {
        "seconds": elapsed,
        "questions": questions,
        "questions_per_s": questions / elapsed,
        "question_latency_ms": {
            "p50": quantile_sorted(latencies, 0.50) * 1000,
            "p95": quantile_sorted(latencies, 0.95) * 1000,
            "p99": quantile_sorted(latencies, 0.99) * 1000,
        },
        "server_metrics": server_metrics,
    }


def run_http_bench(out_path: Path = _OUT_PATH) -> dict:
    """Boot the server, check parity, run the load; write BENCH_http.json."""
    cfg = _bench_config()
    collection = _client_collection(cfg)
    with ServerProcess(cfg) as server:
        _check_parity(server, collection, cfg)
        load = _run_load(server, collection, cfg)
        exit_code = server.stop()
    assert exit_code == 0, f"server drain exited with code {exit_code}"
    report = {
        "bench": "http-load",
        "config": cfg,
        "server": "uvicorn" if cfg["uvicorn"] else "embedded",
        "workers": cfg["workers"],
        "results": load,
        # No sequential baseline makes sense for a network edge; the
        # trajectory tracks absolute served throughput instead.
        "speedup": {"questions_per_s": load["questions_per_s"]},
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
def test_http_load_floor():
    report = run_http_bench()
    min_qps = float(os.environ.get("REPRO_HTTP_BENCH_MIN_QPS", "200"))
    max_p95_ms = float(os.environ.get("REPRO_HTTP_BENCH_MAX_P95_MS", "500"))
    results = report["results"]
    # Parity and the clean drain exit are asserted inside run_http_bench;
    # these gates are the serving SLO: throughput floor, tail ceiling.
    assert results["questions_per_s"] >= min_qps, (
        f"served only {results['questions_per_s']:.0f} questions/s "
        f"(floor {min_qps:.0f}): {json.dumps(report, indent=2)}"
    )
    assert results["question_latency_ms"]["p95"] <= max_p95_ms, (
        f"p95 question latency {results['question_latency_ms']['p95']:.1f} "
        f"ms above the {max_p95_ms:.0f} ms ceiling: "
        f"{json.dumps(report, indent=2)}"
    )


def main() -> None:
    report = run_http_bench()
    print(json.dumps(report, indent=2))
    print(f"written to {_OUT_PATH}")


if __name__ == "__main__":
    main()
