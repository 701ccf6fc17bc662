"""Edge workloads: a ``repro serve`` child driven over loopback.

One process drives two connections with zero think time: one runs
WebSocket sessions one at a time (a session is one WebSocket), the other
runs keep-alive HTTP long-poll sessions one at a time.  Sessions come in
blocks; after each block both connections wait at a barrier and one
``POST /admin/delta`` applies the next planned delta, so every session
lands on the same epoch in every run.

Set-up runs from the server child's stamp (taken after its imports) until
the first question of both warm-up sessions (one per connection, and with
the ids of :class:`perfbench.serve_child.SessionIds` one per cluster
worker) has arrived; the rest of those sessions runs untimed.  Program CPU
and peak RSS are read from ``/proc`` for the server and its cluster
workers.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

from perfbench import procstat, trace
from perfbench.ledger import Ledger, Phase
from perfbench.inputs import Plan, Session
from perfbench.serve_child import SESSION_IDS_ENV

ROOT = Path(__file__).resolve().parent.parent
ADMIN_TOKEN = "perfbench-admin"
STARTUP_LIMIT_S = 90.0
STOP_LIMIT_S = 30.0

now = time.perf_counter


class EdgeError(RuntimeError):
    """An unexpected response; the operation counts as failed."""


def _expect(status: int, body, expected: int, what: str) -> None:
    if status != expected:
        raise EdgeError(f"{what}: HTTP {status} (expected {expected}): {body!r}"[:300])


class Server:
    """A ``perfbench.serve_child`` process and where it listens."""

    def __init__(self, proc, stamp: float, host: str, port: int) -> None:
        self.proc = proc
        self.stamp = stamp
        self.host = host
        self.port = port

    @classmethod
    async def start(
        cls, collection: Path, workers: int, seed: int, trace_dir: Path | None
    ) -> "Server":
        env = dict(os.environ, **{SESSION_IDS_ENV: f"{seed}:{workers}"})
        if trace_dir is not None:
            env[trace.TRACE_DIR_ENV] = str(trace_dir)
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perfbench.serve_child", "serve",
            "--collection", str(collection), "--port", "0",
            "--admin-token", ADMIN_TOKEN, "--workers", str(workers),
            "--backend", "native",
            stdout=asyncio.subprocess.PIPE, env=env, cwd=ROOT,
        )
        try:
            stamp_line = await asyncio.wait_for(proc.stdout.readline(), STARTUP_LIMIT_S)
            ready_line = await asyncio.wait_for(proc.stdout.readline(), STARTUP_LIMIT_S)
            stamp = float(stamp_line.split()[1])
            address = ready_line.decode().strip().rsplit("/", 1)[1]
            host, port = address.rsplit(":", 1)
        except (asyncio.TimeoutError, IndexError, ValueError) as exc:
            proc.kill()
            await proc.wait()
            raise EdgeError(f"server child did not start: {exc!r}") from exc
        return cls(proc, stamp, host, int(port))

    async def stop(self) -> None:
        """SIGTERM (graceful drain, workers joined), then wait for exit."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.communicate(), STOP_LIMIT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


class LoadGenerator:
    """The two connections' session loops, the deltas and their records."""

    def __init__(self, server: Server, plan: Plan, ledger: Ledger, wrong: bool) -> None:
        from repro.serve.client import HttpConnection

        self.server = server
        self.plan = plan
        self.ledger = ledger
        self.wrong = wrong
        self.http = HttpConnection(server.host, server.port)
        #: client-side round trips of session requests and WS messages
        self.rtts: list[float] = []
        self.epoch = 0
        self._targets: dict[int, frozenset] = {}

    def _answer(self, index: int, session: Session, label, trail: list) -> bool:
        """The simulated perfect user; ``wrong`` flips session 0's first answer."""
        target = self._targets.get(session.target)
        if target is None:
            target = frozenset(self.plan.collection.sets[session.target])
            self._targets[session.target] = target
        answer = label in target
        return (not answer) if self.wrong and index == 0 and not trail else answer

    async def _request(self, method: str, path: str, body=None, token=None):
        t0 = now()
        status, payload = await self.http.request(method, path, body, token)
        self.rtts.append(now() - t0)
        return status, payload

    async def http_session(self, index: int, session: Session) -> float | None:
        """Run one session; return when (``time.monotonic()``) its first
        question arrived."""
        ledger, trail, first = self.ledger, [], None
        spec = {"selector": "infogain", "initial": list(session.initial)}
        try:
            t = now()
            status, body = await self._request("POST", "/sessions", spec)
            _expect(status, body, 201, "create")
            route, token = f"/sessions/{body['session']}", body["token"]
            status, body = await self._request("GET", f"{route}/question", token=token)
            _expect(status, body, 200, "question")
            first = time.monotonic()
            while True:
                ledger.sample(now() - t, not body["finished"])
                if body["finished"]:
                    break
                answer = self._answer(index, session, body["label"], trail)
                trail.append((body["entity"], answer))
                t = now()
                status, reply = await self._request(
                    "POST", f"{route}/answer", {"answer": answer}, token
                )
                _expect(status, reply, 200, "answer")
                status, body = await self._request("GET", f"{route}/question", token=token)
                _expect(status, body, 200, "question")
            status, result = await self._request("GET", f"{route}/result", token=token)
            _expect(status, result, 200, "result")
            ledger.operation()
        except (EdgeError, OSError, KeyError, asyncio.IncompleteReadError) as exc:
            ledger.fail(f"http session {index}: {exc!r}"[:300])
            return first
        ledger.finish(index, trail, result["candidates"], session.target)
        return first

    async def ws_session(self, index: int, session: Session) -> float | None:
        """Like :meth:`http_session`, over one WebSocket."""
        from repro.serve.client import WsSessionClient

        ledger, trail, first = self.ledger, [], None
        ws = WsSessionClient(self.server.host, self.server.port)
        try:
            t = now()
            await ws.connect()
            t_create = now()
            await ws.send_json(
                {"type": "create", "selector": "infogain", "initial": list(session.initial)}
            )
            created = await ws.receive_json()
            if not created or created.get("type") != "created":
                raise EdgeError(f"create: {created!r}"[:300])
            message = await ws.receive_json()
            first = time.monotonic()
            self.rtts.append(now() - t_create)
            while True:
                kind = message.get("type") if message else None
                ledger.sample(now() - t, kind == "question")
                if kind == "result":
                    break
                if kind != "question":
                    raise EdgeError(f"expected a question: {message!r}"[:300])
                answer = self._answer(index, session, message["label"], trail)
                trail.append((message["entity"], answer))
                t = now()
                await ws.send_json({"type": "answer", "value": answer})
                message = await ws.receive_json()
                self.rtts.append(now() - t)
        except (EdgeError, OSError, KeyError, asyncio.IncompleteReadError) as exc:
            ledger.fail(f"ws session {index}: {exc!r}"[:300])
            return first
        finally:
            await ws.aclose()
        ledger.finish(index, trail, message["candidates"], session.target)
        return first

    async def run_block(self, first: int, sessions: list[Session]) -> None:
        """Half the block over WebSocket, half over HTTP, concurrently."""
        half = len(sessions) // 2

        async def over_ws():
            for j, session in enumerate(sessions[:half]):
                await self.ws_session(first + j, session)

        async def over_http():
            for j, session in enumerate(sessions[half:]):
                await self.http_session(first + half + j, session)

        await asyncio.gather(over_ws(), over_http())

    async def apply_delta(self, spec: dict) -> None:
        try:
            status, body = await self.http.request(
                "POST", "/admin/delta", spec, ADMIN_TOKEN
            )
            _expect(status, body, 200, "delta")
            if body.get("epoch") != self.epoch + 1:
                raise EdgeError(f"delta went to epoch {body.get('epoch')}, not {self.epoch + 1}")
            self.epoch += 1
            self.ledger.operation()
        except (EdgeError, OSError, asyncio.IncompleteReadError) as exc:
            self.ledger.fail(f"delta {self.epoch + 1}: {exc!r}"[:300], question=False)

    async def health(self) -> dict:
        status, body = await self.http.request("GET", "/healthz")
        _expect(status, body, 200, "healthz")
        return body


def _write_collection(plan: Plan, path: Path) -> None:
    named = dict(zip(plan.collection.names, plan.collection.sets))
    path.write_text(json.dumps({"sets": named}))


def _sample_cpu(pids: list[int], threads: bool) -> dict:
    return {
        pid: (procstat.process_cpu_s(pid), procstat.thread_cpu_s(pid) if threads else {})
        for pid in pids
    }


def _merge_traces(trace_dir: Path) -> tuple[dict, dict[int, set], int]:
    """Concatenate every dump's spans on this process's perf_counter clock."""
    offset_here = time.monotonic() - now()
    logs = {kind: {"start": [], "dur": [], "self": [],
                   "extras": {name: [] for name in (*extras, "proc")}}
            for kind, extras in trace.KINDS.items()}
    flush_tids: dict[int, set] = {}
    high_watermark = 0
    for proc, path in enumerate(sorted(trace_dir.glob("trace-*.json"))):
        dump = json.loads(path.read_text())
        shift = dump["clock_offset"] - offset_here
        flush_tids[dump["pid"]] = set(dump["flush_tids"])
        high_watermark = max(high_watermark, dump.get("queued_high_watermark", 0))
        for kind, log in dump["kinds"].items():
            merged = logs[kind]
            merged["start"].extend(s + shift for s in log["start"])
            merged["dur"].extend(log["dur"])
            merged["self"].extend(log["self"])
            for name, column in log["extras"].items():
                merged["extras"][name].extend(column)
            merged["extras"]["proc"].extend([float(proc)] * len(log["dur"]))
    return logs, flush_tids, high_watermark


async def run_edge(plan: Plan, setups: int, traced: bool, workers: int, args) -> Phase:
    work = ROOT / ".bench_build" / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = work / "trace"
    trace_dir.mkdir(parents=True)
    collection = work / "collection.json"
    _write_collection(plan, collection)
    times: list[float] = []
    warmup_s = 0.0
    server = None
    ledger = Ledger(len(plan.sessions))
    try:
        for _ in range(setups):
            if server is not None:
                await server.stop()
            server = await Server.start(
                collection, workers, args.seed, trace_dir if traced else None
            )
            listening = time.monotonic()
            warm = LoadGenerator(server, plan, Ledger(), False)
            firsts = await asyncio.gather(
                warm.ws_session(-1, plan.warmup[0]),
                warm.http_session(-2, plan.warmup[1]),
            )
            health = await warm.health()
            await warm.http.aclose()
            if warm.ledger.errors:
                ledger.error(f"warm-up: {warm.ledger.errors[0]}")
            if None in firsts:
                raise EdgeError(f"warm-up failed: {warm.ledger.errors[:1]}")
            times.append(max(firsts) - server.stamp)
            warmup_s = max(firsts) - listening
        if health.get("backend") != "native":
            raise SystemExit(f"perfbench: server runs on {health.get('backend')!r}")
        worker_pids = [w["pid"] for w in health.get("workers", [])]
        pids = [server.proc.pid, *worker_pids]

        load = LoadGenerator(server, plan, ledger, args.wrong_user)
        block = plan.block
        n_blocks = len(plan.sessions) // block
        cpu0 = _sample_cpu(pids, traced)
        t0 = now()
        ledger.mark(t0)
        for b in range(n_blocks):
            await load.run_block(b * block, plan.sessions[b * block:(b + 1) * block])
            if b < len(plan.deltas):
                await load.apply_delta(plan.deltas[b])
        t1 = now()
        ledger.mark(t1)
        cpu1 = _sample_cpu(pids, traced)
        peak = sum(procstat.peak_rss_mb(pid) for pid in pids)
        health = await load.health()
        await load.http.aclose()
    finally:
        if server is not None:
            await server.stop()
    cpu_by_pid = {pid: cpu1[pid][0] - cpu0[pid][0] for pid in pids}
    phase = Phase(
        setups=times, warmup_s=warmup_s, ledger=ledger, wall_s=t1 - t0,
        cpu_s=sum(cpu_by_pid.values()), peak_rss_mb=peak,
    )
    if traced:
        logs, flush_tids, high_watermark = _merge_traces(trace_dir)
        thread_delta = {
            (pid, tid): cpu - cpu0[pid][1].get(tid, 0.0)
            for pid in pids for tid, cpu in cpu1[pid][1].items()
        }
        phase.logs = logs
        phase.window = (t0, t1)
        phase.threads = {
            "loop": thread_delta.get((server.proc.pid, server.proc.pid), 0.0),
            "flush": sum(
                thread_delta.get((pid, tid), 0.0)
                for pid, tids in flush_tids.items() for tid in tids
            ),
        }
        phase.extra = {
            "queued_high_watermark": high_watermark,
            "client_rtts": load.rtts,
            "edge_cpu_s": cpu_by_pid[server.proc.pid],
            "worker_cpu_s": sum(cpu_by_pid[pid] for pid in worker_pids),
            "worker_restarts": sum(w.get("restarts", 0) for w in health.get("workers", [])),
            "workers": workers,
        }
    shutil.rmtree(work, ignore_errors=True)
    return phase
