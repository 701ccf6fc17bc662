"""Tests for multi-worker session sharding (repro.serve.cluster).

Five contracts hold the cluster to the single-process engine:

* **routing** — sessions land on ``crc32(sid) % N`` and stay there
  across reconnects, so a re-attach always finds its state;
* **parity** — transcripts served by worker replicas are byte-identical
  to sequential ``DiscoverySession.run`` goldens (the same serialization
  ``tests/test_http.py`` pins for the one-process edge);
* **delta agreement** — ``apply_delta_spec`` returns only after every
  worker acked the new epoch, so replicas never diverge by more than the
  one in-flight delta;
* **failure isolation** — killing one worker turns only *its* sessions
  into ``worker_lost`` errors, leaves siblings untouched, and the
  supervisor restarts the dead worker (with delta catch-up) in place;
* **drain** — ``aclose`` reaps every child with exit code 0.

The cluster boots real ``multiprocessing`` spawn children, so these
tests exercise the actual pipe protocol, reader threads and supervisor
— not mocks.  Everything runs through ``asyncio.run`` inside sync
tests, mirroring ``tests/test_http.py``.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro.data.synthetic import SyntheticConfig, generate_collection
from repro.oracle import SimulatedUser
from repro.serve import DiscoveryApp, EmbeddedServer
from repro.serve.client import (
    HttpSessionClient,
    WorkerLostError,
)
from repro.serve.cluster import ClusterService, worker_index_for
from repro.soak.config import SoakConfig
from repro.soak.faults import build_fault_plan
from repro.soak.invariants import InvariantChecker

from test_http import (
    sequential_golden,
    serialize_payloads,
)

SYNTH = {"n_sets": 60, "size_lo": 10, "size_hi": 16, "overlap": 0.8, "seed": 7}


def make_collection():
    return generate_collection(SyntheticConfig(**SYNTH), backend="bigint")


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=180))


@asynccontextmanager
async def cluster(n_workers: int = 2, **kwargs):
    service = ClusterService(
        make_collection(),
        workers=n_workers,
        collection_spec={"synthetic": SYNTH},
        backend="bigint",
        flush_after_ms=1.0,
        **kwargs,
    )
    async with service:
        yield service


async def drive_session(service: ClusterService, target: int) -> tuple[str, dict]:
    """One full session against the cluster; returns (sid, result payload)."""
    collection = service.collection
    oracle = SimulatedUser(collection, target_index=target)
    created = await service.spawn_from_spec({"selector": "most-even"})
    sid = created["session"]
    while (entity := await service.ask(sid)) is not None:
        await service.answer(sid, oracle(entity))
    return sid, await service.result(sid)


# --------------------------------------------------------------------- #
# Routing
# --------------------------------------------------------------------- #


class TestRouting:
    def test_worker_index_is_stable_and_covers_all_workers(self):
        sids = [f"session-{i:04x}" for i in range(256)]
        for n in (1, 2, 3, 4, 7):
            first = [worker_index_for(s, n) for s in sids]
            again = [worker_index_for(s, n) for s in sids]
            assert first == again, "routing must be deterministic"
            assert all(0 <= w < n for w in first)
            if n > 1:
                assert len(set(first)) == n, (
                    f"256 ids should spread across all {n} workers"
                )

    def test_reconnect_routes_to_the_same_worker(self):
        """Half the session on one TCP connection, half on a fresh one."""
        collection = make_collection()
        target = 19
        golden = sequential_golden(collection, [target])

        async def scenario():
            async with cluster() as service:
                app = DiscoveryApp(service, require_auth=True)
                async with EmbeddedServer(app, port=0) as server:
                    oracle = SimulatedUser(collection, target_index=target)
                    first = HttpSessionClient(server.host, server.port)
                    async with first:
                        await first.create(selector="most-even")
                        entity = await first.next_question()
                        await first.send_answer(oracle(entity))
                    # a brand-new connection, same session id + token:
                    # the consistent hash must land on the owning worker
                    second = HttpSessionClient(server.host, server.port)
                    async with second:
                        second.session = first.session
                        second.token = first.token
                        while (
                            entity := await second.next_question()
                        ) is not None:
                            await second.send_answer(oracle(entity))
                        return await second.result()

        payload = run(scenario())
        assert serialize_payloads([payload]) == golden


# --------------------------------------------------------------------- #
# Parity
# --------------------------------------------------------------------- #


class TestClusterParity:
    TARGETS = [0, 7, 19, 33, 41, 52]

    def test_sharded_sessions_match_sequential_golden(self):
        collection = make_collection()
        golden = sequential_golden(collection, self.TARGETS)

        async def scenario():
            async with cluster() as service:
                sids, payloads = [], []
                for target in self.TARGETS:
                    sid, payload = await drive_session(service, target)
                    sids.append(sid)
                    payloads.append(payload)
                owners = {worker_index_for(s, service.n_workers) for s in sids}
                return payloads, owners

        payloads, owners = run(scenario())
        assert serialize_payloads(payloads) == golden
        assert owners == {0, 1}, (
            "six sessions should have exercised both workers "
            f"(got only {owners})"
        )


# --------------------------------------------------------------------- #
# Delta fan-out
# --------------------------------------------------------------------- #


class TestDeltaFanout:
    def test_delta_acked_by_every_worker_before_returning(self):
        async def scenario():
            async with cluster() as service:
                outcome = await service.apply_delta_spec(
                    {"add": {"delta-new": ["e-1", "e-2", "e-3"]}}
                )
                health = await service.health_info()
                return outcome, health

        outcome, health = run(scenario())
        assert outcome["epoch"] == 1
        assert outcome["applied"] is True
        assert outcome["workers_acked"] == 2
        assert health["epoch"] == 1
        assert [w["epoch"] for w in health["workers"]] == [1, 1]

    def test_sessions_spawned_after_delta_see_the_new_epoch(self):
        async def scenario():
            async with cluster() as service:
                await service.apply_delta_spec(
                    {"add": {"delta-new": ["e-1", "e-2"]}}
                )
                created = await service.spawn_from_spec(
                    {"selector": "most-even"}
                )
                return created

        created = run(scenario())
        assert created["epoch"] == 1


# --------------------------------------------------------------------- #
# Worker death: 503, sibling isolation, restart
# --------------------------------------------------------------------- #


class TestWorkerDeath:
    def test_kill_maps_to_worker_lost_and_spares_siblings(self):
        collection = make_collection()

        async def scenario():
            async with cluster() as service:
                app = DiscoveryApp(service, require_auth=True)
                async with EmbeddedServer(app, port=0) as server:
                    # open sessions until both workers own at least one
                    clients: dict[int, HttpSessionClient] = {}
                    while len(clients) < 2:
                        client = HttpSessionClient(server.host, server.port)
                        await client.conn.connect()
                        await client.create(selector="most-even")
                        owner = worker_index_for(client.session, 2)
                        if owner in clients:
                            await client.conn.aclose()
                        else:
                            clients[owner] = client
                    victim, sibling = clients[0], clients[1]

                    os.kill(service.workers[0].proc.pid, signal.SIGKILL)
                    # the victim's next poll must be a 503 worker_lost
                    # (never a hang, never a 500)
                    lost = None
                    try:
                        for _ in range(50):
                            await victim.next_question()
                            await asyncio.sleep(0.05)
                    except WorkerLostError as exc:
                        lost = exc
                    assert lost is not None, "expected a worker_lost error"

                    # the sibling's session is undisturbed end to end
                    oracle = SimulatedUser(
                        collection,
                        target_index=int(sibling.session[:4], 16)
                        % collection.n_sets,
                    )
                    while (
                        entity := await sibling.next_question()
                    ) is not None:
                        await sibling.send_answer(oracle(entity))
                    await sibling.result()

                    # the supervisor restarts worker 0 in place
                    deadline = time.monotonic() + 60
                    while time.monotonic() < deadline:
                        health = await service.health_info()
                        mine = health["workers"][0]
                        if mine["up"] and mine["restarts"] == 1:
                            break
                        await asyncio.sleep(0.1)
                    else:
                        raise AssertionError(
                            f"worker 0 never came back: {health}"
                        )
                    assert health["workers"][1]["restarts"] == 0

                    # and fresh sessions on the restarted worker work
                    _, payload = await drive_session(service, target=7)
                    assert payload["n_questions"] > 0

                    await victim.conn.aclose()
                    await sibling.conn.aclose()

        run(scenario())

    def test_restarted_worker_catches_up_missed_deltas(self):
        async def scenario():
            async with cluster() as service:
                await service.apply_delta_spec(
                    {"add": {"delta-one": ["x-1", "x-2"]}}
                )
                os.kill(service.workers[1].proc.pid, signal.SIGKILL)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    health = await service.health_info()
                    mine = health["workers"][1]
                    if mine["up"] and mine["restarts"] == 1:
                        return health
                    await asyncio.sleep(0.1)
                raise AssertionError(f"worker 1 never came back: {health}")

        health = run(scenario())
        # the replayed delta chain brings the fresh replica to epoch 1
        assert [w["epoch"] for w in health["workers"]] == [1, 1]


# --------------------------------------------------------------------- #
# Drain
# --------------------------------------------------------------------- #


class TestDrain:
    def test_aclose_reaps_every_child(self):
        async def scenario():
            service = ClusterService(
                make_collection(),
                workers=2,
                collection_spec={"synthetic": SYNTH},
                backend="bigint",
            )
            async with service:
                _, payload = await drive_session(service, target=3)
                assert payload["resolved"] is True
                procs = [h.proc for h in service.workers]
            return [p.exitcode for p in procs]

        exitcodes = run(scenario())
        assert exitcodes == [0, 0], (
            f"drained workers must exit cleanly, got {exitcodes}"
        )

    def test_draining_cluster_refuses_new_sessions(self):
        async def scenario():
            async with cluster() as service:
                service.begin_drain()
                assert service.accepting is False
                try:
                    await service.spawn_from_spec({"selector": "most-even"})
                except Exception as exc:
                    return type(exc).__name__
                return None

        assert run(scenario()) is not None


# --------------------------------------------------------------------- #
# Metrics aggregation
# --------------------------------------------------------------------- #


class TestClusterMetrics:
    def test_prometheus_gains_per_worker_families(self):
        async def scenario():
            async with cluster() as service:
                await drive_session(service, target=11)
                return await service.metrics.arender_prometheus()

        text = run(scenario())
        assert "repro_cluster_workers 2" in text
        assert 'repro_worker_up{worker="0"} 1' in text
        assert 'repro_worker_up{worker="1"} 1' in text
        assert 'repro_worker_epoch{worker="0"} 0' in text
        assert 'repro_worker_restarts_total{worker="0"} 0' in text
        # the single-process families survive aggregation unchanged
        assert "repro_selections_total" in text
        assert "repro_collection_epoch 0" in text
        assert 'repro_sessions{phase="finished"} 1' in text


# --------------------------------------------------------------------- #
# Every served topology answers the wire goldens and drains cleanly
# --------------------------------------------------------------------- #


_READY = re.compile(r"^serving on http://([\d.]+):(\d+)$")


class TestServedEdgeGolden:
    TARGETS = [0, 7, 19, 33, 41, 52]

    @pytest.mark.parametrize(
        "topology",
        [
            pytest.param(["--workers", "0"], id="workers0"),
            pytest.param(["--workers", "2"], id="workers2"),
            pytest.param(
                ["--uvicorn"],
                id="uvicorn",
                marks=pytest.mark.skipif(
                    importlib.util.find_spec("uvicorn") is None,
                    reason="uvicorn is not installed (the http extra)",
                ),
            ),
        ],
    )
    def test_cli_wire_transcripts_and_sigterm_drain(self, topology):
        """A ``repro serve`` child answers the sequential goldens over HTTP
        long-poll, then drains on SIGTERM and exits 0."""
        collection = make_collection()
        golden = sequential_golden(collection, self.TARGETS)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                *topology,
                "--backend",
                "bigint",
                "--n-sets",
                str(SYNTH["n_sets"]),
                "--size-lo",
                str(SYNTH["size_lo"]),
                "--size-hi",
                str(SYNTH["size_hi"]),
                "--overlap",
                str(SYNTH["overlap"]),
                "--seed",
                str(SYNTH["seed"]),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        # readline() cannot time out: a child that never prints its
        # readiness line is killed instead of hanging the suite.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            assert proc.stdout is not None
            while not (match := _READY.match(proc.stdout.readline().strip())):
                assert proc.poll() is None, "server exited before it was ready"
            watchdog.cancel()
            host, port = match.group(1), int(match.group(2))

            async def over_wire():
                async def one(target):
                    oracle = SimulatedUser(collection, target_index=target)
                    async with HttpSessionClient(host, port) as client:
                        await client.create(selector="most-even")
                        return await client.run(oracle)

                return await asyncio.gather(
                    *(one(t) for t in self.TARGETS)
                )

            payloads = run(over_wire())
            assert serialize_payloads(payloads) == golden
        finally:
            watchdog.cancel()
            proc.send_signal(signal.SIGTERM)
            try:
                output, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                output, _ = proc.communicate()
        assert proc.returncode == 0, output


# --------------------------------------------------------------------- #
# Soak plumbing for the cluster (pure, no processes)
# --------------------------------------------------------------------- #


class TestSoakClusterPlumbing:
    def test_worker_kill_fault_needs_enough_workers(self):
        with pytest.raises(ValueError, match="workers >= 2"):
            SoakConfig(faults=("worker-kill",), workers=1)
        with pytest.raises(ValueError, match="server"):
            SoakConfig(mode="inprocess", workers=2)
        cfg = SoakConfig(faults=("worker-kill",), workers=2)
        assert cfg.workers == 2

    def test_fault_plan_round_robins_victims(self):
        cfg = SoakConfig(
            seed=42,
            duration_s=120,
            faults=("worker-kill",),
            workers=3,
        )
        kills = [
            e for e in build_fault_plan(cfg) if e.kind == "worker-kill"
        ]
        assert len(kills) == 6
        assert [e.size for e in kills] == [0, 1, 2, 0, 1, 2]
        assert all(0 < e.at < cfg.duration_s for e in kills)

    def test_replica_divergence_invariant(self):
        checker = InvariantChecker(epoch_cap=4, rss_limit_mb_s=1.0)
        # mid-run: one in-flight delta apart is fine
        checker.check_worker_epochs(
            {"0": 3, "1": 4}, 4, quiesced=False
        )
        assert checker.ok
        # mid-run: a two-epoch spread is divergence
        checker.check_worker_epochs(
            {"0": 2, "1": 4}, 4, quiesced=False
        )
        assert not checker.ok
        assert checker.violations[0].name == "replica_divergence"

        quiet = InvariantChecker(epoch_cap=4, rss_limit_mb_s=1.0)
        # quiesced: everyone must sit exactly at the edge epoch
        quiet.check_worker_epochs({"0": 4, "1": 4}, 4, quiesced=True)
        assert quiet.ok
        quiet.check_worker_epochs({"0": 3, "1": 4}, 4, quiesced=True)
        assert not quiet.ok
        # no workers scraped (e.g. --workers 0) is never a violation
        empty = InvariantChecker(epoch_cap=4, rss_limit_mb_s=1.0)
        empty.check_worker_epochs({}, 9, quiesced=True)
        assert empty.ok
